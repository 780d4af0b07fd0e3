// FP32 spellings of the la/matrix.h templates, kept for the benchmark's
// mixed-precision replay (perfbench/src/evd_workloads.cc). Library code
// uses MatrixT<float> and converted<T>() directly.
#pragma once

#include "la/matrix.h"

namespace tdg {

using ConstMatrixViewF = ConstMatrixViewT<float>;
using MatrixViewF = MatrixViewT<float>;
using MatrixF = MatrixT<float>;

inline MatrixF to_fp32(ConstMatrixView a) { return converted<float>(a); }
inline Matrix to_fp64(ConstMatrixViewF a) { return converted<double>(a); }

}  // namespace tdg
