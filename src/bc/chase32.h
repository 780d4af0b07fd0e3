// FP32 spellings of the bulge chase and its Q2 application, kept for the
// benchmark's mixed-precision replay (perfbench/src/evd_workloads.cc).
// Each forwards onto a generic stage: the pipelined chase (here on the
// dense layout the replay reads back, bitwise identical to the packed
// chase the mixed-precision engine runs) and the blocked Q2 application.
#pragma once

#include "backtransform/apply_q2_blocked.h"
#include "bc/bulge_chase_parallel.h"
#include "la/matrix32.h"

namespace tdg::bc {

using ChaseLog32 = ChaseLogT<float>;

inline void chase_dense_f(MatrixViewF a, index_t b, ChaseLog32* log) {
  chase_dense_parallel(a, b, {}, log);
}

inline void apply_q2_left_f(const ChaseLog32& log, MatrixViewF c) {
  bt::apply_q2_left_blocked(log, c);
}

}  // namespace tdg::bc
