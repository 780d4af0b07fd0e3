// FP32 BLAS subset backing the mixed-precision EVD engine.
//
// The same determinism contract as the FP64 engine in blas3.cc —
// pool-parallel block grids whose shapes never depend on the thread count —
// in float, which doubles the SIMD width and halves the memory traffic (the
// whole point of the FP32 compute stage). The kernels are the FP64
// engine's earlier design: column-major packed K-panels with one barrier
// per slab, the 8-column micro-kernel, and a column-block symm.
//
// Untraced: the op trace (common/trace.h) records the canonical FP64
// pipeline only; the float engine is reached exclusively through
// EvdOptions mode kMixedPrecision, which the trace-replay tooling does not
// cover.
#pragma once

#include "la/blas.h"
#include "la/matrix32.h"

namespace tdg::la {

// ----- BLAS 1 -----

float dot_f(index_t n, const float* x, const float* y);
void scal_f(index_t n, float alpha, float* x);
/// Euclidean norm with overflow-safe scaling (accumulates in float).
float nrm2_f(index_t n, const float* x);

// ----- BLAS 3 -----

/// C = alpha * op(A) op(B) + beta * C.
void gemm_f(Trans ta, Trans tb, float alpha, ConstMatrixViewF a,
            ConstMatrixViewF b, float beta, MatrixViewF c);

/// C = alpha * (A B^T + B A^T) + beta * C, lower triangle of C only.
void syr2k_lower_f(float alpha, ConstMatrixViewF a, ConstMatrixViewF b,
                   float beta, MatrixViewF c);

/// C(m x w) = alpha * A B + beta * C, A symmetric with data in the lower
/// triangle only.
void symm_lower_f(float alpha, ConstMatrixViewF a, ConstMatrixViewF b,
                  float beta, MatrixViewF c);

}  // namespace tdg::la
