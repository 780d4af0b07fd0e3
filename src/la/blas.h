// From-scratch BLAS subset (column-major) used by every algorithm in the
// library. This is the substrate standing in for cuBLAS: the algorithms
// above it call these kernels with exactly the shapes they would submit to a
// GPU, and each call is recorded in the active trace (common/trace.h).
//
// Every kernel is a template on the scalar type T, instantiated for double
// (the library's precision) and float (the mixed-precision engine), and
// deduces T from its output argument only (see la/matrix.h).
#pragma once

#include <type_traits>

#include "la/matrix.h"

namespace tdg {

enum class Trans { kNo, kTrans };

namespace la {

// ----- BLAS 1 (contiguous vectors) -----

/// sum_i x[i] * y[i]
template <class T>
T dot(index_t n, const T* x, std::type_identity_t<const T*> y);

/// y += alpha * x
template <class T>
void axpy(index_t n, std::type_identity_t<T> alpha,
          std::type_identity_t<const T*> x, T* y);

/// x *= alpha
template <class T>
void scal(index_t n, std::type_identity_t<T> alpha, T* x);

/// Euclidean norm with overflow-safe scaling.
template <class T>
T nrm2(index_t n, const T* x);

// ----- BLAS 2 -----

/// y = alpha * op(A) x + beta * y
template <class T>
void gemv(Trans ta, std::type_identity_t<T> alpha,
          std::type_identity_t<ConstMatrixViewT<T>> a,
          std::type_identity_t<const T*> x, std::type_identity_t<T> beta,
          T* y);

/// A += alpha * x y^T
template <class T>
void ger(std::type_identity_t<T> alpha, std::type_identity_t<const T*> x,
         std::type_identity_t<const T*> y, MatrixViewT<T> a);

/// y = alpha * A x + beta * y, A symmetric with data in the lower triangle.
template <class T>
void symv_lower(std::type_identity_t<T> alpha,
                std::type_identity_t<ConstMatrixViewT<T>> a,
                std::type_identity_t<const T*> x,
                std::type_identity_t<T> beta, T* y);

/// A += alpha * (x y^T + y x^T), lower triangle only.
template <class T>
void syr2_lower(std::type_identity_t<T> alpha,
                std::type_identity_t<const T*> x,
                std::type_identity_t<const T*> y, MatrixViewT<T> a);

// ----- BLAS 3 -----

/// C = alpha * op(A) op(B) + beta * C
template <class T>
void gemm(Trans ta, Trans tb, std::type_identity_t<T> alpha,
          std::type_identity_t<ConstMatrixViewT<T>> a,
          std::type_identity_t<ConstMatrixViewT<T>> b,
          std::type_identity_t<T> beta, MatrixViewT<T> c);

/// C = alpha * (A B^T + B A^T) + beta * C, lower triangle of C only.
/// Reference column-sweep implementation (the "cuBLAS syr2k" stand-in).
template <class T>
void syr2k_lower(std::type_identity_t<T> alpha,
                 std::type_identity_t<ConstMatrixViewT<T>> a,
                 std::type_identity_t<ConstMatrixViewT<T>> b,
                 std::type_identity_t<T> beta, MatrixViewT<T> c);

/// C(m x w) = alpha * A B + beta * C with A (m x m) symmetric, data in the
/// lower triangle only. Recorded in the trace as an m x w x m GEMM — on a
/// GPU a symm runs the same flops and tiles as the equivalent gemm.
template <class T>
void symm_lower(std::type_identity_t<T> alpha,
                std::type_identity_t<ConstMatrixViewT<T>> a,
                std::type_identity_t<ConstMatrixViewT<T>> b,
                std::type_identity_t<T> beta, MatrixViewT<T> c);

/// Same contract as syr2k_lower, but computed with the paper's Fig.-7
/// schedule: the lower triangle is tiled into square blocks which are
/// processed by anti-diagonal ("iteration 1: diagonal blocks, iteration 2:
/// first off-diagonal blocks, ..."), each block a square GEMM. All blocks
/// within one iteration are independent and are dispatched to the thread
/// pool (the CPU realization of the paper's streamed schedule).
/// `block` is the square tile size (0 = pick a default).
template <class T>
void syr2k_lower_square(std::type_identity_t<T> alpha,
                        std::type_identity_t<ConstMatrixViewT<T>> a,
                        std::type_identity_t<ConstMatrixViewT<T>> b,
                        std::type_identity_t<T> beta, MatrixViewT<T> c,
                        index_t block = 0);

/// Effective square tile size the Fig.-7 schedule uses for an n x n update
/// when the caller passed `block` (0 = default). Exposed so DAG schedulers
/// (src/common/task_graph.h users) can build the exact same tile grid the
/// barrier path iterates — the tile grid is part of the bitwise contract.
index_t syr2k_square_block_size(index_t n, index_t block);

namespace detail {

// Untraced kernel entry points for schedulers that dispatch blocks onto the
// thread pool. Pool workers carry no trace recorder (common/trace.h is
// thread-local), so the scheduler records the per-block ops on its own
// thread and routes the arithmetic through these. Shapes must already be
// validated by the caller.
template <class T>
void gemm_notrace(Trans ta, Trans tb, std::type_identity_t<T> alpha,
                  std::type_identity_t<ConstMatrixViewT<T>> a,
                  std::type_identity_t<ConstMatrixViewT<T>> b,
                  std::type_identity_t<T> beta, MatrixViewT<T> c);
template <class T>
void syr2k_lower_notrace(std::type_identity_t<T> alpha,
                         std::type_identity_t<ConstMatrixViewT<T>> a,
                         std::type_identity_t<ConstMatrixViewT<T>> b,
                         std::type_identity_t<T> beta, MatrixViewT<T> c);

/// One tile (bi, bj), bi >= bj, of the square-block syr2k schedule over the
/// full lower-triangle update C += alpha (A B^T + B A^T): the diagonal tile
/// is a lower-triangle syr2k, an off-diagonal tile two square GEMMs.
/// Untraced — schedulers record the shape on the dispatching thread. All
/// tiles write disjoint regions of C, so any execution order (or none of
/// the barrier structure) gives bitwise-identical results.
template <class T>
void syr2k_square_tile(std::type_identity_t<T> alpha,
                       std::type_identity_t<ConstMatrixViewT<T>> a,
                       std::type_identity_t<ConstMatrixViewT<T>> b,
                       std::type_identity_t<T> beta, MatrixViewT<T> c,
                       index_t block, index_t bi, index_t bj);

}  // namespace detail

}  // namespace la
}  // namespace tdg
