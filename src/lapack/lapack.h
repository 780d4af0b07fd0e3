// LAPACK-style building blocks implemented from scratch: Householder
// reflector generation, compact-WY blocked QR, block-reflector application,
// and the direct (one-stage) blocked tridiagonalization that serves as the
// cuSOLVER `sytrd` baseline in the paper's comparisons.
//
// The pieces the band reduction and the back transformations use are
// templates on the scalar type (see la/blas.h); the one-stage sytrd
// baseline is FP64 only.
//
// Reflector convention (LAPACK): H = I - tau * v v^T with v(0) = 1.
#pragma once

#include <type_traits>
#include <vector>

#include "la/blas.h"
#include "la/matrix.h"

namespace tdg::lapack {

/// Generate a Householder reflector for the vector [alpha; x] (x has length
/// n-1): on return H * [alpha; x] = [beta; 0], alpha holds beta, x holds the
/// tail of v (v(0) = 1 implicit). Returns tau (0 when already collinear).
template <class T>
T larfg(index_t n, T& alpha, T* x);

/// Apply H = I - tau v v^T from the left to C (v has length C.rows, v(0)
/// need not be 1 — the caller passes the full explicit vector).
/// work must have C.cols entries.
template <class T>
void larf_left(std::type_identity_t<const T*> v, std::type_identity_t<T> tau,
               MatrixViewT<T> c, std::type_identity_t<T*> work);

/// Apply H from the right to C (v has length C.cols). work: C.rows entries.
void larf_right(const double* v, double tau, MatrixView c, double* work);

/// Unblocked QR of A (m x n, m >= n): R in the upper triangle, Householder
/// vectors below the diagonal, taus filled (size n).
template <class T>
void geqr2(MatrixViewT<T> a, std::type_identity_t<std::vector<T>>& taus);

/// Form the upper-triangular block-reflector factor T (k x k) from the
/// unit-lower-trapezoidal V (m x k) and taus, such that
/// H_0 H_1 ... H_{k-1} = I - V T V^T (forward, column-wise storage).
template <class T>
void larft(std::type_identity_t<ConstMatrixViewT<T>> v,
           const std::type_identity_t<std::vector<T>>& taus, MatrixViewT<T> t);

/// Compact-WY panel factorisation: QR-factorise `a` (m x n), then return
/// V (m x n, explicit: unit diagonal, zeros above) and T (n x n upper) with
/// Q = I - V T V^T. R overwrites the upper triangle of `a`.
template <class T>
struct WyFactorT {
  MatrixT<T> v;  // m x k, explicit columns of V
  MatrixT<T> t;  // k x k upper-triangular block factor
};
using WyFactor = WyFactorT<double>;
template <class T>
WyFactorT<T> panel_qr(MatrixViewT<T> a);

/// C <- (I - V T V^T)^op * C (left application of a compact-WY reflector).
template <class T>
void apply_block_reflector_left(std::type_identity_t<ConstMatrixViewT<T>> v,
                                std::type_identity_t<ConstMatrixViewT<T>> t,
                                Trans op, MatrixViewT<T> c);

/// C <- C * (I - V T V^T)^op (right application).
void apply_block_reflector_right(ConstMatrixView v, ConstMatrixView t,
                                 Trans op, MatrixView c);

/// Unblocked lower tridiagonalization (LAPACK sytd2): A (n x n, lower) is
/// reduced to tridiagonal T by similarity; d/e receive the diagonal and
/// sub-diagonal; Householder vectors remain in A's lower triangle, taus
/// (size n-1, last entries zero as in LAPACK) returned via `taus`.
void sytd2(MatrixView a, std::vector<double>& d, std::vector<double>& e,
           std::vector<double>& taus);

/// Blocked lower tridiagonalization (LAPACK sytrd = latrd panels + syr2k
/// trailing updates). Same outputs as sytd2. `nb` is the panel width.
/// This is the direct one-stage algorithm cuSOLVER's sytrd implements: the
/// panel is BLAS-2 (symv) bound, the trailing update is a k = nb syr2k.
void sytrd(MatrixView a, std::vector<double>& d, std::vector<double>& e,
           std::vector<double>& taus, index_t nb = 64);

/// Apply the Q accumulated in `a` by sytd2/sytrd to C from the left:
/// C <- Q C with Q = H_0 H_1 ... H_{n-3}. Used to form eigenvectors of the
/// original matrix from eigenvectors of T.
template <class T>
void apply_sytrd_q_left(std::type_identity_t<ConstMatrixViewT<T>> a,
                        const std::type_identity_t<std::vector<T>>& taus,
                        MatrixViewT<T> c);

}  // namespace tdg::lapack
