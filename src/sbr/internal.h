// Shared internals of the band-reduction implementations.
#pragma once

#include "la/blas.h"
#include "lapack/lapack.h"

namespace tdg::sbr::detail {

/// ZY-representation update matrix from the product P = A_cur * V:
///   W = P T - (1/2) V T^T (V^T P T),
/// so that Q^T A_cur Q = A_cur - V W^T - W V^T for Q = I - V T V^T.
template <class T>
MatrixT<T> zy_w_from_av(ConstMatrixViewT<T> p, ConstMatrixViewT<T> v,
                        ConstMatrixViewT<T> t) {
  const index_t m = p.rows;
  const index_t w = p.cols;
  MatrixT<T> x(m, w);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, p, t, 0.0, x.view());  // X = P T
  MatrixT<T> mm(w, w);
  la::gemm(Trans::kTrans, Trans::kNo, 1.0, v, x.view(), 0.0, mm.view());
  MatrixT<T> s(w, w);
  la::gemm(Trans::kTrans, Trans::kNo, 1.0, t, mm.view(), 0.0, s.view());
  la::gemm(Trans::kNo, Trans::kNo, -0.5, v, s.view(), 1.0, x.view());
  return x;
}

/// Zero the sub-R part of a just-factorised panel: columns [j0, j0+w) of
/// `a`, rows strictly below the R triangle (row > j0 + b + c for local
/// column c). Those positions held Householder vectors during the panel QR.
template <class T>
void zero_below_r(MatrixViewT<T> a, index_t j0, index_t b, index_t w) {
  const index_t n = a.rows;
  for (index_t c = 0; c < w; ++c) {
    for (index_t r = j0 + b + c + 1; r < n; ++r) a(r, j0 + c) = T(0);
  }
}

}  // namespace tdg::sbr::detail
