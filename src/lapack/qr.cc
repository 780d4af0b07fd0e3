#include <algorithm>
#include <vector>

#include "lapack/lapack.h"

namespace tdg::lapack {

template <class T>
void geqr2(MatrixViewT<T> a, std::type_identity_t<std::vector<T>>& taus) {
  const index_t m = a.rows;
  const index_t n = a.cols;
  const index_t k = std::min(m, n);
  taus.assign(static_cast<std::size_t>(n), T(0));
  std::vector<T> v(static_cast<std::size_t>(m));
  std::vector<T> work(static_cast<std::size_t>(n));

  for (index_t j = 0; j < k; ++j) {
    T alpha = a(j, j);
    const T tau = larfg(m - j, alpha, &a(j, j) + 1);
    taus[static_cast<std::size_t>(j)] = tau;
    if (tau != T(0) && j + 1 < n) {
      // Explicit v = [1; a(j+1:m, j)] applied to the trailing columns.
      v[0] = T(1);
      for (index_t i = 1; i < m - j; ++i)
        v[static_cast<std::size_t>(i)] = a(j + i, j);
      larf_left(v.data(), tau, a.block(j, j + 1, m - j, n - j - 1),
                work.data());
    }
    a(j, j) = alpha;
  }
}

template <class T>
void larft(std::type_identity_t<ConstMatrixViewT<T>> v,
           const std::type_identity_t<std::vector<T>>& taus, MatrixViewT<T> t) {
  const index_t k = v.cols;
  TDG_CHECK(t.rows == k && t.cols == k, "larft: T must be k x k");
  fill(t, T(0));
  std::vector<T> w(static_cast<std::size_t>(k));
  for (index_t i = 0; i < k; ++i) {
    const T tau = taus[static_cast<std::size_t>(i)];
    if (tau == T(0)) {
      t(i, i) = T(0);
      continue;
    }
    // w = -tau * V(:, 0:i)^T v_i ; T(0:i, i) = T(0:i, 0:i) * w
    for (index_t c = 0; c < i; ++c) {
      w[static_cast<std::size_t>(c)] =
          -tau * la::dot(v.rows, v.col(c), v.col(i));
    }
    for (index_t r = 0; r < i; ++r) {
      T s = T(0);
      for (index_t c = r; c < i; ++c) {
        s += t(r, c) * w[static_cast<std::size_t>(c)];
      }
      t(r, i) = s;
    }
    t(i, i) = tau;
  }
}

template <class T>
WyFactorT<T> panel_qr(MatrixViewT<T> a) {
  const index_t m = a.rows;
  const index_t k = a.cols;
  TDG_CHECK(m >= k, "panel_qr: panel must be tall (m >= n)");
  std::vector<T> taus;
  geqr2(a, taus);

  WyFactorT<T> f;
  f.v = MatrixT<T>(m, k);
  for (index_t j = 0; j < k; ++j) {
    f.v(j, j) = T(1);
    for (index_t i = j + 1; i < m; ++i) f.v(i, j) = a(i, j);
  }
  f.t = MatrixT<T>(k, k);
  larft(f.v.view(), taus, f.t.view());
  return f;
}

template <class T>
void apply_block_reflector_left(std::type_identity_t<ConstMatrixViewT<T>> v,
                                std::type_identity_t<ConstMatrixViewT<T>> t,
                                Trans op, MatrixViewT<T> c) {
  TDG_CHECK(v.rows == c.rows, "apply_block_reflector_left: row mismatch");
  const index_t k = v.cols;
  if (k == 0 || c.cols == 0) return;
  // (I - V T V^T)^T C = C - V T^T (V^T C)
  // (I - V T V^T)   C = C - V T   (V^T C)
  MatrixT<T> w(k, c.cols);
  la::gemm(Trans::kTrans, Trans::kNo, 1.0, v, c, 0.0, w.view());
  MatrixT<T> tw(k, c.cols);
  la::gemm(op == Trans::kNo ? Trans::kNo : Trans::kTrans, Trans::kNo, 1.0, t,
           w.view(), 0.0, tw.view());
  la::gemm(Trans::kNo, Trans::kNo, -1.0, v, tw.view(), 1.0, c);
}

void apply_block_reflector_right(ConstMatrixView v, ConstMatrixView t,
                                 Trans op, MatrixView c) {
  TDG_CHECK(v.rows == c.cols, "apply_block_reflector_right: col mismatch");
  const index_t k = v.cols;
  if (k == 0 || c.rows == 0) return;
  // C (I - V T V^T)   = C - (C V) T   V^T
  // C (I - V T V^T)^T = C - (C V) T^T V^T
  Matrix w(c.rows, k);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, c, v, 0.0, w.view());
  Matrix wt(c.rows, k);
  la::gemm(Trans::kNo, op == Trans::kNo ? Trans::kNo : Trans::kTrans, 1.0,
           w.view(), t, 0.0, wt.view());
  la::gemm(Trans::kNo, Trans::kTrans, -1.0, wt.view(), v, 1.0, c);
}

#define TDG_INSTANTIATE_QR(T)                                                \
  template void geqr2<T>(MatrixViewT<T>, std::vector<T>&);                  \
  template void larft<T>(ConstMatrixViewT<T>, const std::vector<T>&,        \
                         MatrixViewT<T>);                                   \
  template WyFactorT<T> panel_qr<T>(MatrixViewT<T>);                        \
  template void apply_block_reflector_left<T>(                              \
      ConstMatrixViewT<T>, ConstMatrixViewT<T>, Trans, MatrixViewT<T>);
TDG_INSTANTIATE_QR(double)
TDG_INSTANTIATE_QR(float)
#undef TDG_INSTANTIATE_QR

}  // namespace tdg::lapack
