// Application of the orthogonal factor accumulated by sytd2/sytrd.

#include <vector>

#include "lapack/lapack.h"

namespace tdg::lapack {

template <class T>
void apply_sytrd_q_left(std::type_identity_t<ConstMatrixViewT<T>> a,
                        const std::type_identity_t<std::vector<T>>& taus,
                        MatrixViewT<T> c) {
  const index_t n = a.rows;
  TDG_CHECK(a.rows == a.cols, "apply_sytrd_q_left: A must be square");
  TDG_CHECK(c.rows == n, "apply_sytrd_q_left: C row mismatch");

  std::vector<T> v(static_cast<std::size_t>(n));
  std::vector<T> work(static_cast<std::size_t>(c.cols));

  // Q = H_0 H_1 ... H_{n-3}; Q*C applies H_i in reverse order. H_i acts on
  // rows i+1 .. n-1 with v = [1; A(i+2:n, i)].
  for (index_t i = n - 3; i >= 0; --i) {
    const T tau = taus[static_cast<std::size_t>(i)];
    if (tau == T(0)) continue;
    const index_t len = n - i - 1;
    v[0] = T(1);
    for (index_t r = 1; r < len; ++r)
      v[static_cast<std::size_t>(r)] = a(i + 1 + r, i);
    larf_left(v.data(), tau, c.block(i + 1, 0, len, c.cols), work.data());
  }
}

template void apply_sytrd_q_left<double>(ConstMatrixView,
                                         const std::vector<double>&,
                                         MatrixView);
template void apply_sytrd_q_left<float>(ConstMatrixViewT<float>,
                                        const std::vector<float>&,
                                        MatrixViewT<float>);

}  // namespace tdg::lapack
