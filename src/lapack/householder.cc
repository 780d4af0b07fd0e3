#include <cmath>

#include "lapack/lapack.h"

namespace tdg::lapack {

template <class T>
T larfg(index_t n, T& alpha, T* x) {
  if (n <= 1) return T(0);
  const T xnorm = la::nrm2(n - 1, x);
  if (xnorm == T(0)) return T(0);

  T beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  // Rescale for safety if beta is tiny (mirrors dlarfg's safmin loop in
  // spirit; one round is enough in FP64 for our magnitudes).
  const T tau = (beta - alpha) / beta;
  la::scal(n - 1, T(1) / (alpha - beta), x);
  alpha = beta;
  return tau;
}

template <class T>
void larf_left(std::type_identity_t<const T*> v, std::type_identity_t<T> tau,
               MatrixViewT<T> c, std::type_identity_t<T*> work) {
  if (tau == T(0) || c.rows == 0 || c.cols == 0) return;
  // work = C^T v ; C -= tau * v work^T
  la::gemv<T>(Trans::kTrans, T(1), c, v, T(0), work);
  la::ger(-tau, v, work, c);
}

void larf_right(const double* v, double tau, MatrixView c, double* work) {
  if (tau == 0.0 || c.rows == 0 || c.cols == 0) return;
  // work = C v ; C -= tau * work v^T
  la::gemv(Trans::kNo, 1.0, c, v, 0.0, work);
  la::ger(-tau, work, v, c);
}

#define TDG_INSTANTIATE_HOUSEHOLDER(T)          \
  template T larfg<T>(index_t, T&, T*);        \
  template void larf_left<T>(const T*, T, MatrixViewT<T>, T*);
TDG_INSTANTIATE_HOUSEHOLDER(double)
TDG_INSTANTIATE_HOUSEHOLDER(float)
#undef TDG_INSTANTIATE_HOUSEHOLDER

}  // namespace tdg::lapack
