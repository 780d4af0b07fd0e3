#include <cmath>

#include "la/blas.h"

namespace tdg::la {

template <class T>
T dot(index_t n, const T* x, std::type_identity_t<const T*> y) {
  T s = T(0);
  for (index_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

template <class T>
void axpy(index_t n, std::type_identity_t<T> alpha,
          std::type_identity_t<const T*> x, T* y) {
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <class T>
void scal(index_t n, std::type_identity_t<T> alpha, T* x) {
  for (index_t i = 0; i < n; ++i) x[i] *= alpha;
}

template <class T>
T nrm2(index_t n, const T* x) {
  // Two-pass scaled norm: overflow/underflow safe like reference dnrm2.
  // Computed in double for every T. In float, the rounding of the shared
  // reciprocal put one common relative error of up to eps_fp32 / 2 into
  // every Householder norm, and the mixed-precision engine's refined
  // eigenvectors lost orthogonality for it.
  double amax = 0.0;
  for (index_t i = 0; i < n; ++i) {
    amax = std::max(amax, std::abs(static_cast<double>(x[i])));
  }
  if (amax == 0.0 || !std::isfinite(amax)) return static_cast<T>(amax);
  double s = 0.0;
  const double inv = 1.0 / amax;
  for (index_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(x[i]) * inv;
    s += t * t;
  }
  return static_cast<T>(amax * std::sqrt(s));
}

#define TDG_INSTANTIATE_BLAS1(T)                          \
  template T dot<T>(index_t, const T*, const T*);        \
  template void axpy<T>(index_t, T, const T*, T*);       \
  template void scal<T>(index_t, T, T*);                 \
  template T nrm2<T>(index_t, const T*);
TDG_INSTANTIATE_BLAS1(double)
TDG_INSTANTIATE_BLAS1(float)
#undef TDG_INSTANTIATE_BLAS1

}  // namespace tdg::la
