#include "band/sym_band.h"

#include <algorithm>
#include <cmath>

namespace tdg {

template <class T>
SymBandMatrixT<T>::SymBandMatrixT(index_t n, index_t kd)
    : n_(n), kd_(kd), data_(static_cast<std::size_t>(n) * (kd + 1), T(0)) {
  TDG_CHECK(n >= 0 && kd >= 0 && kd < std::max<index_t>(n, 1),
            "SymBandMatrix: need 0 <= kd < n");
}

template <class T>
T SymBandMatrixT<T>::sym_at(index_t i, index_t j) const {
  if (i < j) std::swap(i, j);
  if (i - j > kd_) return T(0);
  return at(i, j);
}

template <class T>
MatrixT<T> SymBandMatrixT<T>::to_dense() const {
  MatrixT<T> a(n_, n_);
  for (index_t j = 0; j < n_; ++j) {
    const index_t imax = std::min(n_ - 1, j + kd_);
    for (index_t i = j; i <= imax; ++i) {
      a(i, j) = at(i, j);
      a(j, i) = at(i, j);
    }
  }
  return a;
}

template <class T>
SymBandMatrixT<T> extract_band(std::type_identity_t<ConstMatrixViewT<T>> a,
                               index_t b, index_t kd) {
  TDG_CHECK(a.rows == a.cols, "extract_band: matrix must be square");
  TDG_CHECK(kd >= b, "extract_band: storage bandwidth must cover b");
  const index_t n = a.rows;
  SymBandMatrixT<T> band(n, kd);
  for (index_t j = 0; j < n; ++j) {
    const index_t imax = std::min(n - 1, j + b);
    for (index_t i = j; i <= imax; ++i) band.at(i, j) = a(i, j);
  }
  return band;
}

template class SymBandMatrixT<double>;
template class SymBandMatrixT<float>;
template SymBandMatrix extract_band<double>(ConstMatrixView, index_t, index_t);
template SymBandMatrixT<float> extract_band<float>(ConstMatrixViewT<float>,
                                                   index_t, index_t);

double off_band_max(ConstMatrixView a, index_t b) {
  double m = 0.0;
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t i = j + b + 1; i < a.rows; ++i) {
      m = std::max(m, std::abs(a(i, j)));
    }
  }
  return m;
}

double off_band_max(const SymBandMatrix& a, index_t b) {
  double m = 0.0;
  for (index_t j = 0; j < a.n(); ++j) {
    const index_t imax = std::min(a.n() - 1, j + a.kd());
    for (index_t i = j + b + 1; i <= imax; ++i) {
      m = std::max(m, std::abs(a.at(i, j)));
    }
  }
  return m;
}

}  // namespace tdg
