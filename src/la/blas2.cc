#include "common/trace.h"
#include "la/blas.h"

namespace tdg::la {

template <class T>
void gemv(Trans ta, std::type_identity_t<T> alpha,
          std::type_identity_t<ConstMatrixViewT<T>> a,
          std::type_identity_t<const T*> x, std::type_identity_t<T> beta,
          T* y) {
  trace::record({trace::OpKind::kGemv, a.rows, a.cols, 0, 1});
  if (ta == Trans::kNo) {
    // y(m) = alpha * A x + beta * y — column-sweep (axpy-rich).
    if (beta != T(1)) {
      for (index_t i = 0; i < a.rows; ++i) y[i] *= beta;
    }
    for (index_t j = 0; j < a.cols; ++j) {
      const T axj = alpha * x[j];
      if (axj == T(0)) continue;
      const T* cj = a.col(j);
      for (index_t i = 0; i < a.rows; ++i) y[i] += axj * cj[i];
    }
  } else {
    // y(n) = alpha * A^T x + beta * y — dot-rich.
    for (index_t j = 0; j < a.cols; ++j) {
      const T* cj = a.col(j);
      T s = T(0);
      for (index_t i = 0; i < a.rows; ++i) s += cj[i] * x[i];
      y[j] = alpha * s + beta * y[j];
    }
  }
}

template <class T>
void ger(std::type_identity_t<T> alpha, std::type_identity_t<const T*> x,
         std::type_identity_t<const T*> y, MatrixViewT<T> a) {
  trace::record({trace::OpKind::kGer, a.rows, a.cols, 0, 1});
  for (index_t j = 0; j < a.cols; ++j) {
    const T ayj = alpha * y[j];
    if (ayj == T(0)) continue;
    T* cj = a.col(j);
    for (index_t i = 0; i < a.rows; ++i) cj[i] += ayj * x[i];
  }
}

template <class T>
void symv_lower(std::type_identity_t<T> alpha,
                std::type_identity_t<ConstMatrixViewT<T>> a,
                std::type_identity_t<const T*> x,
                std::type_identity_t<T> beta, T* y) {
  TDG_CHECK(a.rows == a.cols, "symv_lower: matrix must be square");
  trace::record({trace::OpKind::kSymv, a.rows, a.rows, 0, 1});
  const index_t n = a.rows;
  if (beta != T(1)) {
    for (index_t i = 0; i < n; ++i) y[i] *= beta;
  }
  // Process one stored column at a time: the lower-triangle column j
  // contributes to y[j..n) (as a column) and to y[j] (as the mirrored row).
  for (index_t j = 0; j < n; ++j) {
    const T* cj = a.col(j);
    const T axj = alpha * x[j];
    T s = T(0);
    y[j] += axj * cj[j];
    for (index_t i = j + 1; i < n; ++i) {
      y[i] += axj * cj[i];
      s += cj[i] * x[i];
    }
    y[j] += alpha * s;
  }
}

template <class T>
void syr2_lower(std::type_identity_t<T> alpha,
                std::type_identity_t<const T*> x,
                std::type_identity_t<const T*> y, MatrixViewT<T> a) {
  TDG_CHECK(a.rows == a.cols, "syr2_lower: matrix must be square");
  trace::record({trace::OpKind::kSyr2, a.rows, a.rows, 0, 1});
  const index_t n = a.rows;
  for (index_t j = 0; j < n; ++j) {
    const T axj = alpha * x[j];
    const T ayj = alpha * y[j];
    T* cj = a.col(j);
    for (index_t i = j; i < n; ++i) {
      cj[i] += axj * y[i] + ayj * x[i];
    }
  }
}

#define TDG_INSTANTIATE_BLAS2(T)                                              \
  template void gemv<T>(Trans, T, ConstMatrixViewT<T>, const T*, T, T*);     \
  template void ger<T>(T, const T*, const T*, MatrixViewT<T>);               \
  template void symv_lower<T>(T, ConstMatrixViewT<T>, const T*, T, T*);      \
  template void syr2_lower<T>(T, const T*, const T*, MatrixViewT<T>);
TDG_INSTANTIATE_BLAS2(double)
TDG_INSTANTIATE_BLAS2(float)
#undef TDG_INSTANTIATE_BLAS2

}  // namespace tdg::la
