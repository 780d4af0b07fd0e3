// Direct (one-stage) tridiagonalization — the cuSOLVER `sytrd` baseline.
//
// Blocked Householder tridiagonalization after Dongarra et al. [8]: each
// panel of nb columns is reduced with BLAS-2 symv-bound work (latrd), then
// the trailing matrix receives one rank-2*nb update (syr2k with k = nb).
// Roughly half the flops stay in BLAS-2 — this is precisely why the paper's
// Figure 4 shows cuSOLVER's sytrd at ~2 TFLOPs on an H100.

#include <algorithm>
#include <vector>

#include "lapack/lapack.h"
#include "obs/obs.h"

namespace tdg::lapack {

void sytd2(MatrixView a, std::vector<double>& d, std::vector<double>& e,
           std::vector<double>& taus) {
  const index_t n = a.rows;
  TDG_CHECK(a.rows == a.cols, "sytd2: matrix must be square");
  d.assign(static_cast<std::size_t>(n), 0.0);
  e.assign(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)), 0.0);
  taus.assign(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)), 0.0);
  if (n == 0) return;

  std::vector<double> w(static_cast<std::size_t>(n));
  for (index_t i = 0; i + 1 < n; ++i) {
    const index_t len = n - i - 1;  // rows i+1 .. n-1
    double alpha = a(i + 1, i);
    const double taui = larfg(len, alpha, (len > 1) ? &a(i + 2, i) : nullptr);
    e[static_cast<std::size_t>(i)] = alpha;
    taus[static_cast<std::size_t>(i)] = taui;

    if (taui != 0.0) {
      a(i + 1, i) = 1.0;  // v lives in A(i+1:n, i)
      const double* v = &a(i + 1, i);
      MatrixView a22 = a.block(i + 1, i + 1, len, len);
      // w = taui * A22 v ; w -= (taui/2)(w^T v) v ; A22 -= v w^T + w v^T
      la::symv_lower(taui, a22, v, 0.0, w.data());
      const double corr = -0.5 * taui * la::dot(len, w.data(), v);
      la::axpy(len, corr, v, w.data());
      la::syr2_lower(-1.0, v, w.data(), a22);
      a(i + 1, i) = e[static_cast<std::size_t>(i)];
    }
    d[static_cast<std::size_t>(i)] = a(i, i);
  }
  d[static_cast<std::size_t>(n - 1)] = a(n - 1, n - 1);
}

namespace {

// Panel step of blocked tridiagonalization (LAPACK dlatrd, lower variant).
// Reduces the first nb columns of the nn x nn trailing block `a`, storing
// Householder vectors in a's lower triangle (with the unit element written
// explicitly) and the update matrix W (nn x nb). e/taus receive the nb new
// sub-diagonal entries and reflector scalars.
void latrd_lower(MatrixView a, index_t nb, MatrixView w, double* e,
                 double* taus) {
  const index_t nn = a.rows;
  std::vector<double> tmp(static_cast<std::size_t>(nb));

  for (index_t i = 0; i < nb; ++i) {
    const index_t len = nn - i - 1;  // length of v_i
    if (i > 0) {
      // Update column i with the i previous reflectors:
      // A(i:nn, i) -= V(i:nn, 0:i) W(i, 0:i)^T + W(i:nn, 0:i) V(i, 0:i)^T
      for (index_t c = 0; c < i; ++c) tmp[static_cast<std::size_t>(c)] = w(i, c);
      la::gemv(Trans::kNo, -1.0, a.block(i, 0, nn - i, i), tmp.data(), 1.0,
               &a(i, i));
      for (index_t c = 0; c < i; ++c) tmp[static_cast<std::size_t>(c)] = a(i, c);
      la::gemv(Trans::kNo, -1.0, w.block(i, 0, nn - i, i), tmp.data(), 1.0,
               &a(i, i));
    }
    if (len == 0) {
      e[i] = 0.0;
      taus[i] = 0.0;
      continue;
    }

    double alpha = a(i + 1, i);
    const double taui = larfg(len, alpha, (len > 1) ? &a(i + 2, i) : nullptr);
    e[i] = alpha;
    taus[i] = taui;
    a(i + 1, i) = 1.0;
    const double* v = &a(i + 1, i);
    double* wi = w.col(i) + (i + 1);

    // w_i = taui * (A22 v - V (W^T v) - W (V^T v)) + correction * v
    la::symv_lower(1.0, a.block(i + 1, i + 1, len, len), v, 0.0, wi);
    if (i > 0) {
      la::gemv(Trans::kTrans, 1.0, w.block(i + 1, 0, len, i), v, 0.0,
               tmp.data());
      la::gemv(Trans::kNo, -1.0, a.block(i + 1, 0, len, i), tmp.data(), 1.0,
               wi);
      la::gemv(Trans::kTrans, 1.0, a.block(i + 1, 0, len, i), v, 0.0,
               tmp.data());
      la::gemv(Trans::kNo, -1.0, w.block(i + 1, 0, len, i), tmp.data(), 1.0,
               wi);
    }
    la::scal(len, taui, wi);
    const double corr = -0.5 * taui * la::dot(len, wi, v);
    la::axpy(len, corr, v, wi);
    for (index_t r = 0; r <= i; ++r) w(r, i) = 0.0;
  }
}

}  // namespace

void sytrd(MatrixView a, std::vector<double>& d, std::vector<double>& e,
           std::vector<double>& taus, index_t nb) {
  const index_t n = a.rows;
  TDG_CHECK(a.rows == a.cols, "sytrd: matrix must be square");
  TDG_CHECK(nb >= 1, "sytrd: panel width must be positive");
  d.assign(static_cast<std::size_t>(n), 0.0);
  e.assign(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)), 0.0);
  taus.assign(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)), 0.0);
  if (n == 0) return;

  obs::Span span("sytrd", obs::kStage);
  span.attr("n", n);
  span.attr("nb", nb);

  Matrix w(n, nb);
  index_t j0 = 0;
  while (n - j0 > 2 * nb) {
    const index_t nn = n - j0;
    MatrixView a2 = a.block(j0, j0, nn, nn);
    MatrixView w2 = w.block(0, 0, nn, nb);
    latrd_lower(a2, nb, w2, e.data() + j0, taus.data() + j0);
    // Trailing update: A22 -= V2 W2^T + W2 V2^T (rank-2*nb, k = nb syr2k).
    la::syr2k_lower(-1.0, a2.block(nb, 0, nn - nb, nb),
                    w2.block(nb, 0, nn - nb, nb), 1.0,
                    a2.block(nb, nb, nn - nb, nn - nb));
    // Restore the sub-diagonal entries overwritten with the unit elements.
    for (index_t i = 0; i < nb; ++i)
      a(j0 + i + 1, j0 + i) = e[static_cast<std::size_t>(j0 + i)];
    for (index_t i = 0; i < nb; ++i)
      d[static_cast<std::size_t>(j0 + i)] = a(j0 + i, j0 + i);
    j0 += nb;
  }

  // Unblocked cleanup for the remainder.
  std::vector<double> dt, et, tt;
  MatrixView atail = a.block(j0, j0, n - j0, n - j0);
  sytd2(atail, dt, et, tt);
  for (index_t i = 0; i < n - j0; ++i)
    d[static_cast<std::size_t>(j0 + i)] = dt[static_cast<std::size_t>(i)];
  for (index_t i = 0; i + 1 < n - j0; ++i) {
    e[static_cast<std::size_t>(j0 + i)] = et[static_cast<std::size_t>(i)];
    taus[static_cast<std::size_t>(j0 + i)] = tt[static_cast<std::size_t>(i)];
  }
}

}  // namespace tdg::lapack
