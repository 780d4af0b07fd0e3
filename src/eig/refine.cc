#include "eig/refine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/fault.h"
#include "la/blas.h"
#include "obs/obs.h"

namespace tdg::eig {

namespace {

/// ||A||_F from the lower triangle (off-diagonal entries counted twice).
double frobenius_from_lower(ConstMatrixView a) {
  double s = 0.0;
  for (index_t j = 0; j < a.cols; ++j) {
    s += a(j, j) * a(j, j);
    for (index_t i = j + 1; i < a.rows; ++i) s += 2.0 * a(i, j) * a(i, j);
  }
  return std::sqrt(s);
}

/// ax = A x (fills), then max_i ||ax_i - w_i x_i||_2.
double max_residual(ConstMatrixView afull, ConstMatrixView x,
                    const std::vector<double>& w, MatrixView ax) {
  la::gemm(Trans::kNo, Trans::kNo, 1.0, afull, x, 0.0, ax);
  const index_t n = x.rows;
  double worst = 0.0;
  for (index_t j = 0; j < x.cols; ++j) {
    const double* axj = ax.col(j);
    const double* xj = x.col(j);
    const double wj = w[static_cast<std::size_t>(j)];
    double s = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const double r = axj[i] - wj * xj[i];
      s += r * r;
    }
    worst = std::max(worst, std::sqrt(s));
  }
  return worst;
}

}  // namespace

RefineOutcome refine_eigenpairs(ConstMatrixView a, std::vector<double>& w,
                                MatrixView x,
                                const plan::RefineOptions& opts) {
  const index_t n = a.rows;
  TDG_CHECK(a.rows == a.cols, "refine_eigenpairs: matrix must be square");
  TDG_CHECK(x.rows == n && x.cols == n &&
                w.size() == static_cast<std::size_t>(n),
            "refine_eigenpairs: eigenpair shape mismatch");

  RefineOutcome out;
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  const index_t max_iters = opts.max_iters > 0 ? opts.max_iters : 2;
  const double tol_rel = opts.tol > 0.0 ? opts.tol : 50.0 * kEps;
  out.norm_a = frobenius_from_lower(a);
  out.tol = tol_rel * out.norm_a;
  if (n == 0 || out.norm_a == 0.0) {
    out.converged = true;
    return out;
  }

  // The fault site fires the stage's natural failure: refinement "does not
  // converge", so the caller takes the real fp32->fp64 recovery path.
  if (fault::should_fire("evd_refine")) return out;

  obs::Span span("evd_refine", obs::kStage);
  span.attr("n", n);

  // The sweeps need A's full symmetric content for the AX / X^T A X GEMMs.
  Matrix afull(n, n);
  for (index_t j = 0; j < n; ++j) {
    afull(j, j) = a(j, j);
    for (index_t i = j + 1; i < n; ++i) {
      afull(i, j) = a(i, j);
      afull(j, i) = a(i, j);
    }
  }

  Matrix ax(n, n);
  double res = max_residual(afull.view(), x, w, ax.view());

  std::vector<double> lam(static_cast<std::size_t>(n));
  for (index_t iter = 0; iter < max_iters && res > out.tol; ++iter) {
    // S = X^T (A X), G = X^T X (ax already holds A X from the residual).
    Matrix s(n, n);
    la::gemm(Trans::kTrans, Trans::kNo, 1.0, x, ax.view(), 0.0, s.view());
    Matrix g(n, n);
    la::gemm(Trans::kTrans, Trans::kNo, 1.0, x, x, 0.0, g.view());

    for (index_t i = 0; i < n; ++i) {
      const double gii = g(i, i);
      lam[static_cast<std::size_t>(i)] = gii != 0.0 ? s(i, i) / gii : s(i, i);
    }

    // Gaps below delta are treated as one cluster this sweep (orthogonality
    // repair only); delta tightens with the residual, so moderately close
    // pairs separate on the next sweep instead of amplifying noise now.
    const double delta = std::max(10.0 * res, 10.0 * kEps * out.norm_a);

    Matrix e(n, n);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) {
        const double rij = (i == j ? 1.0 : 0.0) - g(i, j);
        if (i == j) {
          e(i, j) = 0.5 * rij;
          continue;
        }
        const double gap = lam[static_cast<std::size_t>(j)] -
                           lam[static_cast<std::size_t>(i)];
        if (std::fabs(gap) > delta) {
          e(i, j) = (s(i, j) + lam[static_cast<std::size_t>(j)] * rij) / gap;
        } else {
          e(i, j) = 0.5 * rij;
        }
      }
    }

    // X <- X + X E.
    Matrix xe(n, n);
    la::gemm(Trans::kNo, Trans::kNo, 1.0, x, e.view(), 0.0, xe.view());
    for (index_t j = 0; j < n; ++j) {
      double* xj = x.col(j);
      const double* xej = xe.view().col(j);
      for (index_t i = 0; i < n; ++i) xj[i] += xej[i];
    }
    w = lam;
    ++out.iters;
    res = max_residual(afull.view(), x, w, ax.view());
  }

  // The residual test is blind to two close eigenvalues whose vectors are
  // still slightly mixed: each vector's residual is the mixing times the
  // gap. One symmetric orthogonalization, X <- X (I + R / 2) with
  // R = I - X^T X, squares what is left of that defect.
  if (out.iters > 0) {
    Matrix half_r(n, n);
    la::gemm(Trans::kTrans, Trans::kNo, 1.0, x, x, 0.0, half_r.view());
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) {
        half_r(i, j) = 0.5 * ((i == j ? 1.0 : 0.0) - half_r(i, j));
      }
    }
    Matrix xr(n, n);
    la::gemm(Trans::kNo, Trans::kNo, 1.0, x, half_r.view(), 0.0, xr.view());
    for (index_t j = 0; j < n; ++j) {
      double* xj = x.col(j);
      const double* xrj = xr.view().col(j);
      for (index_t i = 0; i < n; ++i) xj[i] += xrj[i];
    }
    res = max_residual(afull.view(), x, w, ax.view());
  }

  // Refinement can reorder near-ties; restore the ascending contract.
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), index_t{0});
  std::sort(perm.begin(), perm.end(), [&](index_t i, index_t j) {
    return w[static_cast<std::size_t>(i)] < w[static_cast<std::size_t>(j)];
  });
  bool sorted = true;
  for (index_t i = 0; i < n; ++i) {
    if (perm[static_cast<std::size_t>(i)] != i) {
      sorted = false;
      break;
    }
  }
  if (!sorted) {
    std::vector<double> ws(static_cast<std::size_t>(n));
    Matrix xs(n, n);
    for (index_t j = 0; j < n; ++j) {
      const index_t src = perm[static_cast<std::size_t>(j)];
      ws[static_cast<std::size_t>(j)] = w[static_cast<std::size_t>(src)];
      const double* from = x.col(src);
      double* to = xs.view().col(j);
      for (index_t i = 0; i < n; ++i) to[i] = from[i];
    }
    w = ws;
    copy(xs.view(), x);
  }

  out.residual = res;
  out.converged = res <= out.tol;
  span.attr("iters", out.iters);
  span.attr("converged", out.converged ? 1 : 0);
  return out;
}

}  // namespace tdg::eig
