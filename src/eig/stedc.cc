// Cuppen's divide & conquer for the symmetric tridiagonal eigenproblem.
//
// Split T into two half-size tridiagonals plus a rank-one coupling:
//   T = diag(T1', T2') + rho * u u^T,  u = e_mid(last of T1) + e_1(of T2),
// where T1'/T2' have their boundary diagonal entries reduced by rho. After
// solving the halves, the merge diagonalises D + rho z z^T via the secular
// equation with the two standard deflation rules (negligible z components;
// nearly-equal poles removed with a Givens rotation), and composes the
// eigenvector update as two half-size GEMMs, one per nonzero block of
// diag(Q1, Q2) (LAPACK dlaed2/dlaed3) — which is why D&C dominates QL for
// eigenvectors, and why the paper reuses MAGMA's stedc on the GPU.

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/cancel.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "eig/eig.h"
#include "eig/secular.h"
#include "la/blas.h"
#include "obs/obs.h"

namespace tdg::eig {

namespace {

// Secular eigenvector columns (and gathered columns) per pool task, and
// merge-GEMM output columns per pool task: grids fixed by the merge's size.
constexpr index_t kVecChunk = 32;
constexpr index_t kGemmCols = 128;

// Where a merge column's nonzeros lie within diag(Q1, Q2). A deflation
// rotation between a Q1 column and a Q2 column mixes both halves.
enum class Half : unsigned char { kTop, kMixed, kBottom };

// Diagonalise M = D + rho * z z^T in place: d (size m) receives ascending
// eigenvalues, and the columns of q (m x m, holding diag(Q1, Q2) with Q1
// m1 x m1) are recombined so q_out = q_in * (eigenvectors of M).
void rank_one_merge(std::vector<double>& d, const std::vector<double>& z,
                    double rho, index_t m1, MatrixView q) {
  const index_t m = static_cast<index_t>(d.size());
  const index_t m2 = m - m1;
  const double eps = std::numeric_limits<double>::epsilon();

  // Reduce to rho > 0 by negation (eigenvectors are unaffected), normalise
  // z and fold ||z||^2 into rho, and sort the poles. Columns stay where they
  // are: `col` names the q column behind each sorted pole. Without coupling
  // every pair deflates.
  double zz = 0.0;
  for (double zi : z) zz += zi * zi;
  const bool coupled = rho != 0.0 && zz != 0.0;
  const double sign = (rho < 0.0) ? -1.0 : 1.0;
  const double rhow = sign * rho * zz;
  const double znorm = coupled ? std::sqrt(zz) : 1.0;
  std::vector<index_t> col(static_cast<std::size_t>(m));
  std::iota(col.begin(), col.end(), 0);
  std::stable_sort(col.begin(), col.end(), [&](index_t a, index_t b) {
    return sign * d[static_cast<std::size_t>(a)] <
           sign * d[static_cast<std::size_t>(b)];
  });
  std::vector<double> ds(static_cast<std::size_t>(m)),
      zs(static_cast<std::size_t>(m));
  std::vector<Half> half(static_cast<std::size_t>(m));
  for (index_t c = 0; c < m; ++c) {
    const index_t src = col[static_cast<std::size_t>(c)];
    ds[static_cast<std::size_t>(c)] = sign * d[static_cast<std::size_t>(src)];
    zs[static_cast<std::size_t>(c)] = z[static_cast<std::size_t>(src)] / znorm;
    half[static_cast<std::size_t>(c)] = src < m1 ? Half::kTop : Half::kBottom;
  }

  // Deflation (dlaed2 rules). `prev` chains nearly-equal poles.
  double dmax = 0.0, zmax = 0.0;
  for (index_t i = 0; i < m; ++i) {
    dmax = std::max(dmax, std::abs(ds[static_cast<std::size_t>(i)]));
    zmax = std::max(zmax, std::abs(zs[static_cast<std::size_t>(i)]));
  }
  const double tol = 8.0 * eps * std::max(dmax, zmax);

  std::vector<bool> deflated(static_cast<std::size_t>(m), !coupled);
  index_t prev = -1;  // last surviving index
  for (index_t i = 0; coupled && i < m; ++i) {
    if (rhow * std::abs(zs[static_cast<std::size_t>(i)]) <= tol) {
      deflated[static_cast<std::size_t>(i)] = true;
      continue;
    }
    if (prev >= 0) {
      const double zi = zs[static_cast<std::size_t>(i)];
      const double zj = zs[static_cast<std::size_t>(prev)];
      const double dgap =
          ds[static_cast<std::size_t>(i)] - ds[static_cast<std::size_t>(prev)];
      const double r = std::hypot(zi, zj);
      const double c = zi / r;
      const double s = zj / r;
      if (std::abs(dgap * c * s) <= tol) {
        // Rotate (prev, i) with R = [c s; -s c] so (R^T z)_prev = 0;
        // deflate prev. Columns transform as Q <- Q R, on the rows where
        // either column can be nonzero.
        zs[static_cast<std::size_t>(i)] = r;
        zs[static_cast<std::size_t>(prev)] = 0.0;
        const double dj = ds[static_cast<std::size_t>(prev)];
        const double di = ds[static_cast<std::size_t>(i)];
        ds[static_cast<std::size_t>(prev)] = dj * c * c + di * s * s;
        ds[static_cast<std::size_t>(i)] = dj * s * s + di * c * c;
        Half& hj = half[static_cast<std::size_t>(prev)];
        Half& hi = half[static_cast<std::size_t>(i)];
        const index_t r0 = (hj == Half::kBottom && hi == Half::kBottom) ? m1 : 0;
        const index_t r1 = (hj == Half::kTop && hi == Half::kTop) ? m1 : m;
        double* qj = q.col(col[static_cast<std::size_t>(prev)]);
        double* qi = q.col(col[static_cast<std::size_t>(i)]);
        for (index_t rr = r0; rr < r1; ++rr) {
          const double a = qj[rr];
          const double b = qi[rr];
          qj[rr] = c * a - s * b;
          qi[rr] = s * a + c * b;
        }
        if (hj != hi) hj = hi = Half::kMixed;
        deflated[static_cast<std::size_t>(prev)] = true;
      }
    }
    prev = i;
  }

  // Survivors in pole order (the secular problem), and the same survivors
  // grouped top | mixed | bottom (dlaed2's column types): rows 0..k1+k2 of
  // the grouped order meet Q1, rows k1..k meet Q2.
  std::vector<index_t> surv, defl;
  for (index_t i = 0; i < m; ++i) {
    (deflated[static_cast<std::size_t>(i)] ? defl : surv).push_back(i);
  }
  const index_t k = static_cast<index_t>(surv.size());
  std::vector<index_t> grouped;  // grouped position -> survivor index
  grouped.reserve(static_cast<std::size_t>(k));
  for (const Half h : {Half::kTop, Half::kMixed, Half::kBottom}) {
    for (index_t t = 0; t < k; ++t) {
      if (half[static_cast<std::size_t>(surv[static_cast<std::size_t>(t)])] ==
          h) {
        grouped.push_back(t);
      }
    }
  }
  index_t k1 = 0, k3 = 0;
  for (index_t t = 0; t < k; ++t) {
    const Half h =
        half[static_cast<std::size_t>(surv[static_cast<std::size_t>(t)])];
    k1 += h == Half::kTop;
    k3 += h == Half::kBottom;
  }

  // Gather every source column once: survivors in grouped order (only the
  // rows their half occupies), then the deflated columns.
  Matrix gbuf(m, m);
  const MatrixView g = gbuf.view();
  parallel_chunks(m, kVecChunk, [&](index_t lo, index_t hi) {
    for (index_t p = lo; p < hi; ++p) {
      index_t pole;
      if (p < k) {
        pole = surv[static_cast<std::size_t>(grouped[static_cast<std::size_t>(p)])];
      } else {
        pole = defl[static_cast<std::size_t>(p - k)];
      }
      const Half h = half[static_cast<std::size_t>(pole)];
      const index_t r0 = (p < k && h == Half::kBottom) ? m1 : 0;
      const index_t r1 = (p < k && h == Half::kTop) ? m1 : m;
      const double* s = q.col(col[static_cast<std::size_t>(pole)]);
      std::copy(s + r0, s + r1, g.col(p) + r0);
    }
  });

  std::vector<double> value(static_cast<std::size_t>(m));
  Matrix wbuf(m, k);  // the merged secular eigenvector columns
  const MatrixView w = wbuf.view();
  if (k > 0) {
    std::vector<double> dk(static_cast<std::size_t>(k)),
        zk(static_cast<std::size_t>(k));
    for (index_t t = 0; t < k; ++t) {
      dk[static_cast<std::size_t>(t)] =
          ds[static_cast<std::size_t>(surv[static_cast<std::size_t>(t)])];
      zk[static_cast<std::size_t>(t)] =
          zs[static_cast<std::size_t>(surv[static_cast<std::size_t>(t)])];
    }
    const std::vector<SecularRoot> roots = solve_secular(dk, zk, rhow);
    const std::vector<double> zhat = recompute_z(dk, zk, rhow, roots);

    // V (k x k) with its rows in grouped order; each task fills its own
    // columns.
    Matrix v(k, k);
    parallel_chunks(k, kVecChunk, [&](index_t lo, index_t hi) {
      std::vector<double> vcol(static_cast<std::size_t>(k));
      for (index_t j = lo; j < hi; ++j) {
        secular_eigenvector(dk, zhat, roots, j, vcol.data());
        for (index_t p = 0; p < k; ++p) {
          v(p, j) = vcol[static_cast<std::size_t>(
              grouped[static_cast<std::size_t>(p)])];
        }
      }
    });

    // The merge GEMMs: Q1's block meets the top and mixed columns, Q2's
    // block the mixed and bottom ones. Deep in the tree a half has too few
    // rows for the GEMM's own tile grid to fill the cores, so the tasks
    // split the output columns too: one per (half, column block), each GEMM
    // running inline on its task.
    trace::record({trace::OpKind::kGemm, m1, k, k - k3, 1});
    trace::record({trace::OpKind::kGemm, m2, k, k - k1, 1});
    const index_t nb = (k + kGemmCols - 1) / kGemmCols;
    ThreadPool::global().parallel_for(0, 2 * nb, [&](index_t t) {
      const index_t j0 = (t % nb) * kGemmCols;
      const index_t jw = std::min(kGemmCols, k - j0);
      const bool top = t < nb;
      const index_t r0 = top ? 0 : m1;
      const index_t rows = top ? m1 : m2;
      const index_t p0 = top ? 0 : k1;
      const index_t kk = top ? k - k3 : k - k1;
      la::detail::gemm_notrace<double>(
          Trans::kNo, Trans::kNo, 1.0, g.block(r0, p0, rows, kk),
          v.block(p0, j0, kk, jw), 0.0, w.block(r0, j0, rows, jw));
    });
    for (index_t j = 0; j < k; ++j) {
      value[static_cast<std::size_t>(j)] =
          sign * roots[static_cast<std::size_t>(j)].lambda;
    }
  }
  // Deflated pairs pass through behind the secular ones.
  for (index_t t = 0; t < m - k; ++t) {
    value[static_cast<std::size_t>(k + t)] =
        sign * ds[static_cast<std::size_t>(defl[static_cast<std::size_t>(t)])];
  }

  // Write the result into q sorted by eigenvalue: secular columns from the
  // GEMM output, deflated ones from the gather buffer.
  std::vector<index_t> order(static_cast<std::size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return value[static_cast<std::size_t>(a)] <
           value[static_cast<std::size_t>(b)];
  });
  parallel_chunks(m, kVecChunk, [&](index_t lo, index_t hi) {
    for (index_t c = lo; c < hi; ++c) {
      const index_t src = order[static_cast<std::size_t>(c)];
      const double* s = src < k ? w.col(src) : g.col(src);
      std::copy(s, s + m, q.col(c));
      d[static_cast<std::size_t>(c)] = value[static_cast<std::size_t>(src)];
    }
  });
}

void solve_recursive(double* d, const double* e, index_t m, MatrixView q,
                     index_t smlsiz) {
  if (m == 1) {
    q(0, 0) = 1.0;
    return;
  }
  if (m <= smlsiz) {
    std::vector<double> dd(d, d + m);
    std::vector<double> ee(e, e + (m - 1));
    fill(q, 0.0);
    for (index_t i = 0; i < m; ++i) q(i, i) = 1.0;
    steqr(dd, ee, &q);
    std::copy(dd.begin(), dd.end(), d);
    return;
  }

  // One cancellation poll per merge node of the D&C tree (phase-boundary
  // granularity; the base cases above are bounded by smlsiz).
  cancel::poll("stedc_merge");

  const index_t m1 = m / 2;
  const double rho = e[m1 - 1];
  d[m1 - 1] -= rho;
  d[m1] -= rho;

  // The halves fill the diagonal blocks; the merge relies on zeros off them.
  fill(q.block(m1, 0, m - m1, m1), 0.0);
  fill(q.block(0, m1, m1, m - m1), 0.0);
  solve_recursive(d, e, m1, q.block(0, 0, m1, m1), smlsiz);
  solve_recursive(d + m1, e + m1, m - m1, q.block(m1, m1, m - m1, m - m1),
                  smlsiz);

  // z = [last row of Q1 ; first row of Q2].
  std::vector<double> z(static_cast<std::size_t>(m));
  for (index_t i = 0; i < m1; ++i) z[static_cast<std::size_t>(i)] = q(m1 - 1, i);
  for (index_t i = m1; i < m; ++i) z[static_cast<std::size_t>(i)] = q(m1, i);

  std::vector<double> dv(d, d + m);
  rank_one_merge(dv, z, rho, m1, q);
  std::copy(dv.begin(), dv.end(), d);
}

}  // namespace

void stedc(std::vector<double>& d, std::vector<double>& e, MatrixView q,
           index_t smlsiz) {
  const index_t n = static_cast<index_t>(d.size());
  TDG_CHECK(q.rows == n && q.cols == n, "stedc: q must be n x n");
  TDG_CHECK(smlsiz >= 2, "stedc: smlsiz must be >= 2");
  TDG_CHECK(static_cast<index_t>(e.size()) >= std::max<index_t>(n - 1, 0),
            "stedc: e must have n-1 entries");
  if (n == 0) return;
  obs::Span span("stedc");
  span.attr("n", n);
  span.attr("smlsiz", smlsiz);

  // Scale T to unit max-norm, as LAPACK dstedc does: the deflation test
  // compares rho|z_i| (units of T) with a tolerance that includes the unit
  // vector z, so only at unit scale does it mean the same for every T. The
  // factor is a power of two, so scaling rounds nothing.
  double tmax = 0.0;
  for (index_t i = 0; i < n; ++i) {
    tmax = std::max(tmax, std::abs(d[static_cast<std::size_t>(i)]));
    if (i + 1 < n) {
      tmax = std::max(tmax, std::abs(e[static_cast<std::size_t>(i)]));
    }
  }
  const int shift = (tmax > 0.0 && std::isfinite(tmax)) ? std::ilogb(tmax) : 0;
  std::vector<double> es(static_cast<std::size_t>(n - 1));
  for (index_t i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)] =
        std::ldexp(d[static_cast<std::size_t>(i)], -shift);
    if (i + 1 < n) {
      es[static_cast<std::size_t>(i)] =
          std::ldexp(e[static_cast<std::size_t>(i)], -shift);
    }
  }
  solve_recursive(d.data(), es.data(), n, q, smlsiz);
  for (double& x : d) x = std::ldexp(x, shift);
}

}  // namespace tdg::eig
