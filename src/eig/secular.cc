#include "eig/secular.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/fault.h"
#include "common/thread_pool.h"

namespace tdg::eig {

namespace {

// Roots (and recomputed weights) per pool task. A fixed grid: the chunking
// depends only on k, and every task writes only its own entries, so the
// thread count cannot change a bit.
constexpr index_t kRootChunk = 32;

// LAPACK dlaed4's iteration cap. A root that has not passed the convergence
// test after this many rational steps finishes by bisection.
constexpr int kMaxRationalSteps = 30;

// One root's problem in the shifted variable mu = lambda - d[ii]: poles `a`
// and `b` = a + 1 bound the root's interval (for the last root, a = k-2 and
// b = k-1 with the root right of d[b]); `ii` is the origin pole.
struct RootProblem {
  const double* d;
  const double* z;
  index_t k;
  double rhoinv;
  index_t a;
  index_t b;
  index_t ii;
  bool last;

  double delta(index_t i, double mu) const { return (d[i] - d[ii]) - mu; }
};

// The secular function f(mu) = 1/rho + sum_i z_i^2 / ((d_i - d_ii) - mu),
// summed as dlaed4 sums it: the poles left of the interval from the far end
// inward (psi), then the poles right of it (phi), the origin last, so the
// small far terms enter first. `err` bounds the rounding error in w, from
// the running partial sums (dlaed4's erretm).
struct Eval {
  double w;     // f(mu)
  double dw;    // f'(mu) > 0
  double dpsi;  // derivative of the terms of poles <= a
  double dphi;  // derivative of the terms of poles >= b
  double err;
};

Eval evaluate(const RootProblem& p, double mu) {
  double psi = 0.0, dpsi = 0.0, err = 0.0;
  for (index_t i = 0; i <= p.a; ++i) {
    if (i == p.ii) continue;
    const double t = p.z[i] / p.delta(i, mu);
    psi += p.z[i] * t;
    dpsi += t * t;
    err += std::abs(psi);
  }
  double phi = 0.0, dphi = 0.0;
  // For the last root the origin is the only pole right of the interval and
  // is summed as phi itself, as dlaed4 does.
  for (index_t i = p.k - 1; i >= p.b; --i) {
    if (i == p.ii && !p.last) continue;
    const double t = p.z[i] / p.delta(i, mu);
    phi += p.z[i] * t;
    dphi += t * t;
    err += std::abs(phi);
  }
  Eval ev{};
  if (p.last) {
    ev.w = p.rhoinv + psi + phi;
    ev.dw = dpsi + dphi;
    ev.err = 8.0 * (-phi - psi) + err + p.rhoinv + std::abs(mu) * ev.dw;
  } else {
    const double t = p.z[p.ii] / p.delta(p.ii, mu);
    const double origin = p.z[p.ii] * t;
    ev.w = p.rhoinv + psi + phi + origin;
    ev.dw = dpsi + dphi + t * t;
    ev.err = 8.0 * (phi - psi) + err + 2.0 * p.rhoinv +
             3.0 * std::abs(origin) + std::abs(mu) * ev.dw;
    (p.ii == p.a ? dpsi : dphi) += t * t;
  }
  ev.dpsi = dpsi;
  ev.dphi = dphi;
  return ev;
}

// The root (A - sqrt(A^2 - 4BC)) / (2C) of C x^2 - A x + B = 0, in the form
// that does not cancel. It is the root between two poles whatever C's sign.
double quad_minus(double a, double b, double c) {
  const double s = std::sqrt(std::abs(a * a - 4.0 * b * c));
  return a <= 0.0 ? (a - s) / (2.0 * c) : 2.0 * b / (a + s);
}

// One rational step from mu. The model keeps the two poles bounding the
// interval: c + s/(delta_a - eta) + S/(delta_b - eta), fitted to f and f'
// at mu. `fixed_weight` fixes the origin's weight at z_ii^2 (dlaed4's
// default); otherwise each side's weight is fitted ("middle way").
double rational_step(const RootProblem& p, const Eval& ev, double mu,
                     bool fixed_weight) {
  const double da = p.delta(p.a, mu);
  const double db = p.delta(p.b, mu);
  const double aa = (da + db) * ev.w - da * db * ev.dw;
  const double bb = da * db * ev.w;
  if (p.last) {
    // Root right of both poles: the larger root of the quadratic.
    const double c = std::abs(ev.w - da * ev.dpsi - db * ev.dphi);
    if (c == 0.0) return -ev.w / ev.dw;
    const double s = std::sqrt(std::abs(aa * aa - 4.0 * bb * c));
    return aa >= 0.0 ? (aa + s) / (2.0 * c) : 2.0 * bb / (aa - s);
  }
  const double zo = p.z[p.ii] / p.delta(p.ii, mu);
  const double other = p.ii == p.a ? db : da;  // the far pole's delta
  const double c =
      fixed_weight
          ? ev.w - other * ev.dw -
                (p.d[p.ii] - p.d[p.ii == p.a ? p.b : p.a]) * zo * zo
          : ev.w - da * ev.dpsi - db * ev.dphi;
  if (c == 0.0) {
    double a2 = aa;
    if (a2 == 0.0) {
      a2 = fixed_weight ? p.z[p.ii] * p.z[p.ii] +
                              other * other * (ev.dw - zo * zo)
                        : da * da * ev.dpsi + db * db * ev.dphi;
    }
    return bb / a2;
  }
  return quad_minus(aa, bb, c);
}

// Two-pole start (dlaed4): the poles other than a and b are frozen at their
// value at the interval's midpoint, and the remaining two-pole equation is
// solved exactly. Also picks the origin and the mu-bracket (lo, hi).
double initial_guess(RootProblem& p, double rho_zz, double& lo, double& hi) {
  const double za2 = p.z[p.a] * p.z[p.a];
  const double zb2 = p.z[p.b] * p.z[p.b];
  const double del = p.d[p.b] - p.d[p.a];
  if (p.last) {
    p.ii = p.b;
    hi = rho_zz;
    // f(hi) > 0 analytically; the loop guards the bracket against roundoff.
    while (evaluate(p, hi).w <= 0.0) hi *= 2.0;
    const double mid = 0.5 * hi;
    const double w = evaluate(p, mid).w;
    const double c = w - za2 / p.delta(p.a, mid) - zb2 / p.delta(p.b, mid);
    const double aa = -c * del + za2 + zb2;
    const double bb = zb2 * del;
    const auto solve = [&] {
      const double s = std::sqrt(std::abs(aa * aa + 4.0 * bb * c));
      return aa < 0.0 ? 2.0 * bb / (s - aa) : (aa + s) / (2.0 * c);
    };
    if (w <= 0.0) {
      lo = mid;
      return c <= za2 / (del + hi) + zb2 / hi ? hi : solve();
    }
    lo = 0.0;
    hi = mid;
    return solve();
  }
  // The midpoint test: f(mid) >= 0 puts the root in the left half, nearer
  // d_a, which becomes the origin.
  const double mid = 0.5 * del;
  p.ii = p.a;
  const double w = evaluate(p, mid).w;
  const double c = w - za2 / p.delta(p.a, mid) - zb2 / p.delta(p.b, mid);
  if (w >= 0.0) {
    lo = 0.0;
    hi = mid;
    return quad_minus(c * del + za2 + zb2, za2 * del, c);
  }
  p.ii = p.b;
  lo = -mid;
  hi = 0.0;
  const double aa = c * del - za2 - zb2;
  const double bb = zb2 * del;
  const double s = std::sqrt(std::abs(aa * aa + 4.0 * bb * c));
  return aa < 0.0 ? 2.0 * bb / (aa - s) : -(aa + s) / (2.0 * c);
}

// Root j by dlaed4's rational iteration, safeguarded by the bracket: a step
// that leaves (lo, hi) bisects instead, and a root short of convergence
// after kMaxRationalSteps finishes by bisection. Never throws.
SecularRoot solve_root(const std::vector<double>& d,
                       const std::vector<double>& z, double rho, double zz,
                       index_t j) {
  const index_t k = static_cast<index_t>(d.size());
  if (k == 1) {
    const double mu = rho * zz;
    return {d[0] + mu, mu, 0};
  }
  const double eps = 0.5 * std::numeric_limits<double>::epsilon();
  RootProblem p{d.data(), z.data(), k, 1.0 / rho,
                j + 1 < k ? j : k - 2, j + 1 < k ? j + 1 : k - 1, 0,
                j + 1 == k};
  double lo = 0.0, hi = 0.0;
  double mu = initial_guess(p, rho * zz, lo, hi);
  if (!(mu > lo && mu < hi) && !(p.last && mu == hi)) mu = 0.5 * (lo + hi);

  bool fixed_weight = true;
  double prev_w = 0.0;
  for (int it = 0; it < kMaxRationalSteps; ++it) {
    const Eval ev = evaluate(p, mu);
    if (std::abs(ev.w) <= eps * ev.err) return {d[p.ii] + mu, mu, p.ii};
    (ev.w <= 0.0 ? lo : hi) = mu;
    // dlaed4's switch: a step that neither crossed the root nor cut |f| by
    // ten changes the model.
    if (it > 0 && !p.last && ev.w * prev_w > 0.0 &&
        std::abs(ev.w) > 0.1 * std::abs(prev_w)) {
      fixed_weight = !fixed_weight;
    }
    double eta = rational_step(p, ev, mu, fixed_weight);
    // Roundoff can point the step away from the root; Newton cannot.
    if (!(ev.w * eta < 0.0)) eta = -ev.w / ev.dw;
    double next = mu + eta;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    // No double left inside the bracket: mu, one of its ends, is the root.
    if (!(next > lo && next < hi)) return {d[p.ii] + mu, mu, p.ii};
    prev_w = ev.w;
    mu = next;
  }
  // Iteration cap: bisect the bracket to its end. The origin pole sits at
  // mu = 0, which only an end never moved can still hold.
  for (;;) {
    const double mid = 0.5 * (lo + hi);
    if (!(mid > lo && mid < hi)) break;
    (evaluate(p, mid).w <= 0.0 ? lo : hi) = mid;
  }
  mu = lo != 0.0 ? lo : hi;
  return {d[p.ii] + mu, mu, p.ii};
}

}  // namespace

std::vector<SecularRoot> solve_secular(const std::vector<double>& d,
                                       const std::vector<double>& z,
                                       double rho) {
  const index_t k = static_cast<index_t>(d.size());
  TDG_CHECK(k >= 1 && z.size() == d.size(), "solve_secular: size mismatch");
  TDG_CHECK(rho > 0.0, "solve_secular: rho must be positive");
  for (index_t i = 0; i + 1 < k; ++i) {
    TDG_CHECK(d[static_cast<std::size_t>(i)] < d[static_cast<std::size_t>(i + 1)],
              "solve_secular: poles must be strictly increasing");
  }

  // The fault site is visited once per root, in root order, before any
  // root is solved, so `secular_root:N` fails root N-1 at any thread count.
  for (index_t j = 0; j < k; ++j) {
    if (fault::should_fire("secular_root")) {
      // Typed as kNoConvergence (a real secular solver can fail to bracket
      // a root) so the D&C driver's solver fallback chain engages.
      throw Error(ErrorCode::kNoConvergence,
                  "secular: fault 'secular_root' forced failure at root " +
                      std::to_string(j),
                  {"secular", j, 0});
    }
  }

  double zz = 0.0;
  for (double zi : z) zz += zi * zi;

  std::vector<SecularRoot> roots(static_cast<std::size_t>(k));
  parallel_chunks(k, kRootChunk, [&](index_t lo, index_t hi) {
    for (index_t j = lo; j < hi; ++j) {
      roots[static_cast<std::size_t>(j)] = solve_root(d, z, rho, zz, j);
    }
  });
  return roots;
}

std::vector<double> recompute_z(const std::vector<double>& d,
                                const std::vector<double>& z, double rho,
                                const std::vector<SecularRoot>& roots) {
  const index_t k = static_cast<index_t>(d.size());
  std::vector<double> zhat(static_cast<std::size_t>(k));
  parallel_chunks(k, kRootChunk, [&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) {
      // From the characteristic polynomial of D + rho z z^T evaluated at
      // d_i: zhat_i^2 = prod_j (lambda_j - d_i) / (rho prod_{j != i} (d_j -
      // d_i)), evaluated as O(1)-magnitude ratio pairs for stability.
      double prod = pole_minus_root(d, roots[static_cast<std::size_t>(i)], i) *
                    -1.0 / rho;  // (lambda_i - d_i) / rho
      for (index_t j = 0; j < k; ++j) {
        if (j == i) continue;
        const double num =
            -pole_minus_root(d, roots[static_cast<std::size_t>(j)], i);
        const double den =
            d[static_cast<std::size_t>(j)] - d[static_cast<std::size_t>(i)];
        prod *= num / den;
      }
      // Roundoff can push prod slightly negative when z_i is tiny.
      prod = std::max(prod, 0.0);
      zhat[static_cast<std::size_t>(i)] =
          std::copysign(std::sqrt(prod), z[static_cast<std::size_t>(i)]);
    }
  });
  return zhat;
}

void secular_eigenvector(const std::vector<double>& d,
                         const std::vector<double>& zhat,
                         const std::vector<SecularRoot>& roots, index_t j,
                         double* v) {
  const index_t k = static_cast<index_t>(d.size());
  double norm2 = 0.0;
  for (index_t i = 0; i < k; ++i) {
    const double diff = pole_minus_root(d, roots[static_cast<std::size_t>(j)], i);
    const double vi = zhat[static_cast<std::size_t>(i)] / diff;
    v[i] = vi;
    norm2 += vi * vi;
  }
  const double inv = 1.0 / std::sqrt(norm2);
  for (index_t i = 0; i < k; ++i) v[i] *= inv;
}

}  // namespace tdg::eig
