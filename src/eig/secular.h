// Secular equation solver for the divide & conquer rank-one merge.
//
// Given strictly increasing poles d_0 < d_1 < ... < d_{k-1}, weights z with
// z_i != 0, and rho > 0, finds the k roots of
//     f(lambda) = 1 + rho * sum_i z_i^2 / (d_i - lambda) = 0,
// with root j in (d_j, d_{j+1}) and root k-1 in (d_{k-1}, d_{k-1}+rho z^T z).
//
// Each root is represented as (base pole index, offset mu) with
// lambda = d_base + mu, so that differences lambda - d_i needed by the
// eigenvector formula are computed without catastrophic cancellation.
#pragma once

#include <vector>

#include "la/matrix.h"

namespace tdg::eig {

struct SecularRoot {
  double lambda = 0.0;  // the root itself (= d[base] + mu)
  double mu = 0.0;      // accurate offset from the base pole
  index_t base = 0;     // index of the nearest pole used as the shift origin
};

/// Solve for all k roots (LAPACK dlaed4's rational iteration, in parallel
/// over roots; bitwise the same at every thread count). Preconditions: d
/// strictly increasing, all z_i non-zero, rho > 0. Throws tdg::Error on a
/// malformed problem or when the `secular_root` fault site fires; the
/// iteration itself always returns a root.
std::vector<SecularRoot> solve_secular(const std::vector<double>& d,
                                       const std::vector<double>& z,
                                       double rho);

/// Accurate difference d_i - lambda_j given the root representation.
inline double pole_minus_root(const std::vector<double>& d,
                              const SecularRoot& r, index_t i) {
  return (d[static_cast<std::size_t>(i)] -
          d[static_cast<std::size_t>(r.base)]) -
         r.mu;
}

/// Gu–Eisenstat recomputed weights: zhat_i such that the lambda_j are the
/// *exact* eigenvalues of D + rho * zhat zhat^T. Guarantees numerically
/// orthogonal eigenvectors from the Loewner formula. Signs follow z.
std::vector<double> recompute_z(const std::vector<double>& d,
                                const std::vector<double>& z, double rho,
                                const std::vector<SecularRoot>& roots);

/// Normalised eigenvector for root j: v(i) = zhat_i / (d_i - lambda_j).
void secular_eigenvector(const std::vector<double>& d,
                         const std::vector<double>& zhat,
                         const std::vector<SecularRoot>& roots, index_t j,
                         double* v);

}  // namespace tdg::eig
