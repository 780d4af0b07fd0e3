// FP64 eigenpair refinement (Ogita–Aishima style Newton sweeps).
//
// Input: approximate eigenpairs (w, X) of symmetric A — in this library
// the output of the FP32 reduction pipeline, carrying O(eps_fp32 ||A||)
// error. Each sweep costs ~8 n^3 FP64 flops and squares the error:
//   R = I - X^T X,  S = X^T A X,
//   lam_i = S_ii / (X^T X)_ii                  (Rayleigh quotients)
//   E_ii  = R_ii / 2
//   E_ij  = (S_ij + lam_j R_ij) / (lam_j - lam_i)   when the gap exceeds
//           the per-sweep cluster threshold, else R_ij / 2 (orthogonality
//           repair only — clustered directions resolve on later sweeps as
//           the threshold tightens with the residual),
//   X <- X + X E,  w <- lam.
// After the last sweep one symmetric orthogonalization, X <- X (I + R / 2),
// removes what the residual test cannot see: two close eigenvalues whose
// vectors are still slightly mixed (each residual is the mixing times the
// gap). Acceptance is residual-based and basis-invariant:
//   max_i ||A x_i - w_i x_i||_2 <= tol * ||A||_F.
// Two sweeps take eps_fp32-accurate pairs to the FP64 floor; a failed
// acceptance is reported (never thrown) so the driver can rerun in FP64.
#pragma once

#include <vector>

#include "la/matrix.h"
#include "plan/knobs.h"

namespace tdg::eig {

struct RefineOutcome {
  index_t iters = 0;       // sweeps actually run
  double residual = 0.0;   // final max_i ||A x_i - w_i x_i||_2
  double norm_a = 0.0;     // ||A||_F, the acceptance scale
  double tol = 0.0;        // absolute acceptance threshold (tol_rel * norm_a)
  bool converged = false;  // residual <= tol on exit
};

/// Refine (w, x) in place against `a` (lower triangle read). Resolves
/// RefineOptions zeros to the documented autos (max_iters 2, tol
/// 50 * eps_fp64). Fault site "evd_refine" (docs/ALGORITHMS.md §11) forces
/// the natural failure: no sweeps run and converged comes back false.
/// On return eigenpairs are sorted ascending by w.
RefineOutcome refine_eigenpairs(ConstMatrixView a, std::vector<double>& w,
                                MatrixView x,
                                const plan::RefineOptions& opts);

}  // namespace tdg::eig
