// The mixed-precision EVD engine (EvdOptions mode kMixedPrecision).
//
// Pipeline: demote A to FP32 -> the FP64 pipeline's two-stage reduction
// (core/tridiag.h) and Q2/Q1 back transformation, instantiated at float,
// around an FP64 tridiagonal solve (the O(n^2)-to-O(n^3)-but-cheap middle,
// where FP32 eigenvalue error would be amplified for free) -> promote ->
// FP64 Ogita–Aishima refinement (eig/refine.h).
//
// The engine never throws on numeric failure: a non-converged refinement
// or a solver breakdown comes back as ok == false and the driver reruns
// the standard FP64 path, recording recovery = "fp32->fp64".
#pragma once

#include <vector>

#include "eig/refine.h"
#include "la/matrix.h"
#include "plan/plan.h"

namespace tdg::eig {

struct MixedOutcome {
  bool ok = false;  // pipeline ran and the residual test passed
  std::vector<double> eigenvalues;  // ascending
  Matrix eigenvectors;              // n x n
  RefineOutcome refine;             // iterations, residual, acceptance scale
};

/// Run the FP32-compute / FP64-refine pipeline against the resolved
/// configuration. Its stages (tridiagonalize, solver, backtransform,
/// evd_refine) time themselves into the caller's obs::RecordScope, so an
/// attempt that fails stays in the record. Requires n >= 3 (the driver
/// routes smaller problems to the standard path). Non-numeric errors
/// (invalid input, cancellation) propagate; kNoConvergence from the
/// tridiagonal solve returns ok = false.
MixedOutcome eigh_mixed(ConstMatrixView a, const plan::ResolvedPipeline& cfg,
                        bool use_dc);

}  // namespace tdg::eig
