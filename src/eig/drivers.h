// End-to-end symmetric eigenvalue decomposition drivers.
//
// eigh() mirrors the paper's Figure 16 pipelines: tridiagonalize (direct,
// classic two-stage, or DBBR + GPU-style bulge chasing), solve the
// tridiagonal problem (divide & conquer, or implicit QL), and — when
// eigenvectors are requested — back-transform through Q2 (bulge chasing)
// and Q1 (band reduction).
#pragma once

#include <string>
#include <vector>

#include "core/tridiag.h"
#include "la/matrix.h"
#include "obs/obs.h"
#include "plan/plan.h"

namespace tdg::eig {

enum class TridiagSolver {
  kDivideConquer,  // stedc — the paper composes with MAGMA's D&C
  kImplicitQl,     // steqr
};

struct EvdOptions {
  bool vectors = true;
  /// Execution mode of the request (the first-class axis of this API; see
  /// plan::EvdMode). Interactions are canonicalized by plan::normalized():
  /// vectors == false maps to kValuesOnly; kValuesOnly forces vectors off;
  /// kMixedPrecision without vectors runs kValuesOnly at FP64 (there is
  /// nothing for the FP64 refinement to verify). kMixedPrecision runs the
  /// FP32 reduction engine, then FP64 Ogita–Aishima refinement; if the
  /// residual test fails, the driver reruns the standard FP64 path and
  /// records recovery = "fp32->fp64".
  plan::EvdMode mode = plan::EvdMode::kStandard;
  /// How unset (zero) knobs across the whole pipeline — tridiag, solver
  /// base case, back transformations — are resolved (src/plan/plan.h).
  /// Governs the run end to end; tridiag.plan is ignored under eigh.
  PlanMode plan = PlanMode::kHeuristic;
  TridiagOptions tridiag;  // which tridiagonalization pipeline to run
  TridiagSolver solver = TridiagSolver::kDivideConquer;
  /// Consolidated solver / back-transform / refinement knobs (0 = auto,
  /// filled from the resolved plan). knobs.refine configures the
  /// kMixedPrecision FP64 refinement stage.
  plan::Knobs knobs;
  /// Screen the input for NaN/Inf up front and fail fast with a typed
  /// Error(kInvalidInput) instead of letting a bad entry surface as a
  /// non-convergence (or silent garbage) deep in the pipeline. One O(n^2/2)
  /// read pass; set false to skip on pre-validated inputs.
  bool check_finite = true;
  /// On Error(kNoConvergence) from the tridiagonal solver, degrade through
  /// the fallback chain (D&C -> steqr -> bisection + inverse iteration)
  /// instead of failing; the path taken is recorded in EvdResult.recovery.
  /// Set false to surface the first solver failure unrecovered.
  bool solver_fallback = true;
  /// Add to each stage of EvdResult::profile (whose seconds are always
  /// filled) its flops, achieved GFLOP/s and the gpumodel H100 projection
  /// of the same stage. Adds one trace::Recorder for the solve (shape
  /// capture only, sliced per stage) plus one pricing pass at the end.
  bool profile = false;
};

/// One stage of a solve (obs::Stage); `children` subdivide composite
/// stages (tridiagonalize -> sytrd, sy2sb or dbbr + bulge_chase;
/// backtransform -> apply_q2 + apply_q1).
using PhaseProfile = obs::Stage;

/// The cost record of one solve (obs::SolveRecord). Comparing `seconds`
/// against `model_seconds` per stage shows how far the CPU execution sits
/// from the paper's projected device times — the same shapes priced by the
/// same KernelModel the benchmarks use.
using EvdProfile = obs::SolveRecord;

struct EvdResult {
  std::vector<double> eigenvalues;  // ascending
  Matrix eigenvectors;              // n x n, column j for eigenvalue j
                                    // (empty when vectors == false)
  /// The execution mode that actually produced this result (after
  /// plan::normalized() and any fp32->fp64 recovery) — kStandard for a
  /// mixed-precision request that fell back to full FP64.
  plan::EvdMode mode = plan::EvdMode::kStandard;
  /// Where the knob vector came from: "defaults", "heuristic", "measured",
  /// or "cache" (plan::to_string of the resolved plan's source), plus
  /// schedule/mode suffixes ("+la1", "+fp32", "+vo").
  std::string plan_source;
  /// Degradation taken to produce this result: "" (none), a solver chain
  /// ("dc->steqr", "dc->steqr->bisect", "steqr->bisect"), "fp32->fp64"
  /// (mixed-precision residual test failed; full-FP64 rerun), or
  /// "fp32->fp64," + a solver chain when both happened. A non-empty value
  /// still denotes a correct decomposition, at (possibly) higher cost.
  std::string recovery;
  /// FP64 refinement sweeps run and the final residual (kMixedPrecision
  /// results that did not fall back; zero otherwise).
  index_t refine_iters = 0;
  double refine_residual = 0.0;
  /// Process-wide dense-workspace high-water mark (la::workspace_peak_bytes)
  /// observed at completion. Meaningful when the caller resets the peak
  /// around a single solve; under concurrency it is the shared high water.
  std::size_t peak_workspace_bytes = 0;
  /// The solve's cost record, filled on every path: one entry per stage
  /// that ran (tridiagonalize, solver, backtransform, and evd_refine for
  /// kMixedPrecision) with its seconds; flops and the model projection
  /// under EvdOptions::profile. A kMixedPrecision request that fell back
  /// keeps its FP32 attempt ahead of the FP64 stages, so total_seconds() is
  /// what the solve spent.
  EvdProfile profile;
};

/// The merged knob sub-struct for an EvdOptions: `knobs`, with
/// tridiag.knobs filling the fields it leaves at 0. Drivers call this once
/// at entry; exposed so callers can inspect what a given options object
/// will actually request.
plan::Knobs merged_knobs(const EvdOptions& opts);

/// Resolve an options object exactly as eigh() would — normalize the
/// mode/vectors axis (plan::normalized), merge the knob layers, and
/// validate them (negative knobs throw Error(kInvalidInput)) — without
/// running anything. The returned object has mode/vectors canonicalized
/// and knobs replaced by the merged vector; feeding it back to eigh() is
/// idempotent. Use it to vet a request (e.g. at a service boundary) before
/// committing compute.
EvdOptions validate(const EvdOptions& opts);

/// Full symmetric EVD of `a` (lower triangle read): A = V diag(w) V^T.
EvdResult eigh(ConstMatrixView a, const EvdOptions& opts = {});

/// Same, against a pre-resolved plan: no planner consultation happens —
/// every auto knob is filled from `plan` (explicit knobs still win) and the
/// result is bitwise identical to what a batch worker sharing `plan`
/// produces for the same input. opts.plan (the PlanMode) is ignored.
EvdResult eigh(ConstMatrixView a, const EvdOptions& opts,
               const plan::Plan& plan);

/// Subset EVD: eigenpairs with 0-based ascending indices [il, iu]
/// (inclusive). Eigenvalues come from Sturm bisection, eigenvectors from
/// inverse iteration, and — the point of the exercise — the expensive Q2/Q1
/// back transformations only touch iu-il+1 columns instead of n.
EvdResult eigh_range(ConstMatrixView a, index_t il, index_t iu,
                     const EvdOptions& opts = {});

/// Subset EVD against a pre-resolved plan. Subset solves issued inside a
/// batch (or any caller that already holds a plan for the shape bucket)
/// skip the per-call planner pass entirely.
EvdResult eigh_range(ConstMatrixView a, index_t il, index_t iu,
                     const EvdOptions& opts, const plan::Plan& plan);

}  // namespace tdg::eig
