#include "eig/drivers.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "eig/bisect.h"
#include "eig/eig.h"
#include "eig/mixed.h"
#include "gpumodel/bc_pipeline_model.h"
#include "gpumodel/device_spec.h"
#include "gpumodel/kernel_model.h"
#include "la/workspace.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "plan/plan.h"

namespace tdg::eig {

namespace {

/// One planner pass for the whole pipeline: resolve the tridiag options,
/// the back-transform options, and the solver base case against a single
/// plan so every stage runs the same configuration. `pre` (optional) is a
/// caller-supplied plan — the batch / pre-resolved paths — which skips the
/// planner consultation entirely.
plan::ResolvedPipeline resolve_evd(const EvdOptions& opts, index_t n,
                                   index_t subset, const plan::Plan* pre) {
  const plan::ProblemShape shape{n, opts.vectors, subset, opts.mode};
  if (pre != nullptr) {
    return plan::resolve_and_validate(shape, *pre, opts.tridiag,
                                      merged_knobs(opts));
  }
  plan::PlannerOptions popts;
  popts.threads = opts.tridiag.threads;
  return plan::resolve_and_validate(shape, opts.plan, opts.tridiag,
                                    merged_knobs(opts), popts);
}

/// Record the model-vs-measured drift of a completed profile into the
/// registry ("profile.model_drift_pct", percent). Always-on: profiled runs
/// are rare and the drift distribution is the calibration telemetry the
/// gpumodel consumers read. Phases the model does not price (model_seconds
/// == 0) are excluded from the model total; a profile with no modeled
/// phases or no measured time records nothing.
void record_model_drift(const EvdProfile& profile) {
  static obs::Histogram* const drift = obs::Registry::global().histogram(
      "profile.model_drift_pct", obs::Gating::kAlways);
  double measured = 0.0;
  double model = 0.0;
  for (const PhaseProfile& p : profile.phases) {
    if (p.model_seconds <= 0.0) continue;
    measured += p.seconds;
    model += p.model_seconds;
  }
  if (model <= 0.0 || measured <= 0.0) return;
  const double pct = std::abs(measured - model) / model * 100.0;
  drift->record(static_cast<long long>(pct));
}

}  // namespace

plan::Knobs merged_knobs(const EvdOptions& opts) {
  // Precedence: the options-level sub-struct, then whatever rides on the
  // tridiag options (resolve_and_validate folds that one in itself, but
  // merging here keeps this function the complete answer for callers).
  return plan::merged(opts.knobs, opts.tridiag.knobs);
}

EvdOptions validate(const EvdOptions& opts) {
  EvdOptions out = opts;
  const plan::ProblemShape eff =
      plan::normalized(plan::ProblemShape{0, opts.vectors, 0, opts.mode});
  out.vectors = eff.vectors;
  out.mode = eff.mode;
  out.knobs = merged_knobs(opts);
  out.tridiag.knobs = plan::Knobs{};  // folded into out.knobs above
  TDG_CHECK(out.knobs.smlsiz >= 0 && out.knobs.bt_kw >= 0 &&
                out.knobs.q2_group >= 0 && out.knobs.lookahead >= -1,
            "eigh: negative knob");
  TDG_CHECK(out.knobs.refine.max_iters >= 0 && out.knobs.refine.tol >= 0.0,
            "eigh: negative refinement knob");
  TDG_CHECK(out.tridiag.b >= 0 && out.tridiag.k >= 0 &&
                out.tridiag.sytrd_nb >= 0 &&
                out.tridiag.max_parallel_sweeps >= 0,
            "eigh: negative tridiag knob");
  return out;
}

namespace {

/// Count a taken recovery path in the metrics registry. Always-on
/// (obs::Gating::kAlways): a fallback happens at most a handful of times per
/// eigh and its total must be trustworthy telemetry even in processes that
/// never armed TDG_METRICS.
void count_recovery(const std::string& path) {
  obs::Registry& r = obs::Registry::global();
  static obs::Counter* const dc_steqr =
      r.counter("evd.recovery.dc_steqr", obs::Gating::kAlways);
  static obs::Counter* const dc_steqr_bisect =
      r.counter("evd.recovery.dc_steqr_bisect", obs::Gating::kAlways);
  static obs::Counter* const steqr_bisect =
      r.counter("evd.recovery.steqr_bisect", obs::Gating::kAlways);
  if (path == "dc->steqr") {
    dc_steqr->inc();
  } else if (path == "dc->steqr->bisect") {
    dc_steqr_bisect->inc();
  } else if (path == "steqr->bisect") {
    steqr_bisect->inc();
  }
}

/// Stamp the dense-workspace high-water mark (la/workspace.h) into the
/// result and the registry gauge. Always-on: one atomic load per eigh.
void record_workspace(EvdResult& res) {
  static obs::Gauge* const peak = obs::Registry::global().gauge(
      "evd.peak_workspace_bytes", obs::Gating::kAlways);
  res.peak_workspace_bytes = la::workspace_peak_bytes();
  peak->update_max(static_cast<long long>(res.peak_workspace_bytes));
}

/// Price one stage of a profiled solve from its slice of the op trace: the
/// ops outside its children's slices, plus its children. The bulge chase of
/// the n x n reduction `tri` configured is counted exactly by the
/// discrete-event pipeline model and priced by bc_gpu_seconds instead —
/// pipelined sweeps run on pool workers, which record nothing.
void price_stage(PhaseProfile& s, const std::vector<trace::Op>& ops,
                 const TridiagOptions& tri, index_t n,
                 const gpumodel::KernelModel& model) {
  std::vector<trace::Op> own;
  std::size_t at = s.ops_begin;
  for (PhaseProfile& c : s.children) {
    own.insert(own.end(), ops.begin() + at, ops.begin() + c.ops_begin);
    at = c.ops_end;
    price_stage(c, ops, tri, n, model);
    s.flops += c.flops;
    s.model_seconds += c.model_seconds;
  }
  own.insert(own.end(), ops.begin() + at, ops.begin() + s.ops_end);
  if (s.name == "bulge_chase") {
    const index_t b = std::max<index_t>(1, std::min(tri.b, n - 1));
    const index_t sweeps = tri.max_parallel_sweeps > 0
                               ? tri.max_parallel_sweeps
                               : std::max<index_t>(n - 2, 1);
    s.flops = 12.0 * static_cast<double>(b) * static_cast<double>(b) *
              gpumodel::bc_simulate(n, b, sweeps).busy_steps;
    s.model_seconds = gpumodel::bc_gpu_seconds(model.spec(), n, b, sweeps);
  } else {
    for (const trace::Op& op : own) s.flops += trace::flops(op);
    s.model_seconds += gpumodel::price_trace(model, own).seconds;
  }
  s.gflops = s.seconds > 0.0 ? s.flops / s.seconds / 1e9 : 0.0;
}

/// Price the top-level stages of `record` from `first` on.
void price_stages(EvdProfile& record, std::size_t first,
                  const trace::Recorder& ops, const TridiagOptions& tri,
                  index_t n) {
  const gpumodel::KernelModel model(gpumodel::h100_sxm(),
                                    /*vendor_syr2k=*/false);
  for (std::size_t i = first; i < record.phases.size(); ++i) {
    price_stage(record.phases[i], ops.ops(), tri, n, model);
  }
}

/// eigh_range's index window [il, iu].
struct Subset {
  index_t il = 0;
  index_t iu = 0;
};

/// The tridiagonal solve of eigh: eigenvalues into w (and, with vectors,
/// the eigenvectors of T into z), degrading through the fallback chain on
/// kNoConvergence — D&C -> implicit QL -> Sturm bisection + inverse
/// iteration; values only: implicit QL -> bisection. Each attempt restarts
/// from the pristine (tri.d, tri.e). Returns the solver chain taken ("" for
/// none), counting each step as it is taken.
std::string solve_tridiagonal(const TridiagResult& tri, const EvdOptions& opts,
                              index_t smlsiz, bool vectors,
                              std::vector<double>& w, Matrix& z) {
  const index_t n = static_cast<index_t>(tri.d.size());
  // Called from a catch block: anything but kNoConvergence (invalid input,
  // pipeline stall, ...), or any failure without solver_fallback, rethrows
  // the error being handled.
  const auto fall_back = [&opts](const Error& err, std::string chain) {
    if (!opts.solver_fallback || err.code() != ErrorCode::kNoConvergence) {
      throw;
    }
    count_recovery(chain);
    return chain;
  };
  w = tri.d;
  std::vector<double> e = tri.e;
  std::string chain;
  if (!vectors) {
    // Values only: implicit QL without vector accumulation is the cheapest
    // (this is also what the paper's "w/o vectors" path amounts to).
    try {
      steqr(w, e, nullptr);
      return chain;
    } catch (const Error& err) {
      chain = fall_back(err, "steqr->bisect");
    }
    w = eigenvalues_bisect(tri.d, tri.e, 0, n - 1);
    return chain;
  }
  z = Matrix(n, n);
  if (opts.solver == TridiagSolver::kDivideConquer) {
    try {
      stedc(w, e, z.view(), smlsiz);
      return chain;
    } catch (const Error& err) {
      chain = fall_back(err, "dc->steqr");
    }
  }
  w = tri.d;
  e = tri.e;
  z = Matrix::identity(n);
  try {
    MatrixView zv = z.view();
    steqr(w, e, &zv);
    return chain;
  } catch (const Error& err) {
    chain = fall_back(err, chain.empty() ? "steqr->bisect"
                                         : "dc->steqr->bisect");
  }
  // Last resort, solver-free: bisection eigenvalues to machine precision
  // and inverse-iteration vectors (clusters re-orthogonalised).
  w = eigenvalues_bisect(tri.d, tri.e, 0, n - 1);
  z = Matrix(n, n);
  inverse_iteration(tri.d, tri.e, w, z.view());
  return chain;
}

/// eigh and eigh_range (`range` non-null): one entry, one record, installed
/// after the planner pass (planning is not a stage of the solve).
EvdResult eigh_impl(ConstMatrixView a, const EvdOptions& opts,
                    const plan::Plan* pre, const Subset* range) {
  const char* const entry = range != nullptr ? "eigh_range" : "eigh";
  TDG_CHECK(a.rows == a.cols, std::string(entry) + ": matrix must be square");
  const index_t n = a.rows;
  TDG_CHECK(range == nullptr ||
                (0 <= range->il && range->il <= range->iu && range->iu < n),
            "eigh_range: bad index range");
  EvdResult res;
  if (n == 0) return res;
  // Canonicalize the mode/vectors axis once; every decision below reads the
  // effective shape, never the raw request. The subset path has no FP32
  // engine (bisection + inverse iteration are already O(n^2)-dominated), so
  // a kMixedPrecision request runs the standard FP64 pipeline there.
  const plan::ProblemShape eff =
      plan::normalized(plan::ProblemShape{n, opts.vectors, 0, opts.mode});
  EvdOptions ropts = opts;  // the canonicalized request
  ropts.vectors = eff.vectors;
  ropts.mode = range == nullptr ? eff.mode
               : eff.vectors    ? plan::EvdMode::kStandard
                                : plan::EvdMode::kValuesOnly;
  res.mode = ropts.mode;
  obs::Span span(entry);
  span.attr("n", n);
  if (range != nullptr) {
    span.attr("il", range->il);
    span.attr("iu", range->iu);
  } else {
    span.attr("vectors", eff.vectors ? 1 : 0);
    span.attr("mode", static_cast<index_t>(eff.mode));
  }
  // Stage-boundary cancellation polls (common/cancel.h): entry, after
  // tridiagonalization, and before the back-transform. The stages
  // themselves poll at their own inner boundaries.
  cancel::poll("eigh");
  if (opts.check_finite) check_lower_finite(a, entry);

  // One thread budget for the whole pipeline: tridiagonalization, the D&C
  // merge GEMMs, and the Q2/Q1 back transformations.
  ThreadLimit thread_scope(opts.tridiag.threads);

  const index_t subset = range != nullptr ? range->iu - range->il + 1 : 0;
  plan::ResolvedPipeline cfg = resolve_evd(ropts, n, subset, pre);
  cfg.tridiag.check_finite = false;  // screened above; don't rescan
  res.plan_source = plan::source_string(cfg.plan);

  // The solve's record: every stage span below appends to res.profile.
  // Profiling adds one op trace, sliced per stage.
  trace::Recorder ops;
  std::optional<trace::Scope> op_scope;
  if (opts.profile) op_scope.emplace(ops);
  obs::RecordScope record(&res.profile, opts.profile ? &ops : nullptr);

  // Mixed precision: FP32 reduction engine + FP64 refinement. A failed
  // residual test (or a tridiagonal-solver breakdown inside the engine) is
  // recovered by falling through to the standard FP64 pipeline below, with
  // the plan re-resolved at FP64 so provenance names the run that actually
  // produced the result. The FP32 attempt's stages stay in the record.
  bool accepted = false;  // a mixed-precision result passed refinement
  if (range == nullptr && eff.precision == plan::Precision::kFp32 && n >= 3) {
    static obs::Counter* const refine_iters = obs::Registry::global().counter(
        "evd.refine_iters", obs::Gating::kAlways);
    static obs::Counter* const fp32_fallbacks =
        obs::Registry::global().counter("evd.fp32_fallbacks",
                                        obs::Gating::kAlways);
    MixedOutcome mo =
        eigh_mixed(a, cfg, opts.solver == TridiagSolver::kDivideConquer);
    refine_iters->inc(mo.refine.iters);
    if (opts.profile) price_stages(res.profile, 0, ops, cfg.tridiag, n);
    accepted = mo.ok;
    if (accepted) {
      res.eigenvalues = std::move(mo.eigenvalues);
      res.eigenvectors = std::move(mo.eigenvectors);
      res.refine_iters = mo.refine.iters;
      res.refine_residual = mo.refine.residual;
    } else {
      fp32_fallbacks->inc();
      res.recovery = "fp32->fp64";
      res.mode = plan::EvdMode::kStandard;
      ropts.mode = plan::EvdMode::kStandard;
      op_scope.reset();  // a kMeasure search's proxy runs are not the solve's
      cfg = resolve_evd(ropts, n, /*subset=*/0, pre);
      if (opts.profile) op_scope.emplace(ops);
      cfg.tridiag.check_finite = false;
      res.plan_source = plan::source_string(cfg.plan);
    }
  }

  const std::size_t fp64_first = res.profile.phases.size();
  if (!accepted) {
    TridiagResult tri = tridiagonalize(a, cfg.tridiag);
    cancel::poll("solver");

    Matrix z;
    {
      obs::Span solver_span("solver", obs::kStage);
      solver_span.attr("n", n);
      if (range != nullptr) {
        res.eigenvalues =
            eigenvalues_bisect(tri.d, tri.e, range->il, range->iu);
        if (eff.vectors) {
          z = Matrix(n, subset);
          inverse_iteration(tri.d, tri.e, res.eigenvalues, z.view());
        }
      } else {
        const std::string chain = solve_tridiagonal(
            tri, opts, cfg.smlsiz, eff.vectors, res.eigenvalues, z);
        if (!chain.empty()) {
          // The solver chain joined onto any fp32->fp64 prefix
          // ("fp32->fp64,dc->steqr" when both happened).
          res.recovery =
              res.recovery.empty() ? chain : res.recovery + "," + chain;
        }
      }
    }

    if (eff.vectors) {
      cancel::poll("backtransform");
      {
        // V = Q * Z; a subset solve back-transforms only its k columns.
        obs::Span bt_span("backtransform", obs::kStage);
        bt_span.attr("n", n);
        apply_q(tri, z.view(), cfg.applyq);
      }
      res.eigenvectors = std::move(z);
    }
    if (opts.profile) {
      price_stages(res.profile, fp64_first, ops, cfg.tridiag, n);
    }
  }

  if (opts.profile) record_model_drift(res.profile);
  record_workspace(res);
  return res;
}

}  // namespace

EvdResult eigh(ConstMatrixView a, const EvdOptions& opts) {
  return eigh_impl(a, opts, nullptr, nullptr);
}

EvdResult eigh(ConstMatrixView a, const EvdOptions& opts,
               const plan::Plan& plan) {
  return eigh_impl(a, opts, &plan, nullptr);
}

EvdResult eigh_range(ConstMatrixView a, index_t il, index_t iu,
                     const EvdOptions& opts) {
  const Subset range{il, iu};
  return eigh_impl(a, opts, nullptr, &range);
}

EvdResult eigh_range(ConstMatrixView a, index_t il, index_t iu,
                     const EvdOptions& opts, const plan::Plan& plan) {
  const Subset range{il, iu};
  return eigh_impl(a, opts, &plan, &range);
}

}  // namespace tdg::eig
