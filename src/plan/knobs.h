// plan::Knobs — the consolidated solver / back-transform knob sub-struct,
// plus the execution-mode axis (EvdMode / Precision / RefineOptions).
//
// The pipeline knobs that live downstream of the tridiagonalization (the
// D&C base-case size and the two back-transform group widths) are one value
// type shared by EvdOptions, TridiagOptions, ApplyQOptions, and
// BatchOptions, resolved exactly once at driver entry by
// plan::resolve_and_validate() (src/plan/plan.h).
//
// This header is dependency-free on purpose: core/tridiag.h and
// plan/plan.h both include it without creating a cycle, and the struct is
// trivially copyable so a batch driver can hand one options object to every
// pool worker by value.
#pragma once

#include <cstdint>

namespace tdg {
using index_t = std::int64_t;
}  // namespace tdg

namespace tdg::plan {

/// Execution mode of one EVD request — the first-class axis the planner,
/// the batch driver, and the serve layer all resolve and route on.
enum class EvdMode {
  kStandard,        // FP64 end to end, eigenpairs (the pre-existing path)
  kValuesOnly,      // eigenvalues only: Q1/Q2 never accumulated, the
                    // tridiagonal solve runs steqr's O(n) values-only path
  kMixedPrecision,  // FP32 sy2sb/DBBR/bulge-chase compute + FP64 refinement
};

/// Arithmetic the reduction pipeline runs in. kFp32 is implied by
/// EvdMode::kMixedPrecision; kStandard / kValuesOnly run kFp64.
enum class Precision { kFp64, kFp32 };

constexpr const char* to_string(EvdMode m) {
  switch (m) {
    case EvdMode::kStandard: return "standard";
    case EvdMode::kValuesOnly: return "values";
    case EvdMode::kMixedPrecision: return "mixed";
  }
  return "standard";
}

constexpr const char* to_string(Precision p) {
  return p == Precision::kFp32 ? "fp32" : "fp64";
}

/// Knobs of the FP64 refinement stage that follows an FP32 reduction
/// (EvdMode::kMixedPrecision): Ogita–Aishima style Newton sweeps on the
/// returned eigenpairs until the residual test passes.
struct RefineOptions {
  /// Maximum refinement sweeps (each ~8 n^3 FP64 flops). 0 = auto (2).
  index_t max_iters = 0;
  /// Residual acceptance: max_i ||A v_i - w_i v_i|| <= tol * ||A||.
  /// 0 = auto (50 * eps_fp64, the acceptance bound the test suite holds).
  double tol = 0.0;
};

/// Solver / back-transform knobs, zero = "auto" (filled from the resolved
/// plan). Trivially copyable; safe to share across batch workers by value.
struct Knobs {
  /// Divide & conquer base-case size (subproblems at or below it use steqr).
  index_t smlsiz = 0;
  /// Stage-1 (band-reduction) blocked back-transform group width.
  index_t bt_kw = 0;
  /// Stage-2 (bulge-chase) reflector-chunk size for the blocked Q2 apply.
  index_t q2_group = 0;
  /// Stage-1 look-ahead depth for the band-reduction task DAG
  /// (src/common/task_graph.h): 0 = auto (filled from the resolved plan),
  /// -1 = force the barrier schedule, >= 1 = look-ahead (clamped to 1 — the
  /// in-block panel chain is serial, so only the next block's first panel
  /// QR can be front-run while preserving bitwise identity). Results are
  /// bitwise identical at every depth; the knob only changes overlap.
  index_t lookahead = 0;
  /// FP64 refinement stage knobs (EvdMode::kMixedPrecision only).
  RefineOptions refine;
};

/// Field-wise merge: every knob takes `primary` when set (non-zero), else
/// `fallback`. Used at driver entry to fold per-stage knob sub-structs into
/// one vector — the outermost options object's knobs win.
inline Knobs merged(const Knobs& primary, const Knobs& fallback) {
  Knobs k = primary;
  if (k.smlsiz == 0) k.smlsiz = fallback.smlsiz;
  if (k.bt_kw == 0) k.bt_kw = fallback.bt_kw;
  if (k.q2_group == 0) k.q2_group = fallback.q2_group;
  if (k.lookahead == 0) k.lookahead = fallback.lookahead;
  if (k.refine.max_iters == 0) k.refine.max_iters = fallback.refine.max_iters;
  if (k.refine.tol == 0.0) k.refine.tol = fallback.refine.tol;
  return k;
}

}  // namespace tdg::plan
