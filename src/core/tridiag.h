// Public façade: symmetric tridiagonalization.
//
// Composes the stages exactly the way the paper's evaluation does:
//   * kDirect   — one-stage blocked Householder (cuSOLVER Dsytrd analogue).
//   * kTwoStageClassic — sy2sb (b-blocked SBR) + sequential bulge chasing
//                 (MAGMA Dsy2sb + Dsb2st analogue; MAGMA's sb2st runs on the
//                 CPU, our sequential chase is its stand-in).
//   * kTwoStageDbbr — the paper's method: DBBR (Algorithm 1) + pipelined
//                 parallel bulge chasing on the packed band (Algorithm 2).
#pragma once

#include <vector>

#include "bc/bulge_chase.h"
#include "la/matrix.h"
#include "plan/knobs.h"
#include "sbr/sbr.h"

namespace tdg {

enum class TridiagMethod {
  kDirect,
  kTwoStageClassic,
  kTwoStageDbbr,
};

/// How unset ("auto", value 0) tuning knobs are resolved at driver entry
/// (see src/plan/plan.h). Explicitly-set knobs always win, in every mode.
enum class PlanMode {
  kManual,     // fill with the legacy static defaults (b=32, k=256, ...)
  kHeuristic,  // fill from the analytic planner (device-model seeded)
  kMeasure,    // fill from the empirical search / persistent plan cache
};

struct TridiagOptions {
  TridiagMethod method = TridiagMethod::kTwoStageDbbr;
  /// Resolution policy for knobs left at 0 below.
  PlanMode plan = PlanMode::kHeuristic;
  /// Band width for the two-stage methods (paper operating point: 32 for
  /// DBBR, 64 for MAGMA). 0 = auto.
  index_t b = 0;
  /// DBBR outer block / syr2k inner dimension. 0 = auto, which routes the
  /// default through the planner — the paper's 1024 on large problems.
  index_t k = 0;
  /// Panel width for the direct method. 0 = auto.
  index_t sytrd_nb = 0;
  /// Use the paper's square-block syr2k for trailing updates.
  bool use_square_syr2k = true;
  /// Pipelined bulge chasing (Algorithm 2); false = sequential chase.
  bool parallel_bc = true;
  /// Worker threads for the pipelined chase. 0 = auto.
  int bc_threads = 0;
  /// Cap on in-flight sweeps (the model's S); 0 = auto (kManual: bounded
  /// by the thread count only, the legacy behavior).
  index_t max_parallel_sweeps = 0;
  /// Record reflectors so eigenvectors can be back-transformed.
  bool want_factors = true;
  /// Thread budget for the BLAS-3 engine across both stages (0 = inherit
  /// the ambient ThreadLimit / TDG_THREADS default). Results are bitwise
  /// identical for any value. Never planner-overridden.
  int threads = 0;
  /// Screen the input's lower triangle for NaN/Inf and fail fast with
  /// Error(kInvalidInput) carrying the first bad coordinate. One cheap
  /// O(n^2/2) read pass; set false to skip on pre-validated inputs.
  bool check_finite = true;
  /// Consolidated knob sub-struct carried alongside the tridiagonalization
  /// so one options object configures a full EVD pipeline. The
  /// tridiagonalization itself reads only knobs.lookahead (the stage-1
  /// schedule: 0 = auto, -1 = force barrier, 1 = look-ahead DAG —
  /// bitwise-neutral either way); the solver / back-transform knobs pass
  /// through untouched, folded into the merged knob vector by the eigh*
  /// drivers at plan::resolve_and_validate() (lowest precedence, below
  /// EvdOptions::knobs).
  plan::Knobs knobs;
};

/// A tridiagonalization and its factors, held in the scalar type T the
/// reduction ran in (d and e are FP64 either way).
template <class T>
struct TridiagResultT {
  std::vector<double> d;  // diagonal of T
  std::vector<double> e;  // sub-diagonal of T
  /// Effective band width used (clamped to n-1).
  index_t b = 0;
  /// Effective DBBR outer block used (resolved + rounded to a multiple of
  /// b); 0 for the direct method.
  index_t k = 0;
  TridiagMethod method = TridiagMethod::kTwoStageDbbr;

  // Factors for back transformation (populated when want_factors):
  sbr::BandFactorT<T> stage1;  // two-stage only
  bc::ChaseLogT<T> stage2;     // two-stage only
  MatrixT<T> direct_a;         // direct only: reflectors in lower tri
  std::vector<T> direct_taus;  // direct only
};
using TridiagResult = TridiagResultT<double>;

/// Throw Error(kInvalidInput) naming `stage` if the lower triangle of `a`
/// contains a NaN or Inf; the error context carries the first bad (row,
/// col). The input-hygiene screen run by the drivers before any factoring
/// touches the data (a non-finite entry would otherwise propagate into
/// silent-garbage eigenvalues or a non-convergence deep in the pipeline).
void check_lower_finite(ConstMatrixView a, const char* stage);

/// Reduce symmetric `a` (lower triangle read) to tridiagonal form. Its
/// stages (the tridiagonalize span, with sytrd, sy2sb or dbbr and
/// bulge_chase inside) time themselves into the caller's obs::RecordScope.
TridiagResult tridiagonalize(ConstMatrixView a, const TridiagOptions& opts);

/// The two-stage reduction (opts.method kTwoStageClassic or kTwoStageDbbr)
/// in place on the lower triangle of `work`, in work's scalar type. `opts`
/// must already be resolved (plan::resolve; no knob left at 0).
/// tridiagonalize() runs it on an FP64 copy of its input; the
/// mixed-precision engine runs it on an FP32 one.
template <class T>
TridiagResultT<T> tridiagonalize_two_stage(MatrixViewT<T> work,
                                           const TridiagOptions& opts);

/// Back-transformation options (stage-2 chunked Q2 + stage-1 blocked Q1).
struct ApplyQOptions {
  /// Resolution policy for knobs left at 0 below.
  PlanMode plan = PlanMode::kHeuristic;
  /// Consolidated knob sub-struct: knobs.bt_kw is the stage-1 blocked group
  /// width, knobs.q2_group the stage-2 reflector-chunk size (0 = auto).
  /// Knobs::smlsiz is ignored by apply_q.
  plan::Knobs knobs;
  /// Thread budget for the back-transformation kernels (0 = inherit).
  int threads = 0;
};

/// Apply the accumulated orthogonal factor: c <- Q c where A = Q T Q^T.
/// Requires the result to have been computed with want_factors = true.
/// `bt_kw`: group width for the stage-1 blocked back transformation.
void apply_q(const TridiagResult& r, MatrixView c, index_t bt_kw = 256);

/// Same, with the full option set, in the scalar type of the factors.
template <class T>
void apply_q(const TridiagResultT<T>& r, MatrixViewT<T> c,
             const ApplyQOptions& opts);

}  // namespace tdg
