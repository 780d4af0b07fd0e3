// Planner tiers: analytic heuristic, bounded empirical search, resolution.
//
// The heuristic leans on the calibrated device model (src/gpumodel) the way
// the paper's authors leaned on their Section-3.3 analysis:
//
//  * b — scored scan over {8, 16, 32, 64}. The bulge-chase step model gets
//    a warp-width floor (one warp processes one sweep, so a step at b < 32
//    costs the same as b = 32 while leaving lanes idle); under that floor
//    the pipeline cycles strictly favor b = 32 over 16/8 (fewer bulges and
//    stalls per sweep), and the ~b^2 step cost rules out 64 — the scan
//    reproduces the paper's published operating point instead of
//    hard-coding it.
//  * S — smallest sweep cap within 2% of the saturated pipeline's cycle
//    count (bc_simulate exactly for small n, the closed form above), capped
//    at 2 sweeps per worker (the paper runs ~2 sweeps per SM). Monotone
//    non-decreasing in the thread budget by construction.
//  * k — the GEMM k-pipeline efficiency k/(k + k_half) passes 94% at
//    k = 16 * k_half = 1024, the paper's operating point; smaller problems
//    take k = n/2 so at least two outer blocks amortize the panel work.
//
// The measure tier brackets the heuristic seed with its neighbors in b and
// k plus the legacy defaults, times each candidate's tridiagonalization on
// a proxy problem, and keeps the winner — so a measured plan never loses to
// the pre-planner hard-coded configuration on the proxy.

#include "plan/plan.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "gpumodel/bc_pipeline_model.h"
#include "gpumodel/kernel_model.h"
#include "la/generate.h"
#include "obs/obs.h"
#include "plan/plan_cache.h"

namespace tdg::plan {

namespace {

index_t round_to_multiple(index_t x, index_t b) {
  return std::max(b, (x / b) * b);
}

index_t clamp_index(index_t x, index_t lo, index_t hi) {
  return std::min(std::max(x, lo), hi);
}

double pipeline_cycles(index_t n, index_t b, index_t s) {
  if (n < 2) return 0.0;
  // The exact simulation is O(n * s) per call and the heuristic scans it;
  // use it where the closed form's dropped floor terms actually matter and
  // the paper's closed form (O(1)) beyond.
  if (n <= 512) return gpumodel::bc_simulate(n, b, s).cycles;
  return gpumodel::bc_cycles_closed_form(n, b, s);
}

/// Smallest S whose cycle count is within 2% of the saturated pipeline.
index_t pick_sweep_saturation(index_t n, index_t b) {
  if (n < 4) return 1;
  const index_t s_hi = std::min<index_t>(n - 2, 64);
  const double target = pipeline_cycles(n, b, s_hi) * 1.02;
  for (index_t s = 1; s < s_hi; ++s) {
    if (pipeline_cycles(n, b, s) <= target) return s;
  }
  return s_hi;
}

index_t pick_k(index_t n, index_t b, const gpumodel::DeviceSpec& spec) {
  // Full k-pipeline efficiency: k/(k + k_half) >= 0.94 at k = 16 * k_half.
  const index_t k_model = round_to_multiple(
      static_cast<index_t>(16.0 * spec.gemm_k_half), b);
  // Small problems: k = n/2 keeps at least two outer blocks in flight.
  const index_t k_shape = round_to_multiple(std::max(b, n / 2), b);
  return std::min(k_model, k_shape);
}

/// Modeled seconds of the two-stage pipeline at bandwidth b — the scoring
/// function of the heuristic's b scan.
double model_two_stage_seconds(const gpumodel::KernelModel& km, index_t n,
                               index_t b) {
  const gpumodel::DeviceSpec& spec = km.spec();
  const index_t k = pick_k(n, b, spec);
  const double nd = static_cast<double>(n);
  // Stage-1 panel factorizations are BLAS-2: each of the ~n/b panels
  // touches ~8 * m_j * b^2 bytes, summing to ~4 n^2 b.
  const double panel = km.blas2_seconds(4.0 * nd * nd * b);
  // Trailing updates: one inner-dimension-k syr2k per outer block, priced
  // as two GEMMs on the average trailing size n/2.
  const double blocks = std::max(1.0, nd / static_cast<double>(k));
  const double trailing = 2.0 * blocks * km.gemm_seconds(n / 2, n / 2, k);
  // Stage 2: pipeline cycles times the per-step cost, floored at the b = 32
  // warp width — one warp per sweep, so narrower steps run no faster.
  const index_t s = pick_sweep_saturation(n, b);
  const double step =
      gpumodel::bc_step_seconds(spec, std::max<index_t>(b, 32));
  return panel + trailing + pipeline_cycles(n, b, s) * step;
}

index_t pick_bandwidth(index_t n, const gpumodel::KernelModel& km) {
  std::vector<std::pair<index_t, double>> scored;
  for (index_t b : {8, 16, 32, 64}) {
    if (b >= n) continue;
    scored.emplace_back(b, model_two_stage_seconds(km, n, b));
  }
  if (scored.empty()) return std::max<index_t>(1, n - 1);
  double best = scored.front().second;
  for (const auto& [b, s] : scored) best = std::min(best, s);
  // Within the model's resolution (3%), prefer the fatter band: fewer
  // sweeps to chase and better panel packing, per the paper's choice.
  index_t best_b = scored.front().first;
  for (const auto& [b, s] : scored) {
    if (s <= best * 1.03) best_b = b;
  }
  return best_b;
}

int ambient_threads(int requested) {
  const int t = requested > 0 ? requested : current_threads();
  return std::min(std::max(t, 1), kMaxThreads);
}

TridiagOptions options_from_plan(const Plan& p, bool want_factors) {
  TridiagOptions o;
  o.plan = PlanMode::kManual;
  o.method = p.method;
  o.b = p.b;
  o.k = p.k;
  o.sytrd_nb = p.sytrd_nb;
  o.bc_threads = p.bc_threads;
  o.max_parallel_sweeps = p.max_parallel_sweeps;
  o.want_factors = want_factors;
  return o;
}

/// Clamp a plan's shape-dependent knobs to a (possibly smaller) size n, so
/// full-size candidates stay legal on the measure tier's proxy problem.
Plan clamped_for(const Plan& p, index_t n) {
  Plan c = p;
  c.b = clamp_index(c.b, 1, std::max<index_t>(1, n - 1));
  c.k = std::min(round_to_multiple(c.k, c.b),
                 round_to_multiple(((n + c.b - 1) / c.b) * c.b, c.b));
  c.sytrd_nb = clamp_index(c.sytrd_nb, 1, std::max<index_t>(1, n));
  return c;
}

double time_candidate(const Plan& cand, ConstMatrixView proxy, bool vectors,
                      index_t reps) {
  // Planning is not a stage of the solve that asked for it: the proxy runs
  // record into no solve record.
  obs::RecordScope unrecorded(nullptr);
  double best = -1.0;
  for (index_t r = 0; r < std::max<index_t>(reps, 1); ++r) {
    WallTimer t;
    TridiagResult res =
        tridiagonalize(proxy, options_from_plan(clamped_for(cand, proxy.rows),
                                                vectors));
    const double s = t.seconds();
    (void)res;
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

std::string resolve_cache_path(const PlannerOptions& popts) {
  if (!popts.cache_path.empty()) return popts.cache_path;
  const char* env = std::getenv("TDG_PLAN_CACHE");
  return env ? env : "";
}

}  // namespace

const char* to_string(PlanSource source) {
  switch (source) {
    case PlanSource::kDefaults: return "defaults";
    case PlanSource::kHeuristic: return "heuristic";
    case PlanSource::kMeasured: return "measured";
    case PlanSource::kCache: return "cache";
  }
  return "heuristic";
}

std::string source_string(const Plan& plan) {
  std::string s = to_string(plan.source);
  // Only schedule-changing knob values are recorded: barrier plans keep the
  // plain tier name, so pre-look-ahead provenance strings stay comparable.
  if (plan.lookahead >= 1) s += "+la" + std::to_string(plan.lookahead);
  // Non-default execution modes are recorded the same way — default FP64
  // standard runs keep the plain string, so pre-mode provenance (and any
  // consumer comparing it) is unchanged.
  if (plan.precision == Precision::kFp32) {
    s += "+fp32";
  } else if (plan.mode == EvdMode::kValuesOnly) {
    s += "+vo";
  }
  return s;
}

ProblemShape normalized(ProblemShape shape) {
  if (shape.mode == EvdMode::kValuesOnly) shape.vectors = false;
  if (!shape.vectors && shape.mode == EvdMode::kStandard) {
    shape.mode = EvdMode::kValuesOnly;
  }
  if (shape.mode == EvdMode::kMixedPrecision) {
    if (shape.vectors) {
      shape.precision = Precision::kFp32;
    } else {
      shape.mode = EvdMode::kValuesOnly;
      shape.precision = Precision::kFp64;
    }
  }
  if (shape.mode != EvdMode::kMixedPrecision) {
    shape.precision = Precision::kFp64;
  }
  return shape;
}

Plan default_plan(const ProblemShape& shape) {
  Plan p;
  p.source = PlanSource::kDefaults;
  p.method = TridiagMethod::kTwoStageDbbr;
  p.b = 32;
  p.k = 256;
  p.sytrd_nb = 64;
  p.max_parallel_sweeps = 0;  // legacy: bounded by the thread count only
  p.threads = 0;
  p.bc_threads = 4;
  p.bt_kw = 256;
  p.q2_group = 64;
  p.smlsiz = 32;
  p.lookahead = 0;  // legacy barrier schedule
  return clamped_for(p, std::max<index_t>(shape.n, 1));
}

Plan heuristic_plan(const ProblemShape& shape, int threads) {
  const index_t n = std::max<index_t>(shape.n, 1);
  const int t = ambient_threads(threads);

  // The plan is a pure function of (n, t) on a given machine, and drivers
  // consult it on every call — memoize (problem sizes repeat under load).
  static std::mutex memo_mu;
  static std::map<std::pair<index_t, int>, Plan> memo;
  {
    std::lock_guard<std::mutex> lock(memo_mu);
    const auto it = memo.find({n, t});
    if (it != memo.end()) return it->second;
  }

  Plan p;
  p.source = PlanSource::kHeuristic;
  p.threads = t;

  const gpumodel::KernelModel km(gpumodel::h100_sxm(), /*vendor_syr2k=*/false);

  // Tiny problems: the two-stage machinery (panel QR + chase + two back
  // transformations) costs more than it saves; blocked sytrd wins.
  p.method = n < 64 ? TridiagMethod::kDirect : TridiagMethod::kTwoStageDbbr;

  p.b = pick_bandwidth(n, km);
  p.k = pick_k(n, p.b, km.spec());

  // S from the pipeline model; at most 2 in-flight sweeps per worker (the
  // paper's GPU runs ~2 sweeps per SM). min(saturation, cap) is monotone
  // non-decreasing in the thread budget.
  const index_t cap = std::max<index_t>(1, 2 * static_cast<index_t>(t));
  p.max_parallel_sweeps = std::min(pick_sweep_saturation(n, p.b), cap);
  p.bc_threads = static_cast<int>(
      clamp_index(std::min<index_t>(t, p.max_parallel_sweeps), 1, t));

  // Direct-path panel: 64 amortizes the rank-2nb syr2k; never more than
  // half the matrix (sytrd switches to the unblocked kernel below 2 nb).
  p.sytrd_nb = clamp_index(64, 1, std::max<index_t>(1, n / 2));

  // Back transformation: the stage-1 group width trades W-recomputation
  // against GEMM fatness; 256 saturates from n ~ 1k (paper Fig. 14). The
  // subset path keeps it — the win there comes from the column count.
  p.bt_kw = clamp_index(256, 1, n);
  p.q2_group = clamp_index(64, 1, n);
  p.smlsiz = clamp_index(32, 2, std::max<index_t>(n, 2));

  // Look-ahead needs a worker to run the front-run QR on; with one thread
  // the DAG degrades to the serial schedule anyway, so don't claim it.
  p.lookahead = t >= 2 ? 1 : 0;

  p = clamped_for(p, n);
  {
    std::lock_guard<std::mutex> lock(memo_mu);
    memo.emplace(std::pair<index_t, int>{n, t}, p);
  }
  return p;
}

Plan measured_plan(const ProblemShape& shape, const PlannerOptions& popts) {
  const index_t n = std::max<index_t>(shape.n, 1);
  const std::string path = resolve_cache_path(popts);
  const std::string key = cache_key(shape);
  PlanCache& cache = PlanCache::global();

  if (!path.empty()) cache.load(path);
  Plan cached;
  if (cache.lookup(key, &cached)) return cached;
  cache.note_measure_run(key);

  const Plan seed = heuristic_plan(shape, popts.threads);

  // Candidate set: seed, the legacy defaults (so a measured plan never
  // loses to the pre-planner configuration), and the seed's neighbors in
  // k and b.
  std::vector<Plan> cands{seed, default_plan(shape)};
  {
    Plan half_k = seed, dbl_k = seed;
    half_k.k = round_to_multiple(seed.k / 2, seed.b);
    dbl_k.k = seed.k * 2;
    cands.push_back(half_k);
    cands.push_back(dbl_k);
    if (seed.b > 8) {
      Plan half_b = seed;
      half_b.b = seed.b / 2;
      half_b.k = round_to_multiple(seed.k, half_b.b);
      cands.push_back(half_b);
    }
    Plan dbl_b = seed;
    dbl_b.b = std::min<index_t>(seed.b * 2, 64);
    dbl_b.k = round_to_multiple(seed.k, dbl_b.b);
    cands.push_back(dbl_b);
  }

  const index_t proxy_n =
      popts.proxy_n > 0 ? std::min(popts.proxy_n, n) : std::min<index_t>(n, 640);
  Rng rng(0x9d2c5681);
  const Matrix proxy = random_symmetric(proxy_n, rng);

  ThreadLimit scope(popts.threads);
  Plan best = seed;
  double best_s = -1.0;
  for (const Plan& cand : cands) {
    const Plan effective = clamped_for(cand, proxy_n);
    // Candidates that clamp to an already-timed config add nothing.
    bool duplicate = false;
    for (const Plan& prior : cands) {
      if (&prior == &cand) break;
      const Plan p2 = clamped_for(prior, proxy_n);
      if (p2.method == effective.method && p2.b == effective.b &&
          p2.k == effective.k && p2.sytrd_nb == effective.sytrd_nb &&
          p2.max_parallel_sweeps == effective.max_parallel_sweeps &&
          p2.bc_threads == effective.bc_threads) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    const double s = time_candidate(cand, proxy.view(), shape.vectors,
                                    popts.reps);
    if (best_s < 0.0 || s < best_s) {
      best_s = s;
      best = cand;
    }
  }

  best.source = PlanSource::kMeasured;
  best.measured_seconds = std::max(best_s, 0.0);
  cache.insert(key, best);
  if (!path.empty()) cache.save(path);
  return best;
}

Plan plan_for(const ProblemShape& shape, PlanMode mode,
              const PlannerOptions& popts) {
  const ProblemShape s = normalized(shape);
  Plan p;
  switch (mode) {
    case PlanMode::kManual: p = default_plan(s); break;
    case PlanMode::kMeasure: p = measured_plan(s, popts); break;
    case PlanMode::kHeuristic: p = heuristic_plan(s, popts.threads); break;
  }
  // Provenance: the knob vector is mode-independent (the FP32 stage and
  // the values-only path consume the same b/k/S), but the plan remembers
  // what it was resolved for so source_string() can record it.
  p.mode = s.mode;
  p.precision = s.precision;
  return p;
}

TridiagOptions resolve(const TridiagOptions& opts, index_t n,
                       const Plan& plan) {
  TridiagOptions o = opts;
  if (o.b == 0) o.b = plan.b;
  if (o.k == 0) o.k = plan.k;
  if (o.sytrd_nb == 0) o.sytrd_nb = plan.sytrd_nb;
  if (o.bc_threads == 0) o.bc_threads = plan.bc_threads;
  if (o.max_parallel_sweeps == 0)
    o.max_parallel_sweeps = plan.max_parallel_sweeps;
  if (o.knobs.lookahead == 0) o.knobs.lookahead = plan.lookahead;
  return validated(o, n);
}

ApplyQOptions resolve(const ApplyQOptions& opts, index_t n, const Plan& plan) {
  ApplyQOptions o = opts;
  if (o.knobs.bt_kw == 0) o.knobs.bt_kw = plan.bt_kw;
  if (o.knobs.q2_group == 0) o.knobs.q2_group = plan.q2_group;
  return validated(o, n);
}

TridiagOptions validated(const TridiagOptions& opts, index_t n) {
  TDG_CHECK(n >= 1, "plan: problem size must be positive");
  TDG_CHECK(opts.b >= 0 && opts.k >= 0 && opts.sytrd_nb >= 0,
            "plan: negative block-size knob");
  TDG_CHECK(opts.max_parallel_sweeps >= 0,
            "plan: negative max_parallel_sweeps");
  TDG_CHECK(opts.threads >= 0 && opts.bc_threads >= 0,
            "plan: negative thread count");
  TDG_CHECK(opts.knobs.lookahead >= -1,
            "plan: lookahead must be -1 (barrier), 0 (auto), or a depth");
  TridiagOptions o = opts;
  // Only depth 1 carries bitwise-preserving work to front-run; deeper
  // requests behave as 1 (see sbr::BandReductionOptions::lookahead).
  o.knobs.lookahead = std::min<index_t>(o.knobs.lookahead, 1);
  o.b = clamp_index(o.b == 0 ? 32 : o.b, 1, std::max<index_t>(1, n - 1));
  // k: a positive multiple of b (the dbbr precondition), no larger than n
  // rounded up to the block grid.
  const index_t k_hi = ((n + o.b - 1) / o.b) * o.b;
  o.k = clamp_index(round_to_multiple(o.k == 0 ? o.b : o.k, o.b), o.b,
                    std::max(o.b, k_hi));
  o.sytrd_nb =
      clamp_index(o.sytrd_nb == 0 ? 64 : o.sytrd_nb, 1, std::max<index_t>(1, n));
  o.max_parallel_sweeps = std::min<index_t>(o.max_parallel_sweeps, n);
  o.threads = std::min(o.threads, kMaxThreads);
  o.bc_threads = std::min(o.bc_threads, kMaxThreads);
  return o;
}

ApplyQOptions validated(const ApplyQOptions& opts, index_t n) {
  TDG_CHECK(n >= 1, "plan: problem size must be positive");
  TDG_CHECK(opts.knobs.bt_kw >= 0 && opts.knobs.q2_group >= 0,
            "plan: negative back-transform group width");
  TDG_CHECK(opts.threads >= 0, "plan: negative thread count");
  ApplyQOptions o = opts;
  o.knobs.bt_kw = clamp_index(o.knobs.bt_kw == 0 ? 256 : o.knobs.bt_kw, 1,
                              std::max<index_t>(1, n));
  o.knobs.q2_group = clamp_index(o.knobs.q2_group == 0 ? 64 : o.knobs.q2_group,
                                 1, std::max<index_t>(1, n));
  o.threads = std::min(o.threads, kMaxThreads);
  return o;
}

ResolvedPipeline resolve_and_validate(const ProblemShape& shape,
                                      const Plan& plan,
                                      const TridiagOptions& tridiag,
                                      const Knobs& knobs) {
  const ProblemShape s = normalized(shape);
  const index_t n = std::max<index_t>(s.n, 1);
  ResolvedPipeline r;
  r.plan = plan;
  // Shared bucket plans are mode-agnostic; the resolved pipeline's
  // provenance reflects the request that is actually running.
  r.plan.mode = s.mode;
  r.plan.precision = s.precision;

  // Lowest precedence for knobs carried on the tridiag options; the
  // caller's (already merged) knob struct wins, the plan fills the rest.
  // The merge happens before resolve() so plan-filled knobs that the
  // tridiagonalization reads (lookahead) resolve against the merged value.
  const Knobs k = merged(knobs, tridiag.knobs);

  TridiagOptions t = tridiag;
  t.knobs = k;
  r.tridiag = resolve(t, n, plan);
  r.tridiag.plan = PlanMode::kManual;  // already resolved
  r.tridiag.want_factors = s.vectors;
  // Provenance records the schedule that will actually run: a caller knob
  // (including -1 = force barrier) overrides what the plan proposed.
  r.plan.lookahead = std::max<index_t>(0, r.tridiag.knobs.lookahead);

  r.applyq.knobs = k;
  r.applyq.threads = tridiag.threads;
  r.applyq = resolve(r.applyq, n, plan);
  r.applyq.plan = PlanMode::kManual;

  TDG_CHECK(k.smlsiz >= 0, "plan: negative smlsiz");
  r.smlsiz = clamp_index(k.smlsiz == 0 ? plan.smlsiz : k.smlsiz, 2,
                         std::max<index_t>(n, 2));

  TDG_CHECK(k.refine.max_iters >= 0 && k.refine.tol >= 0.0,
            "plan: negative refinement knob");
  r.refine = k.refine;  // zeros = autos, resolved by the refinement stage
  return r;
}

ResolvedPipeline resolve_and_validate(const ProblemShape& shape, PlanMode mode,
                                      const TridiagOptions& tridiag,
                                      const Knobs& knobs,
                                      const PlannerOptions& popts) {
  PlannerOptions p = popts;
  if (p.threads == 0) p.threads = tridiag.threads;
  return resolve_and_validate(shape, plan_for(shape, mode, p), tridiag, knobs);
}

}  // namespace tdg::plan
