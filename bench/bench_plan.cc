// Planner acceptance bench: seed-default configuration vs planned.
//
// For each n, run the full EVD twice — once under PlanMode::kManual (the
// legacy hard-coded knobs the repo shipped with) and once with a plan from
// the measure tier (which consults the persistent cache first). The planned
// run must be no slower than the seed default, and a second invocation of
// this bench must report plan_source "cache" with zero planning time spent
// on re-measurement.
//
// Each measurement is emitted as one JSON line (prefix "JSON ") so the perf
// trajectory can scrape it:
//   JSON {"bench":"plan","n":1024,"config":"planned","plan_source":"cache",...}
//
// Flags: --n_max=2048 --reps=2 --cache=<path> (default: TDG_PLAN_CACHE, else
// tdg_plan_cache.json in the working directory).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <tdg/eig.h>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "la/generate.h"
#include "plan/plan_cache.h"

namespace tdg {
namespace {

struct RunResult {
  double seconds = 0.0;
  std::string plan_source;
};

RunResult run_evd(ConstMatrixView a, const eig::EvdOptions& opts, int reps) {
  RunResult best;
  best.seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    const eig::EvdResult res = eig::eigh(a, opts);
    const double s = t.seconds();
    if (s < best.seconds) {
      best.seconds = s;
      best.plan_source = res.plan_source;
    }
  }
  return best;
}

int run(int argc, char** argv) {
  const benchutil::Args args(argc, argv, {"n_max", "reps", "cache"});
  const index_t n_max = args.get_int("n_max", 2048);
  const int reps = static_cast<int>(args.get_int("reps", 2));

  // Persistent cache: flag > env > a local default. The planner reads the
  // same resolution order, so pointing both at one file is enough.
  std::string cache = "tdg_plan_cache.json";
  if (const char* env = std::getenv("TDG_PLAN_CACHE")) cache = env;
  cache = args.get_str("cache", cache);

  benchutil::header("planner: seed defaults vs planned (full EVD)");
  std::printf("plan cache: %s\n", cache.c_str());
  std::printf("%8s %12s %12s %10s %12s %8s %6s %6s\n", "n", "default_s",
              "planned_s", "speedup", "plan_source", "plan_s", "b", "k");
  benchutil::rule();

  for (index_t n = 512; n <= n_max; n *= 2) {
    Rng rng(0xb5297a4d + static_cast<uint64_t>(n));
    const Matrix a = random_symmetric(n, rng);

    // Seed default: the pre-planner hard-coded knob vector.
    eig::EvdOptions manual;
    manual.plan = PlanMode::kManual;
    const RunResult def = run_evd(a.view(), manual, reps);

    // Planned: measure tier with the persistent cache. Resolve the plan
    // once up front so planning time is reported separately from solve time.
    plan::PlannerOptions popts;
    popts.cache_path = cache;
    WallTimer plan_timer;
    const plan::Plan p =
        plan::measured_plan({n, /*vectors=*/true, /*subset=*/0}, popts);
    const double plan_seconds = plan_timer.seconds();

    // Apply the resolved plan manually so the timed region is pure solve
    // (the planner was already consulted, and its cost reported, above).
    eig::EvdOptions planned;
    planned.plan = PlanMode::kManual;
    planned.tridiag.method = p.method;
    planned.tridiag.b = p.b;
    planned.tridiag.k = p.k;
    planned.tridiag.sytrd_nb = p.sytrd_nb;
    planned.tridiag.bc_threads = p.bc_threads;
    planned.tridiag.max_parallel_sweeps = p.max_parallel_sweeps;
    planned.knobs.smlsiz = p.smlsiz;
    planned.knobs.bt_kw = p.bt_kw;
    planned.knobs.q2_group = p.q2_group;
    const RunResult plv = run_evd(a.view(), planned, reps);

    const char* source = plan::to_string(p.source);
    std::printf("%8lld %12.4f %12.4f %9.2fx %12s %12.4f %6lld %6lld\n",
                static_cast<long long>(n), def.seconds, plv.seconds,
                def.seconds / plv.seconds, source, plan_seconds,
                static_cast<long long>(p.b), static_cast<long long>(p.k));
    benchutil::JsonLine("plan")
        .field("n", n)
        .field("default_seconds", def.seconds)
        .field("planned_seconds", plv.seconds)
        .field("speedup", def.seconds / plv.seconds)
        .field("plan_source", source)
        .field("plan_seconds", plan_seconds)
        .field("b", p.b)
        .field("k", p.k)
        .field("sweeps", p.max_parallel_sweeps)
        .field("smlsiz", p.smlsiz)
        .emit();
  }
  benchutil::rule();

  // Cache telemetry: one JSON line with the process-wide counters plus the
  // per-shape-bucket breakdown, so the perf trajectory can watch hit rates
  // and re-measurement churn across runs.
  const plan::CacheStats cs = plan::PlanCache::global().stats();
  std::string buckets = "[";
  bool first = true;
  for (const auto& [key, ss] : plan::PlanCache::global().shape_stats()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"key\":\"%s\",\"hits\":%lld,\"misses\":%lld,"
                  "\"measure_runs\":%lld}",
                  first ? "" : ",", key.c_str(), ss.hits, ss.misses,
                  ss.measure_runs);
    buckets += buf;
    first = false;
  }
  buckets += "]";
  benchutil::JsonLine("plan_cache_stats")
      .field("hits", cs.hits)
      .field("misses", cs.misses)
      .field("measure_runs", cs.measure_runs)
      .field("loads", cs.loads)
      .field("saves", cs.saves)
      .field("save_failures", cs.save_failures)
      .field("lock_failures", cs.lock_failures)
      .raw("buckets", buckets)
      .emit();

  std::printf("second run of this bench should show plan_source \"cache\"\n");
  return 0;
}

}  // namespace
}  // namespace tdg

int main(int argc, char** argv) { return tdg::run(argc, argv); }
