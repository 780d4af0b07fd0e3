// Batched small-matrix EVD throughput: eigh_batched (pool-level parallelism,
// one problem per worker, bucket-shared plans) against the baseline serial
// loop of standalone eigh() calls over the same problems. The acceptance
// target for this driver is >= 2x throughput over the serial loop at 8
// workers for B >= 32 problems of n = 64 .. 256.
//
//   --threads=T   worker count for the batched driver (default 8)
//   --b=B         problems per batch (default 32)
//   --reps=R      timing repetitions, best-of (default 3)
//   --hetero=0/1  include the mixed-size batch (default 1)

#include <algorithm>
#include <cstdio>
#include <vector>

#include <tdg/eig.h>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "la/generate.h"

namespace {

using namespace tdg;

struct BatchCase {
  std::string label;
  std::vector<index_t> sizes;
};

double best_of(int reps, double (*run)(void*), void* ctx) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, run(ctx));
  return best;
}

struct RunCtx {
  const std::vector<ConstMatrixView>* views;
  eig::BatchOptions bopts;
  eig::EvdOptions sopts;
};

double run_batched(void* p) {
  RunCtx& c = *static_cast<RunCtx*>(p);
  WallTimer t;
  const eig::BatchResult res = eig::eigh_batched(*c.views, c.bopts);
  const double s = t.seconds();
  if (!res.all_ok()) std::fprintf(stderr, "batched: %lld slot(s) failed\n",
                                  static_cast<long long>(res.failed));
  return s;
}

volatile double g_sink = 0.0;

double run_serial(void* p) {
  RunCtx& c = *static_cast<RunCtx*>(p);
  WallTimer t;
  for (const ConstMatrixView& v : *c.views) {
    const eig::EvdResult r = eig::eigh(v, c.sopts);
    g_sink = r.eigenvalues.empty() ? 0.0 : r.eigenvalues[0];
  }
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args(argc, argv, {"threads", "b", "reps", "hetero"});
  const int threads = static_cast<int>(args.get_int("threads", 8));
  const index_t b = args.get_int("b", 32);
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const bool hetero = args.get_int("hetero", 1) != 0;

  benchutil::header("Batched EVD: eigh_batched vs serial eigh loop");
  std::printf("workers=%d  B=%lld  reps=%d (best-of)\n\n", threads,
              static_cast<long long>(b), reps);
  std::printf("%-14s | %8s | %10s | %10s | %12s | %7s\n", "case", "n",
              "serial s", "batched s", "problems/s", "speedup");
  benchutil::rule();

  std::vector<BatchCase> cases;
  for (const index_t n : {64, 128, 256}) {
    cases.push_back({"uniform", std::vector<index_t>(
                                    static_cast<size_t>(b), n)});
  }
  if (hetero) {
    // Mixed sizes across three pow2 buckets: the work-stealing queue and
    // the descending-size deal carry the load balance here.
    BatchCase mixed{"mixed", {}};
    for (index_t i = 0; i < b; ++i) {
      mixed.sizes.push_back(64 + 16 * (i % 13));  // 64 .. 256 in 13 steps
    }
    cases.push_back(mixed);
  }

  for (const BatchCase& bc : cases) {
    Rng rng(41);
    std::vector<Matrix> mats;
    mats.reserve(bc.sizes.size());
    for (const index_t n : bc.sizes) {
      mats.push_back(random_symmetric(n, rng));
    }
    std::vector<ConstMatrixView> views;
    views.reserve(mats.size());
    for (const Matrix& m : mats) views.push_back(m.view());

    RunCtx ctx;
    ctx.views = &views;
    ctx.bopts.threads = threads;
    // The serial baseline gets the same per-problem configuration the
    // batch workers run at (intra-problem budget of 1), so the comparison
    // isolates pool-level parallelism + plan sharing.
    ctx.sopts.tridiag.threads = 1;
    ctx.sopts.tridiag.bc_threads = 1;

    // Warm the planner's bucket plans out of the timed region.
    for (const index_t n : {64, 128, 256}) {
      g_sink = static_cast<double>(eig::batch_bucket_plan(n, ctx.bopts).b);
    }

    const double serial_s = best_of(reps, run_serial, &ctx);
    const double batched_s = best_of(reps, run_batched, &ctx);
    const double pps = static_cast<double>(views.size()) / batched_s;
    const double speedup = serial_s / batched_s;
    const index_t n_repr = bc.label == "mixed" ? 0 : bc.sizes.front();

    std::printf("%-14s | %8lld | %10.4f | %10.4f | %12.1f | %6.2fx\n",
                bc.label.c_str(), static_cast<long long>(n_repr), serial_s,
                batched_s, pps, speedup);
    benchutil::JsonLine("batched_evd")
        .field("case", bc.label)
        .field("B", static_cast<index_t>(views.size()))
        .field("n", n_repr)  // 0 for the mixed-size batch
        .field("workers", threads)
        .field("serial_seconds", serial_s)
        .field("batched_seconds", batched_s)
        .field("problems_per_s", pps)
        .field("speedup_vs_serial", speedup)
        .emit();
  }

  std::printf("\ntarget: >= 2x over the serial loop at 8 workers "
              "(B >= 32, n = 64 .. 256); 1x is parity on a single core\n");
  return 0;
}
