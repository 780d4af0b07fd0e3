// Look-ahead ablation: DBBR band reduction under the barrier schedule
// (lookahead = 0) vs the task-graph look-ahead schedule (lookahead = 1) at
// the Figure-15 shapes. Reports wall time, speedup, and the runtime's own
// overlap fraction (taskgraph.overlap_us / taskgraph.busy_us — the wall-time
// share during which at least two DAG nodes were executing), and verifies
// the two schedules produce bitwise-identical band matrices.
//
// The speedup needs real cores: on a single-CPU machine the pool workers
// time-slice, so the overlap fraction can be nonzero while the wall-time
// win stays ~0. Flags: --n_max=N --reps=R --threads=T --b=B --k=K.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "la/generate.h"
#include "obs/metrics.h"
#include "sbr/sbr.h"

int main(int argc, char** argv) {
  using namespace tdg;
  const benchutil::Args args(
      argc, argv, {"b", "k", "n_max", "reps", "threads"});
  const index_t b = args.get_int("b", 32);
  const index_t k = args.get_int("k", 256);
  const index_t n_max = args.get_int("n_max", 4096);
  const index_t reps = std::max<index_t>(1, args.get_int("reps", 1));
  const int threads =
      static_cast<int>(args.get_int("threads", default_threads()));

  obs::arm_metrics();  // the overlap numbers come from taskgraph.* counters
  obs::Counter* busy = obs::Registry::global().counter("taskgraph.busy_us");
  obs::Counter* over = obs::Registry::global().counter("taskgraph.overlap_us");

  benchutil::header("Look-ahead ablation: DBBR barrier vs task-graph DAG");
  std::printf("b = %lld, k = %lld, threads = %d, reps = %lld\n",
              static_cast<long long>(b), static_cast<long long>(k), threads,
              static_cast<long long>(reps));
  std::printf("%6s | %12s | %12s | %8s | %8s | %8s\n", "n", "barrier (s)",
              "lookahead(s)", "speedup", "overlap", "bitwise");
  benchutil::rule();

  Rng rng(15);
  for (index_t n : {512, 1024, 2048, 4096, 8192, 16384}) {
    if (n > n_max) break;
    const Matrix a0 = random_symmetric(n, rng);
    const index_t bn = std::min(b, n / 4);
    const index_t kn = std::max(bn, k / bn * bn);

    sbr::BandReductionOptions base;
    base.b = bn;
    base.k = kn;
    base.use_square_syr2k = true;
    base.threads = threads;

    double secs[2] = {0.0, 0.0};     // best-of-reps: [barrier, lookahead]
    double overlap_frac = 0.0;       // from the look-ahead runs
    Matrix band[2] = {Matrix(1, 1), Matrix(1, 1)};
    for (int depth = 0; depth <= 1; ++depth) {
      sbr::BandReductionOptions o = base;
      o.lookahead = depth;
      double best = 0.0;
      for (index_t r = 0; r < reps; ++r) {
        Matrix a = a0;
        const long long busy0 = busy->value();
        const long long over0 = over->value();
        WallTimer t;
        sbr::dbbr(a.view(), o);
        const double s = t.seconds();
        if (r == 0 || s < best) best = s;
        if (depth == 1) {
          const double db = static_cast<double>(busy->value() - busy0);
          if (db > 0.0) {
            overlap_frac = static_cast<double>(over->value() - over0) / db;
          }
        }
        if (r == 0) band[depth] = a;
      }
      secs[depth] = best;
    }

    const double diff = max_abs_diff(band[0].view(), band[1].view());
    const bool bitwise = diff == 0.0;
    std::printf("%6lld | %12.3f | %12.3f | %7.2fx | %7.1f%% | %8s\n",
                static_cast<long long>(n), secs[0], secs[1],
                secs[0] / secs[1], 100.0 * overlap_frac,
                bitwise ? "yes" : "NO");
    for (int depth = 0; depth <= 1; ++depth) {
      benchutil::JsonLine("lookahead")
          .field("n", n)
          .field("b", bn)
          .field("k", kn)
          .field("threads", threads)
          .field("depth", depth)
          .field("seconds", secs[depth])
          .field("overlap_fraction", depth == 1 ? overlap_frac : 0.0)
          .field("speedup", depth == 1 ? secs[0] / secs[1] : 1.0)
          .field("bitwise_identical", bitwise)
          .emit();
    }
  }
  std::printf(
      "\noverlap = share of DAG busy time with >= 2 nodes in flight;\n"
      "speedup needs >= 2 physical cores (time-sliced workers overlap\n"
      "without getting faster).\n");
  return 0;
}
