// Execution-mode acceptance bench: standard FP64 vs mixed precision vs
// values-only, one EVD per (n, mode) cell.
//
// For each n: the standard full-FP64 solve is the baseline; the mixed run
// reports its independently recomputed residual (the ISSUE acceptance is
// 50 * eps_fp64 * ||A||_F), refinement sweep count, and speedup over the
// baseline; the values-only run reports its measured peak workspace, which
// must sit strictly below the standard path's at the same n.
//
// Each measurement is emitted as one JSON line (prefix "JSON ") so the perf
// trajectory and the CI smoke step can scrape it:
//   JSON {"bench":"precision","n":2048,"mode":"mixed","seconds":...,
//         "residual":...,"refine_iters":2,"peak_bytes":...,"speedup":...,
//         "stages":{"tridiagonalize":...,"dbbr":...,"evd_refine":...}}
// "stages" holds the seconds of every stage in the solve's record, summed
// by name (a mixed run that fell back to FP64 ran each stage twice).
//
// Flags: --n_max=2048 --reps=2

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <tdg/eig.h>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "la/blas.h"
#include "la/generate.h"
#include "la/workspace.h"

namespace tdg {
namespace {

double fro_norm(ConstMatrixView a) {
  double s = 0.0;
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t i = 0; i < a.rows; ++i) s += a(i, j) * a(i, j);
  }
  return std::sqrt(s);
}

// max_i ||A v_i - w_i v_i||_2, recomputed outside the library's own
// acceptance check. Values-only runs report 0 (nothing to verify against).
double evd_residual(ConstMatrixView a, const eig::EvdResult& res) {
  if (res.eigenvectors.cols() == 0) return 0.0;
  Matrix av(a.rows, res.eigenvectors.cols());
  la::gemm(Trans::kNo, Trans::kNo, 1.0, a, res.eigenvectors.view(), 0.0,
           av.view());
  double worst = 0.0;
  for (index_t j = 0; j < av.cols(); ++j) {
    double col = 0.0;
    for (index_t i = 0; i < av.rows(); ++i) {
      const double r =
          av(i, j) - res.eigenvalues[static_cast<size_t>(j)] *
                         res.eigenvectors(i, j);
      col += r * r;
    }
    worst = std::max(worst, std::sqrt(col));
  }
  return worst;
}

// {"name":seconds,...} over the stages of `record`, each name once, in the
// order it first ran; record.seconds(name) sums its repeats.
std::string stage_seconds_json(const obs::SolveRecord& record) {
  std::string json = "{";
  const auto emit = [&](const auto& self,
                        const std::vector<obs::Stage>& stages) -> void {
    for (const obs::Stage& s : stages) {
      const std::string key = "\"" + s.name + "\":";
      if (json.find(key) == std::string::npos) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", record.seconds(s.name));
        json += (json.size() > 1 ? "," : "") + key + buf;
      }
      self(self, s.children);
    }
  };
  emit(emit, record.phases);
  return json + "}";
}

struct ModeRun {
  double seconds = 1e300;
  eig::EvdResult result;
  std::size_t peak_bytes = 0;
};

ModeRun run_mode(ConstMatrixView a, plan::EvdMode mode, int reps) {
  ModeRun best;
  for (int r = 0; r < reps; ++r) {
    eig::EvdOptions opts;
    opts.mode = mode;
    la::workspace_reset_peak();
    WallTimer t;
    eig::EvdResult res = eig::eigh(a, opts);
    const double s = t.seconds();
    const std::size_t peak = la::workspace_peak_bytes();
    if (s < best.seconds) {
      best.seconds = s;
      best.result = std::move(res);
      best.peak_bytes = peak;
    }
  }
  return best;
}

int run(int argc, char** argv) {
  const benchutil::Args args(argc, argv, {"n_max", "reps"});
  const index_t n_max = args.get_int("n_max", 2048);
  const int reps = static_cast<int>(args.get_int("reps", 2));

  benchutil::header("execution modes: fp64 standard vs mixed vs values-only");
  std::printf("%8s %10s %12s %10s %12s %8s %14s %10s\n", "n", "mode",
              "seconds", "speedup", "residual", "refine", "peak_bytes",
              "status");
  benchutil::rule();

  bool ok = true;
  for (index_t n = 512; n <= n_max; n *= 2) {
    Rng rng(0x9e3779b9 + static_cast<uint64_t>(n));
    const Matrix a = random_symmetric(n, rng);
    const double bound =
        50.0 * std::numeric_limits<double>::epsilon() * fro_norm(a.view());

    const ModeRun standard = run_mode(a.view(), plan::EvdMode::kStandard,
                                      reps);
    const ModeRun mixed =
        run_mode(a.view(), plan::EvdMode::kMixedPrecision, reps);
    const ModeRun values = run_mode(a.view(), plan::EvdMode::kValuesOnly,
                                    reps);

    struct Row {
      const char* label;
      const ModeRun* run;
    };
    const Row rows[] = {{"standard", &standard},
                        {"mixed", &mixed},
                        {"values", &values}};
    for (const Row& row : rows) {
      const eig::EvdResult& res = row.run->result;
      const double residual = evd_residual(a.view(), res);
      const double speedup = row.run->seconds > 0.0
                                 ? standard.seconds / row.run->seconds
                                 : 0.0;
      // Acceptance per mode: mixed inside the refinement bound (or
      // recovered to FP64, which trivially is), values-only peak strictly
      // below standard's.
      bool pass = true;
      if (row.run == &mixed) pass = residual <= bound;
      if (row.run == &values) {
        pass = res.eigenvectors.cols() == 0 &&
               row.run->peak_bytes < standard.peak_bytes;
      }
      ok = ok && pass;
      std::printf("%8lld %10s %12.4f %10.2f %12.3e %8lld %14zu %10s\n",
                  static_cast<long long>(n), row.label, row.run->seconds,
                  speedup, residual,
                  static_cast<long long>(res.refine_iters),
                  row.run->peak_bytes, pass ? "ok" : "FAIL");
      benchutil::JsonLine("precision")
          .field("n", n)
          .field("mode", row.label)
          .field("effective_mode", plan::to_string(res.mode))
          .field("seconds", row.run->seconds)
          .field("residual", residual)
          .field("residual_bound", bound)
          .field("refine_iters", static_cast<long long>(res.refine_iters))
          .field("peak_bytes", static_cast<long long>(row.run->peak_bytes))
          .field("speedup", speedup)
          .field("recovery", res.recovery)
          .raw("stages", stage_seconds_json(res.profile))
          .field("pass", pass)
          .emit();
    }
  }
  std::printf("\n%s\n", ok ? "all modes within acceptance"
                           : "ACCEPTANCE FAILURE (see rows above)");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace tdg

int main(int argc, char** argv) { return tdg::run(argc, argv); }
