// Figure 16 of the paper: end-to-end EVD — cuSOLVER Dsyevd vs MAGMA vs the
// proposed pipeline, with and without eigenvectors. Paper: up to 6.1x /
// 3.8x (no vectors); with vectors the BC back transformation eats 61% of
// the proposed pipeline's time and the advantage over cuSOLVER shrinks.

#include <cstdio>

#include <tdg/eig.h>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gpumodel/bc_pipeline_model.h"
#include "gpumodel/kernel_model.h"
#include "gpumodel/trace_cost.h"
#include "la/generate.h"

namespace {

using namespace tdg;

struct EvdProjection {
  double cusolver, magma, proposed;
  double proposed_bcbt = 0.0;  // stage-2 back-transform share (with vectors)
};

EvdProjection project(index_t n, bool vectors) {
  const auto spec = gpumodel::h100_sxm();
  const gpumodel::KernelModel vendor(spec, true);
  const gpumodel::KernelModel ours(spec, false);

  const double dc =
      gpumodel::price_trace(vendor, gpumodel::trace_stedc(n)).seconds;
  const double q2 =
      gpumodel::price_trace(ours, gpumodel::trace_q2_apply(n, 32, n)).seconds;
  const double q2_magma =
      gpumodel::price_trace(vendor, gpumodel::trace_q2_apply(n, 64, n)).seconds;

  EvdProjection p;
  // cuSOLVER: direct sytrd (+ D&C + ormtr when vectors).
  p.cusolver =
      gpumodel::price_trace(vendor, gpumodel::trace_sytrd(n, 64)).seconds;
  if (vectors) {
    p.cusolver += dc + gpumodel::price_trace(
                           vendor, gpumodel::trace_bt_conventional(n, 64, n))
                           .seconds;
  }
  // MAGMA: sy2sb + CPU sb2st (+ D&C + Q2 + conventional Q1).
  p.magma = gpumodel::price_trace(vendor, gpumodel::trace_sy2sb(n, 64, false))
                .seconds +
            gpumodel::magma_sb2st_seconds(n, 64);
  if (vectors) {
    p.magma += dc + q2_magma +
               gpumodel::price_trace(
                   vendor, gpumodel::trace_bt_conventional(n, 64, n))
                   .seconds;
  }
  // Proposed: DBBR + GPU BC (+ D&C + Q2 + blocked Q1 with kw = 2048).
  p.proposed =
      gpumodel::price_trace(ours, gpumodel::trace_dbbr(n, 32, 1024, true, 512))
          .seconds +
      gpumodel::bc_gpu_optimized_seconds(spec, n, 32);
  if (vectors) {
    p.proposed += dc + q2 +
                  gpumodel::price_trace(
                      ours, gpumodel::trace_bt_blocked(n, 32, 2048, n))
                      .seconds;
    p.proposed_bcbt = q2 / p.proposed;
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args(argc, argv, {"n"});
  benchutil::header("Figure 16 (H100 projection): end-to-end EVD");
  for (const bool vectors : {false, true}) {
    std::printf("\n-- %s eigenvectors --\n", vectors ? "WITH" : "WITHOUT");
    std::printf("%8s | %10s | %10s | %10s | %7s | %7s\n", "n", "cuSOLVER s",
                "MAGMA s", "proposed s", "vs cuS", "vs MAG");
    benchutil::rule();
    for (index_t n : {4096, 8192, 16384, 32768, 49152}) {
      const EvdProjection p = project(n, vectors);
      std::printf("%8lld | %10.2f | %10.2f | %10.2f | %6.2fx | %6.2fx",
                  static_cast<long long>(n), p.cusolver, p.magma, p.proposed,
                  p.cusolver / p.proposed, p.magma / p.proposed);
      if (vectors && n == 49152) {
        std::printf("  (BC back-transform share: %.0f%%, paper: 61%%)",
                    100.0 * p.proposed_bcbt);
      }
      std::printf("\n");
      benchutil::JsonLine("fig16_evd_projection")
          .field("n", n)
          .field("vectors", vectors)
          .field("cusolver_seconds", p.cusolver)
          .field("magma_seconds", p.magma)
          .field("proposed_seconds", p.proposed)
          .field("speedup_vs_cusolver", p.cusolver / p.proposed)
          .field("speedup_vs_magma", p.magma / p.proposed)
          .emit();
    }
  }
  std::printf("\npaper: up to 6.1x vs cuSOLVER and 3.8x vs MAGMA without "
              "vectors; slight advantage over cuSOLVER with vectors\n");

  benchutil::header("Measured CPU: end-to-end eigh(), all three pipelines");
  Rng rng(9);
  const index_t nm = args.get_int("n", 640);
  const Matrix a = random_symmetric(nm, rng);
  for (const bool vectors : {false, true}) {
    for (auto method :
         {TridiagMethod::kDirect, TridiagMethod::kTwoStageClassic,
          TridiagMethod::kTwoStageDbbr}) {
      eig::EvdOptions opts;
      opts.vectors = vectors;
      opts.tridiag.method = method;
      opts.tridiag.b = 32;
      opts.tridiag.k = 256;
      opts.profile = true;
      WallTimer t;
      const eig::EvdResult r = eig::eigh(a.view(), opts);
      const char* name = method == TridiagMethod::kDirect ? "direct "
                         : method == TridiagMethod::kTwoStageClassic
                             ? "classic"
                             : "dbbr   ";
      const char* method_id = method == TridiagMethod::kDirect ? "direct"
                              : method == TridiagMethod::kTwoStageClassic
                                  ? "classic"
                                  : "dbbr";
      std::printf("n=%lld %s %s: %.3f s\n", static_cast<long long>(nm), name,
                  vectors ? "vec " : "eval", t.seconds());
      benchutil::JsonLine line("fig16_evd_measured");
      line.field("n", nm)
          .field("method", method_id)
          .field("vectors", vectors)
          .field("seconds", t.seconds());
      // Per-phase measured-vs-model breakdown from the EvdProfile.
      for (const eig::PhaseProfile& ph : r.profile.phases) {
        line.field(ph.name + "_seconds", ph.seconds)
            .field(ph.name + "_model_seconds", ph.model_seconds)
            .field(ph.name + "_gflops", ph.gflops);
      }
      line.emit();
    }
  }
  return 0;
}
