// Figure 15 of the paper — the headline result: full tridiagonalization,
// cuSOLVER Dsytrd vs MAGMA (Dsy2sb + Dsb2st) vs the proposed method
// (DBBR + GPU bulge chasing) on H100 and RTX 4090.
// Paper: up to 19.6 TFLOPs vs 3.4 (MAGMA) and 2.1 (cuSOLVER) on H100 —
// 9.3x / 5.2x speedups; on the 4090 BC dominates: 14327 ms vs 1839 ms at
// n = 32768.
//
// Measured: the three real pipelines on the CPU at laptop sizes.
// Projected: synthetic traces + pipeline model at paper sizes, both GPUs.

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

struct Projection {
  double cusolver, magma, proposed;
};

Projection project(const gpumodel::DeviceSpec& spec, index_t n) {
  const gpumodel::KernelModel vendor(spec, true);
  const gpumodel::KernelModel ours(spec, false);
  Projection p;
  p.cusolver = gpumodel::price_trace(vendor, gpumodel::trace_sytrd(n, 64)).seconds;
  p.magma = gpumodel::price_trace(vendor, gpumodel::trace_sy2sb(n, 64, false))
                .seconds +
            gpumodel::magma_sb2st_seconds(n, 64);
  p.proposed =
      gpumodel::price_trace(ours, gpumodel::trace_dbbr(n, 32, 1024, true, 512))
          .seconds +
      gpumodel::bc_gpu_optimized_seconds(spec, n, 32);
  return p;
}

void print_projection(const gpumodel::DeviceSpec& spec) {
  std::printf("\n-- %s projection --\n", spec.name.c_str());
  std::printf("%8s | %10s %7s | %10s %7s | %10s %7s | %7s %7s\n", "n",
              "cuSOLVER s", "TFLOPs", "MAGMA s", "TFLOPs", "proposed s",
              "TFLOPs", "vs cuS", "vs MAG");
  benchutil::rule();
  for (index_t n : {8192, 16384, 24576, 32768, 40960, 49152}) {
    const Projection p = project(spec, n);
    const double f = benchutil::tridiag_flops(n);
    std::printf("%8lld | %10.2f %7.2f | %10.2f %7.2f | %10.2f %7.2f | %6.2fx %6.2fx\n",
                static_cast<long long>(n), p.cusolver, f / p.cusolver / 1e12,
                p.magma, f / p.magma / 1e12, p.proposed,
                f / p.proposed / 1e12, p.cusolver / p.proposed,
                p.magma / p.proposed);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args(argc, argv, {"n_max"});
  benchutil::header("Figure 15 (measured CPU): direct vs classic 2-stage vs DBBR+pipelined BC");
  Rng rng(7);
  const index_t n_max = args.get_int("n_max", 1536);
  std::printf("%6s | %12s | %12s | %12s (stage1+stage2)\n", "n", "direct (s)",
              "classic (s)", "proposed (s)");
  benchutil::rule();
  for (index_t n : {512, 1024, 1536}) {
    if (n > n_max) break;
    const Matrix a = random_symmetric(n, rng);

    TridiagOptions od;
    od.method = TridiagMethod::kDirect;
    od.want_factors = false;
    WallTimer t1;
    tridiagonalize(a.view(), od);
    const double s1 = t1.seconds();

    TridiagOptions oc;
    oc.method = TridiagMethod::kTwoStageClassic;
    oc.b = 64;
    oc.use_square_syr2k = false;
    oc.want_factors = false;
    WallTimer t2;
    tridiagonalize(a.view(), oc);
    const double s2 = t2.seconds();

    TridiagOptions op;
    op.method = TridiagMethod::kTwoStageDbbr;
    op.b = 32;
    op.k = 256;
    op.want_factors = false;
    obs::SolveRecord record;
    WallTimer t3;
    {
      obs::RecordScope scope(&record);
      tridiagonalize(a.view(), op);
    }
    const double s3 = t3.seconds();

    std::printf("%6lld | %12.3f | %12.3f | %12.3f (%.3f + %.3f)\n",
                static_cast<long long>(n), s1, s2, s3, record.seconds("dbbr"),
                record.seconds("bulge_chase"));
  }

  print_projection(tdg::gpumodel::h100_sxm());
  print_projection(tdg::gpumodel::rtx4090());
  std::printf("\npaper: H100 19.6 TFLOPs proposed vs 3.4 MAGMA vs 2.1 cuSOLVER"
              " (9.3x / 5.2x)\n");
  return 0;
}
