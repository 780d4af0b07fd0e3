// Figure 4 of the paper: where the time goes in a full EVD at n = 49152 —
// cuSOLVER spends > 97% in tridiagonalization; MAGMA's two-stage splits
// into SBR 22.1 s / BC 23.9 s with divide & conquer at just 7.6%.
//
// Projected breakdown at n = 49152 via synthetic traces; measured breakdown
// of our real pipelines at laptop scale.

#include <cstdio>

#include <tdg/eig.h>

#include "bench_util.h"
#include "common/rng.h"
#include "gpumodel/bc_pipeline_model.h"
#include "gpumodel/kernel_model.h"
#include "gpumodel/trace_cost.h"
#include "la/generate.h"

int main(int argc, char** argv) {
  using namespace tdg;
  const benchutil::Args args(argc, argv, {"n", "nmeasured"});
  const index_t n = args.get_int("n", 49152);

  const gpumodel::KernelModel vendor(gpumodel::h100_sxm(), true);
  const gpumodel::KernelModel ours(gpumodel::h100_sxm(), false);

  benchutil::header("Figure 4 (H100 projection): EVD time breakdown, n = 49152");
  {
    const double sytrd =
        gpumodel::price_trace(vendor, gpumodel::trace_sytrd(n, 64)).seconds;
    const double dc =
        gpumodel::price_trace(vendor, gpumodel::trace_stedc(n)).seconds;
    const double total = sytrd + dc;
    std::printf("cuSOLVER: sytrd %.1f s (%.1f%%), divide&conquer %.1f s (%.1f%%)"
                " | tridiag TFLOPs %.2f (paper: 2.0, share 97.7%%)\n",
                sytrd, 100.0 * sytrd / total, dc, 100.0 * dc / total,
                benchutil::tridiag_flops(n) / sytrd / 1e12);
  }
  {
    const double sbr =
        gpumodel::price_trace(vendor, gpumodel::trace_sy2sb(n, 64, false))
            .seconds;
    const double bcs = gpumodel::magma_sb2st_seconds(n, 64);
    const double dc =
        gpumodel::price_trace(vendor, gpumodel::trace_stedc(n)).seconds;
    const double total = sbr + bcs + dc;
    std::printf("MAGMA:    sy2sb %.1f s (%.1f%%), sb2st %.1f s (%.1f%%), "
                "divide&conquer %.1f s (%.1f%%)\n", sbr, 100.0 * sbr / total,
                bcs, 100.0 * bcs / total, dc, 100.0 * dc / total);
    std::printf("          (paper: SBR 22.1 s, BC 23.9 s = 48%% of 2-stage,"
                " tridiag 3.4 TFLOPs; ours %.2f TFLOPs)\n",
                benchutil::tridiag_flops(n) / (sbr + bcs) / 1e12);
  }
  {
    const auto spec = gpumodel::h100_sxm();
    const double dbbr =
        gpumodel::price_trace(ours, gpumodel::trace_dbbr(n, 32, 1024, true, 512))
            .seconds;
    const double bcs = gpumodel::bc_gpu_optimized_seconds(spec, n, 32);
    const double dc =
        gpumodel::price_trace(vendor, gpumodel::trace_stedc(n)).seconds;
    const double total = dbbr + bcs + dc;
    std::printf("proposed: DBBR %.1f s (%.1f%%), GPU-BC %.1f s (%.1f%%), "
                "divide&conquer %.1f s (%.1f%%) | tridiag TFLOPs %.2f\n",
                dbbr, 100.0 * dbbr / total, bcs, 100.0 * bcs / total, dc,
                100.0 * dc / total,
                benchutil::tridiag_flops(n) / (dbbr + bcs) / 1e12);
  }

  benchutil::header("Measured CPU breakdown (eigenvalues + vectors)");
  Rng rng(8);
  const index_t nm = args.get_int("nmeasured", 768);
  const Matrix a = random_symmetric(nm, rng);
  for (auto method : {TridiagMethod::kDirect, TridiagMethod::kTwoStageClassic,
                      TridiagMethod::kTwoStageDbbr}) {
    eig::EvdOptions opts;
    opts.tridiag.method = method;
    opts.tridiag.b = 32;
    opts.tridiag.k = 256;
    const eig::EvdResult r = eig::eigh(a.view(), opts);
    const double tri = r.profile.seconds("tridiagonalize");
    const double solver = r.profile.seconds("solver");
    const double bt = r.profile.seconds("backtransform");
    const double total = r.profile.total_seconds();
    const char* name = method == TridiagMethod::kDirect ? "direct "
                       : method == TridiagMethod::kTwoStageClassic
                           ? "classic"
                           : "dbbr   ";
    std::printf("n=%lld %s: tridiag %.2f s (%.0f%%), D&C %.2f s (%.0f%%), "
                "back-transform %.2f s (%.0f%%)\n",
                static_cast<long long>(nm), name, tri, 100.0 * tri / total,
                solver, 100.0 * solver / total, bt, 100.0 * bt / total);
  }
  return 0;
}
