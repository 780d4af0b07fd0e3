// Tests for the GPU device model: kernel-time model sanity, the Section-3.3
// bulge-chasing pipeline model, and — most importantly — fidelity of the
// synthetic trace generators against traces recorded from real runs.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "backtransform/backtransform.h"
#include "common/rng.h"
#include "common/trace.h"
#include "eig/eig.h"
#include "gpumodel/bc_pipeline_model.h"
#include "gpumodel/kernel_model.h"
#include "gpumodel/trace_cost.h"
#include "la/generate.h"
#include "lapack/lapack.h"
#include "sbr/sbr.h"

namespace tdg {
namespace {

using gpumodel::KernelModel;

bool same_ops(const std::vector<trace::Op>& a,
              const std::vector<trace::Op>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "size " + std::to_string(a.size()) + " vs " + std::to_string(b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].m != b[i].m || a[i].n != b[i].n ||
        a[i].k != b[i].k || a[i].batch != b[i].batch) {
      *why = "op " + std::to_string(i) + ": " + trace::to_string(a[i]) +
             " vs " + trace::to_string(b[i]);
      return false;
    }
  }
  return true;
}

TEST(KernelModel, FatGemmNearPeakSkinnyGemmFarBelow) {
  const KernelModel m(gpumodel::h100_sxm());
  const index_t n = 16384;
  const double fat = 2.0 * n * n * 2048.0 / m.gemm_seconds(n, n, 2048) / 1e12;
  const double skinny = 2.0 * n * n * 32.0 / m.gemm_seconds(n, n, 32) / 1e12;
  EXPECT_GT(fat, 40.0);   // near the ~50 TFLOPs plateau of Figure 8
  EXPECT_LT(fat, 67.0);   // never above peak
  EXPECT_LT(skinny, 0.6 * fat);
}

TEST(KernelModel, VendorSyr2kReproducesTable1Shape) {
  const KernelModel m(gpumodel::h100_sxm());
  // Monotone in k, saturating; n = 8192 well below n = 32768 at equal k.
  double prev = 0.0;
  for (index_t k : {16, 32, 64, 128, 256, 512, 1024, 2048, 4096}) {
    const double perf = m.vendor_syr2k_tflops(32768, k);
    EXPECT_GT(perf, prev);
    prev = perf;
  }
  EXPECT_LT(prev, 48.5);  // saturation
  EXPECT_LT(m.vendor_syr2k_tflops(8192, 128),
            0.3 * m.vendor_syr2k_tflops(32768, 128));
  // Table-1 anchor points within a reasonable band.
  EXPECT_NEAR(m.vendor_syr2k_tflops(8192, 16), 0.43, 0.15);
  EXPECT_NEAR(m.vendor_syr2k_tflops(32768, 4096), 45.5, 4.0);
}

TEST(KernelModel, Rtx4090SaturatesInstantly) {
  const KernelModel m(gpumodel::rtx4090());
  EXPECT_NEAR(m.vendor_syr2k_tflops(8192, 16), 1.2, 0.2);
  EXPECT_NEAR(m.vendor_syr2k_tflops(32768, 4096), 1.25, 0.1);
}

TEST(KernelModel, LargeNCliff) {
  const KernelModel m(gpumodel::h100_sxm());
  EXPECT_LT(m.vendor_syr2k_tflops(49152, 1024),
            0.5 * m.vendor_syr2k_tflops(32768, 1024));
}

TEST(BcPipeline, ClosedFormMatchesSimulationTrend) {
  // Both must fall steeply from S=1 and flatten out by S ~ 64-128
  // (Figure 5 of the paper: crossover vs MAGMA around S = 32).
  const index_t n = 8192, b = 32;
  double prev_sim = 1e300;
  for (index_t s : {1, 2, 4, 8, 16, 32, 64, 128}) {
    const double sim = gpumodel::bc_simulate(n, b, s).cycles;
    EXPECT_LE(sim, prev_sim);
    prev_sim = sim;
    const double cf = gpumodel::bc_cycles_closed_form(n, b, s);
    EXPECT_GT(cf, 0.0);
  }
  // Unbounded parallelism approaches the paper's 3n - 2 successive bulges.
  const double best = gpumodel::bc_simulate(n, b, n).cycles;
  EXPECT_NEAR(best, 3.0 * n - 2.0, 0.05 * n);
}

TEST(BcPipeline, SerialEqualsTotalBulges) {
  const index_t n = 512, b = 8;
  double total = 0.0;
  for (index_t i = 0; i + 2 < n; ++i) total += (n - i + b - 1) / b;
  const auto st = gpumodel::bc_simulate(n, b, 1);
  EXPECT_DOUBLE_EQ(st.cycles, total);
  EXPECT_DOUBLE_EQ(st.busy_steps, total);
  EXPECT_DOUBLE_EQ(st.avg_parallel, 1.0);
}

TEST(BcPipeline, ThroughputGrowsWithParallelSweeps) {
  const auto spec = gpumodel::h100_sxm();
  double prev = 0.0;
  for (index_t s : {1, 4, 16, 64}) {
    const double gbps = gpumodel::bc_memory_throughput_gbs(spec, 4096, 32, s);
    EXPECT_GT(gbps, prev);
    prev = gbps;
  }
  // Saturates once the pipeline cannot keep more sweeps busy (the "max"
  // point of Figure 12).
  EXPECT_GE(gpumodel::bc_memory_throughput_gbs(spec, 4096, 32, 128), prev);
  EXPECT_LE(prev, spec.dram_gbs);
}

TEST(BcPipeline, GpuBeatsMagmaCpuAtScaleWithEnoughSweeps) {
  const auto spec = gpumodel::h100_sxm();
  const index_t n = 16384, b = 32;
  const double magma = gpumodel::magma_sb2st_seconds(n, b);
  EXPECT_GT(gpumodel::bc_gpu_seconds(spec, n, b, 1), magma);    // serial loses
  EXPECT_LT(gpumodel::bc_gpu_seconds(spec, n, b, 128), magma);  // pipelined wins
}

// ---- Trace-generator fidelity: synthetic == recorded, op by op. ----

class SytrdTraceFidelity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SytrdTraceFidelity, SyntheticMatchesRecorded) {
  const auto [n, nb] = GetParam();
  Rng rng(1 + n);
  Matrix a = random_symmetric(n, rng);
  std::vector<double> d, e, taus;
  trace::Recorder rec;
  {
    trace::Scope scope(rec);
    lapack::sytrd(a.view(), d, e, taus, nb);
  }
  const auto synth = gpumodel::trace_sytrd(n, nb);
  std::string why;
  EXPECT_TRUE(same_ops(rec.ops(), synth, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Sizes, SytrdTraceFidelity,
                         ::testing::Values(std::tuple{40, 8},
                                           std::tuple{64, 16},
                                           std::tuple{65, 8},
                                           std::tuple{30, 16}));

class Sy2sbTraceFidelity
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(Sy2sbTraceFidelity, SyntheticMatchesRecorded) {
  const auto [n, b, square] = GetParam();
  Rng rng(2 + n);
  Matrix a = random_symmetric(n, rng);
  sbr::BandReductionOptions opts;
  opts.use_square_syr2k = square;
  opts.syr2k_block = 16;
  trace::Recorder rec;
  {
    trace::Scope scope(rec);
    sbr::sy2sb(a.view(), b, opts);
  }
  const auto synth = gpumodel::trace_sy2sb(n, b, square, 16);
  std::string why;
  EXPECT_TRUE(same_ops(rec.ops(), synth, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Sizes, Sy2sbTraceFidelity,
                         ::testing::Values(std::tuple{48, 8, false},
                                           std::tuple{48, 8, true},
                                           std::tuple{65, 16, false},
                                           std::tuple{37, 5, true},
                                           std::tuple{40, 8, false}));

class DbbrTraceFidelity
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(DbbrTraceFidelity, SyntheticMatchesRecorded) {
  const auto [n, b, k, square] = GetParam();
  Rng rng(3 + n);
  Matrix a = random_symmetric(n, rng);
  sbr::BandReductionOptions opts;
  opts.b = b;
  opts.k = k;
  opts.use_square_syr2k = square;
  opts.syr2k_block = 16;
  trace::Recorder rec;
  {
    trace::Scope scope(rec);
    sbr::dbbr(a.view(), opts);
  }
  const auto synth = gpumodel::trace_dbbr(n, b, k, square, 16);
  std::string why;
  EXPECT_TRUE(same_ops(rec.ops(), synth, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Sizes, DbbrTraceFidelity,
                         ::testing::Values(std::tuple{64, 8, 32, false},
                                           std::tuple{64, 8, 32, true},
                                           std::tuple{65, 8, 16, false},
                                           std::tuple{51, 4, 16, true},
                                           std::tuple{96, 16, 32, false}));

// stedc records one GEMM per nonzero block of diag(Q1, Q2) at each merge,
// (m1 x k x k - k3) and (m2 x k x k - k1) over its k surviving columns;
// deflation only shrinks them, so the synthetic trace — the same tree with
// nothing deflated — bounds the recorded flops and meets them when every
// merge kept all of its columns (k = m1 + m2).
TEST(StedcTraceFidelity, RecordedMergesNeverExceedSynthetic) {
  struct Case {
    index_t n;
    index_t smlsiz;
    bool glued;  // near-copies of one block: merges deflate heavily
  };
  bool saw_undeflated = false;
  for (const Case c : {Case{40, 8, false}, Case{77, 8, false},
                       Case{129, 16, false}, Case{96, 8, true}}) {
    Rng rng(17 + c.n);
    std::vector<double> d(static_cast<std::size_t>(c.n));
    std::vector<double> e(static_cast<std::size_t>(c.n - 1));
    for (index_t i = 0; i < c.n; ++i) {
      d[static_cast<std::size_t>(i)] =
          c.glued ? 1.0 + static_cast<double>(i % 12) : rng.uniform(-1, 1);
      if (i + 1 < c.n) {
        e[static_cast<std::size_t>(i)] =
            c.glued && (i + 1) % 12 == 0 ? 1e-14 : rng.uniform(-1, 1);
      }
    }
    Matrix q(c.n, c.n);
    trace::Recorder rec;
    {
      trace::Scope scope(rec);
      eig::stedc(d, e, q.view(), c.smlsiz);
    }
    double synthetic = 0.0;
    std::int64_t blocks = 0;  // two per merge of the tree
    for (const trace::Op& op : gpumodel::trace_stedc(c.n, c.smlsiz)) {
      synthetic += trace::flops(op);
      blocks += op.batch;
    }
    // A merge that deflated every column records nothing.
    const std::vector<trace::Op>& ops = rec.ops();
    ASSERT_EQ(ops.size() % 2, 0u);
    bool deflated = static_cast<std::int64_t>(ops.size()) != blocks;
    for (std::size_t i = 0; i < ops.size(); i += 2) {
      deflated = deflated || ops[i].n != ops[i].m + ops[i + 1].m;
    }
    double recorded = 0.0;
    for (const trace::Op& op : ops) recorded += trace::flops(op);
    EXPECT_LE(recorded, synthetic) << "n=" << c.n;
    if (!deflated) {
      EXPECT_EQ(recorded, synthetic) << "n=" << c.n;
      saw_undeflated = true;
    }
    if (c.glued) {
      EXPECT_TRUE(deflated);
    }
  }
  EXPECT_TRUE(saw_undeflated);
}

TEST(BackTransformTraceFidelity, AllVariants) {
  Rng rng(4);
  const index_t n = 60, b = 4, nc = 7;
  Matrix a = random_symmetric(n, rng);
  sbr::BandFactor f = sbr::sy2sb(a.view(), b);

  for (int variant = 0; variant < 3; ++variant) {
    Matrix c = random_matrix(n, nc, rng);
    trace::Recorder rec;
    std::vector<trace::Op> synth;
    {
      trace::Scope scope(rec);
      if (variant == 0) {
        bt::apply_q1_conventional(f, c.view());
      } else if (variant == 1) {
        bt::apply_q1_recursive(f, c.view());
      } else {
        bt::apply_q1_blocked(f, 16, c.view());
      }
    }
    if (variant == 0) {
      synth = gpumodel::trace_bt_conventional(n, b, nc);
    } else if (variant == 1) {
      synth = gpumodel::trace_bt_recursive(n, b, nc);
    } else {
      synth = gpumodel::trace_bt_blocked(n, b, 16, nc);
    }
    // Conventional applies panels in reverse order; cost is order-invariant,
    // so compare as multisets.
    auto key = [](const trace::Op& op) {
      return std::tuple{static_cast<int>(op.kind), op.m, op.n, op.k, op.batch};
    };
    std::vector<std::tuple<int, index_t, index_t, index_t, index_t>> ka, kb;
    for (const auto& op : rec.ops()) ka.push_back(key(op));
    for (const auto& op : synth) kb.push_back(key(op));
    std::sort(ka.begin(), ka.end());
    std::sort(kb.begin(), kb.end());
    EXPECT_EQ(ka, kb) << "variant " << variant;
  }
}

TEST(TraceCost, PricesAggregateAndSkipsBcSteps) {
  const KernelModel m(gpumodel::h100_sxm());
  std::vector<trace::Op> ops{
      {trace::OpKind::kGemm, 1024, 1024, 1024, 1},
      {trace::OpKind::kSymv, 0, 2048, 0, 1},
      {trace::OpKind::kBcStep, 32, 32, 0, 5},
  };
  const auto cost = gpumodel::price_trace(m, ops);
  EXPECT_GT(cost.seconds, 0.0);
  EXPECT_EQ(cost.bc_steps, 5);
  EXPECT_GT(cost.tflops(), 0.0);
  EXPECT_EQ(cost.seconds_by_kind.count(trace::OpKind::kBcStep), 0u);
}

TEST(TraceCost, DbbrProjectsFasterThanSy2sbAtPaperScale) {
  // The headline claim of the paper (Figure 9): at large n, DBBR's fat
  // syr2k beats classic SBR's skinny one on an H100.
  const KernelModel vendor(gpumodel::h100_sxm(), /*vendor_syr2k=*/true);
  const KernelModel ours(gpumodel::h100_sxm(), /*vendor_syr2k=*/false);
  const index_t n = 16384;
  const auto sbr_cost =
      gpumodel::price_trace(vendor, gpumodel::trace_sy2sb(n, 64, false));
  const auto dbbr_cost = gpumodel::price_trace(
      ours, gpumodel::trace_dbbr(n, 64, 1024, true, 512));
  EXPECT_LT(dbbr_cost.seconds, sbr_cost.seconds);
}

}  // namespace
}  // namespace tdg
