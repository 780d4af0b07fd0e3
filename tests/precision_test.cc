// Tests for the execution-mode axis (EvdOptions::mode) — the mixed
// FP32-compute / FP64-refine engine, the memory-lean values-only path, and
// their surfacing through the batch, serve, and wire layers:
//
//   - mixed-precision results meet the acceptance bound
//     (||A v - w v|| <= 50 * eps_fp64 * ||A||_F) on well- and
//     ill-conditioned inputs: Wilkinson W21, tightly clustered spectra,
//     graded matrices spanning 12 decades
//   - at n = 600 (several DBBR outer blocks) the FP32 result itself is
//     accepted: no fp32->fp64 rerun, at most two refinement sweeps, and
//     bitwise the same result at one and four threads
//   - Ogita–Aishima refinement converges from eps_fp32-sized perturbations
//     of exact FP64 eigenpairs
//   - a fault-injected refinement failure ("evd_refine") falls back to the
//     full-FP64 rerun exactly once: recovery == "fp32->fp64", effective
//     mode kStandard, evd.fp32_fallbacks advances by one, and the result
//     is bitwise identical to a standard-mode solve
//   - values-only peak workspace is strictly below the standard path at
//     the same n, measured (la/workspace.h), not argued
//   - the default FP64 standard path is bitwise identical across thread
//     counts (the mode axis must not perturb the legacy path)
//   - wire protocol: mode=/prec= parse, agree/conflict rules, strict
//     unknown-field rejection
//   - batch: per-slot modes solve heterogeneous mode mixes in one call
//   - plan-cache keys for default FP64 shapes are unchanged (old cache
//     files stay loadable); only kFp32 extends the key
//
// gtest_discover_tests runs each case in its own process, so global
// counters (evd.fp32_fallbacks) and the workspace peak are fresh per case.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <tdg/eig.h>
#include <tdg/serve.h>

#include "common/fault.h"
#include "common/rng.h"
#include "eig/refine.h"
#include "la/blas.h"
#include "la/generate.h"
#include "la/workspace.h"
#include "obs/metrics.h"
#include "plan/plan_cache.h"
#include "serve/wire.h"

namespace tdg {
namespace {

// ||A||_F over the full dense matrix.
double fro_norm(ConstMatrixView a) {
  double s = 0.0;
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t i = 0; i < a.rows; ++i) s += a(i, j) * a(i, j);
  }
  return std::sqrt(s);
}

// max_i ||A v_i - w_i v_i||_2 — the acceptance residual of the mixed
// engine, recomputed independently of the library's own check.
double evd_residual(ConstMatrixView a, ConstMatrixView v,
                    const std::vector<double>& w) {
  Matrix av(a.rows, v.cols);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, a, v, 0.0, av.view());
  double worst = 0.0;
  for (index_t j = 0; j < v.cols; ++j) {
    double col = 0.0;
    for (index_t i = 0; i < a.rows; ++i) {
      const double r = av(i, j) - w[static_cast<size_t>(j)] * v(i, j);
      col += r * r;
    }
    worst = std::max(worst, std::sqrt(col));
  }
  return worst;
}

// The acceptance bound from the ISSUE: 50 * eps_fp64 * ||A||_F, matching
// the refinement's default tolerance.
double acceptance_bound(ConstMatrixView a) {
  return 50.0 * std::numeric_limits<double>::epsilon() * fro_norm(a);
}

// Wilkinson W_n^+ (odd n): diag |m, m-1, ..., 1, 0, 1, ..., m|, off-diag 1.
// Pairs of eigenvalues agree to many digits — the classic clustered
// stress case for eigenvector refinement.
Matrix wilkinson(index_t n) {
  Matrix a(n, n);
  const index_t m = (n - 1) / 2;
  for (index_t i = 0; i < n; ++i) {
    a(i, i) = static_cast<double>(std::abs(static_cast<long long>(i - m)));
    if (i + 1 < n) {
      a(i + 1, i) = 1.0;
      a(i, i + 1) = 1.0;
    }
  }
  return a;
}

void expect_mixed_meets_bound(const Matrix& a, const char* what) {
  eig::EvdOptions opts;
  opts.mode = plan::EvdMode::kMixedPrecision;
  const eig::EvdResult res = eig::eigh(a.view(), opts);
  ASSERT_EQ(res.eigenvectors.cols(), a.rows()) << what;
  // Either the FP32+refine pipeline converged (mode stays mixed) or the
  // driver recovered in full FP64 (mode standard, recovery recorded) —
  // both must land inside the acceptance bound.
  if (res.mode == plan::EvdMode::kMixedPrecision) {
    EXPECT_TRUE(res.recovery.empty()) << what << ": " << res.recovery;
    EXPECT_GE(res.refine_iters, 1) << what;
    EXPECT_GT(res.profile.seconds("backtransform"), 0.0) << what;
  } else {
    EXPECT_EQ(res.mode, plan::EvdMode::kStandard) << what;
    EXPECT_EQ(res.recovery.rfind("fp32->fp64", 0), 0u)
        << what << ": " << res.recovery;
  }
  EXPECT_LE(evd_residual(a.view(), res.eigenvectors.view(), res.eigenvalues),
            acceptance_bound(a.view()))
      << what;
}

TEST(MixedPrecision, ResidualWithinBoundOnRandomSymmetric) {
  Rng rng(101);
  expect_mixed_meets_bound(random_symmetric(96, rng), "random n=96");
}

TEST(MixedPrecision, ConvergesOnWilkinson) {
  expect_mixed_meets_bound(wilkinson(21), "wilkinson W21+");
  expect_mixed_meets_bound(wilkinson(65), "wilkinson W65+");
}

TEST(MixedPrecision, ConvergesOnClusteredSpectrum) {
  // Three tight clusters separated by O(1): gaps inside a cluster are
  // ~1e-10, far below what FP32 can resolve — the refinement has to
  // repair those directions in FP64.
  Rng rng(202);
  std::vector<double> evals;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 16; ++i) {
      evals.push_back(static_cast<double>(c) + 1e-10 * i);
    }
  }
  expect_mixed_meets_bound(symmetric_with_spectrum(evals, rng), "clustered");
}

TEST(MixedPrecision, ConvergesOnGradedSpectrum) {
  // Geometrically graded over 12 decades; the small eigenvalues are
  // entirely below the FP32 noise floor relative to ||A||.
  Rng rng(303);
  std::vector<double> evals;
  const int n = 48;
  for (int i = 0; i < n; ++i) {
    evals.push_back(std::pow(10.0, -12.0 * i / (n - 1)));
  }
  expect_mixed_meets_bound(symmetric_with_spectrum(evals, rng), "graded");
}

// expect_mixed_meets_bound also passes when the FP32 result is rejected and
// the driver reruns in FP64, which would hide an FP32 accuracy loss. Here
// the FP32 result itself must be accepted: at n = 600 DBBR runs several
// outer blocks, the refinement takes at most two sweeps, the accepted
// vectors are orthogonal to n eps (about 1.6 n eps without the final
// orthogonalization), and the result is bitwise the same at one and four
// threads.
TEST(MixedPrecision, AcceptedWithoutFallbackOverSeveralDbbrBlocks) {
  Rng rng(909);
  const index_t n = 600;
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.mode = plan::EvdMode::kMixedPrecision;

  const plan::ResolvedPipeline cfg = plan::resolve_and_validate(
      plan::ProblemShape{n, true, 0, opts.mode}, opts.plan, opts.tridiag,
      eig::merged_knobs(opts));
  const index_t b = cfg.tridiag.b;
  const index_t k = cfg.tridiag.k;
  // DBBR starts an outer block at every multiple of k below n - b.
  EXPECT_GE((n - b + k - 1) / k, 2) << "b=" << b << " k=" << k;

  std::vector<eig::EvdResult> runs;
  for (const int threads : {1, 4}) {
    eig::EvdOptions o = opts;
    o.tridiag.threads = threads;
    o.tridiag.bc_threads = threads;
    runs.push_back(eig::eigh(a.view(), o));
    const eig::EvdResult& r = runs.back();
    EXPECT_EQ(r.mode, plan::EvdMode::kMixedPrecision) << threads;
    EXPECT_TRUE(r.recovery.empty()) << threads << ": " << r.recovery;
    EXPECT_GE(r.refine_iters, 1) << threads;
    EXPECT_LE(r.refine_iters, 2) << threads;
    EXPECT_GT(r.profile.seconds("backtransform"), 0.0) << threads;
    ASSERT_EQ(r.eigenvectors.cols(), n);
    EXPECT_LE(evd_residual(a.view(), r.eigenvectors.view(), r.eigenvalues),
              acceptance_bound(a.view()))
        << threads;
    EXPECT_LE(orthogonality_error(r.eigenvectors.view()),
              static_cast<double>(n) * std::numeric_limits<double>::epsilon())
        << threads;
  }
  EXPECT_EQ(runs[0].eigenvalues, runs[1].eigenvalues);
  EXPECT_EQ(max_abs_diff(runs[0].eigenvectors.view(),
                         runs[1].eigenvectors.view()),
            0.0);
}

TEST(MixedPrecision, RefinementConvergesFromFp32SizedPerturbation) {
  // Drive refine_eigenpairs directly: exact FP64 pairs, perturbed at the
  // eps_fp32 scale (the error profile the FP32 stage hands over), must
  // come back under the default acceptance threshold in <= 2 sweeps.
  Rng rng(404);
  const index_t n = 64;
  const Matrix a = random_symmetric(n, rng);
  eig::EvdResult exact = eig::eigh(a.view());
  ASSERT_EQ(exact.eigenvectors.cols(), n);

  std::vector<double> w = exact.eigenvalues;
  Matrix x(n, n);
  copy(exact.eigenvectors.view(), x.view());
  const double eps32 = 1.19209290e-7;  // FLT_EPSILON
  Rng noise(405);
  for (index_t j = 0; j < n; ++j) {
    w[static_cast<size_t>(j)] += eps32 * noise.normal();
    for (index_t i = 0; i < n; ++i) x(i, j) += eps32 * noise.normal();
  }

  const eig::RefineOutcome out =
      eig::refine_eigenpairs(a.view(), w, x.view(), plan::RefineOptions{});
  EXPECT_TRUE(out.converged) << "residual " << out.residual << " tol "
                             << out.tol;
  EXPECT_LE(out.iters, 2);
  EXPECT_LE(evd_residual(a.view(), x.view(), w), acceptance_bound(a.view()));
}

TEST(MixedPrecision, RefineFaultFallsBackToFp64Once) {
  Rng rng(505);
  const index_t n = 64;
  const Matrix a = random_symmetric(n, rng);

  auto* fallbacks = obs::Registry::global().counter("evd.fp32_fallbacks",
                                                    obs::Gating::kAlways);
  const long long before = fallbacks->value();

  eig::EvdOptions mixed;
  mixed.mode = plan::EvdMode::kMixedPrecision;
  eig::EvdResult res;
  {
    fault::Scoped arm("evd_refine", /*trigger=*/1, /*fires=*/-1);
    res = eig::eigh(a.view(), mixed);
  }
  EXPECT_EQ(res.recovery, "fp32->fp64");
  EXPECT_EQ(res.mode, plan::EvdMode::kStandard);
  EXPECT_EQ(fallbacks->value(), before + 1);

  // The FP64 rerun must be bitwise the standard-mode solve: the failed
  // FP32 attempt leaves no residue in the result.
  const eig::EvdResult ref = eig::eigh(a.view());
  ASSERT_EQ(res.eigenvalues.size(), ref.eigenvalues.size());
  for (size_t i = 0; i < ref.eigenvalues.size(); ++i) {
    EXPECT_EQ(res.eigenvalues[i], ref.eigenvalues[i]) << "i=" << i;
  }
  ASSERT_EQ(res.eigenvectors.cols(), ref.eigenvectors.cols());
  for (index_t j = 0; j < ref.eigenvectors.cols(); ++j) {
    for (index_t i = 0; i < ref.eigenvectors.rows(); ++i) {
      EXPECT_EQ(res.eigenvectors(i, j), ref.eigenvectors(i, j))
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(MixedPrecision, RefineFaultAccountedOnceUnderServe) {
  // One mixed-mode request through the service with refinement failing
  // every time: the request still completes (the driver's own fp32->fp64
  // rerun handles it — the serve retry ladder must NOT fire for it) and
  // the fallback counter advances exactly once.
  auto* fallbacks = obs::Registry::global().counter("evd.fp32_fallbacks",
                                                    obs::Gating::kAlways);
  const long long before = fallbacks->value();

  fault::Scoped arm("evd_refine", /*trigger=*/1, /*fires=*/-1);
  serve::ServeCore core;
  Rng rng(606);
  serve::RequestOptions ropts;
  ropts.mode = plan::EvdMode::kMixedPrecision;
  serve::Ticket t = core.submit(random_symmetric(64, rng), ropts);
  const serve::Response r = t.response.get();
  ASSERT_EQ(r.outcome, serve::Outcome::kCompleted) << r.message;
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.mode, plan::EvdMode::kStandard);  // effective, post-fallback
  EXPECT_EQ(r.result.recovery, "fp32->fp64");
  EXPECT_EQ(fallbacks->value(), before + 1);

  ASSERT_TRUE(core.drain());
  const serve::ServeStats s = core.stats();
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.retries, 0);
  EXPECT_TRUE(s.accounted());
}

TEST(ValuesOnly, PeakWorkspaceStrictlyBelowStandard) {
  Rng rng(707);
  const index_t n = 512;
  const Matrix a = random_symmetric(n, rng);

  la::workspace_reset_peak();
  const eig::EvdResult standard = eig::eigh(a.view());
  const std::size_t peak_standard = la::workspace_peak_bytes();
  ASSERT_EQ(standard.eigenvectors.cols(), n);
  EXPECT_EQ(standard.peak_workspace_bytes, peak_standard);

  la::workspace_reset_peak();
  eig::EvdOptions vo;
  vo.mode = plan::EvdMode::kValuesOnly;
  const eig::EvdResult values = eig::eigh(a.view(), vo);
  const std::size_t peak_values = la::workspace_peak_bytes();
  EXPECT_EQ(values.mode, plan::EvdMode::kValuesOnly);
  EXPECT_EQ(values.eigenvectors.cols(), 0);  // Q provably skipped
  EXPECT_EQ(values.peak_workspace_bytes, peak_values);

  // The memory claim, measured: strictly below, and by a real margin —
  // the standard path's Q1/Q2/back-transform buffers are O(n^2) each.
  EXPECT_LT(peak_values, peak_standard);
  EXPECT_LT(peak_values, peak_standard - static_cast<std::size_t>(n) * n *
                                             sizeof(double));

  // Same spectrum either way.
  ASSERT_EQ(values.eigenvalues.size(), standard.eigenvalues.size());
  for (size_t i = 0; i < standard.eigenvalues.size(); ++i) {
    EXPECT_NEAR(values.eigenvalues[i], standard.eigenvalues[i], 1e-10 * n);
  }
}

TEST(StandardMode, Fp64BitwiseIdenticalAcrossThreadCounts) {
  // The mode axis must leave the legacy FP64 path untouched — including
  // its determinism guarantee across thread budgets.
  Rng rng(808);
  const index_t n = 96;
  const Matrix a = random_symmetric(n, rng);

  eig::EvdOptions one;
  one.tridiag.threads = 1;
  one.tridiag.bc_threads = 1;
  const eig::EvdResult r1 = eig::eigh(a.view(), one);

  eig::EvdOptions four;
  four.tridiag.threads = 4;
  four.tridiag.bc_threads = 4;
  const eig::EvdResult r4 = eig::eigh(a.view(), four);

  ASSERT_EQ(r1.eigenvalues.size(), r4.eigenvalues.size());
  for (size_t i = 0; i < r1.eigenvalues.size(); ++i) {
    EXPECT_EQ(r1.eigenvalues[i], r4.eigenvalues[i]) << "i=" << i;
  }
  ASSERT_EQ(r1.eigenvectors.cols(), r4.eigenvectors.cols());
  for (index_t j = 0; j < r1.eigenvectors.cols(); ++j) {
    for (index_t i = 0; i < r1.eigenvectors.rows(); ++i) {
      EXPECT_EQ(r1.eigenvectors(i, j), r4.eigenvectors(i, j))
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(WireMode, ParsesModeAndPrec) {
  using serve::wire::ParsedRequest;
  ParsedRequest p = serve::wire::parse_line("solve id=1 n=8 mode=values");
  ASSERT_EQ(p.kind, ParsedRequest::kSolve);
  EXPECT_EQ(p.opts.mode, plan::EvdMode::kValuesOnly);

  p = serve::wire::parse_line("solve id=2 n=8 mode=mixed");
  ASSERT_EQ(p.kind, ParsedRequest::kSolve);
  EXPECT_EQ(p.opts.mode, plan::EvdMode::kMixedPrecision);

  // prec=fp32 is the precision-axis spelling of mode=mixed.
  p = serve::wire::parse_line("solve id=3 n=8 prec=fp32");
  ASSERT_EQ(p.kind, ParsedRequest::kSolve);
  EXPECT_EQ(p.opts.mode, plan::EvdMode::kMixedPrecision);

  // Agreement is tolerated; defaults parse as standard.
  p = serve::wire::parse_line("solve id=4 n=8 mode=mixed prec=fp32");
  ASSERT_EQ(p.kind, ParsedRequest::kSolve);
  EXPECT_EQ(p.opts.mode, plan::EvdMode::kMixedPrecision);
  p = serve::wire::parse_line("solve id=5 n=8 prec=fp64");
  ASSERT_EQ(p.kind, ParsedRequest::kSolve);
  EXPECT_EQ(p.opts.mode, plan::EvdMode::kStandard);
}

TEST(WireMode, RejectsConflictsAndUnknownFields) {
  using serve::wire::ParsedRequest;
  EXPECT_EQ(serve::wire::parse_line("solve id=1 n=8 mode=standard prec=fp32")
                .kind,
            ParsedRequest::kBad);
  EXPECT_EQ(serve::wire::parse_line("solve id=2 n=8 mode=mixed prec=fp64")
                .kind,
            ParsedRequest::kBad);
  EXPECT_EQ(serve::wire::parse_line("solve id=3 n=8 mode=turbo").kind,
            ParsedRequest::kBad);
  EXPECT_EQ(serve::wire::parse_line("solve id=4 n=8 prec=fp16").kind,
            ParsedRequest::kBad);
  // Strict vocabulary: a typo'd knob is a parse error, never a silent
  // no-op.
  const ParsedRequest typo =
      serve::wire::parse_line("solve id=5 n=8 vectros=0");
  EXPECT_EQ(typo.kind, ParsedRequest::kBad);
  EXPECT_NE(typo.error.find("vectros"), std::string::npos);
  EXPECT_EQ(serve::wire::parse_line("solve id=6 n=8 bare-token").kind,
            ParsedRequest::kBad);
}

TEST(WireMode, OkLineEchoesEffectiveMode) {
  serve::Response r;
  r.outcome = serve::Outcome::kCompleted;
  r.request_id = 7;
  r.mode = plan::EvdMode::kMixedPrecision;
  r.result.eigenvalues = {1.0, 2.0};
  const std::string line = serve::wire::format_response(12, r);
  EXPECT_NE(line.find("mode=mixed"), std::string::npos) << line;
  r.mode = plan::EvdMode::kValuesOnly;
  EXPECT_NE(serve::wire::format_response(12, r).find("mode=values"),
            std::string::npos);
}

TEST(BatchMode, PerSlotModesSolveHeterogeneousMix) {
  Rng rng(1001);
  const index_t n = 48;
  std::vector<Matrix> problems;
  for (int i = 0; i < 3; ++i) problems.push_back(random_symmetric(n, rng));
  std::vector<ConstMatrixView> views;
  for (const auto& p : problems) views.push_back(p.view());

  eig::BatchOptions bopts;
  bopts.modes = {plan::EvdMode::kStandard, plan::EvdMode::kValuesOnly,
                 plan::EvdMode::kMixedPrecision};
  const eig::BatchResult br = eig::eigh_batched(views, bopts);
  ASSERT_EQ(br.results.size(), 3u);

  EXPECT_EQ(br.results[0].mode, plan::EvdMode::kStandard);
  EXPECT_EQ(br.results[0].eigenvectors.cols(), n);

  EXPECT_EQ(br.results[1].mode, plan::EvdMode::kValuesOnly);
  EXPECT_EQ(br.results[1].eigenvectors.cols(), 0);

  // Mixed either held or recovered to standard; vectors either way.
  EXPECT_TRUE(br.results[2].mode == plan::EvdMode::kMixedPrecision ||
              br.results[2].mode == plan::EvdMode::kStandard);
  EXPECT_EQ(br.results[2].eigenvectors.cols(), n);

  for (const auto& r : br.results) {
    EXPECT_EQ(r.eigenvalues.size(), static_cast<size_t>(n));
  }
}

TEST(PlanCacheMode, DefaultFp64KeysUnchanged) {
  // Only the kFp32 axis extends the cache key, so entries written before
  // the mode axis existed keep resolving for default FP64 requests.
  const std::string standard =
      plan::cache_key(plan::ProblemShape{256, true, 0});
  EXPECT_EQ(standard.find("prec="), std::string::npos) << standard;
  EXPECT_EQ(plan::cache_key(
                plan::ProblemShape{256, true, 0, plan::EvdMode::kStandard}),
            standard);
  // Values-only rides the pre-existing vec=0 axis — no new key component.
  EXPECT_EQ(plan::cache_key(plan::ProblemShape{256, false, 0,
                                               plan::EvdMode::kValuesOnly})
                .find("prec="),
            std::string::npos);
  // Mixed precision (vectors) is the one shape that minted a new axis.
  const std::string mixed = plan::cache_key(
      plan::ProblemShape{256, true, 0, plan::EvdMode::kMixedPrecision});
  EXPECT_NE(mixed.find("|prec=fp32"), std::string::npos) << mixed;
  EXPECT_NE(mixed, standard);
}

}  // namespace
}  // namespace tdg
