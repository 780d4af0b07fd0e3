// Tests for the fault-tolerant execution layer (docs/ALGORITHMS.md §11):
// the deterministic fault-injection hook, exception-safe pool joins,
// poisonable bulge-chase gates with spin deadlines, the input-hygiene
// screen, the tridiagonal-solver fallback chain, and the plan-cache
// failure paths. Every injection site in the registry is driven here.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bc/bulge_chase.h"
#include "bc/bulge_chase_parallel.h"
#include "common/fault.h"
#include "eig/batched.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "eig/drivers.h"
#include "la/blas.h"
#include "la/generate.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "plan/plan_cache.h"
#include "serve/serve.h"
#include "sbr/sbr.h"

namespace tdg {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// || A V - V diag(w) ||_max — residual of the full decomposition.
double evd_residual(ConstMatrixView a, ConstMatrixView v,
                    const std::vector<double>& w) {
  Matrix av(a.rows, v.cols);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, a, v, 0.0, av.view());
  double m = 0.0;
  for (index_t j = 0; j < v.cols; ++j) {
    for (index_t i = 0; i < v.rows; ++i) {
      m = std::max(m, std::abs(av(i, j) - v(i, j) * w[static_cast<size_t>(j)]));
    }
  }
  return m;
}

// ---- spec parsing and arming ----------------------------------------------

TEST(FaultSpec, ParsesSiteTriggerFires) {
  EXPECT_TRUE(fault::arm_from_spec("steqr_noconv"));
  EXPECT_TRUE(fault::should_fire("steqr_noconv"));   // hit 1 fires
  EXPECT_FALSE(fault::should_fire("steqr_noconv"));  // fires defaults to 1
  fault::disarm();

  EXPECT_TRUE(fault::arm_from_spec("bc_sweep:3"));
  EXPECT_FALSE(fault::should_fire("bc_sweep"));
  EXPECT_FALSE(fault::should_fire("bc_sweep"));
  EXPECT_TRUE(fault::should_fire("bc_sweep"));
  EXPECT_FALSE(fault::should_fire("bc_sweep"));
  fault::disarm();

  EXPECT_TRUE(fault::arm_from_spec("pool_task:2:*"));
  EXPECT_FALSE(fault::should_fire("pool_task"));
  EXPECT_TRUE(fault::should_fire("pool_task"));
  EXPECT_TRUE(fault::should_fire("pool_task"));  // unlimited window
  EXPECT_EQ(fault::hits(), 3);
  fault::disarm();
  EXPECT_EQ(fault::hits(), 0);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", ":1", "site:", "site:0", "site:x", "site:1:",
                          "site:1:0", "site:1:y"}) {
    EXPECT_FALSE(fault::arm_from_spec(bad)) << bad;
    EXPECT_FALSE(fault::should_fire("site")) << bad;
  }
}

TEST(FaultSpec, OtherSitesDoNotCountHits) {
  fault::Scoped armed("steqr_noconv", 2);
  EXPECT_FALSE(fault::should_fire("bc_sweep"));
  EXPECT_FALSE(fault::should_fire("pool_task"));
  EXPECT_EQ(fault::hits(), 0);  // mismatched sites never advance the counter
  EXPECT_FALSE(fault::should_fire("steqr_noconv"));  // hit 1
  EXPECT_TRUE(fault::should_fire("steqr_noconv"));   // hit 2 == trigger
}

TEST(FaultSpec, MaybeInjectThrowsTyped) {
  fault::Scoped armed("pool_task");
  try {
    fault::maybe_inject("pool_task");
    FAIL() << "expected injected fault";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kFaultInjected);
    EXPECT_STREQ(err.context().stage, "pool_task");
    EXPECT_NE(std::string(err.what()).find("pool_task"), std::string::npos);
  }
}

TEST(FaultSpec, DisarmedFastPathIsSilent) {
  fault::disarm();
  EXPECT_FALSE(fault::should_fire("pool_task"));
  EXPECT_NO_THROW(fault::maybe_inject("bc_sweep"));
}

// ---- exception-safe thread pool -------------------------------------------

TEST(PoolFault, ParallelForRethrowsTaskException) {
  ThreadLimit limit(4);
  std::atomic<int> executed{0};
  try {
    ThreadPool::global().parallel_for(0, 64, [&](index_t i) {
      if (i == 7) throw std::runtime_error("task 7 failed");
      ++executed;
    });
    FAIL() << "expected rethrow at the join";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("task 7"), std::string::npos);
  }
  // The region is poisoned, not torn down: some indices may have been
  // skipped, but the join released and none ran twice.
  EXPECT_LT(executed.load(), 64);

  // The pool stays usable after a poisoned region.
  std::atomic<int> after{0};
  ThreadPool::global().parallel_for(0, 64, [&](index_t) { ++after; });
  EXPECT_EQ(after.load(), 64);
}

TEST(PoolFault, ParallelForInjectedFaultIsTyped) {
  ThreadLimit limit(4);
  fault::Scoped armed("pool_task", 5);
  try {
    ThreadPool::global().parallel_for(0, 32, [](index_t) {});
    FAIL() << "expected injected fault";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kFaultInjected);
  }
}

TEST(PoolFault, SerialPathInjectedFaultIsTyped) {
  ThreadLimit limit(1);  // inline path, no workers involved
  fault::Scoped armed("pool_task", 3);
  try {
    ThreadPool::global().parallel_for(0, 8, [](index_t) {});
    FAIL() << "expected injected fault";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kFaultInjected);
  }
}

TEST(PoolFault, RunConcurrentRethrowsPeerException) {
  ThreadLimit limit(4);
  std::atomic<int> ran{0};
  try {
    ThreadPool::global().run_concurrent(4, [&](int copy) {
      ++ran;
      if (copy == 2) throw std::runtime_error("copy 2 failed");
    });
    FAIL() << "expected rethrow at the join";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("copy 2"), std::string::npos);
  }
  EXPECT_EQ(ran.load(), 4);  // peers are independent; all copies ran

  std::atomic<int> after{0};
  ThreadPool::global().run_concurrent(4, [&](int) { ++after; });
  EXPECT_EQ(after.load(), 4);
}

TEST(PoolFault, RunConcurrentCallerCopyThrowArrivesAfterJoin) {
  ThreadLimit limit(4);
  std::atomic<int> ran{0};
  try {
    ThreadPool::global().run_concurrent(4, [&](int copy) {
      ++ran;
      if (copy == 0) throw std::runtime_error("caller copy failed");
    });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error&) {
  }
  // The caller's copy failing must still wait for the helpers (they hold a
  // reference to the shared closure), so every copy observed a live fn.
  EXPECT_EQ(ran.load(), 4);
}

// ---- poisonable bulge-chase gates -----------------------------------------

TEST(ChaseFault, InjectedSweepFaultUnwindsPipeline) {
  const index_t n = 64, b = 4;
  Rng rng(42);
  const Matrix a0 = random_symmetric_band(n, b, rng);
  SymBandMatrix band = extract_band(a0.view(), b, std::min(2 * b, n - 1));

  fault::Scoped armed("bc_sweep", 3);
  bc::ParallelChaseOptions opts;
  opts.threads = 4;
  opts.spin_timeout_ms = 5000;  // failsafe only; poisoning releases the gates
  try {
    bc::chase_packed_parallel(band, b, opts, nullptr);
    FAIL() << "expected injected fault";
  } catch (const Error& err) {
    // The root cause is the injected fault, never a peer's unwind error.
    EXPECT_EQ(err.code(), ErrorCode::kFaultInjected);
  }
}

TEST(ChaseFault, StalledGateHitsSpinDeadline) {
  const index_t n = 64, b = 4;
  Rng rng(43);
  const Matrix a0 = random_symmetric_band(n, b, rng);
  SymBandMatrix band = extract_band(a0.view(), b, std::min(2 * b, n - 1));

  fault::Scoped armed("bc_stall");  // wedge the first claimed sweep
  bc::ParallelChaseOptions opts;
  opts.threads = 4;
  opts.spin_timeout_ms = 200;  // short deadline: the test must not crawl
  try {
    bc::chase_packed_parallel(band, b, opts, nullptr);
    FAIL() << "expected a pipeline stall";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kPipelineStall);
    EXPECT_STREQ(err.context().stage, "bulge_chase");
    EXPECT_GE(err.context().index, -1);  // sweep coordinate present
    EXPECT_NE(std::string(err.what()).find("sweep"), std::string::npos);
  }
}

TEST(TaskGraphFault, FailingNodeCancelsSuccessorsAndSurfacesTypedError) {
  // Drive the injection through the look-ahead DBBR DAG: the fired node's
  // successors must be cancelled (counted in the registry metric, not run)
  // and the graph must drain into a typed rethrow — no hang, no terminate.
  const index_t n = 96;
  Rng rng(91);
  const Matrix a0 = random_symmetric(n, rng);

  obs::Counter* cancelled =
      obs::Registry::global().counter("taskgraph.nodes_cancelled");
  const long long cancelled_before = cancelled->value();

  struct MetricsArm {
    MetricsArm() { obs::arm_metrics(); }
    ~MetricsArm() { obs::disarm_metrics(); }
  } metrics;
  fault::Scoped armed("taskgraph_node", /*trigger=*/3);
  sbr::BandReductionOptions opts;
  opts.b = 8;
  opts.k = 32;
  opts.threads = 8;
  opts.lookahead = 1;
  opts.syr2k_block = 16;
  Matrix a = a0;
  try {
    sbr::dbbr(a.view(), opts);
    FAIL() << "expected injected fault";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kFaultInjected);
  }
  // A DBBR graph at this shape has far more than 3 nodes, so poisoning the
  // third leaves successors to cancel.
  EXPECT_GT(cancelled->value(), cancelled_before);

  // The library is healthy afterwards and the clean rerun is bitwise equal
  // to the barrier schedule.
  Matrix clean = a0;
  sbr::dbbr(clean.view(), opts);
  Matrix barrier = a0;
  sbr::BandReductionOptions bopts = opts;
  bopts.lookahead = 0;
  sbr::dbbr(barrier.view(), bopts);
  EXPECT_EQ(max_abs_diff(clean.view(), barrier.view()), 0.0);
}

TEST(ChaseFault, CleanRunAfterPoisonedRunIsBitwiseCorrect) {
  const index_t n = 48, b = 4;
  Rng rng(44);
  const Matrix a0 = random_symmetric_band(n, b, rng);
  const index_t kd = std::min(2 * b, n - 1);

  {
    SymBandMatrix poisoned = extract_band(a0.view(), b, kd);
    fault::Scoped armed("bc_sweep", 2);
    bc::ParallelChaseOptions opts;
    opts.threads = 4;
    EXPECT_THROW(bc::chase_packed_parallel(poisoned, b, opts, nullptr), Error);
  }

  // The pool and the global state must be clean again: an undisturbed run
  // still matches the sequential chase exactly.
  SymBandMatrix seq = extract_band(a0.view(), b, kd);
  bc::chase_packed(seq, b, nullptr);
  SymBandMatrix par = extract_band(a0.view(), b, kd);
  bc::ParallelChaseOptions opts;
  opts.threads = 4;
  bc::chase_packed_parallel(par, b, opts, nullptr);

  std::vector<double> d1, e1, d2, e2;
  bc::extract_tridiag(seq, d1, e1);
  bc::extract_tridiag(par, d2, e2);
  for (index_t i = 0; i < n; ++i)
    EXPECT_EQ(d1[static_cast<size_t>(i)], d2[static_cast<size_t>(i)]) << i;
  for (index_t i = 0; i + 1 < n; ++i)
    EXPECT_EQ(e1[static_cast<size_t>(i)], e2[static_cast<size_t>(i)]) << i;
}

// ---- input hygiene ---------------------------------------------------------

TEST(InputHygiene, EighRejectsNaNWithCoordinates) {
  const index_t n = 16;
  Rng rng(7);
  Matrix a = random_symmetric(n, rng);
  a(5, 2) = std::numeric_limits<double>::quiet_NaN();
  try {
    eig::eigh(a.view());
    FAIL() << "expected kInvalidInput";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kInvalidInput);
    EXPECT_STREQ(err.context().stage, "eigh");
    EXPECT_EQ(err.context().index, 5);
    EXPECT_EQ(err.context().iteration, 2);
    EXPECT_NE(std::string(err.what()).find("(5, 2)"), std::string::npos);
  }
}

TEST(InputHygiene, TridiagonalizeRejectsInf) {
  const index_t n = 16;
  Rng rng(8);
  Matrix a = random_symmetric(n, rng);
  a(9, 9) = std::numeric_limits<double>::infinity();
  try {
    tridiagonalize(a.view(), {});
    FAIL() << "expected kInvalidInput";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kInvalidInput);
    EXPECT_STREQ(err.context().stage, "tridiagonalize");
  }
}

TEST(InputHygiene, ScreenOnlyReadsLowerTriangle) {
  // The documented contract: only the lower triangle is read, so garbage
  // in the strict upper triangle must not trip the screen.
  const index_t n = 12;
  Rng rng(9);
  Matrix a = random_symmetric(n, rng);
  a(1, 10) = std::numeric_limits<double>::quiet_NaN();  // strict upper
  EXPECT_NO_THROW(eig::eigh(a.view()));
}

TEST(InputHygiene, ScreenCanBeSkipped) {
  const index_t n = 12;
  Rng rng(10);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.check_finite = false;  // pre-validated input: no O(n^2) rescan
  const eig::EvdResult res = eig::eigh(a.view(), opts);
  EXPECT_EQ(res.eigenvalues.size(), static_cast<size_t>(n));
}

// ---- solver fallback chain -------------------------------------------------

TEST(SolverFallback, ValuesOnlySteqrFallsBackToBisect) {
  const index_t n = 48;
  Rng rng(11);
  const Matrix a = random_symmetric(n, rng);
  const eig::EvdOptions vals_only = [] {
    eig::EvdOptions o;
    o.vectors = false;
    return o;
  }();

  const eig::EvdResult clean = eig::eigh(a.view(), vals_only);
  ASSERT_TRUE(clean.recovery.empty());

  fault::Scoped armed("steqr_noconv", 1, -1);
  const eig::EvdResult res = eig::eigh(a.view(), vals_only);
  EXPECT_EQ(res.recovery, "steqr->bisect");
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                clean.eigenvalues[static_cast<size_t>(i)], 1e-9 * n);
  }
}

TEST(SolverFallback, DcFallsBackToSteqr) {
  const index_t n = 48;
  Rng rng(12);
  const Matrix a = random_symmetric(n, rng);
  const eig::EvdResult clean = eig::eigh(a.view());
  ASSERT_TRUE(clean.recovery.empty());

  // One shot: the D&C base case's first steqr call fails, the driver-level
  // steqr retry (hit 2) succeeds.
  fault::Scoped armed("steqr_noconv", 1, 1);
  const eig::EvdResult res = eig::eigh(a.view());
  EXPECT_EQ(res.recovery, "dc->steqr");
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                clean.eigenvalues[static_cast<size_t>(i)], 1e-9 * n);
  }
  EXPECT_LT(orthogonality_error(res.eigenvectors.view()), 1e-11 * n);
  EXPECT_LT(evd_residual(a.view(), res.eigenvectors.view(), res.eigenvalues),
            1e-10 * n);
}

TEST(SolverFallback, DcFallsBackThroughSteqrToBisect) {
  const index_t n = 48;
  Rng rng(13);
  const Matrix a = random_symmetric(n, rng);
  const eig::EvdResult clean = eig::eigh(a.view());

  // Every steqr call fails: D&C's base case, then the driver retry; the
  // solver-free bisection + inverse-iteration stage must carry the run.
  fault::Scoped armed("steqr_noconv", 1, -1);
  const eig::EvdResult res = eig::eigh(a.view());
  EXPECT_EQ(res.recovery, "dc->steqr->bisect");
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                clean.eigenvalues[static_cast<size_t>(i)], 1e-9 * n);
  }
  EXPECT_LT(orthogonality_error(res.eigenvectors.view()), 1e-9 * n);
  EXPECT_LT(evd_residual(a.view(), res.eigenvectors.view(), res.eigenvalues),
            1e-9 * n);
}

TEST(SolverFallback, ExplicitSteqrSolverFallsBackToBisect) {
  const index_t n = 40;
  Rng rng(14);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.solver = eig::TridiagSolver::kImplicitQl;
  const eig::EvdResult clean = eig::eigh(a.view(), opts);

  fault::Scoped armed("steqr_noconv", 1, -1);
  const eig::EvdResult res = eig::eigh(a.view(), opts);
  EXPECT_EQ(res.recovery, "steqr->bisect");
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                clean.eigenvalues[static_cast<size_t>(i)], 1e-9 * n);
  }
  EXPECT_LT(evd_residual(a.view(), res.eigenvectors.view(), res.eigenvalues),
            1e-9 * n);
}

TEST(SolverFallback, SecularFailureTriggersDcFallback) {
  const index_t n = 48;
  Rng rng(15);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.knobs.smlsiz = 8;  // force real D&C merges so the secular solver runs
  const eig::EvdResult clean = eig::eigh(a.view(), opts);
  ASSERT_TRUE(clean.recovery.empty());

  fault::Scoped armed("secular_root");
  const eig::EvdResult res = eig::eigh(a.view(), opts);
  EXPECT_EQ(res.recovery, "dc->steqr");
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(res.eigenvalues[static_cast<size_t>(i)],
                clean.eigenvalues[static_cast<size_t>(i)], 1e-9 * n);
  }
}

TEST(SolverFallback, DisabledFallbackSurfacesTypedError) {
  const index_t n = 32;
  Rng rng(16);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.solver_fallback = false;
  fault::Scoped armed("steqr_noconv", 1, -1);
  try {
    eig::eigh(a.view(), opts);
    FAIL() << "expected kNoConvergence";
  } catch (const Error& err) {
    EXPECT_EQ(err.code(), ErrorCode::kNoConvergence);
    EXPECT_STREQ(err.context().stage, "steqr");
  }
}

// ---- plan-cache failure paths ---------------------------------------------

TEST(CacheFault, SaveFaultReportsFailureWithoutTouchingFile) {
  const std::string path = temp_path("fault_cache_save.json");
  std::remove(path.c_str());

  plan::PlanCache cache;
  cache.insert("some-key", plan::Plan{});
  {
    fault::Scoped armed("cache_save");
    EXPECT_FALSE(cache.save(path));
  }
  EXPECT_EQ(cache.stats().save_failures, 1);
  EXPECT_EQ(cache.stats().saves, 0);
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_EQ(f, nullptr) << "a failed save must not create the file";
  if (f != nullptr) std::fclose(f);

  // Unfaulted retry succeeds and the file round-trips.
  EXPECT_TRUE(cache.save(path));
  EXPECT_EQ(cache.stats().saves, 1);
  plan::PlanCache fresh;
  EXPECT_TRUE(fresh.load(path));
  EXPECT_EQ(fresh.size(), 1u);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(CacheFault, LockFaultDegradesToUnlockedSave) {
  const std::string path = temp_path("fault_cache_lock.json");
  std::remove(path.c_str());

  plan::PlanCache cache;
  cache.insert("another-key", plan::Plan{});
  {
    fault::Scoped armed("cache_lock");
    // Simulated lock contention: the save still lands (last-writer-wins,
    // the pre-flock behavior), only the telemetry records the degradation.
    EXPECT_TRUE(cache.save(path));
  }
  EXPECT_EQ(cache.stats().lock_failures, 1);
  EXPECT_EQ(cache.stats().saves, 1);
  plan::PlanCache fresh;
  EXPECT_TRUE(fresh.load(path));
  EXPECT_EQ(fresh.size(), 1u);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(CacheFault, StatsCountHitsAndMisses) {
  plan::PlanCache cache;
  plan::Plan out;
  EXPECT_FALSE(cache.lookup("k1", &out));
  cache.insert("k1", plan::Plan{});
  EXPECT_TRUE(cache.lookup("k1", &out));
  EXPECT_TRUE(cache.lookup("k1", &out));
  cache.note_measure_run("k1");

  const plan::CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.measure_runs, 1);
  const auto shapes = cache.shape_stats();
  ASSERT_EQ(shapes.count("k1"), 1u);
  EXPECT_EQ(shapes.at("k1").hits, 2);
  EXPECT_EQ(shapes.at("k1").misses, 1);
  EXPECT_EQ(shapes.at("k1").measure_runs, 1);

  cache.reset_stats();
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_TRUE(cache.shape_stats().empty());
}

// ---- no-hang stress --------------------------------------------------------

// Every site, injected under a full thread budget: each run must end in a
// typed error or a recorded recovery — never a hang (the ctest timeout is
// the enforcement backstop) and never std::terminate.
TEST(FaultStress, EverySiteUnwindsUnderThreads) {
  ThreadLimit limit(8);
  const index_t n = 96;
  Rng rng(17);
  const Matrix a = random_symmetric(n, rng);

  for (const char* site :
       {"pool_task", "bc_sweep", "steqr_noconv", "secular_root"}) {
    fault::Scoped armed(site);
    eig::EvdOptions opts;
    opts.knobs.smlsiz = 16;  // real merges, so secular_root is reachable
    opts.tridiag.bc_threads = 4;
    opts.tridiag.b = 8;
    try {
      const eig::EvdResult res = eig::eigh(a.view(), opts);
      // Sites on the solver path are absorbed by the fallback chain.
      EXPECT_FALSE(res.recovery.empty()) << site;
    } catch (const Error& err) {
      EXPECT_NE(err.code(), ErrorCode::kUnknown) << site;
    }
  }

  // The stall site needs a short deadline to stay fast; drive it at the
  // chase layer where the deadline is a per-call option.
  {
    const Matrix band_src = random_symmetric_band(n, 8, rng);
    SymBandMatrix band =
        extract_band(band_src.view(), 8, std::min<index_t>(16, n - 1));
    fault::Scoped armed("bc_stall");
    bc::ParallelChaseOptions opts;
    opts.threads = 8;
    opts.spin_timeout_ms = 200;
    EXPECT_THROW(bc::chase_packed_parallel(band, 8, opts, nullptr), Error);
  }

  // And the library is healthy afterwards.
  const eig::EvdResult res = eig::eigh(a.view());
  EXPECT_TRUE(res.recovery.empty());
  EXPECT_LT(evd_residual(a.view(), res.eigenvectors.view(), res.eigenvalues),
            1e-10 * n);
}

// ---- CI fault-matrix entry point ------------------------------------------

// The target of the CI fault-injection job: TDG_FAULT_INJECT is set in the
// environment (armed before main() by the EnvInit hook), TDG_THREADS raises
// the budget, and this single test runs a representative slice of the
// library. The assertion is the weak one that matters: typed error, recorded
// recovery, or success — within the ctest timeout, with no hang and no
// std::terminate.
TEST(FaultEnv, NoHangUnderInjection) {
  const index_t n = 160;
  Rng rng(18);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.knobs.smlsiz = 16;
  opts.tridiag.b = 8;
  opts.tridiag.bc_threads = 4;
  // Force the task-graph schedule so the taskgraph_node site is reachable
  // on any core count (bitwise-neutral; the heuristic only enables it when
  // the thread budget is >= 2).
  opts.tridiag.knobs.lookahead = 1;
  try {
    const eig::EvdResult res = eig::eigh(a.view(), opts);
    EXPECT_EQ(res.eigenvalues.size(), static_cast<size_t>(n));
  } catch (const Error& err) {
    EXPECT_NE(err.code(), ErrorCode::kUnknown);
    std::printf("injected failure surfaced as %s: %s\n",
                to_string(err.code()), err.what());
  }

  // The measure tier + cache save path (covers cache_save / cache_lock
  // injection from the environment).
  const std::string path = temp_path("fault_env_cache.json");
  std::remove(path.c_str());
  plan::PlannerOptions popts;
  popts.cache_path = path;
  popts.proxy_n = 96;
  try {
    const plan::Plan p = plan::measured_plan({n, true, 0}, popts);
    EXPECT_GE(p.b, 1);
  } catch (const Error& err) {
    EXPECT_NE(err.code(), ErrorCode::kUnknown);
  }
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

// Mixed-precision engine under environment injection (the "evd_refine:1"
// row of the CI fault matrix, plus any in-pipeline site the FP32 stage
// shares with the FP64 path): a forced refinement failure must surface as
// the recorded fp32->fp64 recovery — a completed full-FP64 rerun — never a
// hang or an uncaught throw.
TEST(FaultEnv, MixedPrecisionRecoversUnderInjection) {
  const index_t n = 96;
  Rng rng(21);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.mode = plan::EvdMode::kMixedPrecision;
  try {
    const eig::EvdResult res = eig::eigh(a.view(), opts);
    EXPECT_EQ(res.eigenvalues.size(), static_cast<size_t>(n));
    EXPECT_EQ(res.eigenvectors.cols(), n);
    if (!res.recovery.empty()) {
      std::printf("recovered via %s\n", res.recovery.c_str());
    }
  } catch (const Error& err) {
    EXPECT_NE(err.code(), ErrorCode::kUnknown);
    std::printf("injected failure surfaced as %s: %s\n",
                to_string(err.code()), err.what());
  }
}

// Batched driver under environment injection (the "batch_problem:N" rows of
// the CI fault matrix, plus every in-problem site): the batch call itself
// never throws or hangs — each slot either succeeds or carries a typed
// error, and the two tallies cover the batch exactly.
TEST(FaultEnv, BatchedIsolatesInjectedFailures) {
  const std::vector<index_t> sizes{96, 64, 48, 80, 64, 48};
  std::vector<Matrix> mats;
  Rng rng(19);
  for (const index_t n : sizes) mats.push_back(random_symmetric(n, rng));
  std::vector<ConstMatrixView> views;
  for (const Matrix& m : mats) views.push_back(m.view());

  eig::BatchOptions opts;
  opts.threads = 4;
  const eig::BatchResult res = eig::eigh_batched(views, opts);

  ASSERT_EQ(res.problems, static_cast<index_t>(sizes.size()));
  index_t ok = 0, failed = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (res.status[i].ok) {
      ++ok;
      EXPECT_LT(evd_residual(mats[i].view(),
                             res.results[i].eigenvectors.view(),
                             res.results[i].eigenvalues),
                1e-9 * static_cast<double>(sizes[i]));
    } else {
      ++failed;
      EXPECT_NE(res.status[i].code, ErrorCode::kUnknown);
      EXPECT_FALSE(res.status[i].message.empty());
      std::printf("slot %zu failed as %s: %s\n", i,
                  to_string(res.status[i].code),
                  res.status[i].message.c_str());
    }
  }
  EXPECT_EQ(failed, res.failed);
  EXPECT_EQ(ok + failed, res.problems);
}

// Environment-armed serve sites (serve_admit / serve_request, the CI fault
// matrix rows): whatever fires, the service never crashes, every request
// resolves to exactly one outcome, and drain completes.
TEST(FaultEnv, ServeAccountsEveryRequestUnderInjection) {
  serve::ServeOptions sopts;
  sopts.coalesce_window_ms = 1.0;
  serve::ServeCore core(sopts);

  constexpr int kRequests = 12;
  const index_t sizes[] = {48, 64, 96};
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < kRequests; ++i) {
    Rng rng(static_cast<std::uint64_t>(40 + i));
    tickets.push_back(
        core.submit(random_symmetric(sizes[i % 3], rng)));
  }
  ASSERT_TRUE(core.drain(/*timeout_ms=*/120000.0));

  int completed = 0, degraded = 0, rejected = 0, failed = 0;
  for (auto& t : tickets) {
    const serve::Response r = t.response.get();
    switch (r.outcome) {
      case serve::Outcome::kCompleted: ++completed; break;
      case serve::Outcome::kDegraded: ++degraded; break;
      case serve::Outcome::kRejected: {
        ++rejected;
        // An injected admission fault says why it shed the request
        // (docs/ALGORITHMS.md §15); every other reject is kOverloaded.
        const bool injected =
            r.message.find("serve_admit") != std::string::npos;
        EXPECT_EQ(r.code, injected ? ErrorCode::kFaultInjected
                                   : ErrorCode::kOverloaded)
            << r.message;
        break;
      }
      case serve::Outcome::kFailed:
        ++failed;
        EXPECT_NE(r.code, ErrorCode::kUnknown);
        std::printf("request failed as %s: %s\n", to_string(r.code),
                    r.message.c_str());
        break;
    }
  }
  EXPECT_EQ(completed + degraded + rejected + failed, kRequests);
  const serve::ServeStats s = core.stats();
  EXPECT_EQ(s.submitted, kRequests);
  EXPECT_TRUE(s.accounted());
  EXPECT_EQ(s.queue_depth, 0);
}

}  // namespace
}  // namespace tdg
