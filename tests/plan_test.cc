// Tests for the autotuning planner (src/plan): heuristic properties,
// knob validation/clamping, plan-cache persistence (round-trip, merge,
// corrupted-file recovery), fingerprint stability, and the end-to-end
// guarantee that a heuristically-planned eigh matches the same plan applied
// manually, bit for bit.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eig/drivers.h"
#include "la/generate.h"
#include "plan/fingerprint.h"
#include "plan/plan.h"
#include "plan/plan_cache.h"

namespace tdg {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

plan::Plan sample_plan(double seconds) {
  plan::Plan p;
  p.method = TridiagMethod::kTwoStageDbbr;
  p.b = 16;
  p.k = 512;
  p.sytrd_nb = 48;
  p.max_parallel_sweeps = 6;
  p.threads = 8;
  p.bc_threads = 5;
  p.bt_kw = 128;
  p.q2_group = 32;
  p.smlsiz = 24;
  p.source = plan::PlanSource::kMeasured;
  p.measured_seconds = seconds;
  return p;
}

// plan_source is the tier name plus schedule suffixes ("heuristic+la1" on
// machines where the heuristic enables look-ahead) — compare the base tier.
std::string base_source(const std::string& source) {
  return source.substr(0, source.find('+'));
}

void expect_same_knobs(const plan::Plan& a, const plan::Plan& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.b, b.b);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.sytrd_nb, b.sytrd_nb);
  EXPECT_EQ(a.max_parallel_sweeps, b.max_parallel_sweeps);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.bc_threads, b.bc_threads);
  EXPECT_EQ(a.bt_kw, b.bt_kw);
  EXPECT_EQ(a.q2_group, b.q2_group);
  EXPECT_EQ(a.smlsiz, b.smlsiz);
}

TEST(Fingerprint, StableAndSanitized) {
  const std::string& f1 = plan::machine_fingerprint();
  const std::string& f2 = plan::machine_fingerprint();
  EXPECT_EQ(f1, f2);
  EXPECT_NE(f1.find("cores="), std::string::npos);
  EXPECT_NE(f1.find("mode="), std::string::npos);
  for (char c : f1) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '=' || c == '-' || c == ';';
    EXPECT_TRUE(ok) << "bad fingerprint char: " << c;
  }
}

TEST(CacheKey, BucketsShapes) {
  const std::string a = plan::cache_key({1000, true, 0});
  const std::string b = plan::cache_key({1024, true, 0});
  const std::string c = plan::cache_key({1025, true, 0});
  EXPECT_EQ(a, b);  // same power-of-two bucket
  EXPECT_NE(b, c);
  EXPECT_NE(plan::cache_key({1024, true, 0}), plan::cache_key({1024, false, 0}));
  EXPECT_NE(plan::cache_key({1024, true, 0}), plan::cache_key({1024, true, 10}));
}

TEST(Heuristic, MatchesPaperOperatingPointAtScale) {
  for (index_t n : {4096, 16384}) {
    const plan::Plan p = plan::heuristic_plan({n, true, 0}, 8);
    EXPECT_EQ(p.method, TridiagMethod::kTwoStageDbbr);
    EXPECT_EQ(p.b, 32);
    EXPECT_EQ(p.k, 1024);  // the paper's published operating point
    EXPECT_EQ(p.source, plan::PlanSource::kHeuristic);
  }
}

TEST(Heuristic, KnobsLegalAcrossSizes) {
  for (index_t n : {2, 3, 5, 17, 40, 64, 100, 333, 1000}) {
    const plan::Plan p = plan::heuristic_plan({n, true, 0}, 4);
    EXPECT_GE(p.b, 1) << n;
    EXPECT_LE(p.b, std::max<index_t>(1, n - 1)) << n;
    EXPECT_EQ(p.k % p.b, 0) << n;
    EXPECT_GE(p.sytrd_nb, 1) << n;
    EXPECT_GE(p.smlsiz, 2) << n;
    EXPECT_GE(p.bc_threads, 1) << n;
    EXPECT_GE(p.max_parallel_sweeps, 1) << n;
  }
}

TEST(Heuristic, SweepsMonotonicInThreads) {
  // The pipeline cap S must never shrink when more workers are available.
  for (index_t n : {128, 512, 2048}) {
    index_t prev = 0;
    for (int t = 1; t <= 16; ++t) {
      const index_t s =
          plan::heuristic_plan({n, true, 0}, t).max_parallel_sweeps;
      EXPECT_GE(s, prev) << "n=" << n << " t=" << t;
      prev = s;
    }
  }
}

TEST(Validation, ClampsDegenerateKnobs) {
  TridiagOptions o;
  o.b = 100;  // > n - 1
  o.k = 1000;
  o.sytrd_nb = 99;
  const TridiagOptions v = plan::validated(o, 6);
  EXPECT_EQ(v.b, 5);
  EXPECT_EQ(v.k % v.b, 0);
  EXPECT_LE(v.k, 10);  // ceil(6/5)*5
  EXPECT_LE(v.sytrd_nb, 6);

  // n <= b degenerates to the largest legal band.
  const TridiagOptions w = plan::validated(o, 2);
  EXPECT_EQ(w.b, 1);
  EXPECT_EQ(w.k, 2);
}

TEST(Validation, RoundsKToMultipleOfB) {
  TridiagOptions o;
  o.b = 8;
  o.k = 100;  // not a multiple of 8
  const TridiagOptions v = plan::validated(o, 200);
  EXPECT_EQ(v.k, 96);
}

TEST(Validation, RejectsNegativeKnobs) {
  TridiagOptions o;
  o.b = -1;
  EXPECT_THROW(plan::validated(o, 10), Error);
  o.b = 4;
  o.max_parallel_sweeps = -2;
  EXPECT_THROW(plan::validated(o, 10), Error);
  ApplyQOptions q;
  q.knobs.bt_kw = -5;
  EXPECT_THROW(plan::validated(q, 10), Error);
}

TEST(Validation, FillsApplyQDefaults) {
  ApplyQOptions q;  // all knobs auto
  const ApplyQOptions v = plan::validated(q, 1000);
  EXPECT_GE(v.knobs.bt_kw, 1);
  EXPECT_GE(v.knobs.q2_group, 1);
}

TEST(PlanCache, RoundTripThroughFile) {
  const std::string path = temp_path("plan_cache_roundtrip.json");
  std::remove(path.c_str());

  plan::PlanCache writer;
  const plan::Plan p = sample_plan(0.25);
  writer.insert("keyA", p);
  ASSERT_TRUE(writer.save(path));

  plan::PlanCache reader;
  ASSERT_TRUE(reader.load(path));
  EXPECT_EQ(reader.size(), 1u);
  plan::Plan got;
  ASSERT_TRUE(reader.lookup("keyA", &got));
  expect_same_knobs(p, got);
  EXPECT_DOUBLE_EQ(got.measured_seconds, 0.25);
  EXPECT_EQ(got.source, plan::PlanSource::kCache);  // provenance on hit
  std::remove(path.c_str());
}

TEST(PlanCache, MergeKeepsBetterEntry) {
  const std::string path = temp_path("plan_cache_merge.json");
  std::remove(path.c_str());

  plan::PlanCache a;
  a.insert("shared", sample_plan(0.5));
  a.insert("only_a", sample_plan(1.0));
  ASSERT_TRUE(a.save(path));

  plan::PlanCache b;
  plan::Plan faster = sample_plan(0.1);
  faster.k = 256;
  b.insert("shared", faster);
  b.insert("only_b", sample_plan(2.0));
  ASSERT_TRUE(b.load(path));  // merge the file into b
  EXPECT_EQ(b.size(), 3u);

  plan::Plan got;
  ASSERT_TRUE(b.lookup("shared", &got));
  EXPECT_EQ(got.k, 256);  // the faster (smaller seconds) entry survived
  EXPECT_DOUBLE_EQ(got.measured_seconds, 0.1);

  // save() re-merges with the file: both exclusive keys survive on disk.
  ASSERT_TRUE(b.save(path));
  plan::PlanCache c;
  ASSERT_TRUE(c.load(path));
  EXPECT_EQ(c.size(), 3u);
  EXPECT_TRUE(c.lookup("only_a", &got));
  EXPECT_TRUE(c.lookup("only_b", &got));
  std::remove(path.c_str());
}

TEST(PlanCache, CorruptedFileRecovers) {
  const std::string path = temp_path("plan_cache_corrupt.json");
  {
    std::ofstream out(path);
    out << "{\"version\": 1, \"entries\": [ {\"key\": \"x\", garbage";
  }
  plan::PlanCache cache;
  EXPECT_FALSE(cache.load(path));
  EXPECT_EQ(cache.size(), 0u);

  // A save over the corrupted file replaces it with valid JSON.
  cache.insert("fresh", sample_plan(0.3));
  ASSERT_TRUE(cache.save(path));
  plan::PlanCache reader;
  ASSERT_TRUE(reader.load(path));
  EXPECT_EQ(reader.size(), 1u);
  std::remove(path.c_str());
}

TEST(PlanCache, MissingFileLoadFails) {
  plan::PlanCache cache;
  EXPECT_FALSE(cache.load(temp_path("does_not_exist.json")));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(MeasuredPlan, MeasuresOnceThenHitsCache) {
  // Earlier cases in the same process may have left a bucket-64 plan in
  // the shared cache; this case needs a cold one.
  plan::PlanCache::global().clear();
  const std::string path = temp_path("plan_cache_measured.json");
  std::remove(path.c_str());

  plan::ProblemShape shape{52, true, 0};
  plan::PlannerOptions popts;
  popts.cache_path = path;
  popts.proxy_n = 32;
  const plan::Plan first = plan::measured_plan(shape, popts);
  EXPECT_EQ(first.source, plan::PlanSource::kMeasured);
  EXPECT_GT(first.measured_seconds, 0.0);

  const plan::Plan second = plan::measured_plan(shape, popts);
  EXPECT_EQ(second.source, plan::PlanSource::kCache);
  expect_same_knobs(first, second);

  // The winner persisted: a fresh cache instance sees it through the file.
  plan::PlanCache fresh;
  ASSERT_TRUE(fresh.load(path));
  plan::Plan got;
  EXPECT_TRUE(fresh.lookup(plan::cache_key(shape), &got));
  std::remove(path.c_str());
}

TEST(MeasuredPlan, HonorsEnvCachePath) {
  const std::string path = temp_path("plan_cache_env.json");
  std::remove(path.c_str());
  ASSERT_EQ(setenv("TDG_PLAN_CACHE", path.c_str(), 1), 0);

  plan::ProblemShape shape{49, false, 0};  // distinct bucket from other tests
  plan::PlannerOptions popts;
  popts.proxy_n = 32;
  (void)plan::measured_plan(shape, popts);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());  // cache file created at the env-var path

  unsetenv("TDG_PLAN_CACHE");
  std::remove(path.c_str());
}

TEST(PlanModes, HeuristicMatchesManualBitwise) {
  // eigh under kHeuristic must equal eigh under kManual with the same knob
  // vector spelled out explicitly — planning must not perturb numerics.
  const index_t n = 64;
  Rng rng(777);
  const Matrix a = random_symmetric(n, rng);

  eig::EvdOptions heur;
  heur.plan = PlanMode::kHeuristic;
  const eig::EvdResult r1 = eigh(a.view(), heur);
  EXPECT_EQ(base_source(r1.plan_source), "heuristic");

  const plan::Plan p = plan::heuristic_plan({n, true, 0});
  eig::EvdOptions manual;
  manual.plan = PlanMode::kManual;
  manual.tridiag.method = p.method;
  manual.tridiag.b = p.b;
  manual.tridiag.k = p.k;
  manual.tridiag.sytrd_nb = p.sytrd_nb;
  manual.tridiag.bc_threads = p.bc_threads;
  manual.tridiag.max_parallel_sweeps = p.max_parallel_sweeps;
  manual.knobs.smlsiz = p.smlsiz;
  manual.knobs.bt_kw = p.bt_kw;
  manual.knobs.q2_group = p.q2_group;
  const eig::EvdResult r2 = eigh(a.view(), manual);
  EXPECT_EQ(base_source(r2.plan_source), "defaults");

  ASSERT_EQ(r1.eigenvalues.size(), r2.eigenvalues.size());
  for (std::size_t i = 0; i < r1.eigenvalues.size(); ++i) {
    EXPECT_EQ(r1.eigenvalues[i], r2.eigenvalues[i]) << i;  // bitwise
  }
  ASSERT_EQ(r1.eigenvectors.cols(), r2.eigenvectors.cols());
  EXPECT_EQ(max_abs_diff(r1.eigenvectors.view(), r2.eigenvectors.view()), 0.0);
}

TEST(PlanModes, ManualModeReproducesLegacyDefaults) {
  // kManual with untouched knobs = the pre-planner hard-coded configuration.
  const index_t n = 48;
  Rng rng(11);
  const Matrix a = random_symmetric(n, rng);

  TridiagOptions manual;
  manual.plan = PlanMode::kManual;
  const TridiagResult r1 = tridiagonalize(a.view(), manual);
  EXPECT_EQ(r1.b, 32);   // legacy b = 32
  EXPECT_EQ(r1.k, 64);   // legacy k = 256, clamped to ceil(48/32)*32

  TridiagOptions legacy;
  legacy.plan = PlanMode::kManual;
  legacy.b = 32;
  legacy.k = 256;
  legacy.sytrd_nb = 64;
  legacy.bc_threads = 4;
  const TridiagResult r2 = tridiagonalize(a.view(), legacy);
  EXPECT_EQ(r1.d, r2.d);
  EXPECT_EQ(r1.e, r2.e);
}

TEST(PlanModes, DefaultKRoutesThroughPlanner) {
  // Satellite regression: the no-options path must take the planner's k
  // (the paper's operating point at scale), not the old hard-coded 256.
  const TridiagOptions probe;  // defaults: plan = kHeuristic, k = 0 (auto)
  EXPECT_EQ(probe.plan, PlanMode::kHeuristic);
  EXPECT_EQ(probe.k, 0);
  EXPECT_EQ(plan::heuristic_plan({8192, true, 0}).k, 1024);

  // And the resolved k really reaches the band reduction.
  const index_t n = 80;
  Rng rng(21);
  const Matrix a = random_symmetric(n, rng);
  const TridiagResult r = tridiagonalize(a.view(), probe);
  const plan::Plan p = plan::heuristic_plan({n, true, 0});
  const TridiagOptions resolved = plan::resolve(probe, n, p);
  EXPECT_EQ(r.b, resolved.b);
  EXPECT_EQ(r.k, resolved.k);
}

TEST(PlanModes, MeasureModeEndToEnd) {
  const index_t n = 44;
  Rng rng(33);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.plan = PlanMode::kMeasure;  // in-memory cache only (no env path)
  const eig::EvdResult r1 = eigh(a.view(), opts);
  EXPECT_TRUE(base_source(r1.plan_source) == "measured" ||
              base_source(r1.plan_source) == "cache");
  const eig::EvdResult r2 = eigh(a.view(), opts);
  // Second call must not re-measure.
  EXPECT_EQ(base_source(r2.plan_source), "cache");
  for (std::size_t i = 0; i < r1.eigenvalues.size(); ++i) {
    EXPECT_EQ(r1.eigenvalues[i], r2.eigenvalues[i]);
  }
}

// Exact merged-entry accounting: merged_entries counts disk entries adopted
// over (or absent from) memory, not a guess from size deltas.
TEST(PlanCacheContention, MergedEntriesCountsDiskAdoptionsExactly) {
  const std::string path = temp_path("plan_cache_merged_exact.json");
  std::remove(path.c_str());

  plan::PlanCache a;
  a.insert("bucket_a", sample_plan(0.5));
  ASSERT_TRUE(a.save(path));
  // First save: the file did not exist, nothing adopted from disk.
  EXPECT_EQ(a.stats().merged_entries, 0);

  // b's save re-merges with the file: bucket_a comes from disk (adopted),
  // bucket_b comes from memory (not counted).
  plan::PlanCache b;
  b.insert("bucket_b", sample_plan(0.5));
  ASSERT_TRUE(b.save(path));
  EXPECT_EQ(b.stats().merged_entries, 1);

  // A memory entry strictly better than the disk copy wins the re-merge:
  // the disk copy is NOT adopted.
  plan::PlanCache c;
  c.insert("bucket_a", sample_plan(0.1));  // better than disk's 0.5
  c.insert("bucket_c", sample_plan(0.5));
  ASSERT_TRUE(c.save(path));
  EXPECT_EQ(c.stats().merged_entries, 1);  // bucket_b only

  // load() also counts exactly: two disk entries improve on / are absent
  // from memory, one (bucket_a, worse on disk) does not.
  plan::PlanCache d;
  d.insert("bucket_a", sample_plan(0.05));
  ASSERT_TRUE(d.load(path));
  EXPECT_EQ(d.stats().merged_entries, 2);  // bucket_b + bucket_c
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

#if defined(__unix__) || defined(__APPLE__)

// Cross-process contention: a child holding <path>.lock makes the parent's
// save() block, and the blocking wait is counted in lock_waits.
TEST(PlanCacheContention, LockWaitsCountsCrossProcessContention) {
  const std::string path = temp_path("plan_cache_lock_waits.json");
  const std::string lock_path = path + ".lock";
  std::remove(path.c_str());
  std::remove(lock_path.c_str());

  int ready_pipe[2];
  ASSERT_EQ(::pipe(ready_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: take the flock, signal readiness, hold it briefly, exit
    // (releasing the lock and unblocking the parent's save).
    ::close(ready_pipe[0]);
    const int fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
    if (fd < 0 || ::flock(fd, LOCK_EX) != 0) _exit(2);
    char byte = 'r';
    if (::write(ready_pipe[1], &byte, 1) != 1) _exit(3);
    ::usleep(200 * 1000);
    _exit(0);
  }
  ::close(ready_pipe[1]);
  char byte = 0;
  ASSERT_EQ(::read(ready_pipe[0], &byte, 1), 1);  // child holds the lock
  ::close(ready_pipe[0]);

  plan::PlanCache cache;
  cache.insert("contended_key", sample_plan(0.5));
  ASSERT_TRUE(cache.save(path));  // blocks until the child exits
  EXPECT_EQ(cache.stats().lock_waits, 1);
  EXPECT_EQ(cache.stats().saves, 1);

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_EQ(status, 0);

  // Uncontended saves do not count.
  ASSERT_TRUE(cache.save(path));
  EXPECT_EQ(cache.stats().lock_waits, 1);
  std::remove(path.c_str());
  std::remove(lock_path.c_str());
}

// Two processes saving distinct keys to one file concurrently: the
// flock + read-merge-rename protocol must lose neither.
TEST(PlanCacheContention, ConcurrentForkedSavesLoseNoUpdates) {
  const std::string path = temp_path("plan_cache_fork_merge.json");
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());

  constexpr int kChildren = 2;
  constexpr int kRounds = 5;
  pid_t pids[kChildren];
  for (int c = 0; c < kChildren; ++c) {
    pids[c] = ::fork();
    ASSERT_GE(pids[c], 0);
    if (pids[c] == 0) {
      for (int r = 0; r < kRounds; ++r) {
        plan::PlanCache mine;
        mine.insert("child_" + std::to_string(c) + "_round_" +
                        std::to_string(r),
                    sample_plan(0.5));
        if (!mine.save(path)) _exit(4);
      }
      _exit(0);
    }
  }
  for (int c = 0; c < kChildren; ++c) {
    int status = 0;
    ASSERT_EQ(::waitpid(pids[c], &status, 0), pids[c]);
    EXPECT_EQ(status, 0) << "child " << c;
  }

  plan::PlanCache merged;
  ASSERT_TRUE(merged.load(path));
  EXPECT_EQ(merged.size(), static_cast<std::size_t>(kChildren * kRounds));
  for (int c = 0; c < kChildren; ++c) {
    for (int r = 0; r < kRounds; ++r) {
      plan::Plan got;
      EXPECT_TRUE(merged.lookup(
          "child_" + std::to_string(c) + "_round_" + std::to_string(r), &got))
          << "lost update from child " << c << " round " << r;
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace tdg
