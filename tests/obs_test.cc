// Tests for the observability layer: metrics registry exactness and gating,
// span-tree well-formedness (including the poisoned-gate unwind path),
// Chrome-trace export, the plan-cache/registry aliasing, recovery counters,
// and the EvdProfile model-vs-measured breakdown.
//
// gtest_discover_tests runs each case in its own process, so arming/
// disarming the process-wide tracing and metrics flags here cannot leak
// into other tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bc/bulge_chase_parallel.h"
#include "common/check.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "eig/batched.h"
#include "eig/drivers.h"
#include "la/generate.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "plan/plan.h"
#include "plan/plan_cache.h"
#include "serve/serve.h"

namespace tdg {
namespace {

/// Arm tracing for one test body and leave the recorder empty afterwards.
struct ScopedTracing {
  ScopedTracing() {
    obs::clear_trace();
    obs::arm_tracing();
  }
  ~ScopedTracing() {
    obs::disarm_tracing();
    obs::clear_trace();
  }
};

struct ScopedMetrics {
  ScopedMetrics() { obs::arm_metrics(); }
  ~ScopedMetrics() { obs::disarm_metrics(); }
};

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(Metrics, CounterExactUnderConcurrentIncrements) {
  ScopedMetrics armed;
  obs::Counter* c = obs::Registry::global().counter("test.exactness");
  c->reset();

  constexpr int kThreads = 8;
  constexpr long long kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (long long i = 0; i < kPerThread; ++i) c->inc();
    });
  }
  for (auto& th : threads) th.join();

  // Sharded counters: after the writers joined the sum must be exact.
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

TEST(Metrics, ArmedGatingDropsIncrementsWhenDisarmed) {
  ASSERT_FALSE(obs::metrics_armed());
  obs::Counter gated(obs::Gating::kArmed);
  obs::Counter always(obs::Gating::kAlways);
  gated.inc();
  always.inc();
  EXPECT_EQ(gated.value(), 0);  // disarmed hot-path site: dropped
  EXPECT_EQ(always.value(), 1);  // control-plane site: counted regardless

  obs::arm_metrics();
  gated.inc();
  obs::disarm_metrics();
  EXPECT_EQ(gated.value(), 1);
}

TEST(Metrics, GaugeTracksHighWaterMarkUnderThreads) {
  ScopedMetrics armed;
  obs::Gauge g;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&g, t] {
      for (long long v = 0; v <= 1000; ++v) g.update_max(v * (t + 1) % 997);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(g.value(), 996);  // max of v*(t+1) mod 997 over all t, v
}

TEST(Metrics, HistogramBucketsConsistentUnderThreads) {
  ScopedMetrics armed;
  obs::Histogram h;
  constexpr int kThreads = 4;
  constexpr long long kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (long long i = 0; i < kPerThread; ++i) h.record(i % 1000);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(h.count(), kThreads * kPerThread);
  long long expected_sum = 0;
  for (long long i = 0; i < kPerThread; ++i) expected_sum += i % 1000;
  EXPECT_EQ(h.sum(), kThreads * expected_sum);

  // Power-of-two bucketing: 0 and 1 land in bucket 0, [2,4) in bucket 1, ...
  obs::Histogram b;
  b.record(0);
  b.record(1);
  b.record(2);
  b.record(3);
  b.record(4);
  EXPECT_EQ(b.bucket(0), 2);
  EXPECT_EQ(b.bucket(1), 2);
  EXPECT_EQ(b.bucket(2), 1);
}

TEST(Metrics, SnapshotJsonParsesWithCanonicalKeys) {
  const std::string snap = obs::Registry::global().snapshot_json();
  json::Value root;
  ASSERT_TRUE(json::parse(snap, &root)) << snap;
  ASSERT_EQ(root.kind, json::Value::kObject);

  const json::Value* ver = root.find("schema_version");
  ASSERT_NE(ver, nullptr);
  EXPECT_EQ(ver->num, 1.0);

  const json::Value* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->kind, json::Value::kObject);
  // The canonical pre-registered set: pool, chase, recovery, plan cache,
  // fault — present (at zero) even in a process that never touched them.
  for (const char* name :
       {"pool.tasks_run", "pool.dispatches", "pool.parks", "pool.wakes",
        "bc.sweeps", "bc.gate_spin_episodes", "bc.stall_near_miss",
        "evd.recovery.dc_steqr", "evd.recovery.dc_steqr_bisect",
        "evd.recovery.steqr_bisect", "plan.cache_hits", "plan.cache_misses",
        "fault.fires"}) {
    EXPECT_NE(counters->find(name), nullptr) << name;
  }

  const json::Value* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_NE(gauges->find("bc.sweep_concurrency_hwm"), nullptr);

  const json::Value* hists = root.find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* qw = hists->find("pool.queue_wait_us");
  ASSERT_NE(qw, nullptr);
  ASSERT_EQ(qw->kind, json::Value::kObject);
  EXPECT_NE(qw->find("count"), nullptr);
  EXPECT_NE(qw->find("sum"), nullptr);
  const json::Value* buckets = qw->find("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_EQ(buckets->kind, json::Value::kArray);

  // The serve latency family, rendered as OpenMetrics renders it: the
  // aggregate series under "all", one count per ladder bound plus +Inf.
  const json::Value* latency = root.find("latency");
  ASSERT_NE(latency, nullptr);
  const json::Value* family = latency->find("serve.latency_ms");
  ASSERT_NE(family, nullptr);
  const json::Value* all = family->find("all");
  ASSERT_NE(all, nullptr);
  EXPECT_NE(all->find("count"), nullptr);
  EXPECT_NE(all->find("sum"), nullptr);
  const json::Value* bounds = all->find("bounds");
  const json::Value* counts = all->find("buckets");
  ASSERT_NE(bounds, nullptr);
  ASSERT_NE(counts, nullptr);
  int nb = 0;
  obs::latency_bounds_ms(&nb);
  EXPECT_EQ(bounds->arr.size(), static_cast<std::size_t>(nb));
  EXPECT_EQ(counts->arr.size(), static_cast<std::size_t>(nb) + 1);
}

TEST(Metrics, PoolCountersObserveWork) {
  ScopedMetrics armed;
  obs::Registry& r = obs::Registry::global();
  obs::Counter* tasks = r.counter("pool.tasks_run");
  obs::Counter* dispatches = r.counter("pool.dispatches");
  const long long tasks0 = tasks->value();
  const long long disp0 = dispatches->value();

  ThreadLimit limit(4);
  std::atomic<long long> sum{0};
  ThreadPool::global().parallel_for(
      0, 256, [&](index_t i) { sum.fetch_add(i, std::memory_order_relaxed); });

  EXPECT_EQ(sum.load(), 256 * 255 / 2);
  EXPECT_GT(dispatches->value(), disp0);
  EXPECT_GE(tasks->value(), tasks0);  // > 0 unless the pool ran inline
}

TEST(Metrics, ChaseCountersObserveSweeps) {
  ScopedMetrics armed;
  obs::Registry& r = obs::Registry::global();
  obs::Counter* sweeps = r.counter("bc.sweeps");
  const long long sweeps0 = sweeps->value();

  const index_t n = 64, b = 4;
  Rng rng(7);
  const Matrix a0 = random_symmetric_band(n, b, rng);
  SymBandMatrix band = extract_band(a0.view(), b, std::min(2 * b, n - 1));
  bc::ParallelChaseOptions opts;
  opts.threads = 4;
  bc::chase_packed_parallel(band, b, opts, nullptr);

  EXPECT_EQ(sweeps->value() - sweeps0, n - 2);
}

TEST(Metrics, PlanCacheGlobalStatsAliasRegistry) {
  obs::Counter* hits = obs::Registry::global().counter(
      "plan.cache_hits", obs::Gating::kAlways);
  obs::Counter* misses = obs::Registry::global().counter(
      "plan.cache_misses", obs::Gating::kAlways);
  const plan::CacheStats before = plan::PlanCache::global().stats();
  EXPECT_EQ(before.hits, hits->value());
  EXPECT_EQ(before.misses, misses->value());

  plan::Plan out;
  plan::PlanCache::global().lookup("obs-test-missing-key", &out);

  const plan::CacheStats after = plan::PlanCache::global().stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  // The global cache's counters ARE the registry's "plan.*" counters.
  EXPECT_EQ(misses->value(), after.misses);
}

TEST(Metrics, LocalPlanCacheCountsPrivately) {
  obs::Counter* registry_misses = obs::Registry::global().counter(
      "plan.cache_misses", obs::Gating::kAlways);
  const long long reg0 = registry_misses->value();

  plan::PlanCache local;
  plan::Plan out;
  local.lookup("missing", &out);
  EXPECT_EQ(local.stats().misses, 1);
  EXPECT_EQ(registry_misses->value(), reg0);  // untouched by the local cache
}

// ---------------------------------------------------------------------------
// Spans.

TEST(Span, DisarmedSpanRecordsNothing) {
  obs::clear_trace();
  ASSERT_FALSE(obs::tracing_armed());
  {
    obs::Span s("ghost");
    s.attr("k", 1);
    EXPECT_FALSE(s.active());
  }
  EXPECT_TRUE(obs::trace_snapshot().empty());
  EXPECT_EQ(obs::open_span_depth(), 0);
}

TEST(Span, TreeIsWellFormed) {
  ScopedTracing traced;
  {
    obs::Span outer("outer");
    outer.attr("n", 42);
    {
      obs::Span mid("mid");
      { obs::Span inner("inner"); }
    }
    { obs::Span mid2("mid2"); }
  }
  EXPECT_EQ(obs::open_span_depth(), 0);

  const std::vector<obs::SpanEvent> events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 4u);

  auto find = [&](const char* name) -> const obs::SpanEvent* {
    for (const auto& e : events) {
      if (std::string(e.name) == name) return &e;
    }
    return nullptr;
  };
  const obs::SpanEvent* outer = find("outer");
  const obs::SpanEvent* mid = find("mid");
  const obs::SpanEvent* inner = find("inner");
  const obs::SpanEvent* mid2 = find("mid2");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(mid, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(mid2, nullptr);

  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(mid->depth, 1);
  EXPECT_EQ(inner->depth, 2);
  EXPECT_EQ(mid2->depth, 1);
  ASSERT_EQ(outer->nattrs, 1);
  EXPECT_STREQ(outer->attrs[0].key, "n");
  EXPECT_EQ(outer->attrs[0].value, 42);

  // Children are contained in their parent's interval.
  for (const obs::SpanEvent* child : {mid, inner, mid2}) {
    EXPECT_GE(child->start_us, outer->start_us);
    EXPECT_LE(child->start_us + child->dur_us,
              outer->start_us + outer->dur_us);
  }
  // Siblings do not overlap.
  EXPECT_LE(mid->start_us + mid->dur_us, mid2->start_us);
}

TEST(Span, BalancedAcrossExceptions) {
  ScopedTracing traced;
  try {
    obs::Span outer("outer");
    obs::Span inner("inner");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(obs::open_span_depth(), 0);
  const auto events = obs::trace_snapshot();
  EXPECT_EQ(events.size(), 2u);  // both spans closed by unwinding
}

/// Every pair of spans on one thread must be nested or disjoint — the
/// recorded forest reconstructs a proper tree per thread.
void expect_forest_well_formed(const std::vector<obs::SpanEvent>& events) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const obs::SpanEvent& a = events[i];
      const obs::SpanEvent& b = events[j];
      if (a.tid != b.tid) continue;
      const double a0 = a.start_us, a1 = a.start_us + a.dur_us;
      const double b0 = b.start_us, b1 = b.start_us + b.dur_us;
      const bool disjoint = a1 <= b0 || b1 <= a0;
      const bool a_in_b = b0 <= a0 && a1 <= b1;
      const bool b_in_a = a0 <= b0 && b1 <= a1;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << a.name << " [" << a0 << "," << a1 << ") vs " << b.name << " ["
          << b0 << "," << b1 << ") on tid " << a.tid;
    }
  }
}

TEST(Span, PoisonedGateUnwindLeavesBalancedTree) {
  ScopedTracing traced;
  const index_t n = 64, b = 4;
  Rng rng(43);
  const Matrix a0 = random_symmetric_band(n, b, rng);
  SymBandMatrix band = extract_band(a0.view(), b, std::min(2 * b, n - 1));

  fault::Scoped armed("bc_stall");  // wedge the first claimed sweep
  bc::ParallelChaseOptions opts;
  opts.threads = 4;
  opts.spin_timeout_ms = 200;
  EXPECT_THROW(bc::chase_packed_parallel(band, b, opts, nullptr), Error);

  // RAII closed every span during the unwind: the calling thread is back
  // at depth 0 and the recorded forest is still properly nested.
  EXPECT_EQ(obs::open_span_depth(), 0);
  const auto events = obs::trace_snapshot();
  expect_forest_well_formed(events);
  bool saw_chase = false;
  for (const auto& e : events) {
    if (std::string(e.name) == "bulge_chase") saw_chase = true;
  }
  EXPECT_TRUE(saw_chase);
}

TEST(Span, PipelineRunProducesPerPhaseSpans) {
  ScopedTracing traced;
  const index_t n = 96;
  Rng rng(5);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.tridiag.method = TridiagMethod::kTwoStageDbbr;
  opts.tridiag.b = 8;
  opts.tridiag.k = 32;
  const eig::EvdResult res = eig::eigh(a.view(), opts);
  ASSERT_EQ(res.eigenvalues.size(), static_cast<std::size_t>(n));

  const auto events = obs::trace_snapshot();
  expect_forest_well_formed(events);
  auto count = [&](const char* name) {
    long long c = 0;
    for (const auto& e : events) {
      if (std::string(e.name) == name) ++c;
    }
    return c;
  };
  EXPECT_EQ(count("eigh"), 1);
  EXPECT_EQ(count("tridiagonalize"), 1);
  EXPECT_EQ(count("dbbr"), 1);
  EXPECT_GE(count("dbbr.panel"), 1);
  EXPECT_EQ(count("bulge_chase"), 1);
  EXPECT_EQ(count("bc.sweep"), n - 2);  // one span per pipelined sweep
  EXPECT_EQ(count("solver"), 1);
  EXPECT_EQ(count("backtransform"), 1);
  EXPECT_EQ(count("apply_q2"), 1);
  EXPECT_EQ(count("apply_q1"), 1);
}

// ---------------------------------------------------------------------------
// Chrome trace export.

TEST(ChromeTrace, JsonParsesWithRequiredKeys) {
  ScopedTracing traced;
  {
    obs::Span outer("phase_a");
    outer.attr("n", 7);
    outer.add_flops(123.0);
    { obs::Span inner("phase_b"); }
  }
  const std::string text = obs::chrome_trace_json();
  json::Value root;
  ASSERT_TRUE(json::parse(text, &root)) << text;
  ASSERT_EQ(root.kind, json::Value::kObject);
  EXPECT_NE(root.find("displayTimeUnit"), nullptr);

  const json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, json::Value::kArray);
  ASSERT_EQ(events->arr.size(), 2u);
  for (const json::Value& e : events->arr) {
    ASSERT_EQ(e.kind, json::Value::kObject);
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      EXPECT_NE(e.find(key), nullptr) << key;
    }
    EXPECT_EQ(e.find("ph")->str, "X");  // complete events
    EXPECT_EQ(e.find("cat")->str, "tdg");
    ASSERT_NE(e.find("args"), nullptr);
  }

  // The attribute and the flop credit surface under args.
  bool saw_attr = false, saw_flops = false;
  for (const json::Value& e : events->arr) {
    const json::Value* args = e.find("args");
    if (args->find("n") != nullptr) saw_attr = true;
    if (args->find("flops") != nullptr) saw_flops = true;
  }
  EXPECT_TRUE(saw_attr);
  EXPECT_TRUE(saw_flops);
}

TEST(ChromeTrace, WriteProducesLoadableFile) {
  ScopedTracing traced;
  { obs::Span s("solo"); }
  const std::string path = "obs_test_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  in.close();
  std::remove(path.c_str());

  json::Value root;
  ASSERT_TRUE(json::parse(ss.str(), &root));
  const json::Value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->arr.size(), 1u);
}

// ---------------------------------------------------------------------------
// Recovery counters and fault accounting.

TEST(Recovery, ForcedFallbackIncrementsAlwaysOnCounters) {
  obs::Registry& r = obs::Registry::global();
  obs::Counter* recov =
      r.counter("evd.recovery.steqr_bisect", obs::Gating::kAlways);
  obs::Counter* fires = r.counter("fault.fires", obs::Gating::kAlways);
  const long long recov0 = recov->value();
  const long long fires0 = fires->value();

  const index_t n = 32;
  Rng rng(11);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions vals_only;
  vals_only.vectors = false;

  fault::Scoped armed("steqr_noconv", 1, -1);
  const eig::EvdResult res = eig::eigh(a.view(), vals_only);
  EXPECT_EQ(res.recovery, "steqr->bisect");

  // Both counters are control-plane (kAlways): they count with metrics
  // disarmed, which is exactly the telemetry contract.
  ASSERT_FALSE(obs::metrics_armed());
  EXPECT_EQ(recov->value(), recov0 + 1);
  EXPECT_GT(fires->value(), fires0);
}

// ---------------------------------------------------------------------------
// EvdProfile.

// Seconds always, flops only on request: without EvdOptions::profile the
// record still times every stage, but prices none.
TEST(Profile, DisabledByDefault) {
  const index_t n = 24;
  Rng rng(3);
  const Matrix a = random_symmetric(n, rng);
  const eig::EvdResult res = eig::eigh(a.view());
  ASSERT_EQ(res.profile.phases.size(), 3u);  // tridiag, solver, backtransform
  for (const eig::PhaseProfile& p : res.profile.phases) {
    EXPECT_GE(p.seconds, 0.0) << p.name;
    EXPECT_EQ(p.flops, 0.0) << p.name;
    EXPECT_EQ(p.model_seconds, 0.0) << p.name;
  }
  EXPECT_GT(res.profile.total_seconds(), 0.0);
  EXPECT_EQ(res.profile.total_flops(), 0.0);
}

TEST(Profile, ReportsMeasuredAndModeledPhases) {
  const index_t n = 96;
  Rng rng(9);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.profile = true;
  opts.tridiag.method = TridiagMethod::kTwoStageDbbr;
  opts.tridiag.b = 8;
  opts.tridiag.k = 32;
  const eig::EvdResult res = eig::eigh(a.view(), opts);

  ASSERT_EQ(res.profile.phases.size(), 3u);  // tridiag, solver, backtransform
  EXPECT_GT(res.profile.total_seconds(), 0.0);
  EXPECT_GT(res.profile.total_flops(), 0.0);

  const eig::PhaseProfile& tri = res.profile.phases[0];
  EXPECT_EQ(tri.name, "tridiagonalize");
  EXPECT_GT(tri.seconds, 0.0);
  EXPECT_GT(tri.flops, 0.0);
  EXPECT_GT(tri.gflops, 0.0);
  EXPECT_GT(tri.model_seconds, 0.0);  // H100 projection of the same phase
  // Two-stage runs subdivide: band reduction + bulge chase.
  ASSERT_EQ(tri.children.size(), 2u);
  EXPECT_EQ(tri.children[0].name, "dbbr");
  EXPECT_EQ(tri.children[1].name, "bulge_chase");
  EXPECT_GT(tri.children[1].flops, 0.0);
  EXPECT_GT(tri.children[1].model_seconds, 0.0);

  const eig::PhaseProfile& bt = res.profile.phases[2];
  EXPECT_EQ(bt.name, "backtransform");
  ASSERT_EQ(bt.children.size(), 2u);
  EXPECT_EQ(bt.children[0].name, "apply_q2");
  EXPECT_EQ(bt.children[1].name, "apply_q1");
}

TEST(Profile, ValuesOnlyRunHasNoBacktransformPhase) {
  const index_t n = 48;
  Rng rng(21);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.profile = true;
  opts.vectors = false;
  const eig::EvdResult res = eig::eigh(a.view(), opts);
  ASSERT_EQ(res.profile.phases.size(), 2u);  // tridiag + solver
  EXPECT_EQ(res.profile.phases[1].name, "solver");
}

// ---------------------------------------------------------------------------
// The per-solve record on every path that solves: eigh in each mode,
// eigh_range, a batch slot and a served request. A mixed request that
// falls back keeps its FP32 attempt ahead of the FP64 stages.

enum class SolvePath {
  kStandard,
  kValues,
  kMixed,
  kMixedFallback,
  kRange,
  kBatchSlot,
  kServe
};

struct RecordCase {
  SolvePath path;
  bool profile;
  const char* stages;    // expected stage tree (see stage_tree)
  const char* unpriced;  // a stage with no recorded ops, or ""
};

std::string stage_tree(const std::vector<obs::Stage>& stages) {
  std::string s;
  for (const obs::Stage& st : stages) {
    if (!s.empty()) s += ",";
    s += st.name;
    if (!st.children.empty()) s += "(" + stage_tree(st.children) + ")";
  }
  return s;
}

// Every stage's seconds are >= 0 and its children fit inside it; priced
// stages carry flops and a model projection only when profiled.
void expect_well_formed(const obs::Stage& s, const RecordCase& c) {
  EXPECT_GE(s.seconds, 0.0) << s.name;
  double inside = 0.0;
  for (const obs::Stage& child : s.children) {
    expect_well_formed(child, c);
    inside += child.seconds;
  }
  EXPECT_LE(inside, s.seconds * (1.0 + 1e-9)) << s.name;
  if (c.profile && s.name != c.unpriced) {
    EXPECT_GT(s.flops, 0.0) << s.name;
    EXPECT_GT(s.model_seconds, 0.0) << s.name;
  } else if (!c.profile) {
    EXPECT_EQ(s.flops, 0.0) << s.name;
    EXPECT_EQ(s.model_seconds, 0.0) << s.name;
  }
}

class RecordOnEveryPath : public ::testing::TestWithParam<RecordCase> {};

TEST_P(RecordOnEveryPath, StagesAreNamedNestedAndTimed) {
  const RecordCase& c = GetParam();
  const index_t n = 96;
  Rng rng(31);
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.profile = c.profile;
  const bool mixed =
      c.path == SolvePath::kMixed || c.path == SolvePath::kMixedFallback;
  opts.mode = c.path == SolvePath::kValues ? plan::EvdMode::kValuesOnly
              : mixed                      ? plan::EvdMode::kMixedPrecision
                                           : plan::EvdMode::kStandard;
  // The refinement reports non-convergence: the FP64 rerun follows.
  std::optional<fault::Scoped> refine_fails;
  if (c.path == SolvePath::kMixedFallback) refine_fails.emplace("evd_refine");

  eig::EvdResult res;
  const auto t0 = std::chrono::steady_clock::now();
  if (c.path == SolvePath::kRange) {
    res = eig::eigh_range(a.view(), 10, 19, opts);
  } else if (c.path == SolvePath::kBatchSlot) {
    eig::BatchResult br = eig::eigh_batched({a.view(), a.view()});
    ASSERT_TRUE(br.status[1].ok) << br.status[1].message;
    res = std::move(br.results[1]);
  } else if (c.path == SolvePath::kServe) {
    serve::ServeCore core;
    Matrix req(n, n);
    copy(a.view(), req.view());
    serve::Response r = core.submit(std::move(req)).response.get();
    ASSERT_EQ(r.outcome, serve::Outcome::kCompleted) << r.message;
    res = std::move(r.result);
  } else {
    res = eig::eigh(a.view(), opts);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (c.path == SolvePath::kMixed) {
    ASSERT_EQ(res.mode, plan::EvdMode::kMixedPrecision) << res.recovery;
  }
  if (c.path == SolvePath::kMixedFallback) {
    ASSERT_EQ(res.recovery, "fp32->fp64");
  }
  EXPECT_EQ(stage_tree(res.profile.phases), c.stages);
  double top = 0.0;
  for (const obs::Stage& s : res.profile.phases) {
    expect_well_formed(s, c);
    top += s.seconds;
  }
  EXPECT_EQ(res.profile.total_seconds(), top);
  EXPECT_GT(top, 0.0);
  EXPECT_LE(top, wall);
}

std::string record_case_name(const ::testing::TestParamInfo<RecordCase>& info) {
  static const char* const kNames[] = {"Standard", "Values",    "Mixed",
                                       "MixedFallback", "Range", "BatchSlot",
                                       "Serve"};
  return std::string(kNames[static_cast<int>(info.param.path)]) +
         (info.param.profile ? "Profiled" : "");
}

constexpr const char* kVectorStages =
    "tridiagonalize(dbbr,bulge_chase),solver,"
    "backtransform(apply_q2,apply_q1)";

INSTANTIATE_TEST_SUITE_P(
    Paths, RecordOnEveryPath,
    ::testing::Values(
        RecordCase{SolvePath::kStandard, false, kVectorStages, ""},
        RecordCase{SolvePath::kStandard, true, kVectorStages, ""},
        RecordCase{SolvePath::kValues, false,
                   "tridiagonalize(dbbr,bulge_chase),solver", "solver"},
        RecordCase{SolvePath::kValues, true,
                   "tridiagonalize(dbbr,bulge_chase),solver", "solver"},
        RecordCase{SolvePath::kMixed, false,
                   "tridiagonalize(dbbr,bulge_chase),solver,"
                   "backtransform(apply_q2,apply_q1),evd_refine",
                   ""},
        RecordCase{SolvePath::kMixed, true,
                   "tridiagonalize(dbbr,bulge_chase),solver,"
                   "backtransform(apply_q2,apply_q1),evd_refine",
                   ""},
        RecordCase{SolvePath::kMixedFallback, false,
                   "tridiagonalize(dbbr,bulge_chase),solver,"
                   "backtransform(apply_q2,apply_q1),"
                   "tridiagonalize(dbbr,bulge_chase),solver,"
                   "backtransform(apply_q2,apply_q1)",
                   ""},
        RecordCase{SolvePath::kMixedFallback, true,
                   "tridiagonalize(dbbr,bulge_chase),solver,"
                   "backtransform(apply_q2,apply_q1),"
                   "tridiagonalize(dbbr,bulge_chase),solver,"
                   "backtransform(apply_q2,apply_q1)",
                   ""},
        RecordCase{SolvePath::kRange, false, kVectorStages, "solver"},
        RecordCase{SolvePath::kRange, true, kVectorStages, "solver"},
        RecordCase{SolvePath::kBatchSlot, false, kVectorStages, ""},
        RecordCase{SolvePath::kServe, false, kVectorStages, ""}),
    record_case_name);

// A caller of tridiagonalize alone installs a record of its own; a planner
// measurement inside it is not a stage: its proxy reductions record nothing.
TEST(SolveRecord, CallerInstalledRecordSkipsPlannerMeasurement) {
  plan::PlanCache::global().clear();  // a cold bucket: the planner measures
  plan::PlannerOptions popts;
  popts.cache_path = ::testing::TempDir() + "record_plan_cache.json";
  std::remove(popts.cache_path.c_str());
  popts.proxy_n = 32;
  Rng rng(5);
  const Matrix a = random_symmetric(52, rng);
  obs::SolveRecord record;
  {
    obs::RecordScope scope(&record);
    const plan::Plan p =
        plan::measured_plan(plan::ProblemShape{52, true, 0}, popts);
    EXPECT_EQ(p.source, plan::PlanSource::kMeasured);
    EXPECT_TRUE(record.phases.empty());
    TridiagOptions o;
    o.b = 8;
    (void)tridiagonalize(a.view(), o);
  }
  EXPECT_EQ(stage_tree(record.phases), "tridiagonalize(dbbr,bulge_chase)");
  EXPECT_GT(record.seconds("tridiagonalize"), 0.0);
  // The totals are the stages' sums on any record, not only eigh's.
  EXPECT_EQ(record.total_seconds(), record.seconds("tridiagonalize"));
  std::remove(popts.cache_path.c_str());
}

// ---------------------------------------------------------------------------
// Trace-context propagation (request-scoped tracing).

TEST(TraceContext, ContextScopeInstallsNestsAndRestores) {
  // No ambient context by default.
  EXPECT_EQ(obs::current_context().request_id, 0);
  {
    obs::ContextScope outer(obs::TraceContext{7, 0});
    EXPECT_EQ(obs::current_context().request_id, 7);
    {
      obs::ContextScope inner(obs::TraceContext{9, 0});
      EXPECT_EQ(obs::current_context().request_id, 9);
    }
    // Inner scope restores the outer context, not the default.
    EXPECT_EQ(obs::current_context().request_id, 7);
  }
  EXPECT_EQ(obs::current_context().request_id, 0);
}

TEST(TraceContext, NextRequestIdIsMonotonicAndNonzero) {
  const long long a = obs::next_request_id();
  const long long b = obs::next_request_id();
  EXPECT_GE(a, 1);
  EXPECT_GT(b, a);
}

TEST(TraceContext, SpanCarriesAmbientRequestIdIntoExport) {
  ScopedTracing armed;
  {
    obs::ContextScope scope(obs::TraceContext{42, 0});
    obs::Span span("t.tagged");
  }
  { obs::Span span("t.untagged"); }
  const std::vector<obs::SpanEvent> events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 2u);
  long long tagged = -1, untagged = -1;
  for (const obs::SpanEvent& e : events) {
    if (std::string(e.name) == "t.tagged") tagged = e.request_id;
    if (std::string(e.name) == "t.untagged") untagged = e.request_id;
  }
  EXPECT_EQ(tagged, 42);
  EXPECT_EQ(untagged, 0);

  // The Chrome export carries the id as "req" in args; untagged spans omit
  // the key entirely (no zero noise).
  const std::string jsonText = obs::chrome_trace_json();
  EXPECT_NE(jsonText.find("\"req\":42"), std::string::npos);
  EXPECT_EQ(jsonText.find("\"req\":0"), std::string::npos);
}

TEST(TraceContext, PropagatesAcrossParallelForHelpers) {
  ScopedTracing armed;
  ThreadLimit scope(4);
  {
    obs::ContextScope ctx(obs::TraceContext{11, 0});
    ThreadPool::global().parallel_for(0, 16, [](index_t) {
      obs::Span span("t.pf_body");
    });
  }
  const std::vector<obs::SpanEvent> events = obs::trace_snapshot();
  int seen = 0;
  for (const obs::SpanEvent& e : events) {
    if (std::string(e.name) != "t.pf_body") continue;
    ++seen;
    // Helper-executed bodies must carry the dispatcher's request id too.
    EXPECT_EQ(e.request_id, 11) << "body span lost the ambient context";
  }
  EXPECT_EQ(seen, 16);
}

TEST(TraceContext, PropagatesAcrossRunConcurrentCopies) {
  ScopedTracing armed;
  ThreadLimit scope(4);
  {
    obs::ContextScope ctx(obs::TraceContext{13, 0});
    ThreadPool::global().run_concurrent(4, [](int) {
      obs::Span span("t.rc_body");
    });
  }
  int seen = 0;
  for (const obs::SpanEvent& e : obs::trace_snapshot()) {
    if (std::string(e.name) != "t.rc_body") continue;
    ++seen;
    EXPECT_EQ(e.request_id, 13);
  }
  EXPECT_EQ(seen, 4);
}

TEST(TraceContext, PropagatesIntoTaskGraphNodes) {
  ScopedTracing armed;
  ThreadLimit scope(4);
  {
    obs::ContextScope ctx(obs::TraceContext{17, 0});
    graph::TaskGraph g;
    const auto a = g.add("t.node_a", graph::NodeClass::kPooled, [] {});
    const auto b = g.add("t.node_b", graph::NodeClass::kPooled, [] {});
    g.add("t.node_join", graph::NodeClass::kDriver, [] {}, {a, b});
    g.run();
  }
  int seen = 0;
  for (const obs::SpanEvent& e : obs::trace_snapshot()) {
    const std::string name = e.name;
    if (name.rfind("t.node", 0) != 0) continue;
    ++seen;
    // Node spans execute on pool workers and the driver alike; all of them
    // belong to the graph's owning request.
    EXPECT_EQ(e.request_id, 17) << "node span " << name;
  }
  EXPECT_EQ(seen, 3);
}

TEST(TraceContext, BatchSlotsCarryPerProblemContexts) {
  ScopedTracing armed;
  ThreadLimit scope(2);
  Rng rng(5);
  std::vector<Matrix> mats;
  std::vector<ConstMatrixView> views;
  for (int i = 0; i < 3; ++i) mats.push_back(random_symmetric(24, rng));
  for (const Matrix& m : mats) views.push_back(m.view());
  eig::BatchOptions bopts;
  bopts.vectors = false;
  bopts.trace_contexts = {obs::TraceContext{101, 0},
                          obs::TraceContext{102, 0},
                          obs::TraceContext{103, 0}};
  const eig::BatchResult br = eig::eigh_batched(views, bopts);
  ASSERT_TRUE(br.all_ok());
  std::vector<long long> problem_reqs;
  for (const obs::SpanEvent& e : obs::trace_snapshot()) {
    if (std::string(e.name) == "batch.problem") {
      problem_reqs.push_back(e.request_id);
    }
  }
  std::sort(problem_reqs.begin(), problem_reqs.end());
  ASSERT_EQ(problem_reqs.size(), 3u);
  EXPECT_EQ(problem_reqs[0], 101);
  EXPECT_EQ(problem_reqs[1], 102);
  EXPECT_EQ(problem_reqs[2], 103);
}

TEST(TraceContext, MismatchedTraceContextsRejected) {
  Rng rng(5);
  const Matrix m = random_symmetric(16, rng);
  eig::BatchOptions bopts;
  bopts.trace_contexts = {obs::TraceContext{1, 0}, obs::TraceContext{2, 0}};
  EXPECT_THROW(eig::eigh_batched({m.view()}, bopts), Error);
}

// ---------------------------------------------------------------------------
// Mid-run trace snapshots.

TEST(TraceSnapshot, RequestConsumedAtNextSpanClose) {
  ScopedTracing armed;
  const std::string path = "obs_test_snapshot.json";
  std::remove(path.c_str());
  obs::set_snapshot_path(path);

  { obs::Span span("t.before"); }
  obs::request_trace_snapshot();
  // The request is consumed when the next armed span CLOSES — tracing never
  // disarms, so no span recorded around the write can be lost.
  { obs::Span span("t.trigger"); }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "snapshot file was not written at span close";
  std::stringstream ss;
  ss << in.rdbuf();
  json::Value v;
  ASSERT_TRUE(json::parse(ss.str(), &v));
  EXPECT_TRUE(obs::tracing_armed()) << "snapshot must not disarm tracing";

  // Spans recorded after the snapshot still land in the live buffers.
  { obs::Span span("t.after"); }
  bool saw_after = false;
  for (const obs::SpanEvent& e : obs::trace_snapshot()) {
    if (std::string(e.name) == "t.after") saw_after = true;
  }
  EXPECT_TRUE(saw_after);
  std::remove(path.c_str());
  obs::set_snapshot_path("");
}

TEST(TraceSnapshot, ExplicitConsumeWritesOnceAndClearsTheFlag) {
  ScopedTracing armed;
  const std::string path = "obs_test_snapshot2.json";
  std::remove(path.c_str());
  obs::set_snapshot_path(path);
  { obs::Span span("t.one"); }

  EXPECT_FALSE(obs::maybe_write_requested_snapshot());  // nothing requested
  obs::request_trace_snapshot();
  EXPECT_TRUE(obs::maybe_write_requested_snapshot());
  EXPECT_FALSE(obs::maybe_write_requested_snapshot());  // flag consumed
  std::remove(path.c_str());
  obs::set_snapshot_path("");
}

// ---------------------------------------------------------------------------
// Explicit-bound latency histograms.

TEST(Metrics, BoundedHistogramExactUnderConcurrentRecords) {
  int nb = 0;
  const double* bounds = obs::latency_bounds_ms(&nb);
  obs::BoundedHistogram h(bounds, nb, obs::Gating::kAlways);

  // Four values, one per ladder region (le=1, le=5, le=100, le=30000).
  const double vals[4] = {0.5, 3.0, 75.0, 12000.0};
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &vals] {
      for (int i = 0; i < kPerThread; ++i) h.record(vals[i % 4]);
    });
  }
  for (auto& th : threads) th.join();

  // Lock-free atomic buckets: exact count and sum once writers joined.
  const long long expect_each = kThreads * (kPerThread / 4);
  EXPECT_EQ(h.count(), kThreads * static_cast<long long>(kPerThread));
  EXPECT_EQ(h.bucket(0), expect_each);   // 0.5  -> le=1
  EXPECT_EQ(h.bucket(2), expect_each);   // 3.0  -> le=5
  EXPECT_EQ(h.bucket(6), expect_each);   // 75   -> le=100
  EXPECT_EQ(h.bucket(13), expect_each);  // 12e3 -> le=30000
  EXPECT_DOUBLE_EQ(h.sum(),
                   static_cast<double>(expect_each) * (0.5 + 3.0 + 75.0 +
                                                       12000.0));
}

TEST(Metrics, BoundedHistogramPercentilesAreDeterministicBucketBounds) {
  int nb = 0;
  const double* bounds = obs::latency_bounds_ms(&nb);
  obs::BoundedHistogram h(bounds, nb, obs::Gating::kAlways);
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty: no samples, no estimate

  for (int i = 0; i < 90; ++i) h.record(3.0);    // -> le=5
  for (int i = 0; i < 10; ++i) h.record(150.0);  // -> le=200
  // Percentiles are bucket upper bounds — a pure function of the counts.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.90), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 200.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 200.0);

  // Overflow samples report the largest finite bound.
  obs::BoundedHistogram over(bounds, nb, obs::Gating::kAlways);
  over.record(1e9);
  EXPECT_DOUBLE_EQ(over.percentile(0.5), 60000.0);
}

TEST(Metrics, RegistryLatencySeriesKeyedByLabel) {
  obs::Registry& r = obs::Registry::global();
  obs::BoundedHistogram* agg = r.latency("serve.latency_ms", "");
  obs::BoundedHistogram* b128 = r.latency("serve.latency_ms", "n128v1");
  EXPECT_NE(agg, nullptr);
  EXPECT_NE(b128, nullptr);
  EXPECT_NE(agg, b128);  // distinct series per label
  EXPECT_EQ(b128, r.latency("serve.latency_ms", "n128v1"));  // stable
}

TEST(Metrics, OpenMetricsTextRendersCanonicalSeries) {
  obs::Registry& r = obs::Registry::global();
  r.latency("serve.latency_ms", "n128v1")->record(42.0);
  r.latency("serve.latency_ms", "")->record(42.0);
  r.counter("serve.submitted", obs::Gating::kAlways)->inc();

  const std::string text = r.openmetrics_text();
  // Counters get the _total suffix under the tdg_ prefix.
  EXPECT_NE(text.find("# TYPE tdg_serve_submitted counter"),
            std::string::npos);
  EXPECT_NE(text.find("tdg_serve_submitted_total "), std::string::npos);
  // The canonical drift histogram is pre-registered (zero if untouched).
  EXPECT_NE(text.find("# TYPE tdg_profile_model_drift_pct histogram"),
            std::string::npos);
  // Labelled latency series: the "" label renders as "all", shape buckets
  // keep their label, and every series is cumulative with an +Inf bucket.
  EXPECT_NE(text.find("tdg_serve_latency_ms_bucket{bucket=\"all\",le=\"50\"}"),
            std::string::npos);
  EXPECT_NE(
      text.find("tdg_serve_latency_ms_bucket{bucket=\"n128v1\",le=\"+Inf\"}"),
      std::string::npos);
  EXPECT_NE(text.find("tdg_serve_latency_ms_count{bucket=\"n128v1\"}"),
            std::string::npos);
  // The exposition ends with the OpenMetrics terminator (the wire sentinel).
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorder, DumpJsonParsesWithRequestTaggedEvents) {
  obs::flight::clear();
  obs::flight::record(obs::flight::EventKind::kMarker, "t.plain", 1, 2, 0);
  {
    obs::ContextScope ctx(obs::TraceContext{55, 0});
    // kAmbientRequest (the default) resolves to the installed context.
    obs::flight::record(obs::flight::EventKind::kError, "t.ambient", 3, 4);
  }
  obs::flight::record(obs::flight::EventKind::kMetric, "t.explicit", 5, 0,
                      77);

  const std::string text = obs::flight::dump_json("unit test");
  json::Value v;
  ASSERT_TRUE(json::parse(text, &v));
  ASSERT_EQ(v.kind, json::Value::kObject);
  ASSERT_NE(v.find("schema"), nullptr);
  EXPECT_EQ(v.find("schema")->str, "tdg.flight.v1");
  EXPECT_EQ(v.find("reason")->str, "unit test");
  const json::Value* events = v.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, json::Value::kArray);
  long long ambient_req = -1, explicit_req = -1;
  for (const json::Value& e : events->arr) {
    const std::string name = e.find("name")->str;
    if (name == "t.ambient") ambient_req = (long long)e.find("req")->num;
    if (name == "t.explicit") explicit_req = (long long)e.find("req")->num;
  }
  EXPECT_EQ(ambient_req, 55);
  EXPECT_EQ(explicit_req, 77);
  obs::flight::clear();
}

TEST(FlightRecorder, RingBoundsEventsPerThread) {
  obs::flight::clear();
  for (int i = 0; i < 3 * obs::flight::kRingCapacity; ++i) {
    obs::flight::record(obs::flight::EventKind::kMarker, "t.wrap", i, 0, 0);
  }
  const std::string text = obs::flight::dump_json("wrap test");
  json::Value v;
  ASSERT_TRUE(json::parse(text, &v));
  int my_events = 0;
  for (const json::Value& e : v.find("events")->arr) {
    if (e.find("name")->str == "t.wrap") ++my_events;
  }
  // The ring holds exactly the last kRingCapacity events — fixed memory,
  // however long the process has been running.
  EXPECT_EQ(my_events, obs::flight::kRingCapacity);
  obs::flight::clear();
}

TEST(FlightRecorder, DumpWritesToConfiguredPath) {
  obs::flight::clear();
  const std::string path = "obs_test_flight.json";
  std::remove(path.c_str());
  obs::flight::set_dump_path("");
  EXPECT_FALSE(obs::flight::dump("no path set"));
  obs::flight::set_dump_path(path);
  obs::flight::record(obs::flight::EventKind::kMarker, "t.file", 0, 0, 9);
  ASSERT_TRUE(obs::flight::dump("file test"));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  json::Value v;
  ASSERT_TRUE(json::parse(ss.str(), &v));
  EXPECT_EQ(v.find("reason")->str, "file test");
  std::remove(path.c_str());
  obs::flight::set_dump_path("");
  obs::flight::clear();
}

TEST(FlightRecorder, ArmedSpansFeedTheRing) {
  obs::flight::clear();
  {
    ScopedTracing armed;
    obs::ContextScope ctx(obs::TraceContext{88, 0});
    obs::Span span("t.flight_span");
  }
  const std::string text = obs::flight::dump_json("span feed");
  json::Value v;
  ASSERT_TRUE(json::parse(text, &v));
  bool found = false;
  for (const json::Value& e : v.find("events")->arr) {
    if (e.find("name")->str == "t.flight_span" &&
        e.find("kind")->str == "span") {
      found = true;
      EXPECT_EQ((long long)e.find("req")->num, 88);
    }
  }
  EXPECT_TRUE(found);
  obs::flight::clear();
}

}  // namespace
}  // namespace tdg
