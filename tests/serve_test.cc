// Tests for the resilient EVD service layer (src/serve/):
//
//   - served results are bitwise identical to a standalone eigh() against
//     the same bucket plan (determinism across batching / arrival order)
//   - admission control: queue-capacity and memory-budget rejects are
//     synchronous, typed kOverloaded, and exactly accounted
//   - deadlines: a cancelled request fails alone with kCancelled, and a
//     follow-up identical request on the same (still-warm) service is
//     bitwise identical to a fresh process — the pool and plan cache
//     survive cancellation unpoisoned
//   - degradation: queue pressure turns vectors requests into
//     eigenvalues-only kDegraded outcomes
//   - retry: a transient serve_request fault consumes one retry and still
//     completes, bitwise identical to the standalone solve; a request
//     waiting out its backoff does not hold up the requests behind it
//   - breaker: consecutive bucket failures trip the per-bucket breaker
//     (kOverloaded sheds), and a half-open probe closes it again
//   - drain: resolves everything, then sheds new work
//   - wire: the line protocol parses and formats round-trip
//
// Every case builds its own ServeCore and asserts only on its per-instance
// ServeStats, so the cases pass under ctest's one-process-per-case runs and
// when the whole binary runs as one process.

#include <gtest/gtest.h>

#include <tdg/serve.h>

#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>
#include <set>

#include "common/fault.h"
#include "common/rng.h"
#include "la/generate.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace tdg {
namespace {

Matrix test_matrix(index_t n, std::uint64_t seed = 42) {
  Rng rng(seed);
  return random_symmetric(n, rng);
}

/// The standalone solve a served request must reproduce bitwise: the
/// bucket's shared plan, intra-problem thread budgets of 1.
eig::EvdResult reference_solve(ConstMatrixView a, bool vectors) {
  eig::BatchOptions bopts;
  bopts.vectors = vectors;
  const plan::Plan plan = eig::batch_bucket_plan(a.rows, bopts);
  eig::EvdOptions popt;
  popt.vectors = vectors;
  popt.tridiag.threads = 1;
  popt.tridiag.bc_threads = 1;
  return eig::eigh(a, popt, plan);
}

void expect_bitwise_equal(const eig::EvdResult& got,
                          const eig::EvdResult& want) {
  ASSERT_EQ(got.eigenvalues.size(), want.eigenvalues.size());
  for (std::size_t i = 0; i < want.eigenvalues.size(); ++i) {
    EXPECT_EQ(got.eigenvalues[i], want.eigenvalues[i]) << "eigenvalue " << i;
  }
  ASSERT_EQ(got.eigenvectors.rows(), want.eigenvectors.rows());
  ASSERT_EQ(got.eigenvectors.cols(), want.eigenvectors.cols());
  for (index_t j = 0; j < want.eigenvectors.cols(); ++j) {
    for (index_t i = 0; i < want.eigenvectors.rows(); ++i) {
      ASSERT_EQ(got.eigenvectors(i, j), want.eigenvectors(i, j))
          << "eigenvector entry (" << i << ", " << j << ")";
    }
  }
}

TEST(ServeTest, BitwiseMatchesStandaloneEigh) {
  const index_t n = 64;
  const Matrix a = test_matrix(n);

  serve::ServeCore core;
  Matrix req(n, n);
  copy(a.view(), req.view());
  serve::Ticket t = core.submit(std::move(req));
  const serve::Response r = t.response.get();

  ASSERT_EQ(r.outcome, serve::Outcome::kCompleted) << r.message;
  expect_bitwise_equal(r.result, reference_solve(a.view(), /*vectors=*/true));
}

TEST(ServeTest, MixedShapesAllCompleteAndAccount) {
  serve::ServeCore core;
  const index_t shapes[] = {48, 64, 64, 96, 48, 57};
  std::vector<serve::Ticket> tickets;
  for (std::size_t i = 0; i < 6; ++i) {
    tickets.push_back(
        core.submit(test_matrix(shapes[i], 100 + i), serve::RequestOptions{}));
  }
  for (auto& t : tickets) {
    EXPECT_EQ(t.response.get().outcome, serve::Outcome::kCompleted);
  }
  ASSERT_TRUE(core.drain());
  const serve::ServeStats s = core.stats();
  EXPECT_EQ(s.submitted, 6);
  EXPECT_EQ(s.completed, 6);
  EXPECT_TRUE(s.accounted());
}

TEST(ServeTest, QueueCapacityRejectsSynchronouslyWithOverloaded) {
  serve::ServeOptions sopts;
  sopts.queue_capacity = 2;
  sopts.coalesce_window_ms = 1000.0;  // hold the queue while we overfill it
  serve::ServeCore core(sopts);

  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < 5; ++i) {
    tickets.push_back(core.submit(test_matrix(48, 7)));
  }
  // Rejected futures are resolved before submit() returns.
  int rejected = 0;
  for (int i = 0; i < 5; ++i) {
    const serve::Response r = tickets[static_cast<std::size_t>(i)]
                                  .response.get();
    if (r.outcome == serve::Outcome::kRejected) {
      ++rejected;
      EXPECT_EQ(r.code, ErrorCode::kOverloaded);
    }
  }
  EXPECT_EQ(rejected, 3);
  ASSERT_TRUE(core.drain());
  const serve::ServeStats s = core.stats();
  EXPECT_EQ(s.submitted, 5);
  EXPECT_EQ(s.rejected, 3);
  EXPECT_EQ(s.completed, 2);
  EXPECT_TRUE(s.accounted());
}

TEST(ServeTest, MemoryBudgetRejects) {
  serve::ServeOptions sopts;
  sopts.memory_budget_bytes = 48 * 48 * 8 + 100;  // room for one 48x48
  sopts.coalesce_window_ms = 500.0;
  serve::ServeCore core(sopts);

  serve::Ticket first = core.submit(test_matrix(48, 1));
  serve::Ticket second = core.submit(test_matrix(48, 2));
  const serve::Response r2 = second.response.get();
  EXPECT_EQ(r2.outcome, serve::Outcome::kRejected);
  EXPECT_EQ(r2.code, ErrorCode::kOverloaded);
  EXPECT_EQ(first.response.get().outcome, serve::Outcome::kCompleted);
  ASSERT_TRUE(core.drain());
  EXPECT_TRUE(core.stats().accounted());
}

// Satellite: a cancelled request fails alone with kCancelled and the
// service stays fully reusable — a follow-up identical request is bitwise
// identical to a fresh-process reference solve.
TEST(ServeTest, CancelledRequestLeavesServiceReusable) {
  const index_t n = 64;
  const Matrix a = test_matrix(n);

  serve::ServeOptions sopts;
  sopts.coalesce_window_ms = 50.0;  // submit/cancel wins this race easily
  serve::ServeCore core(sopts);

  Matrix doomed(n, n);
  copy(a.view(), doomed.view());
  serve::Ticket t1 = core.submit(std::move(doomed));
  t1.token->cancel();  // before the dispatcher can pop it
  const serve::Response r1 = t1.response.get();
  EXPECT_EQ(r1.outcome, serve::Outcome::kFailed);
  EXPECT_EQ(r1.code, ErrorCode::kCancelled);

  // Same matrix again on the same (now-warm) service.
  Matrix again(n, n);
  copy(a.view(), again.view());
  serve::Ticket t2 = core.submit(std::move(again));
  const serve::Response r2 = t2.response.get();
  ASSERT_EQ(r2.outcome, serve::Outcome::kCompleted) << r2.message;
  expect_bitwise_equal(r2.result, reference_solve(a.view(), /*vectors=*/true));

  ASSERT_TRUE(core.drain());
  const serve::ServeStats s = core.stats();
  EXPECT_EQ(s.submitted, 2);
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.completed, 1);
  EXPECT_EQ(s.deadline_failures, 1);
  EXPECT_TRUE(s.accounted());
}

TEST(ServeTest, QueuePressureDegradesToEigenvaluesOnly) {
  serve::ServeOptions sopts;
  sopts.degrade_queue_depth = 1;
  sopts.coalesce_window_ms = 200.0;  // let the burst pile up first
  serve::ServeCore core(sopts);

  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(core.submit(test_matrix(48, 7)));
  }
  int degraded = 0;
  for (auto& t : tickets) {
    const serve::Response r = t.response.get();
    ASSERT_TRUE(r.outcome == serve::Outcome::kCompleted ||
                r.outcome == serve::Outcome::kDegraded)
        << r.message;
    if (r.outcome == serve::Outcome::kDegraded) {
      ++degraded;
      EXPECT_EQ(r.result.eigenvalues.size(), 48u);
      EXPECT_EQ(r.result.eigenvectors.cols(), 0);  // eigenvalues-only
    }
  }
  EXPECT_GE(degraded, 1);
  ASSERT_TRUE(core.drain());
  const serve::ServeStats s = core.stats();
  EXPECT_EQ(s.degraded, degraded);
  EXPECT_TRUE(s.accounted());
}

TEST(ServeTest, DegradeDeniedWhenRequestForbidsIt) {
  serve::ServeOptions sopts;
  sopts.degrade_queue_depth = 1;
  sopts.coalesce_window_ms = 200.0;
  serve::ServeCore core(sopts);

  serve::RequestOptions no_degrade;
  no_degrade.allow_degraded = false;
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(core.submit(test_matrix(48, 7), no_degrade));
  }
  for (auto& t : tickets) {
    const serve::Response r = t.response.get();
    EXPECT_EQ(r.outcome, serve::Outcome::kCompleted) << r.message;
    EXPECT_GT(r.result.eigenvectors.cols(), 0);
  }
}

TEST(ServeTest, DeadlineBelowTheModesSolveTimeDegrades) {
  // The first mixed-precision vectors solve files its own solve time under
  // its bucket. A second one whose deadline is half that time must be judged
  // by it, and degrade to eigenvalues-only before it starts.
  serve::ServeCore core;
  serve::RequestOptions mixed;
  mixed.mode = plan::EvdMode::kMixedPrecision;
  const serve::Response first =
      core.submit(test_matrix(160, 5), mixed).response.get();
  ASSERT_EQ(first.outcome, serve::Outcome::kCompleted) << first.message;
  ASSERT_GT(first.solve_ms, 0.0);

  serve::RequestOptions tight = mixed;
  tight.deadline_ms = 0.5 * first.solve_ms;
  const serve::Response second =
      core.submit(test_matrix(160, 6), tight).response.get();
  EXPECT_EQ(second.outcome, serve::Outcome::kDegraded) << second.message;
  EXPECT_EQ(second.result.eigenvectors.cols(), 0);
}

TEST(ServeTest, TransientFaultRetriesOnceAndCompletes) {
  const Matrix a = test_matrix(64, 9);
  fault::Scoped arm("serve_request", /*trigger=*/1, /*fires=*/1);
  serve::ServeCore core;
  Matrix req(a.rows(), a.cols());
  copy(a.view(), req.view());
  serve::Ticket t = core.submit(std::move(req));
  const serve::Response r = t.response.get();
  ASSERT_EQ(r.outcome, serve::Outcome::kCompleted) << r.message;
  EXPECT_EQ(r.retries, 1);
  // The retry runs as an ordinary batch slot: same bits as a first try.
  expect_bitwise_equal(r.result, reference_solve(a.view(), /*vectors=*/true));
  const serve::ServeStats s = core.stats();
  EXPECT_EQ(s.retries, 1);
  EXPECT_TRUE(s.accounted());
}

// A retry waits out its backoff on the dispatcher's due-time list, not in
// a sleep: a request submitted just after a failing one resolves while the
// first is still backing off (>= 200 ms at a 400 ms base), and the first
// still completes on its retry.
TEST(ServeTest, RetryBackoffDoesNotBlockLaterRequests) {
  fault::Scoped arm("serve_request", /*trigger=*/1, /*fires=*/1);
  serve::ServeOptions sopts;
  sopts.retry_backoff_ms = 400.0;
  serve::ServeCore core(sopts);
  const auto t0 = std::chrono::steady_clock::now();
  serve::Ticket first = core.submit(test_matrix(32, 1));
  serve::Ticket second = core.submit(test_matrix(32, 2));

  const serve::Response r2 = second.response.get();
  const std::chrono::duration<double, std::milli> waited =
      std::chrono::steady_clock::now() - t0;
  ASSERT_EQ(r2.outcome, serve::Outcome::kCompleted) << r2.message;
  EXPECT_EQ(r2.retries, 0);
  EXPECT_LT(waited.count(), 200.0)
      << "the second request waited out the first one's backoff";
  EXPECT_EQ(first.response.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout)
      << "the backing-off request resolved before the one behind it";

  const serve::Response r1 = first.response.get();
  ASSERT_EQ(r1.outcome, serve::Outcome::kCompleted) << r1.message;
  EXPECT_EQ(r1.retries, 1);
  ASSERT_TRUE(core.drain());
  const serve::ServeStats s = core.stats();
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.retries, 1);
  EXPECT_TRUE(s.accounted());
}

TEST(ServeTest, TransientFaultBeyondRetryBudgetFails) {
  fault::Scoped arm("serve_request", /*trigger=*/1, /*fires=*/-1);
  serve::ServeOptions sopts;
  sopts.max_retries = 1;
  serve::ServeCore core(sopts);
  serve::Ticket t = core.submit(test_matrix(64, 9));
  const serve::Response r = t.response.get();
  EXPECT_EQ(r.outcome, serve::Outcome::kFailed);
  EXPECT_EQ(r.code, ErrorCode::kFaultInjected);
  EXPECT_EQ(r.retries, 1);
  EXPECT_TRUE(core.stats().accounted());
}

TEST(ServeTest, BreakerTripsShedsAndRecoversViaHalfOpenProbe) {
  serve::ServeOptions sopts;
  sopts.breaker_threshold = 2;
  sopts.breaker_open_ms = 150.0;
  sopts.coalesce_window_ms = 0.0;
  serve::ServeCore core(sopts);

  // Two consecutive hard failures (NaN input) in the n=48 bucket.
  for (int i = 0; i < 2; ++i) {
    Matrix bad = test_matrix(48, 5);
    bad.view()(0, 0) = std::numeric_limits<double>::quiet_NaN();
    const serve::Response r = core.submit(std::move(bad)).response.get();
    EXPECT_EQ(r.outcome, serve::Outcome::kFailed);
    EXPECT_EQ(r.code, ErrorCode::kInvalidInput);
  }
  EXPECT_EQ(core.stats().breaker_trips, 1);

  // While open, the bucket is shed at admission.
  const serve::Response shed = core.submit(test_matrix(48, 6)).response.get();
  EXPECT_EQ(shed.outcome, serve::Outcome::kRejected);
  EXPECT_EQ(shed.code, ErrorCode::kOverloaded);

  // Other buckets are unaffected (48 and 64 share the pow2-64 bucket, so
  // probe a genuinely different one).
  EXPECT_EQ(core.submit(test_matrix(96, 6)).response.get().outcome,
            serve::Outcome::kCompleted);

  // After the open window, one half-open probe closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(core.submit(test_matrix(48, 6)).response.get().outcome,
            serve::Outcome::kCompleted);
  EXPECT_EQ(core.submit(test_matrix(48, 6)).response.get().outcome,
            serve::Outcome::kCompleted);

  ASSERT_TRUE(core.drain());
  EXPECT_TRUE(core.stats().accounted());
}

TEST(ServeTest, ReopenedBreakerCountsSecondTrip) {
  serve::ServeOptions sopts;
  sopts.breaker_threshold = 1;
  sopts.breaker_open_ms = 100.0;
  sopts.coalesce_window_ms = 0.0;
  serve::ServeCore core(sopts);

  auto bad_submit = [&] {
    Matrix bad = test_matrix(48, 5);
    bad.view()(0, 0) = std::numeric_limits<double>::quiet_NaN();
    return core.submit(std::move(bad)).response.get();
  };
  EXPECT_EQ(bad_submit().outcome, serve::Outcome::kFailed);
  EXPECT_EQ(core.stats().breaker_trips, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // The half-open probe fails -> the breaker reopens and trips again.
  EXPECT_EQ(bad_submit().outcome, serve::Outcome::kFailed);
  EXPECT_EQ(core.stats().breaker_trips, 2);
  EXPECT_TRUE(core.stats().accounted());
}

TEST(ServeTest, DrainResolvesEverythingThenSheds) {
  serve::ServeCore core;
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(core.submit(test_matrix(48, 11)));
  }
  ASSERT_TRUE(core.drain(/*timeout_ms=*/60000.0));
  for (auto& t : tickets) {
    EXPECT_EQ(t.response.get().outcome, serve::Outcome::kCompleted);
  }
  // Post-drain submissions reject instead of queueing forever.
  const serve::Response late = core.submit(test_matrix(48, 12)).response.get();
  EXPECT_EQ(late.outcome, serve::Outcome::kRejected);
  EXPECT_EQ(late.code, ErrorCode::kOverloaded);
  EXPECT_TRUE(core.stats().accounted());
}

TEST(ServeTest, AdmitFaultSiteRejectsTyped) {
  fault::Scoped arm("serve_admit", /*trigger=*/1, /*fires=*/1);
  serve::ServeCore core;
  const serve::Response r = core.submit(test_matrix(48, 3)).response.get();
  EXPECT_EQ(r.outcome, serve::Outcome::kRejected);
  EXPECT_EQ(r.code, ErrorCode::kFaultInjected);  // says WHY it was shed
  // Disarmed site: back to normal service.
  fault::disarm();
  EXPECT_EQ(core.submit(test_matrix(48, 3)).response.get().outcome,
            serve::Outcome::kCompleted);
  EXPECT_TRUE(core.stats().accounted());
}

TEST(ServeTest, StatsPercentilesPopulated) {
  serve::ServeCore core;
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(core.submit(test_matrix(48, 20 + i)));
  }
  for (auto& t : tickets) t.response.get();
  const serve::ServeStats s = core.stats();
  EXPECT_GT(s.p50_ms, 0.0);
  EXPECT_GE(s.p95_ms, s.p50_ms);
  EXPECT_GE(s.p99_ms, s.p95_ms);
  // Each percentile is read off the latency ladder: a bucket upper bound.
  int nb = 0;
  const double* bounds = obs::latency_bounds_ms(&nb);
  const std::vector<double> ladder(bounds, bounds + nb);
  for (const double p : {s.p50_ms, s.p95_ms, s.p99_ms}) {
    EXPECT_NE(std::find(ladder.begin(), ladder.end(), p), ladder.end())
        << p << " ms is not a bound of obs::latency_bounds_ms";
  }
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_GE(s.queue_depth_hwm, 1);
}

// ---------------------------------------------------------------- wire --

TEST(ServeWireTest, ParsesSolveLine) {
  const auto p = serve::wire::parse_line(
      "solve id=7 n=96 vectors=0 deadline_ms=12.5 degrade=0 seed=99");
  ASSERT_EQ(p.kind, serve::wire::ParsedRequest::kSolve);
  EXPECT_EQ(p.id, 7);
  EXPECT_EQ(p.n, 96);
  EXPECT_EQ(p.seed, 99u);
  EXPECT_FALSE(p.opts.vectors);
  EXPECT_FALSE(p.opts.allow_degraded);
  EXPECT_DOUBLE_EQ(p.opts.deadline_ms, 12.5);
}

TEST(ServeWireTest, SolveDefaults) {
  const auto p = serve::wire::parse_line("solve n=48");
  ASSERT_EQ(p.kind, serve::wire::ParsedRequest::kSolve);
  EXPECT_EQ(p.id, 0);
  EXPECT_EQ(p.seed, 1u);
  EXPECT_TRUE(p.opts.vectors);
  EXPECT_TRUE(p.opts.allow_degraded);
  EXPECT_DOUBLE_EQ(p.opts.deadline_ms, 0.0);
}

TEST(ServeWireTest, RejectsMalformedLines) {
  EXPECT_EQ(serve::wire::parse_line("").kind, serve::wire::ParsedRequest::kBad);
  EXPECT_EQ(serve::wire::parse_line("frobnicate n=4").kind,
            serve::wire::ParsedRequest::kBad);
  EXPECT_EQ(serve::wire::parse_line("solve").kind,
            serve::wire::ParsedRequest::kBad);
  EXPECT_EQ(serve::wire::parse_line("solve n=0").kind,
            serve::wire::ParsedRequest::kBad);
  EXPECT_EQ(serve::wire::parse_line("solve n=abc").kind,
            serve::wire::ParsedRequest::kBad);
  EXPECT_EQ(serve::wire::parse_line("solve n=8 vectors=2").kind,
            serve::wire::ParsedRequest::kBad);
  EXPECT_EQ(serve::wire::parse_line("solve n=8 deadline_ms=-1").kind,
            serve::wire::ParsedRequest::kBad);
}

TEST(ServeWireTest, ParsesControlVerbs) {
  EXPECT_EQ(serve::wire::parse_line("stats").kind,
            serve::wire::ParsedRequest::kStats);
  EXPECT_EQ(serve::wire::parse_line("drain").kind,
            serve::wire::ParsedRequest::kDrain);
  EXPECT_EQ(serve::wire::parse_line("quit").kind,
            serve::wire::ParsedRequest::kQuit);
}

TEST(ServeWireTest, FormatsOkAndErrResponses) {
  serve::Response ok;
  ok.outcome = serve::Outcome::kCompleted;
  ok.result.eigenvalues = {-1.5, 0.25, 3.0};
  ok.request_id = 41;
  const std::string ok_line = serve::wire::format_response(4, ok);
  EXPECT_NE(
      ok_line.find("ok id=4 req=41 outcome=completed mode=standard n=3"),
      std::string::npos);
  EXPECT_NE(ok_line.find("w_min=-1.5"), std::string::npos);
  EXPECT_NE(ok_line.find("w_max=3"), std::string::npos);

  serve::Response err;
  err.outcome = serve::Outcome::kRejected;
  err.code = ErrorCode::kOverloaded;
  err.message = "queue full: \"overflow\"";
  err.request_id = 42;
  const std::string err_line = serve::wire::format_response(5, err);
  EXPECT_NE(err_line.find("err id=5 req=42 outcome=rejected code=overloaded"),
            std::string::npos);
  // Embedded quotes are neutralized so the line stays parseable.
  EXPECT_NE(err_line.find("'overflow'"), std::string::npos);
}

TEST(ServeWireTest, FormatsStatsWithAccounting) {
  serve::ServeStats s;
  s.submitted = 3;
  s.completed = 2;
  s.rejected = 1;
  const std::string line = serve::wire::format_stats(s);
  EXPECT_EQ(line.rfind("stats {", 0), 0u);
  EXPECT_NE(line.find("\"submitted\":3"), std::string::npos);
  EXPECT_NE(line.find("\"accounted\":true"), std::string::npos);
}


TEST(ServeTest, MintsUniqueRequestIdsIncludingRejects) {
  serve::ServeOptions sopts;
  sopts.queue_capacity = 2;
  sopts.coalesce_window_ms = 50.0;  // hold the queue so extras reject
  serve::ServeCore core(sopts);
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(core.submit(test_matrix(32, 7 + i)));
  }
  std::set<long long> ids;
  int rejected = 0;
  for (auto& t : tickets) {
    const serve::Response r = t.response.get();
    EXPECT_GT(r.request_id, 0) << "every response carries a minted id";
    ids.insert(r.request_id);
    if (r.outcome == serve::Outcome::kRejected) ++rejected;
  }
  EXPECT_EQ(ids.size(), tickets.size()) << "request ids must be unique";
  EXPECT_GT(rejected, 0) << "capacity 2 with 6 submits must shed some";
}

TEST(ServeTest, ArmedTraceSpansCarryTheOwningRequestId) {
  obs::clear_trace();
  obs::arm_tracing();
  std::set<long long> ids;
  {
    serve::ServeCore core;
    std::vector<serve::Ticket> tickets;
    for (int i = 0; i < 4; ++i) {
      tickets.push_back(core.submit(test_matrix(40, 60 + i)));
    }
    for (auto& t : tickets) {
      const serve::Response r = t.response.get();
      ASSERT_EQ(r.outcome, serve::Outcome::kCompleted);
      ids.insert(r.request_id);
    }
    core.drain();
  }
  obs::disarm_tracing();

  // Every per-problem span the service executed must be tagged with one of
  // the ids handed back on the wire — the join a trace consumer performs.
  int problem_spans = 0;
  for (const obs::SpanEvent& e : obs::trace_snapshot()) {
    if (std::string(e.name) != "batch.problem") continue;
    ++problem_spans;
    EXPECT_EQ(ids.count(e.request_id), 1u)
        << "batch.problem span tagged with unknown request "
        << e.request_id;
  }
  EXPECT_EQ(problem_spans, 4);
  obs::clear_trace();
}

TEST(ServeWireTest, ParsesMetricsVerbAndFormatsOpenMetrics) {
  EXPECT_EQ(serve::wire::parse_line("metrics").kind,
            serve::wire::ParsedRequest::kMetrics);
  // Touch the serve layer so the canonical series exist and are non-empty.
  {
    serve::ServeCore core;
    core.submit(test_matrix(32, 3)).response.get();
  }
  const std::string text = serve::wire::format_metrics();
  EXPECT_NE(text.find("# TYPE tdg_serve_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("tdg_serve_latency_ms_bucket{bucket=\"all\""),
            std::string::npos);
  EXPECT_NE(text.find("tdg_serve_submitted_total "), std::string::npos);
  // "# EOF" both terminates the OpenMetrics payload and frames the verb's
  // multi-line response on the wire.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

}  // namespace
}  // namespace tdg
