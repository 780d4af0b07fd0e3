#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/json.h"

namespace tdg::obs {

namespace detail {

std::atomic<int> g_metrics_armed{0};

int shard_index() {
  // A small per-thread id assigned on first use spreads threads across
  // shards without hashing pthread handles.
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id % kShards;
}

}  // namespace detail

void arm_metrics() {
  detail::g_metrics_armed.store(1, std::memory_order_relaxed);
}

void disarm_metrics() {
  detail::g_metrics_armed.store(0, std::memory_order_relaxed);
}

// ---- BoundedHistogram ------------------------------------------------------

BoundedHistogram::BoundedHistogram(const double* bounds, int n, Gating gating)
    : gating_(gating), n_(std::min(n, kMaxBounds)) {
  for (int i = 0; i < n_; ++i) bounds_[i] = bounds[i];
  for (int i = n_; i < kMaxBounds; ++i) bounds_[i] = 0.0;
}

void BoundedHistogram::record(double v) {
  if (gating_ == Gating::kArmed && !metrics_armed()) return;
  if (v < 0.0 || std::isnan(v)) v = 0.0;
  int b = n_;  // overflow bucket unless a finite bound covers v
  for (int i = 0; i < n_; ++i) {
    if (v <= bounds_[i]) {
      b = i;
      break;
    }
  }
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  sum_milli_.fetch_add(static_cast<long long>(std::llround(v * 1e3)),
                       std::memory_order_relaxed);
}

long long BoundedHistogram::count() const {
  long long c = 0;
  for (int i = 0; i <= n_; ++i) {
    c += buckets_[i].load(std::memory_order_relaxed);
  }
  return c;
}

double BoundedHistogram::percentile(double p) const {
  const long long total = count();
  if (total <= 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const long long rank = std::max<long long>(
      1, static_cast<long long>(std::ceil(p * static_cast<double>(total))));
  long long cum = 0;
  for (int i = 0; i < n_; ++i) {
    cum += buckets_[i].load(std::memory_order_relaxed);
    if (cum >= rank) return bounds_[i];
  }
  return n_ > 0 ? bounds_[n_ - 1] : 0.0;  // overflow: the largest bound
}

void BoundedHistogram::reset() {
  for (int i = 0; i <= n_; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  sum_milli_.store(0, std::memory_order_relaxed);
}

const double* latency_bounds_ms(int* n) {
  static const double kBounds[] = {1,   2,    5,    10,   20,    50,   100, 200,
                                   500, 1000, 2000, 5000, 10000, 30000, 60000};
  *n = static_cast<int>(sizeof(kBounds) / sizeof(kBounds[0]));
  return kBounds;
}

Counter* Registry::counter(const std::string& name, Gating gating) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>(gating);
  return slot.get();
}

Gauge* Registry::gauge(const std::string& name, Gating gating) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>(gating);
  return slot.get();
}

Histogram* Registry::histogram(const std::string& name, Gating gating) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(gating);
  return slot.get();
}

BoundedHistogram* Registry::latency(const std::string& name,
                                    const std::string& label, Gating gating) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = latency_[name][label];
  if (!slot) {
    int n = 0;
    const double* bounds = latency_bounds_ms(&n);
    slot = std::make_unique<BoundedHistogram>(bounds, n, gating);
  }
  return slot.get();
}

namespace {

/// OpenMetrics metric name: dots become underscores under a tdg_ prefix.
std::string om_name(const std::string& name) {
  std::string out = "tdg_";
  for (const char c : name) out.push_back(c == '.' ? '_' : c);
  return out;
}

/// Format a double the way Prometheus expects (no trailing zeros needed,
/// %.17g round-trips).
std::string om_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Registry::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"schema_version\":1,\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << '"' << json::escape(name)
       << "\":" << c->value();
    first = false;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << '"' << json::escape(name)
       << "\":" << g->value();
    first = false;
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << '"' << json::escape(name)
       << "\":{\"count\":" << h->count() << ",\"sum\":" << h->sum()
       << ",\"buckets\":[";
    int hi = Histogram::kBuckets;
    while (hi > 0 && h->bucket(hi - 1) == 0) --hi;
    for (int i = 0; i < hi; ++i) os << (i ? "," : "") << h->bucket(i);
    os << "]}";
    first = false;
  }
  os << "},\"latency\":{";
  first = true;
  for (const auto& [name, series] : latency_) {
    os << (first ? "" : ",") << '"' << json::escape(name) << "\":{";
    bool first_series = true;
    for (const auto& [label, h] : series) {
      os << (first_series ? "" : ",") << '"'
         << json::escape(label.empty() ? "all" : label)
         << "\":{\"count\":" << h->count()
         << ",\"sum\":" << om_num(h->sum()) << ",\"bounds\":[";
      for (int i = 0; i < h->nbounds(); ++i) {
        os << (i ? "," : "") << om_num(h->upper_bound(i));
      }
      os << "],\"buckets\":[";
      for (int i = 0; i <= h->nbounds(); ++i) {
        os << (i ? "," : "") << h->bucket(i);
      }
      os << "]}";
      first_series = false;
    }
    os << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

bool Registry::write(const std::string& path) const {
  const std::string line = snapshot_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fputs(line.c_str(), f) >= 0;
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fflush(f) == 0 && ok;
  std::fclose(f);
  return ok;
}

std::string Registry::openmetrics_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    const std::string n = om_name(name);
    os << "# TYPE " << n << " counter\n"
       << n << "_total " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = om_name(name);
    os << "# TYPE " << n << " gauge\n" << n << " " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = om_name(name);
    os << "# TYPE " << n << " histogram\n";
    int hi = Histogram::kBuckets;
    while (hi > 0 && h->bucket(hi - 1) == 0) --hi;
    long long cum = 0;
    for (int i = 0; i < hi; ++i) {
      cum += h->bucket(i);
      // pow2 bucket i holds integer samples <= 2^(i+1) - 1.
      os << n << "_bucket{le=\"" << ((1LL << (i + 1)) - 1) << "\"} " << cum
         << "\n";
    }
    os << n << "_bucket{le=\"+Inf\"} " << h->count() << "\n"
       << n << "_sum " << h->sum() << "\n"
       << n << "_count " << h->count() << "\n";
  }
  for (const auto& [name, series] : latency_) {
    const std::string n = om_name(name);
    os << "# TYPE " << n << " histogram\n";
    for (const auto& [label, h] : series) {
      const std::string lbl = label.empty() ? "all" : label;
      long long cum = 0;
      for (int i = 0; i < h->nbounds(); ++i) {
        cum += h->bucket(i);
        os << n << "_bucket{bucket=\"" << lbl << "\",le=\""
           << om_num(h->upper_bound(i)) << "\"} " << cum << "\n";
      }
      os << n << "_bucket{bucket=\"" << lbl << "\",le=\"+Inf\"} "
         << h->count() << "\n"
         << n << "_sum{bucket=\"" << lbl << "\"} " << om_num(h->sum())
         << "\n"
         << n << "_count{bucket=\"" << lbl << "\"} " << h->count() << "\n";
    }
  }
  os << "# EOF\n";
  return os.str();
}

bool Registry::write_openmetrics(const std::string& path) const {
  const std::string text = openmetrics_text();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fputs(text.c_str(), f) >= 0;
  ok = std::fflush(f) == 0 && ok;
  std::fclose(f);
  return ok;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, series] : latency_) {
    for (auto& [label, h] : series) h->reset();
  }
}

Registry& Registry::global() {
  static Registry* reg = [] {
    auto* r = new Registry();  // leaked: must outlive atexit writers
    // Pre-register the canonical set (docs/ALGORITHMS.md §12) so every
    // snapshot carries every metric, at zero if untouched.
    r->counter("pool.tasks_run");
    r->counter("pool.dispatches");
    r->counter("pool.parks");
    r->counter("pool.wakes");
    r->histogram("pool.queue_wait_us");
    r->counter("taskgraph.runs");
    r->counter("taskgraph.nodes_run");
    r->counter("taskgraph.nodes_cancelled");
    r->counter("taskgraph.busy_us");
    r->counter("taskgraph.overlap_us");
    r->counter("taskgraph.idle_us");
    r->counter("taskgraph.stalls", Gating::kAlways);
    r->gauge("taskgraph.ready_depth_hwm");
    r->counter("bc.sweeps");
    r->counter("bc.gate_spin_episodes");
    r->counter("bc.stall_near_miss");
    r->histogram("bc.gate_wait_us");
    r->gauge("bc.sweep_concurrency_hwm");
    r->counter("evd.recovery.dc_steqr", Gating::kAlways);
    r->counter("evd.recovery.dc_steqr_bisect", Gating::kAlways);
    r->counter("evd.recovery.steqr_bisect", Gating::kAlways);
    r->counter("evd.refine_iters", Gating::kAlways);
    r->counter("evd.fp32_fallbacks", Gating::kAlways);
    r->gauge("evd.peak_workspace_bytes", Gating::kAlways);
    r->counter("plan.cache_hits", Gating::kAlways);
    r->counter("plan.cache_misses", Gating::kAlways);
    r->counter("plan.measure_runs", Gating::kAlways);
    r->counter("plan.cache_loads", Gating::kAlways);
    r->counter("plan.cache_saves", Gating::kAlways);
    r->counter("plan.cache_save_failures", Gating::kAlways);
    r->counter("plan.cache_lock_failures", Gating::kAlways);
    r->counter("plan.cache_lock_waits", Gating::kAlways);
    r->counter("plan.cache_merged_entries", Gating::kAlways);
    r->counter("fault.fires", Gating::kAlways);
    r->counter("batch.problems", Gating::kAlways);
    r->counter("batch.steals", Gating::kAlways);
    r->counter("batch.plans_resolved", Gating::kAlways);
    r->counter("batch.bucket_plan_hits", Gating::kAlways);
    r->counter("batch.recoveries", Gating::kAlways);
    r->counter("batch.failures", Gating::kAlways);
    r->counter("serve.submitted", Gating::kAlways);
    r->counter("serve.admitted", Gating::kAlways);
    r->counter("serve.rejected", Gating::kAlways);
    r->counter("serve.completed", Gating::kAlways);
    r->counter("serve.degraded", Gating::kAlways);
    r->counter("serve.failed", Gating::kAlways);
    r->counter("serve.retries", Gating::kAlways);
    r->counter("serve.breaker_trips", Gating::kAlways);
    r->counter("serve.batches", Gating::kAlways);
    r->counter("serve.deadline_failures", Gating::kAlways);
    r->gauge("serve.queue_depth", Gating::kAlways);
    r->gauge("serve.queue_depth_hwm", Gating::kAlways);
    r->histogram("profile.model_drift_pct", Gating::kAlways);
    r->latency("serve.latency_ms", "", Gating::kAlways);
    return r;
  }();
  return *reg;
}

namespace {

/// Periodic OpenMetrics snapshot writer: TDG_METRICS_PROM=<path> starts a
/// background thread rewriting <path> every TDG_METRICS_PROM_INTERVAL_MS
/// (default 1000), with a final write at exit — the pull-scrape stand-in
/// for processes without a listening socket (benches, the soak job). The
/// thread is joined from the atexit handler before the leaked registry is
/// read for the last time, so no write races process teardown.
struct PromWriter {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::string path;
  int interval_ms = 1000;
  std::thread worker;

  void run() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv.wait_for(lk, std::chrono::milliseconds(interval_ms),
                  [&] { return stop; });
      if (stop) return;
      lk.unlock();
      (void)Registry::global().write_openmetrics(path);
      lk.lock();
    }
  }

  static PromWriter& get() {
    static PromWriter* w = new PromWriter();  // leaked: atexit joins, never
    return *w;                                // destroys
  }
};

struct PromEnvInit {
  PromEnvInit() {
    const char* path = std::getenv("TDG_METRICS_PROM");
    if (path == nullptr) return;
    (void)Registry::global();
    PromWriter& w = PromWriter::get();
    w.path = path;
    try {
      w.interval_ms = static_cast<int>(
          env_int("TDG_METRICS_PROM_INTERVAL_MS", 1,
                  std::numeric_limits<int>::max(), w.interval_ms));
    } catch (const Error& err) {  // read before main(): no caller to catch
      std::fprintf(stderr, "%s\n", err.what());
      std::exit(2);
    }
    w.worker = std::thread([&w] { w.run(); });
    std::atexit(+[] {
      PromWriter& pw = PromWriter::get();
      {
        std::lock_guard<std::mutex> lk(pw.mu);
        pw.stop = true;
      }
      pw.cv.notify_all();
      pw.worker.join();
      (void)Registry::global().write_openmetrics(pw.path);
    });
  }
};
const PromEnvInit prom_env_init;

}  // namespace

}  // namespace tdg::obs
