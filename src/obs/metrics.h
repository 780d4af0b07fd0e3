// Process-wide metrics registry — counters, gauges, and histograms for the
// long-running-service view of the library (the ROADMAP's "counter surface
// like plan::CacheStats", generalized).
//
// Two kinds of sites feed the registry:
//
//  * Hot-path sites (thread-pool dispatch, bulge-chase gates) are gated on a
//    process-wide armed flag following the tdg::fault pattern: when metrics
//    are disarmed the entire cost of a site visit is ONE relaxed atomic
//    load. Arm via TDG_METRICS=<path> (snapshot written at process exit) or
//    obs::arm_metrics().
//  * Control-plane sites (solver recovery paths, plan-cache outcomes, fault
//    fires) count ALWAYS — they sit on paths that already take a mutex or
//    do file I/O, and their totals must be trustworthy for telemetry even
//    in processes that never armed metrics (plan::CacheStats reads them).
//
// Counters are sharded across cache-line-padded atomics so concurrent
// increments don't bounce one line; value() sums the shards, and after the
// writers have quiesced (joined) the sum is exact — no increment is ever
// lost or torn. Gauges track a high-water mark via a CAS-max loop.
// Histograms bucket values by power of two (bucket i counts values in
// [2^i, 2^(i+1))) with atomic buckets, so concurrent records never tear;
// count and sum are derived from / accumulated next to the buckets.
//
// Metric names are flat dotted strings ("pool.tasks_run"); the canonical
// set is pre-registered so a snapshot always contains every metric, at zero
// if untouched. Snapshot as a single JSON line via snapshot_json() /
// write_metrics(), schema in docs/ALGORITHMS.md §12.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tdg::obs {

namespace detail {
extern std::atomic<int> g_metrics_armed;  // 0 = disarmed: the fast path
}  // namespace detail

/// True when metric collection is armed (TDG_METRICS or arm_metrics()).
/// One relaxed load — the entire disarmed cost of a gated site.
inline bool metrics_armed() {
  return detail::g_metrics_armed.load(std::memory_order_relaxed) != 0;
}

void arm_metrics();
void disarm_metrics();

/// Whether a metric counts only while armed (hot-path sites) or always
/// (control-plane sites whose totals back telemetry like plan::CacheStats).
enum class Gating { kArmed, kAlways };

namespace detail {

inline constexpr int kShards = 8;

struct alignas(64) PaddedCounter {
  std::atomic<long long> v{0};
};

/// Shard index for the calling thread — stable per thread, cheap.
int shard_index();

}  // namespace detail

/// Monotonic sharded counter. Thread-safe; value() is exact once writers
/// have quiesced.
class Counter {
 public:
  explicit Counter(Gating gating = Gating::kArmed) : gating_(gating) {}

  void inc(long long delta = 1) {
    if (gating_ == Gating::kArmed && !metrics_armed()) return;
    shards_[detail::shard_index()].v.fetch_add(delta,
                                               std::memory_order_relaxed);
  }

  long long value() const {
    long long s = 0;
    for (const auto& sh : shards_) s += sh.v.load(std::memory_order_relaxed);
    return s;
  }

  /// Zero all shards (tests / PlanCache::reset_stats). Not atomic with
  /// respect to concurrent inc(); callers quiesce first.
  void reset() {
    for (auto& sh : shards_) sh.v.store(0, std::memory_order_relaxed);
  }

 private:
  Gating gating_;
  detail::PaddedCounter shards_[detail::kShards];
};

/// High-water-mark gauge: update_max() keeps the largest observed value.
class Gauge {
 public:
  explicit Gauge(Gating gating = Gating::kArmed) : gating_(gating) {}

  void update_max(long long v) {
    if (gating_ == Gating::kArmed && !metrics_armed()) return;
    long long cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  void set(long long v) {
    if (gating_ == Gating::kArmed && !metrics_armed()) return;
    v_.store(v, std::memory_order_relaxed);
  }

  long long value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  Gating gating_;
  std::atomic<long long> v_{0};
};

/// Power-of-two histogram of non-negative integer samples (microseconds by
/// convention). Bucket i counts samples in [2^i, 2^(i+1)); bucket 0 also
/// takes 0. Lock-free: buckets and sum are atomics, so concurrent record()
/// calls never tear, and after quiescence count() == sum of buckets.
class Histogram {
 public:
  static constexpr int kBuckets = 40;  // 2^39 us ~ 6.4 days: plenty

  explicit Histogram(Gating gating = Gating::kArmed) : gating_(gating) {}

  void record(long long v) {
    if (gating_ == Gating::kArmed && !metrics_armed()) return;
    if (v < 0) v = 0;
    int b = 0;
    while ((1LL << (b + 1)) <= v && b + 1 < kBuckets) ++b;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  long long bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  long long count() const {
    long long c = 0;
    for (const auto& b : buckets_) c += b.load(std::memory_order_relaxed);
    return c;
  }
  long long sum() const { return sum_.load(std::memory_order_relaxed); }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  Gating gating_;
  std::atomic<long long> buckets_[kBuckets]{};
  std::atomic<long long> sum_{0};
};

/// Explicit-bound histogram for latency-style samples — the Prometheus
/// classic-histogram shape: bucket i counts samples <= bounds[i] (bounds
/// ascending; one implicit +Inf overflow bucket), so percentile estimates
/// are deterministic (a pure function of the bucket counts) and two
/// exporters can never disagree. Lock-free like Histogram: atomic buckets,
/// sum kept in milli-units so concurrent record() never tears and after
/// quiescence count() equals the sum of buckets exactly.
class BoundedHistogram {
 public:
  static constexpr int kMaxBounds = 24;

  /// `bounds` are ascending upper bounds (n of them, n <= kMaxBounds);
  /// bucket n is the implicit +Inf overflow.
  BoundedHistogram(const double* bounds, int n,
                   Gating gating = Gating::kAlways);

  void record(double v);

  int nbounds() const { return n_; }
  double upper_bound(int i) const { return bounds_[i]; }
  /// Count of bucket i, i in [0, nbounds()] — the last is the overflow.
  long long bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  long long count() const;
  double sum() const {
    return static_cast<double>(sum_milli_.load(std::memory_order_relaxed)) /
           1e3;
  }

  /// Deterministic percentile estimate: the upper bound of the bucket
  /// holding the ceil(p * count)-th sample (the largest finite bound for
  /// overflow samples). Exact to within one bucket bound by construction.
  double percentile(double p) const;

  void reset();

 private:
  Gating gating_;
  int n_;
  double bounds_[kMaxBounds];
  std::atomic<long long> buckets_[kMaxBounds + 1]{};
  std::atomic<long long> sum_milli_{0};
};

/// The canonical latency ladder (ms) shared by every serve.latency_ms
/// histogram, so per-bucket and aggregate percentiles are comparable.
const double* latency_bounds_ms(int* n);

/// Name -> metric registry. Metrics are created on first use and live for
/// the process; lookups after creation are lock-free via the returned
/// pointer (call sites cache it in a function-local static).
class Registry {
 public:
  Counter* counter(const std::string& name, Gating gating = Gating::kArmed);
  Gauge* gauge(const std::string& name, Gating gating = Gating::kArmed);
  Histogram* histogram(const std::string& name,
                       Gating gating = Gating::kArmed);

  /// A labelled explicit-bound latency histogram (latency_bounds_ms
  /// ladder). `label` is the shape-bucket dimension ("" = the aggregate
  /// series); exported as name{bucket="<label>"} in OpenMetrics.
  BoundedHistogram* latency(const std::string& name, const std::string& label,
                            Gating gating = Gating::kAlways);

  /// One JSON line with every registered metric:
  ///   {"schema_version":1,"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":..,"sum":..,"buckets":[..]}},
  ///    "latency":{"name":{"<label>":{"count":..,"sum":..,
  ///                                  "bounds":[..],"buckets":[..]}}}}
  /// Histogram buckets are trimmed to the highest non-empty one. Latency
  /// series are keyed by label, "all" for the "" aggregate as in
  /// OpenMetrics; their buckets are per-bound counts, the last one the
  /// +Inf overflow.
  std::string snapshot_json() const;

  /// Write snapshot_json() + '\n' to `path`. Returns false on I/O failure.
  bool write(const std::string& path) const;

  /// Render every registered metric as OpenMetrics/Prometheus text:
  /// counters as <name>_total, gauges verbatim, pow2 Histograms and
  /// labelled latency histograms as classic cumulative-le histograms.
  /// Names are prefixed "tdg_" with dots mapped to underscores; the text
  /// ends with the "# EOF" terminator (which the line protocol reuses as
  /// its framing sentinel for the METRICS verb).
  std::string openmetrics_text() const;

  /// Write openmetrics_text() to `path`. Returns false on I/O failure.
  bool write_openmetrics(const std::string& path) const;

  /// Zero every metric (tests). Callers quiesce writers first.
  void reset();

  /// The process-wide registry. Its constructor pre-registers the canonical
  /// metric set (docs/ALGORITHMS.md §12) so snapshots are shape-stable.
  static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  // name -> label -> series ("" label = the aggregate series).
  std::map<std::string, std::map<std::string, std::unique_ptr<BoundedHistogram>>>
      latency_;
};

}  // namespace tdg::obs
