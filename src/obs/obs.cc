#include "obs/obs.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/json.h"
#include "common/trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace tdg::obs {

namespace detail {

std::atomic<int> g_trace_armed{0};

namespace {

using Clock = std::chrono::steady_clock;

// Process-wide trace epoch: first touch of the trace machinery. Everything
// in the export is relative to this, which keeps timestamps small and lets
// Perfetto render from t=0.
Clock::time_point epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

double since_epoch_us(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch()).count();
}

// Spans land in per-thread buffers so recording never contends across
// threads. Each buffer has its own mutex, taken only on armed appends and
// on snapshot; buffers are shared_ptrs registered in a global list so
// snapshot outlives thread exit.
struct ThreadBuf {
  std::mutex mu;
  std::vector<SpanEvent> events;
  int tid = 0;
};

struct BufRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  int next_tid = 0;
};

BufRegistry& buf_registry() {
  static BufRegistry* r = new BufRegistry();  // leaked: atexit writers read it
  return *r;
}

ThreadBuf& local_buf() {
  thread_local const std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    BufRegistry& r = buf_registry();
    std::lock_guard<std::mutex> lock(r.mu);
    b->tid = r.next_tid++;
    r.bufs.push_back(b);
    return b;
  }();
  return *buf;
}

// Open-span depth on this thread. A plain thread_local int: spans never
// migrate threads, and RAII guarantees balanced inc/dec even when an
// exception unwinds through the scope.
thread_local int t_depth = 0;

// Ambient request context on this thread. Plain thread_local: only the
// owning thread reads or writes it (ContextScope install/restore), and
// cross-thread handoffs copy it by value into the dispatched task.
thread_local TraceContext t_ctx{};

// The solve record installed on this thread, or nullptr. Never handed
// across threads: a solve's stage spans open on the thread that runs it.
thread_local RecordScope* t_record = nullptr;

// Mid-run snapshot machinery. The request flag is the only thing a signal
// handler touches (async-signal-safe atomic store); the path lives behind
// a mutex in a leaked string so writers during static destruction still
// read live state.
std::atomic<int> g_snapshot_requested{0};
std::mutex& snapshot_path_mu() {
  static std::mutex* m = new std::mutex();
  return *m;
}
std::string& snapshot_path_storage() {
  static std::string* s = new std::string();
  return *s;
}

void sigusr1_handler(int) {
  g_snapshot_requested.store(1, std::memory_order_relaxed);
}

void append_json_event(std::ostringstream& os, const SpanEvent& e,
                       bool first) {
  if (!first) os << ',';
  os << "{\"name\":\"" << json::escape(e.name) << "\",\"cat\":\"tdg\","
     << "\"ph\":\"X\",\"ts\":" << e.start_us << ",\"dur\":" << e.dur_us
     << ",\"pid\":1,\"tid\":" << e.tid;
  os << ",\"args\":{\"depth\":" << e.depth;
  if (e.request_id != 0) os << ",\"req\":" << e.request_id;
  for (int i = 0; i < e.nattrs; ++i)
    os << ",\"" << json::escape(e.attrs[i].key)
       << "\":" << e.attrs[i].value;
  if (e.flops > 0.0) os << ",\"flops\":" << e.flops;
  os << "}}";
}

// Reads TDG_TRACE_JSON / TDG_METRICS once before main() (mirrors
// fault.cc's EnvInit). Touching the leaked globals here guarantees they
// are constructed before the atexit writers register, hence destroyed
// never — the writers run against live state even during static
// destruction. The global thread pool is created lazily at runtime (after
// this), so its atexit-ordered destructor joins the workers before the
// writers run.
struct EnvInit {
  EnvInit() {
    if (const char* path = std::getenv("TDG_TRACE_JSON")) {
      (void)buf_registry();
      static const std::string trace_path = path;
      arm_tracing();
      // Mid-run snapshots go to a sibling file so a partial snapshot can
      // never clobber the at-exit trace.
      set_snapshot_path(trace_path + ".snap.json");
#ifdef SIGUSR1
      std::signal(SIGUSR1, sigusr1_handler);  // kill -USR1 = snapshot now
#endif
      std::atexit(+[] { (void)write_chrome_trace(trace_path); });
    }
    if (const char* path = std::getenv("TDG_METRICS")) {
      (void)Registry::global();
      static const std::string metrics_path = path;
      arm_metrics();
      std::atexit(+[] { (void)Registry::global().write(metrics_path); });
    }
  }
};
const EnvInit env_init;

}  // namespace
}  // namespace detail

void arm_tracing() {
  detail::g_trace_armed.store(1, std::memory_order_relaxed);
}

void disarm_tracing() {
  detail::g_trace_armed.store(0, std::memory_order_relaxed);
}

double now_us() { return detail::since_epoch_us(detail::Clock::now()); }

TraceContext current_context() { return detail::t_ctx; }

long long next_request_id() {
  static std::atomic<long long> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

ContextScope::ContextScope(TraceContext ctx) : prev_(detail::t_ctx) {
  detail::t_ctx = ctx;
}

ContextScope::~ContextScope() { detail::t_ctx = prev_; }

void set_snapshot_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(detail::snapshot_path_mu());
  detail::snapshot_path_storage() = path;
}

void request_trace_snapshot() {
  detail::g_snapshot_requested.store(1, std::memory_order_relaxed);
}

bool maybe_write_requested_snapshot() {
  if (detail::g_snapshot_requested.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  if (detail::g_snapshot_requested.exchange(0, std::memory_order_relaxed) ==
      0) {
    return false;  // another thread consumed the request
  }
  std::string path;
  {
    std::lock_guard<std::mutex> lock(detail::snapshot_path_mu());
    path = detail::snapshot_path_storage();
  }
  if (path.empty()) return false;
  return write_chrome_trace(path);
}

double SolveRecord::seconds(std::string_view name) const {
  const auto sum = [name](const auto& self,
                          const std::vector<Stage>& v) -> double {
    double s = 0.0;
    for (const Stage& st : v) {
      s += (st.name == name ? st.seconds : 0.0) + self(self, st.children);
    }
    return s;
  };
  return sum(sum, phases);
}

double SolveRecord::total_seconds() const {
  double s = 0.0;
  for (const Stage& st : phases) s += st.seconds;
  return s;
}

double SolveRecord::total_flops() const {
  double f = 0.0;
  for (const Stage& st : phases) f += st.flops;
  return f;
}

RecordScope::RecordScope(SolveRecord* record, const trace::Recorder* ops)
    : record_(record), ops_(ops), prev_(detail::t_record) {
  detail::t_record = record != nullptr ? this : nullptr;
}

RecordScope::~RecordScope() { detail::t_record = prev_; }

void Span::begin(const char* name) {
  active_ = true;
  ev_.name = name;
  ev_.depth = detail::t_depth++;
  ev_.request_id = detail::t_ctx.request_id;
  ev_.start_us = now_us();
}

void Span::begin_stage(const char* name) {
  RecordScope* rec = detail::t_record;
  if (tracing_armed()) {
    begin(name);
  } else if (rec != nullptr) {
    ev_.start_us = now_us();
  }
  if (rec == nullptr) return;
  // Only closed siblings move when the vector grows: the open stages are
  // this node's ancestors.
  rec_ = rec;
  parent_ = rec->open_;
  stage_ = &(parent_ != nullptr ? parent_->children : rec->record_->phases)
                .emplace_back();
  stage_->name = name;
  if (rec->ops_ != nullptr) stage_->ops_begin = rec->ops_->ops().size();
  rec->open_ = stage_;
}

void Span::end() {
  ev_.dur_us = now_us() - ev_.start_us;
  if (stage_ != nullptr) {
    stage_->seconds = ev_.dur_us * 1e-6;
    if (rec_->ops_ != nullptr) stage_->ops_end = rec_->ops_->ops().size();
    rec_->open_ = parent_;
    stage_ = nullptr;
  }
  if (!active_) return;
  --detail::t_depth;
  active_ = false;
  detail::ThreadBuf& buf = detail::local_buf();
  ev_.tid = buf.tid;
  {
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.events.push_back(ev_);
  }
  // Traced spans only (a disarmed plain span never gets here, preserving the
  // one-relaxed-load disarmed cost): mirror the close into the flight
  // recorder and honor a pending mid-run snapshot request, both outside the
  // buffer lock.
  flight::record(flight::EventKind::kSpan, ev_.name,
                 static_cast<long long>(ev_.dur_us), ev_.depth,
                 ev_.request_id);
  maybe_write_requested_snapshot();
}

std::vector<SpanEvent> trace_snapshot() {
  std::vector<SpanEvent> out;
  detail::BufRegistry& r = detail::buf_registry();
  std::lock_guard<std::mutex> rlock(r.mu);
  for (const auto& buf : r.bufs) {
    std::lock_guard<std::mutex> lock(buf->mu);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

void clear_trace() {
  detail::BufRegistry& r = detail::buf_registry();
  std::lock_guard<std::mutex> rlock(r.mu);
  for (const auto& buf : r.bufs) {
    std::lock_guard<std::mutex> lock(buf->mu);
    buf->events.clear();
  }
}

int open_span_depth() { return detail::t_depth; }

std::string chrome_trace_json() {
  const std::vector<SpanEvent> events = trace_snapshot();
  std::ostringstream os;
  os.precision(15);  // default 6 sig figs truncates microsecond timestamps
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanEvent& e : events) {
    detail::append_json_event(os, e, first);
    first = false;
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

bool write_chrome_trace(const std::string& path) {
  const std::string text = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fputs(text.c_str(), f) >= 0;
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fflush(f) == 0 && ok;
  std::fclose(f);
  return ok;
}

}  // namespace tdg::obs
