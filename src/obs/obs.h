// Hierarchical phase spans — the tracing pillar of the observability layer.
//
// An obs::Span is an RAII scope that records one named interval (wall time,
// thread, nesting depth, a few integer attributes, optionally a flop
// credit) into a per-thread buffer. Instrumentation covers the whole
// pipeline: sy2sb/dbbr panels and their trailing syr2k updates, the
// band-to-band steps, each pipelined bulge-chase sweep (with its gate
// spin-wait time as an attribute), the tridiagonal solvers, and both
// back-transform stages. The recorded forest reconstructs a per-run span
// tree per thread: spans on one thread are properly nested by construction
// (RAII closes them in LIFO order, including through exceptions).
//
// Cost model (the tdg::fault contract): when tracing is disarmed, a span
// site costs exactly one relaxed atomic load — no clock read, no
// allocation, no buffer touch. Arm via the TDG_TRACE_JSON=<path>
// environment variable (read once at startup; a Chrome/Perfetto trace-event
// JSON file is written to <path> at process exit) or programmatically with
// arm_tracing() + write_chrome_trace(). Only spans that have CLOSED are
// exported; a span still open at snapshot time appears once it closes.
//
// The export loads directly into Perfetto / chrome://tracing: one complete
// event ("ph":"X") per span, microsecond timestamps relative to process
// start, span attributes under "args".
//
// Stage spans (Span(name, kStage)) are the only timer of a solve. While a
// SolveRecord is installed on the thread (RecordScope, the way trace::Scope
// and cancel::Scope install theirs), each appends its name, parent, seconds
// and — given an op trace — its slice of that trace. A stage span reads the
// clock only when a record is installed or tracing is armed.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tdg::trace {
class Recorder;
}  // namespace tdg::trace

namespace tdg::obs {

/// One stage of a solve as its stage span timed it; `children` are the
/// stages that opened inside it, in order.
struct Stage {
  std::string name;
  double seconds = 0.0;        // wall time (always)
  double flops = 0.0;          // with an op trace only, like the next two
  double gflops = 0.0;         // flops / seconds / 1e9
  double model_seconds = 0.0;  // gpumodel H100 projection (0 = not modeled)
  std::size_t ops_begin = 0;   // the stage's slice [ops_begin, ops_end) of
  std::size_t ops_end = 0;     // the op trace; children's slices nest inside
  std::vector<Stage> children;
};

/// The cost record of one solve: its top-level stages in the order they ran.
struct SolveRecord {
  std::vector<Stage> phases;

  /// Seconds summed over every stage named `name`, at any depth.
  double seconds(std::string_view name) const;
  /// Sums over the top-level stages: the solve's time and flops.
  double total_seconds() const;
  double total_flops() const;
};

/// RAII: installs `record` as this thread's solve record until the scope
/// ends; each stage keeps its slice of `ops` (optional), the op trace the
/// caller records the solve into. A null `record` shadows any outer one
/// (a planner pass inside a solve is not one of its stages).
class RecordScope {
 public:
  explicit RecordScope(SolveRecord* record,
                       const trace::Recorder* ops = nullptr);
  ~RecordScope();
  RecordScope(const RecordScope&) = delete;
  RecordScope& operator=(const RecordScope&) = delete;

 private:
  friend class Span;
  SolveRecord* record_;
  const trace::Recorder* ops_;
  Stage* open_ = nullptr;  // innermost open stage
  RecordScope* prev_;
};

namespace detail {
extern std::atomic<int> g_trace_armed;  // 0 = disarmed: the fast path
}  // namespace detail

/// Ambient request identity for the current thread. Minted once per serve
/// request at admission (next_request_id()) and carried across every
/// cross-thread handoff — thread-pool helper tasks, task-graph nodes,
/// batch slots (serve retries included) — by capturing current_context()
/// at dispatch and installing a ContextScope in the receiving task. Every
/// span closed while a context is installed is tagged with the request id,
/// so the Chrome-trace export reconstructs one end-to-end flow per request.
/// request_id 0 means "no ambient request" (library work outside serve).
struct TraceContext {
  long long request_id = 0;
  long long span_id = 0;  // reserved for parent-span linkage
};

/// The calling thread's ambient context ({0,0} when none installed).
TraceContext current_context();

/// Process-wide monotonically increasing request ids, starting at 1.
long long next_request_id();

/// RAII ambient-context install: saves the thread's current context,
/// installs `ctx`, restores on destruction (exception-safe). Cheap — two
/// thread-local copies, no atomics — so every cross-thread handoff can
/// afford one unconditionally.
class ContextScope {
 public:
  explicit ContextScope(TraceContext ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext prev_;
};

/// True when span collection is armed. One relaxed load — the entire
/// disarmed cost of a span site.
inline bool tracing_armed() {
  return detail::g_trace_armed.load(std::memory_order_relaxed) != 0;
}

void arm_tracing();
void disarm_tracing();

/// One closed span. Times are microseconds since an arbitrary process-wide
/// epoch (steady clock); tid is a small dense per-thread id; depth is the
/// span's nesting level on its thread (0 = top level).
struct SpanEvent {
  static constexpr int kMaxAttrs = 4;
  const char* name = "";  // string literal supplied at the span site
  double start_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  int depth = 0;
  int nattrs = 0;
  struct Attr {
    const char* key;  // string literal
    long long value;
  } attrs[kMaxAttrs] = {};
  double flops = 0.0;       // optional flop credit (0 = not recorded)
  long long request_id = 0;  // ambient TraceContext at begin (0 = none)
};

/// Marks a stage span: Span(name, kStage).
struct StageTag {};
inline constexpr StageTag kStage{};

/// RAII span. Inert (single relaxed load, nothing else) when tracing is
/// disarmed at construction; otherwise records a SpanEvent on destruction.
/// A stage span also appends itself to the thread's SolveRecord, if one is
/// installed, and is inert only when neither applies.
class Span {
 public:
  explicit Span(const char* name) {
    if (tracing_armed()) begin(name);
  }
  Span(const char* name, StageTag) { begin_stage(name); }
  ~Span() {
    if (active_ || stage_ != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach "key":value to the span (first kMaxAttrs stick). `key` must be
  /// a string literal. No-op when the span is inert.
  void attr(const char* key, long long value) {
    if (!active_ || ev_.nattrs >= SpanEvent::kMaxAttrs) return;
    ev_.attrs[ev_.nattrs++] = {key, value};
  }

  /// Credit FP64 flops to the span (shows up as "flops" in args).
  void add_flops(double f) {
    if (active_) ev_.flops += f;
  }

  bool active() const { return active_; }

 private:
  void begin(const char* name);
  void begin_stage(const char* name);
  void end();

  bool active_ = false;
  RecordScope* rec_ = nullptr;  // the record this stage appends to
  Stage* stage_ = nullptr;      // its node there (nullptr: none)
  Stage* parent_ = nullptr;     // the node open when it began
  SpanEvent ev_;
};

/// Microseconds since the process-wide trace epoch (for hand-timed
/// sub-intervals like gate waits that are attached as attributes).
double now_us();

/// Copy of every closed span recorded since the last clear_trace(), all
/// threads, in per-thread recording order.
std::vector<SpanEvent> trace_snapshot();

/// Drop all recorded spans (tests; also useful between benchmark reps).
void clear_trace();

/// Open-span depth on the calling thread — 0 means every Span constructed
/// here has been destroyed (balanced even across exceptions).
int open_span_depth();

/// Write the recorded spans as Chrome trace-event JSON. Returns false on
/// I/O failure. Safe mid-run while tracing stays armed: the snapshot copies
/// closed spans under the per-thread buffer locks without disarming, so
/// concurrent span sites are never lost and open spans appear on the next
/// snapshot.
bool write_chrome_trace(const std::string& path);

/// Serialize the recorded spans to the Chrome trace-event JSON text.
std::string chrome_trace_json();

// ---- mid-run snapshots ----------------------------------------------------
//
// A long-running service wants a trace *now*, not at process exit. The
// snapshot request is a single atomic flag (async-signal-safe: the SIGUSR1
// handler installed alongside TDG_TRACE_JSON just sets it), consumed on the
// next armed span close — the write happens on a normal thread, outside any
// buffer lock, while tracing stays armed (no disarm/re-arm race).

/// Destination for flag-triggered snapshots. Set automatically to the
/// TDG_TRACE_JSON path + ".snap.json" (a sibling file, so a mid-run
/// snapshot never clobbers the at-exit trace); tests may point it
/// elsewhere. Thread-safe.
void set_snapshot_path(const std::string& path);

/// Request a mid-run snapshot (what the SIGUSR1 handler does). The next
/// armed span close — or an explicit maybe_write_requested_snapshot() —
/// performs the write. Async-signal-safe.
void request_trace_snapshot();

/// If a snapshot was requested and a snapshot path is set, consume the
/// request and write the trace. Returns true when a file was written.
bool maybe_write_requested_snapshot();

}  // namespace tdg::obs
