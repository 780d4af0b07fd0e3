#include "common/task_graph.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <string>

#include "common/cancel.h"
#include "common/check.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace tdg::graph {

namespace {

/// Registry metrics, resolved once (the PoolMetrics pattern). All gated:
/// one relaxed load per inc when disarmed.
struct GraphMetrics {
  obs::Counter* runs;
  obs::Counter* nodes_run;
  obs::Counter* nodes_cancelled;
  obs::Counter* busy_us;
  obs::Counter* overlap_us;
  obs::Counter* idle_us;
  obs::Counter* stalls;
  obs::Gauge* ready_depth_hwm;

  static GraphMetrics& get() {
    static GraphMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return GraphMetrics{r.counter("taskgraph.runs"),
                          r.counter("taskgraph.nodes_run"),
                          r.counter("taskgraph.nodes_cancelled"),
                          r.counter("taskgraph.busy_us"),
                          r.counter("taskgraph.overlap_us"),
                          r.counter("taskgraph.idle_us"),
                          r.counter("taskgraph.stalls", obs::Gating::kAlways),
                          r.gauge("taskgraph.ready_depth_hwm")};
    }();
    return m;
  }
};

}  // namespace

struct TaskGraph::State {
  struct Node {
    const char* name;
    NodeClass cls;
    std::function<void()> body;
    std::vector<int> succ;
    int pending = 0;
    bool finished = false;  // executed or cancelled (stall diagnostics)
  };

  std::mutex mu;
  std::condition_variable cv;  // driver waits here for readiness / drain
  // Ambient request context of the thread that called run(); installed
  // around every node body so spans recorded on pool workers are attributed
  // to the owning request even when the pool interleaves graphs.
  obs::TraceContext ctx{};
  std::vector<Node> nodes;
  std::deque<int> ready_driver;
  std::deque<int> ready_pooled;
  int done = 0;
  int in_flight = 0;
  bool failed = false;
  std::exception_ptr error;  // first failure, guarded by mu

  // Schedule accounting (guarded by mu). busy/overlap integrate the
  // in-flight count over wall time at node-transition granularity.
  long long nodes_run = 0;
  long long nodes_cancelled = 0;
  long long ready_hwm = 0;
  double busy_us = 0.0;
  double overlap_us = 0.0;
  double idle_us = 0.0;
  double last_ts = 0.0;

  void account_locked(double now) {
    if (in_flight >= 1) {
      const double dt = now - last_ts;
      busy_us += dt;
      if (in_flight >= 2) overlap_us += dt;
    }
    last_ts = now;
  }

  void note_ready_depth_locked() {
    const long long depth =
        static_cast<long long>(ready_driver.size() + ready_pooled.size());
    ready_hwm = std::max(ready_hwm, depth);
  }
};

namespace {

/// Execute (or cancel) one node and release its successors. Returns the
/// number of pooled nodes that became ready, so the caller can post that
/// many pool runners (parallel mode only).
int execute_node(const std::shared_ptr<TaskGraph::State>& st, int id) {
  TaskGraph::State::Node& nd = st->nodes[static_cast<size_t>(id)];

  bool cancelled;
  {
    std::lock_guard<std::mutex> lk(st->mu);
    cancelled = st->failed;
    if (!cancelled) {
      st->account_locked(obs::now_us());
      ++st->in_flight;
    }
  }

  if (!cancelled) {
    try {
      obs::ContextScope ctx_scope(st->ctx);
      fault::maybe_inject("taskgraph_node");
      obs::Span span(nd.name);
      span.attr("node", id);
      nd.body();
    } catch (...) {
      std::lock_guard<std::mutex> lk(st->mu);
      if (!st->error) st->error = std::current_exception();
      st->failed = true;
    }
  }

  int new_pooled = 0;
  {
    std::lock_guard<std::mutex> lk(st->mu);
    st->account_locked(obs::now_us());
    if (cancelled) {
      ++st->nodes_cancelled;
    } else {
      --st->in_flight;
      ++st->nodes_run;
    }
    nd.finished = true;
    ++st->done;
    for (const int s : nd.succ) {
      TaskGraph::State::Node& snd = st->nodes[static_cast<size_t>(s)];
      if (--snd.pending == 0) {
        if (snd.cls == NodeClass::kDriver) {
          st->ready_driver.push_back(s);
        } else {
          st->ready_pooled.push_back(s);
          ++new_pooled;
        }
      }
    }
    st->note_ready_depth_locked();
    st->cv.notify_all();
  }
  return new_pooled;
}

/// One posted pool task: claim at most one pooled node. The driver may have
/// raced it to the queue — an empty pop is a benign no-op, which also makes
/// a runner that fires after run() returned harmless (the shared state
/// outlives it; the queues are empty).
void run_one_pooled(const std::shared_ptr<TaskGraph::State>& st);

void post_runners(const std::shared_ptr<TaskGraph::State>& st, int count) {
  for (int i = 0; i < count; ++i) {
    ThreadPool::global().post([st] { run_one_pooled(st); });
  }
}

void run_one_pooled(const std::shared_ptr<TaskGraph::State>& st) {
  int id;
  {
    std::lock_guard<std::mutex> lk(st->mu);
    if (st->ready_pooled.empty()) return;
    id = st->ready_pooled.front();
    st->ready_pooled.pop_front();
  }
  post_runners(st, execute_node(st, id));
}

}  // namespace

TaskGraph::TaskGraph() : st_(std::make_shared<State>()) {}

TaskGraph::~TaskGraph() = default;

TaskGraph::NodeId TaskGraph::add(const char* name, NodeClass cls,
                                 std::function<void()> body,
                                 const std::vector<NodeId>& deps) {
  TDG_CHECK(!ran_, "task_graph: add() after run()");
  TDG_CHECK(body != nullptr, "task_graph: node body must be callable");
  const int id = static_cast<int>(st_->nodes.size());
  State::Node nd;
  nd.name = name;
  nd.cls = cls;
  nd.body = std::move(body);
  for (const NodeId d : deps) {
    TDG_CHECK(d >= 0 && d < id, "task_graph: dependency must be an earlier node");
  }
  st_->nodes.push_back(std::move(nd));
  // Dedup edges so a node listed twice in deps still releases correctly.
  std::vector<NodeId> uniq(deps);
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  for (const NodeId d : uniq) {
    st_->nodes[static_cast<size_t>(d)].succ.push_back(id);
    ++st_->nodes[static_cast<size_t>(id)].pending;
  }
  return id;
}

int TaskGraph::size() const { return static_cast<int>(st_->nodes.size()); }

TaskGraph::Stats TaskGraph::run() {
  TDG_CHECK(!ran_, "task_graph: run() may be called once");
  ran_ = true;
  const std::shared_ptr<State> st = st_;
  const int total = static_cast<int>(st->nodes.size());

  // Serial fallback: the deterministic ascending-id topological order. Also
  // taken for re-entrant runs (a graph launched from inside a pool task
  // must not block a worker on the pool's own queue).
  const int budget = current_threads();
  const bool serial = total == 0 || budget <= 1 || in_pool_task();
  // Read before any node is posted: a malformed TDG_SPIN_TIMEOUT_MS throws,
  // and a throw from the drain loop would unwind the caller's buffers under
  // running pooled nodes.
  const int stall_ms =
      stall_timeout_ms_ >= 0 ? stall_timeout_ms_ : cancel::stall_timeout_ms();

  st->ctx = obs::current_context();

  int initial_pooled = 0;
  {
    std::lock_guard<std::mutex> lk(st->mu);
    st->last_ts = obs::now_us();
    for (int id = 0; id < total; ++id) {
      if (st->nodes[static_cast<size_t>(id)].pending == 0) {
        if (st->nodes[static_cast<size_t>(id)].cls == NodeClass::kDriver) {
          st->ready_driver.push_back(id);
        } else {
          st->ready_pooled.push_back(id);
          if (!serial) ++initial_pooled;
        }
      }
    }
    st->note_ready_depth_locked();
    TDG_CHECK(total == 0 ||
                  !st->ready_driver.empty() || !st->ready_pooled.empty(),
              "task_graph: no root nodes (dependency cycle?)");
  }

  if (serial) {
    // Pick the smallest ready id each step: a deterministic topological
    // order that matches node-insertion order for barrier-shaped graphs.
    while (true) {
      int id = -1;
      {
        std::lock_guard<std::mutex> lk(st->mu);
        if (st->done == total) break;
        for (const int c : st->ready_driver) id = id < 0 ? c : std::min(id, c);
        for (const int c : st->ready_pooled) id = id < 0 ? c : std::min(id, c);
        TDG_CHECK(id >= 0, "task_graph: stalled with no ready node");
        auto erase_from = [id](std::deque<int>& q) {
          const auto it = std::find(q.begin(), q.end(), id);
          if (it != q.end()) q.erase(it);
        };
        erase_from(st->ready_driver);
        erase_from(st->ready_pooled);
      }
      execute_node(st, id);
    }
  } else {
    ThreadPool::global().ensure_workers(budget - 1);
    post_runners(st, initial_pooled);

    // Driver loop: prefer driver-class nodes, help with pooled ones when no
    // driver node is ready, cv-wait when nothing is.
    std::unique_lock<std::mutex> lk(st->mu);
    while (st->done != total) {
      int id = -1;
      if (!st->ready_driver.empty()) {
        id = st->ready_driver.front();
        st->ready_driver.pop_front();
      } else if (!st->ready_pooled.empty()) {
        id = st->ready_pooled.front();
        st->ready_pooled.pop_front();
      }
      if (id >= 0) {
        lk.unlock();
        post_runners(st, execute_node(st, id));
        lk.lock();
        continue;
      }
      // Nothing ready: wait for a completion, bounded by the stall
      // deadline (the chase-gate TDG_SPIN_TIMEOUT_MS contract, satellite of
      // the no-hang guarantee). A full deadline window with zero node
      // completions means a worker never returned or a node can never
      // become ready — poison the graph (unstarted nodes cancel, never
      // execute) and surface a typed kPipelineStall naming the first
      // unfinished node instead of hanging the driver thread.
      const double t0 = obs::now_us();
      const long long before = st->done;
      const auto progressed = [&] {
        return st->done != before || !st->ready_driver.empty() ||
               !st->ready_pooled.empty();
      };
      if (stall_ms <= 0) {
        st->cv.wait(lk, progressed);
        st->idle_us += obs::now_us() - t0;
      } else if (!st->cv.wait_for(lk, std::chrono::milliseconds(stall_ms),
                                  progressed)) {
        st->idle_us += obs::now_us() - t0;
        int wedged = -1;
        const char* wedged_name = "";
        for (int i = 0; i < total; ++i) {
          if (!st->nodes[static_cast<size_t>(i)].finished) {
            wedged = i;
            wedged_name = st->nodes[static_cast<size_t>(i)].name;
            break;
          }
        }
        st->failed = true;  // cancel everything not yet started
        st->cv.notify_all();
        // Bounded drain before throwing: node bodies reference
        // caller-owned matrices and workspaces, so unwinding while one is
        // still executing would free memory under a live body (a
        // slow-but-alive node on an oversubscribed machine). Poisoning
        // makes unstarted nodes cancel quickly; give the bodies already
        // in flight one more deadline window to return. A body still
        // running after that is genuinely wedged and is abandoned — the
        // documented unrescuable case, named in the error.
        st->cv.wait_for(lk, std::chrono::milliseconds(stall_ms),
                        [&] { return st->in_flight == 0; });
        const int abandoned = st->in_flight;
        lk.unlock();
        GraphMetrics::get().stalls->inc();
        // Post-mortem: drop the stall into the flight recorder (tagged with
        // the graph's owning request) and dump every thread's recent events
        // so the wedged node and the request it was serving are on disk
        // before the throw unwinds the pipeline.
        obs::flight::record(obs::flight::EventKind::kError, "taskgraph.stall",
                            wedged, abandoned, st->ctx.request_id);
        obs::flight::dump("taskgraph stall: node " + std::to_string(wedged) +
                          " '" + wedged_name + "' (request " +
                          std::to_string(st->ctx.request_id) + ")");
        throw Error(ErrorCode::kPipelineStall,
                    "task_graph: drain made no progress for " +
                        std::to_string(stall_ms) +
                        " ms (TDG_SPIN_TIMEOUT_MS); first unfinished node " +
                        std::to_string(wedged) + " '" + wedged_name + "'" +
                        (abandoned > 0
                             ? "; " + std::to_string(abandoned) +
                                   " in-flight node bodies abandoned"
                             : ""),
                    {"task_graph", wedged, -1});
      } else {
        st->idle_us += obs::now_us() - t0;
      }
    }
  }

  {
    std::lock_guard<std::mutex> lk(st->mu);
    stats_.nodes_run = st->nodes_run;
    stats_.nodes_cancelled = st->nodes_cancelled;
    stats_.ready_depth_hwm = st->ready_hwm;
    stats_.busy_us = st->busy_us;
    stats_.overlap_us = st->overlap_us;
    stats_.idle_us = st->idle_us;
  }
  GraphMetrics& m = GraphMetrics::get();
  m.runs->inc();
  m.nodes_run->inc(stats_.nodes_run);
  m.nodes_cancelled->inc(stats_.nodes_cancelled);
  m.busy_us->inc(static_cast<long long>(stats_.busy_us));
  m.overlap_us->inc(static_cast<long long>(stats_.overlap_us));
  m.idle_us->inc(static_cast<long long>(stats_.idle_us));
  m.ready_depth_hwm->update_max(stats_.ready_depth_hwm);

  // Join point: done == total implies no node body is still executing, so
  // rethrowing the first captured failure is safe (the parallel_for
  // contract, at graph granularity). Moved out for the same TSan reason.
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lk(st->mu);
    e = std::move(st->error);
  }
  if (e) std::rethrow_exception(e);
  return stats_;
}

}  // namespace tdg::graph
