#include "common/fault.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>

#include "common/check.h"
#include "obs/metrics.h"

namespace tdg::fault {

namespace detail {

std::atomic<int> g_armed{0};

namespace {

struct State {
  std::mutex mu;
  std::string site;
  long long trigger = 1;
  long long fires = 1;  // -1 = unlimited
  long long hits = 0;
  long long last_fired_hit = 0;  // for the injection message
};

State& state() {
  static State s;
  return s;
}

// Arm from the environment before main() so env-driven runs (the CI fault
// matrix) need no code changes. g_armed is constant-initialized, so the
// ordering with other static initializers is benign. A malformed spec stops
// the process: a fault-matrix row must never pass with nothing armed.
struct EnvInit {
  EnvInit() {
    if (const char* e = std::getenv("TDG_FAULT_INJECT")) {
      if (!arm_from_spec(e)) {
        std::fprintf(stderr,
                     "TDG_FAULT_INJECT='%s': expected site[:trigger[:fires]] "
                     "with trigger and fires positive integers (fires may "
                     "be *)\n",
                     e);
        std::exit(2);
      }
    }
  }
};
const EnvInit env_init;

}  // namespace

bool should_fire_slow(const char* site) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.site != site) return false;
  ++s.hits;
  const bool fire = s.hits >= s.trigger &&
                    (s.fires < 0 || s.hits < s.trigger + s.fires);
  if (fire) {
    s.last_fired_hit = s.hits;
    // Always-on by design: injected-fault telemetry must be visible in
    // metrics snapshots even when the process never armed TDG_METRICS.
    static obs::Counter* const fires_counter =
        obs::Registry::global().counter("fault.fires", obs::Gating::kAlways);
    fires_counter->inc();
  }
  return fire;
}

}  // namespace detail

void maybe_inject(const char* site) {
  if (!should_fire(site)) return;
  long long hit = 0;
  {
    detail::State& s = detail::state();
    std::lock_guard<std::mutex> lock(s.mu);
    hit = s.last_fired_hit;
  }
  throw Error(ErrorCode::kFaultInjected,
              "tdg fault injected at site '" + std::string(site) + "' (hit " +
                  std::to_string(hit) + ")",
              {site, hit, -1});
}

void arm(const std::string& site, long long trigger, long long fires) {
  detail::State& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.site = site;
  s.trigger = trigger < 1 ? 1 : trigger;
  s.fires = fires;
  s.hits = 0;
  s.last_fired_hit = 0;
  detail::g_armed.store(site.empty() ? 0 : 1, std::memory_order_relaxed);
}

void disarm() {
  detail::State& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.site.clear();
  s.hits = 0;
  detail::g_armed.store(0, std::memory_order_relaxed);
}

bool arm_from_spec(const std::string& spec) {
  const auto first = spec.find(':');
  const std::string site = spec.substr(0, first);
  const auto positive = [](const std::string& s) {
    return parse_int(s, 1, std::numeric_limits<long long>::max());
  };
  std::optional<long long> trigger = 1;
  std::optional<long long> fires = 1;
  if (first != std::string::npos) {
    const auto second = spec.find(':', first + 1);
    trigger = positive(spec.substr(first + 1, second == std::string::npos
                                                  ? std::string::npos
                                                  : second - first - 1));
    if (second != std::string::npos) {
      const std::string fires_s = spec.substr(second + 1);
      fires = fires_s == "*" ? -1 : positive(fires_s);
    }
  }
  if (site.empty() || !trigger || !fires) {
    disarm();
    return false;
  }
  arm(site, *trigger, *fires);
  return true;
}

long long hits() {
  detail::State& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.site.empty() ? 0 : s.hits;
}

}  // namespace tdg::fault
