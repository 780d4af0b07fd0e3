#include "serve/wire.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "obs/metrics.h"

namespace tdg::serve::wire {

namespace {

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// key=value field accessor over the tokenized line (first token is the
/// verb). Returns false when the key is absent.
bool field(const std::vector<std::string>& toks, const std::string& key,
           std::string* out) {
  const std::string prefix = key + "=";
  for (std::size_t i = 1; i < toks.size(); ++i) {
    if (toks[i].rfind(prefix, 0) == 0) {
      *out = toks[i].substr(prefix.size());
      return true;
    }
  }
  return false;
}

bool to_ll(const std::string& s, long long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool to_double(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

ParsedRequest bad(const std::string& why) {
  ParsedRequest p;
  p.kind = ParsedRequest::kBad;
  p.error = why;
  return p;
}

}  // namespace

ParsedRequest parse_line(const std::string& line) {
  const std::vector<std::string> toks = split_ws(line);
  if (toks.empty()) return bad("empty line");
  const std::string& verb = toks[0];
  ParsedRequest p;
  if (verb == "stats") {
    p.kind = ParsedRequest::kStats;
    return p;
  }
  if (verb == "metrics") {
    p.kind = ParsedRequest::kMetrics;
    return p;
  }
  if (verb == "drain") {
    p.kind = ParsedRequest::kDrain;
    return p;
  }
  if (verb == "quit") {
    p.kind = ParsedRequest::kQuit;
    return p;
  }
  if (verb != "solve") return bad("unknown verb '" + verb + "'");

  // Strict field vocabulary: an unknown (or malformed) token is a parse
  // error, never a silent no-op — a client typo'ing "vectros=0" must hear
  // about it instead of paying for an unwanted vectors solve.
  static const char* const kSolveFields[] = {
      "id", "n", "seed", "vectors", "degrade", "deadline_ms", "mode", "prec"};
  for (std::size_t i = 1; i < toks.size(); ++i) {
    const std::size_t eq = toks[i].find('=');
    if (eq == std::string::npos || eq == 0) {
      return bad("malformed field '" + toks[i] + "' (expected key=value)");
    }
    const std::string key = toks[i].substr(0, eq);
    bool known = false;
    for (const char* f : kSolveFields) known = known || key == f;
    if (!known) return bad("unknown field '" + key + "'");
  }

  p.kind = ParsedRequest::kSolve;
  std::string v;
  long long ll = 0;
  if (field(toks, "id", &v)) {
    if (!to_ll(v, &ll)) return bad("bad id");
    p.id = ll;
  }
  if (!field(toks, "n", &v) || !to_ll(v, &ll) || ll < 1) {
    return bad("solve requires n=<positive dim>");
  }
  p.n = static_cast<index_t>(ll);
  if (field(toks, "seed", &v)) {
    if (!to_ll(v, &ll) || ll < 0) return bad("bad seed");
    p.seed = static_cast<unsigned long long>(ll);
  }
  if (field(toks, "vectors", &v)) {
    if (!to_ll(v, &ll) || (ll != 0 && ll != 1)) return bad("bad vectors");
    p.opts.vectors = ll == 1;
  }
  if (field(toks, "degrade", &v)) {
    if (!to_ll(v, &ll) || (ll != 0 && ll != 1)) return bad("bad degrade");
    p.opts.allow_degraded = ll == 1;
  }
  if (field(toks, "deadline_ms", &v)) {
    double d = 0.0;
    if (!to_double(v, &d) || d < 0.0) return bad("bad deadline_ms");
    p.opts.deadline_ms = d;
  }
  bool mode_set = false;
  if (field(toks, "mode", &v)) {
    if (v == "standard") {
      p.opts.mode = plan::EvdMode::kStandard;
    } else if (v == "values") {
      p.opts.mode = plan::EvdMode::kValuesOnly;
    } else if (v == "mixed") {
      p.opts.mode = plan::EvdMode::kMixedPrecision;
    } else {
      return bad("bad mode (standard|values|mixed)");
    }
    mode_set = true;
  }
  if (field(toks, "prec", &v)) {
    // The precision-axis spelling: fp32 = mode=mixed. Tolerated alongside
    // an explicit mode= only when the two agree.
    if (v == "fp32") {
      if (mode_set && p.opts.mode != plan::EvdMode::kMixedPrecision) {
        return bad("prec=fp32 conflicts with mode");
      }
      p.opts.mode = plan::EvdMode::kMixedPrecision;
    } else if (v == "fp64") {
      if (mode_set && p.opts.mode == plan::EvdMode::kMixedPrecision) {
        return bad("prec=fp64 conflicts with mode=mixed");
      }
    } else {
      return bad("bad prec (fp64|fp32)");
    }
  }
  return p;
}

std::string format_response(long long id, const Response& r) {
  char buf[256];
  if (r.outcome == Outcome::kCompleted || r.outcome == Outcome::kDegraded) {
    double w_min = 0.0, w_max = 0.0;
    if (!r.result.eigenvalues.empty()) {
      const auto [lo, hi] = std::minmax_element(r.result.eigenvalues.begin(),
                                                r.result.eigenvalues.end());
      w_min = *lo;
      w_max = *hi;
    }
    std::snprintf(buf, sizeof(buf),
                  "ok id=%lld req=%lld outcome=%s mode=%s n=%lld "
                  "w_min=%.17g w_max=%.17g queue_ms=%.3f solve_ms=%.3f "
                  "retries=%d",
                  id, r.request_id, to_string(r.outcome),
                  plan::to_string(r.mode),
                  static_cast<long long>(r.result.eigenvalues.size()), w_min,
                  w_max, r.queue_ms, r.solve_ms, r.retries);
    return buf;
  }
  std::string msg = r.message;
  std::replace(msg.begin(), msg.end(), '"', '\'');
  std::snprintf(buf, sizeof(buf), "err id=%lld req=%lld outcome=%s code=%s "
                "msg=\"", id, r.request_id, to_string(r.outcome),
                to_string(r.code));
  return std::string(buf) + msg + "\"";
}

std::string format_stats(const ServeStats& s) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "stats {\"submitted\":%lld,\"admitted\":%lld,\"rejected\":%lld,"
      "\"completed\":%lld,\"degraded\":%lld,\"failed\":%lld,"
      "\"retries\":%lld,\"breaker_trips\":%lld,\"batches\":%lld,"
      "\"deadline_failures\":%lld,\"queue_depth\":%lld,"
      "\"queue_depth_hwm\":%lld,\"p50_ms\":%.3f,\"p95_ms\":%.3f,"
      "\"p99_ms\":%.3f,\"accounted\":%s}",
      s.submitted, s.admitted, s.rejected, s.completed, s.degraded, s.failed,
      s.retries, s.breaker_trips, s.batches, s.deadline_failures,
      s.queue_depth, s.queue_depth_hwm, s.p50_ms, s.p95_ms, s.p99_ms,
      s.accounted() ? "true" : "false");
  return buf;
}

std::string format_metrics() {
  return obs::Registry::global().openmetrics_text();
}

}  // namespace tdg::serve::wire
