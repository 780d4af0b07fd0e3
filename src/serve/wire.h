// Line protocol for the EVD service front end — parsing and formatting
// only, no I/O, so the protocol is unit-testable without sockets
// (tests/serve_test.cc) and reusable by any transport
// (examples/serve_main.cc wraps it in POSIX TCP).
//
// Requests, one per line, space-separated key=value fields after a verb:
//
//   solve id=<n> n=<dim> [vectors=0|1] [deadline_ms=<ms>] [degrade=0|1]
//         [seed=<u64>] [mode=standard|values|mixed] [prec=fp64|fp32]
//       Solve one synthetic symmetric problem: the matrix is generated
//       server-side from `seed` (la::random_symmetric, deterministic), so
//       the protocol stays line-oriented — a benchmarking/acceptance
//       front end, not a bulk-data plane. `mode` selects the execution
//       mode (plan::EvdMode); `prec=fp32` is the precision-axis spelling
//       of mode=mixed (the two may be combined only when they agree).
//       Unknown fields are REJECTED with a kBad parse diagnostic — the
//       protocol is strict, so a typo'd knob can never silently no-op.
//   stats    — one stats line
//   metrics  — the full metrics registry as OpenMetrics/Prometheus text
//   drain    — stop admitting, resolve everything queued, then ack
//   quit     — close this connection
//
// Responses, one line per request:
//
//   ok id=<n> req=<rid> outcome=completed|degraded mode=<effective> n=<dim>
//      w_min=<v> w_max=<v> queue_ms=<v> solve_ms=<v> retries=<k>
//   err id=<n> req=<rid> outcome=rejected|failed code=<error-code> msg="..."
//
// `mode` echoes the EFFECTIVE execution mode (standard|values|mixed): a
// degraded request reports values, and a mixed request that fell back to
// full FP64 (recovery fp32->fp64) reports standard. The
// framing — one space-separated line per resolution, key=value fields, ok/
// err discriminator first — is unchanged from the pre-mode protocol.
//   stats {...ServeStats as a JSON object...}
//   bye
//
// `req` is the server-minted request id (Response::request_id): the same
// id tags every trace span and flight-recorder event the request produced,
// so a wire client can join its responses against a Chrome-trace export.
// The metrics verb is the one multi-line response; its payload is
// terminated by the OpenMetrics "# EOF" line, which doubles as the
// protocol's framing sentinel (clients read lines until "# EOF").
#pragma once

#include <string>

#include "serve/serve.h"

namespace tdg::serve::wire {

/// A parsed request line.
struct ParsedRequest {
  enum Kind { kSolve, kStats, kMetrics, kDrain, kQuit, kBad };
  Kind kind = kBad;
  long long id = 0;                // client-chosen correlation id
  index_t n = 0;                   // problem size (kSolve)
  unsigned long long seed = 1;     // matrix-synthesis seed (kSolve)
  RequestOptions opts;             // vectors / deadline_ms / degrade
  std::string error;               // parse diagnostic (kBad)
};

/// Parse one request line (newline-free). Never throws; malformed input
/// yields kBad with a diagnostic.
ParsedRequest parse_line(const std::string& line);

/// Format a resolved response for request `id` (no trailing newline).
std::string format_response(long long id, const Response& r);

/// Format a stats line (no trailing newline).
std::string format_stats(const ServeStats& s);

/// The metrics-verb payload: the global registry rendered as OpenMetrics
/// text (obs::Registry::openmetrics_text), "# EOF"-terminated.
std::string format_metrics();

}  // namespace tdg::serve::wire
