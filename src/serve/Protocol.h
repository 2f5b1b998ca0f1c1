//===- serve/Protocol.h - The gcsafe-serve-v1 wire protocol ----*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Line-delimited JSON requests and responses (one compact JSON document
/// per line) for gcsafe-serve. The schema is documented normatively in
/// docs/SERVING.md §"The gcsafe-serve-v1 protocol"; this header is the
/// implementation.
///
/// Requests: {"op":"compile"|"stats"|"metrics"|"ping"|"health"|"drain"|
/// "shutdown", "id":..., and for compile the request payload
/// (name/source/mode/flags, optionally deadline_ms and a client
/// request_id)}. Responses always carry schema/id/op/ok; a compile
/// response adds request_id/cached/exit_code/rung/cache_key and the
/// embedded reports, plus a "status" token when the service disposed of
/// the request without a normal compile (overloaded/deadline/crashed/
/// draining/shutdown). "metrics" answers with the gcsafe-metrics-v1
/// latency snapshot; "health" answers with a readiness snapshot; "drain"
/// asks the daemon to stop accepting and exit once idle.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SERVE_PROTOCOL_H
#define GCSAFE_SERVE_PROTOCOL_H

#include "serve/Service.h"

#include <string>

namespace gcsafe {
namespace serve {

enum class ServeOp {
  Compile,
  Stats,
  Metrics,
  Ping,
  Health,
  Drain,
  Shutdown,
};

/// One parsed request line.
struct ServeRequest {
  ServeOp Op = ServeOp::Compile;
  std::string Id;
  driver::RequestOptions Compile; ///< Valid when Op == Compile.
  bool UseCache = true;
};

/// Parses one request line into a fresh \p Out, compile knobs through
/// driver::parseRequestFields. False (with \p Error) on malformed JSON, an
/// unknown op or field value, or a compile without source.
bool parseRequestLine(const std::string &Line, ServeRequest &Out,
                      std::string &Error);

/// A compile response (Op == Compile). A cache hit is expanded from its
/// rendered bytes first; renderCompileResponse is the fast path.
support::Json buildCompileResponse(const std::string &Id,
                                   const ServeResult &R);
/// The compile response line, without the newline: for a result carrying
/// a rendered entry, the head (schema/id/op/ok/request_id/cached) spliced
/// onto the entry's bytes — no Json tree, no re-serialization; otherwise
/// buildCompileResponse(Id, R).dump(0). Both give the same bytes.
std::string renderCompileResponse(const std::string &Id,
                                  const ServeResult &R);
/// Renders \p R's response once, as a cache entry: the bytes of
/// buildCompileResponse(...).dump(0) from "exit_code" to the closing
/// brace (cache_key included, so R.CacheKey must be set), plus Ok,
/// ExitCode and Degraded.
CacheEntryPtr renderCacheEntry(const ServeResult &R);
/// Fills a cache hit's Rung, Quarantined, Status, Error, Report and Lint
/// by parsing its rendered bytes; a no-op on any other result.
void expandCached(ServeResult &R);
/// Writes \p R's fields from "exit_code" through "lint" into \p J, a
/// cache hit expanded first; the compile response and the store payload
/// both render them here. \p WithCacheKey adds "cache_key" after
/// "quarantined", where a compile response carries it.
void writeResultFields(const ServeResult &R, bool WithCacheKey,
                       support::Json &J);
/// A stats response: the serve.* keys nested as a JSON tree.
support::Json buildStatsResponse(const std::string &Id,
                                 const support::Stats &S);
/// A metrics response: the embedded gcsafe-metrics-v1 snapshot
/// (CompileService::metricsSnapshot).
support::Json buildMetricsResponse(const std::string &Id,
                                   const support::Json &Metrics);
/// ping/drain/shutdown acknowledgements.
support::Json buildAckResponse(const std::string &Id, const char *Op);
/// A health response: the service readiness snapshot plus the daemon's
/// live connection count (pass 0 outside the socket transport).
support::Json buildHealthResponse(const std::string &Id,
                                  const ServiceHealth &H,
                                  uint64_t Connections);
/// A protocol-level error response (request never reached the service).
support::Json buildErrorResponse(const std::string &Id,
                                 const std::string &Error);

} // namespace serve
} // namespace gcsafe

#endif // GCSAFE_SERVE_PROTOCOL_H
