//===- serve/Telemetry.h - Metrics text exposition -------------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// metricsToPrometheus: text exposition of a gcsafe-metrics-v1 snapshot
/// (CompileService::metricsSnapshot) for scrape-style consumers
/// (docs/OBSERVABILITY.md §8). The service's event ring is
/// support::TraceBuffer (support/Trace.h).
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SERVE_TELEMETRY_H
#define GCSAFE_SERVE_TELEMETRY_H

#include "support/Stats.h"

#include <string>

namespace gcsafe {
namespace serve {

/// Prometheus-style text exposition of a gcsafe-metrics-v1 snapshot
/// (gcsafe-serve --metrics-text): counters/gauges as gcsafe_serve_*
/// lines, each histogram stage as _bucket/_sum/_count with le labels.
std::string metricsToPrometheus(const support::Json &Metrics);

} // namespace serve
} // namespace gcsafe

#endif // GCSAFE_SERVE_TELEMETRY_H
