//===- perfbench/Runs.h - The two kinds of benchmark run -------*- C++ -*-===//
//
// Part of the gcsafe benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serveRun drives a real gcsafe-serve daemon over its unix socket, the
/// way a client does, and measures what that client sees. traceRun pushes
/// the same generated requests through each layer's public functions
/// in-process, with spans recorded around every call, and measures where
/// the time goes. Both return one JSON summary.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RUNS_H
#define PERFBENCH_RUNS_H

#include "Workload.h"

#include <string>
#include <vector>

namespace perfbench {

/// gcsafe-serve --cache-max for every run (and the traced run's cache).
/// Small enough that cold workloads fill it early in the window, so peak
/// RSS measures a full cache plus the per-request working set, not how
/// many requests happened to fit in the window.
constexpr unsigned CacheMaxEntries = 64;

struct ServeOptions {
  std::string DaemonBin;   ///< Absolute path of gcsafe-serve.
  std::string WorkDir;     ///< Private directory for sockets and logs.
  unsigned Workers = 2;    ///< gcsafe-serve --workers.
  unsigned Connections = 2; ///< Closed-loop client connections.
  unsigned Setups = 5;     ///< Daemon launches; setup_s is their median.
  double Seconds = 10;     ///< Length of the timed window.
};

/// End-to-end run: throughput, latency percentiles, daemon CPU and peak
/// RSS over the timed window, setup time, and the correctness verdict.
gcsafe::support::Json serveRun(const Generator &Gen, const Oracle &Expected,
                               const ServeOptions &Opts);

struct TraceOptions {
  double Seconds = 5;
  /// Median latency of the untraced daemon run, for trace.coverage_ratio.
  double UntracedLatencyMs = 0;
  /// Daemon queue-wait p50 from that run (reported as serve.*).
  double QueueWaitP50Us = 0;
  std::string SpanFile; ///< Where the recorded spans are written.
};

/// Traced run: per-layer metrics ("metrics" object) and the verdict.
gcsafe::support::Json traceRun(const Generator &Gen, const Oracle &Expected,
                               const TraceOptions &Opts);

/// Linear-interpolated percentile (0..100) of \p Sorted; 0 when empty.
double percentile(const std::vector<double> &Sorted, double P);

} // namespace perfbench

#endif // PERFBENCH_RUNS_H
