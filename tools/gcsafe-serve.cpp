//===- tools/gcsafe-serve.cpp - The persistent compile service -----------===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
// A daemon in front of serve::CompileService (docs/SERVING.md): requests
// are line-delimited gcsafe-serve-v1 JSON documents, responses come back
// one line each in request order. Two transports:
//
//   gcsafe-serve --socket=/tmp/gcsafe.sock      # unix-socket daemon
//   gcsafe-serve --once < requests.ndjson       # stdin/stdout, for tests
//
// Compile state is per-request (driver/Request.h); the only cross-request
// state is the content-addressed response cache and the per-function
// verification memo, both keyed purely on content.
//
// The daemon is hardened for hostile and overloaded traffic
// (docs/SERVING.md §"Operating under load"): the submit queue is bounded
// (--queue-max, shed requests get typed "overloaded" responses), requests
// can carry deadlines (deadline_ms, with a daemon-side guard so even a
// wedged compile answers), --isolate forks each compile into a sandbox so
// a crash costs one request, connections have read/write timeouts and a
// max request size, finished connection threads are reaped, and "health"/
// "drain" ops let a supervisor probe readiness and retire the daemon
// gracefully.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "support/ExitCodes.h"
#include "support/Interleave.h"
#include "support/RankedMutex.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace gcsafe;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gcsafe-serve (--socket=PATH | --once) [options]\n"
      "  --socket=PATH       listen for connections on a unix socket;\n"
      "                      one gcsafe-serve-v1 JSON request per line,\n"
      "                      one response line each, in request order\n"
      "  --once              serve a single batch: read requests from\n"
      "                      stdin until EOF, write responses to stdout\n"
      "                      in input order, exit\n"
      "  --workers=N         compile worker threads (default 4)\n"
      "  --cache-max=N       response-cache entry cap (default 1024)\n"
      "  --no-cache          disable the content-addressed response cache\n"
      "                      (requests may still opt out individually\n"
      "                      with \"cache\": false)\n"
      "  --queue-max=N       admission control: shed compile requests\n"
      "                      with a typed \"overloaded\" response once N\n"
      "                      are queued (default 256, 0 = unbounded)\n"
      "  --store-dir=DIR     back the response cache with a crash-safe\n"
      "                      on-disk store under DIR/gcsafe-store-v1/:\n"
      "                      entries are written atomically (temp+fsync+\n"
      "                      rename), carry a checksummed, fingerprinted\n"
      "                      envelope, and are scrubbed on startup —\n"
      "                      anything torn, truncated, bit-flipped or\n"
      "                      written by a different build is quarantined,\n"
      "                      never replayed; persistent IO errors degrade\n"
      "                      the daemon to memory-only caching\n"
      "                      (docs/SERVING.md \"Durability & restart\")\n"
      "  --isolate           run each compile in a forked sandbox: a\n"
      "                      crashing compile costs one request, not the\n"
      "                      daemon; crashes retry one degradation-ladder\n"
      "                      rung lower (docs/ROBUSTNESS.md §8)\n"
      "  --isolate-timeout=MS  per-sandbox wall timeout under --isolate\n"
      "                      (SIGKILL past it; default 30000, 0 = none)\n"
      "  --isolate-retries=N crash retries per request under --isolate,\n"
      "                      each one rung lower (default 1)\n"
      "  --read-timeout=MS   per-connection socket read timeout; an idle\n"
      "                      or half-closed client is dropped (default\n"
      "                      30000, 0 = none)\n"
      "  --write-timeout=MS  per-connection socket write timeout (default\n"
      "                      30000, 0 = none)\n"
      "  --max-request=BYTES drop a connection whose buffered request\n"
      "                      line exceeds this, after answering with a\n"
      "                      protocol error (default 4194304)\n"
      "  --fail-inject=SEED:SPEC  arm the *service-wide* failpoints\n"
      "                      (serve.queue.full, serve.worker.crash,\n"
      "                      serve.conn.stall, store.write.short,\n"
      "                      store.write.enospc, store.read.eio,\n"
      "                      store.read.corrupt) for chaos testing;\n"
      "                      per-request fail_inject is separate\n"
      "  --flightrec-dir=DIR write a gcsafe-flightrec-v1 post-mortem dump\n"
      "                      (the event ring's last events, naming\n"
      "                      the victim request) into DIR for every\n"
      "                      \"crashed\" response, and install a fatal-\n"
      "                      signal handler that dumps the ring to\n"
      "                      DIR/flightrec-fatal.json; DIR must exist\n"
      "  --trace-chrome=FILE on exit, export the telemetry ring as Chrome\n"
      "                      trace_event JSON: one track per worker,\n"
      "                      per-request span trees keyed by request_id,\n"
      "                      with each compile's opt/gc/vm spans stitched\n"
      "                      under its request (docs/OBSERVABILITY.md §8)\n"
      "  --metrics-text      print the metrics snapshot (uptime, req/s,\n"
      "                      stage latency histograms) to stderr on exit\n"
      "                      as Prometheus-style text exposition\n"
      "  --stats             print the serve.* stats keys to stderr on\n"
      "                      exit (docs/SERVING.md)\n"
      "  --sched-seed=N      arm the deterministic schedule fuzzer: inject\n"
      "                      seeded preemptions (yields/sleeps) at the\n"
      "                      annotated interleave points so a failing\n"
      "                      thread schedule replays from its seed alone\n"
      "                      (docs/ANALYSIS.md; GCSAFE_SCHED_SEED works\n"
      "                      too, the flag wins)\n"
      "  --lockgraph=FILE    on exit, write the runtime lock-rank lint's\n"
      "                      observed acquisition graph as\n"
      "                      gcsafe-lockgraph-v1 JSON; validate with\n"
      "                      check_bench_json.py --lockgraph\n");
}

struct DaemonOptions {
  uint64_t ReadTimeoutMs = 30000;
  uint64_t WriteTimeoutMs = 30000;
  size_t MaxRequestBytes = 4u << 20;
};

/// Shared between the accept loop and the connection threads.
struct DaemonState {
  std::atomic<bool> Stop{false};
  std::atomic<bool> Drain{false};
  std::atomic<uint64_t> ActiveConns{0};
};

/// The response line of a compile request already submitted as \p F,
/// under the daemon-side deadline guard: even if the request wedged
/// somewhere no watchdog covers, the client gets a typed "deadline"
/// response within the budget plus a small grace.
std::string compileResponse(const serve::ServeRequest &Req,
                            std::future<serve::ServeResult> &F) {
  uint64_t DeadlineNs = Req.Compile.DeadlineNs, GraceNs = 500 * 1000000ull;
  serve::ServeResult R;
  if (DeadlineNs &&
      F.wait_for(std::chrono::nanoseconds(DeadlineNs + GraceNs)) !=
          std::future_status::ready) {
    R.Status = "deadline";
    R.ExitCode = support::ExitWatchdogTimeout;
    R.Error = "request exceeded its deadline (daemon guard)";
  } else {
    R = F.get();
  }
  // The daemon-guard result is built here, not by the service, so the
  // echoed id is whatever the client sent (possibly nothing).
  if (R.RequestId.empty())
    R.RequestId = Req.Compile.RequestId;
  return serve::renderCompileResponse(Req.Id, R);
}

/// Handles one already-parsed request against the service and returns
/// its response line. Compile requests run through the worker pool; the
/// rest answer inline. Sets \p Shutdown on a shutdown op, \p Drain on a
/// drain op.
std::string handleRequest(serve::CompileService &Svc,
                          const serve::ServeRequest &Req,
                          uint64_t ActiveConns, bool &Shutdown, bool &Drain) {
  switch (Req.Op) {
  case serve::ServeOp::Compile: {
    std::future<serve::ServeResult> F = Svc.submit(Req.Compile, Req.UseCache);
    return compileResponse(Req, F);
  }
  case serve::ServeOp::Stats:
    return serve::buildStatsResponse(Req.Id, Svc.statsSnapshot()).dump(0);
  case serve::ServeOp::Metrics:
    return serve::buildMetricsResponse(Req.Id, Svc.metricsSnapshot()).dump(0);
  case serve::ServeOp::Ping:
    return serve::buildAckResponse(Req.Id, "ping").dump(0);
  case serve::ServeOp::Health:
    return serve::buildHealthResponse(Req.Id, Svc.health(), ActiveConns)
        .dump(0);
  case serve::ServeOp::Drain:
    // Stop admitting first, then ack: a compile racing the drain gets a
    // typed "draining" result, never silently-dropped work.
    Svc.drain();
    Drain = true;
    return serve::buildAckResponse(Req.Id, "drain").dump(0);
  case serve::ServeOp::Shutdown:
    Shutdown = true;
    return serve::buildAckResponse(Req.Id, "shutdown").dump(0);
  }
  return serve::buildErrorResponse(Req.Id, "unreachable").dump(0);
}

/// --once: pipeline compile requests through the pool, then write every
/// response in input order. A stats or metrics request observes all
/// compiles that preceded it in the input (their futures are resolved
/// first).
int runOnce(serve::CompileService &Svc) {
  struct Pending {
    serve::ServeRequest Req;
    std::string Response;              ///< Set when answered at read time.
    std::future<serve::ServeResult> F; ///< Compiles only.
  };
  std::vector<Pending> Order;
  bool Shutdown = false;
  std::string Line;
  while (!Shutdown && std::getline(std::cin, Line)) {
    if (Line.empty())
      continue;
    Pending P;
    std::string Error;
    if (!serve::parseRequestLine(Line, P.Req, Error))
      P.Response = serve::buildErrorResponse(P.Req.Id, Error).dump(0);
    else if (P.Req.Op == serve::ServeOp::Health)
      // Readiness is a point-in-time property: answer with the state at
      // read time, not after the whole batch resolved.
      P.Response =
          serve::buildHealthResponse(P.Req.Id, Svc.health(), 0).dump(0);
    else if (P.Req.Op == serve::ServeOp::Compile)
      P.F = Svc.submit(P.Req.Compile, P.Req.UseCache);
    else if (P.Req.Op == serve::ServeOp::Drain ||
             P.Req.Op == serve::ServeOp::Shutdown) {
      if (P.Req.Op == serve::ServeOp::Drain)
        Svc.drain(); // queued compiles still finish; new ones are shed
      Shutdown = true; // stop reading; pending compiles still finish
    }
    Order.push_back(std::move(P));
  }
  for (Pending &P : Order) {
    bool Ignored = false;
    std::string Response =
        !P.Response.empty() ? std::move(P.Response)
        : P.Req.Op == serve::ServeOp::Compile
            ? compileResponse(P.Req, P.F)
            : handleRequest(Svc, P.Req, 0, Ignored, Ignored);
    Response.push_back('\n');
    std::fwrite(Response.data(), 1, Response.size(), stdout);
  }
  std::fflush(stdout);
  return support::ExitSuccess;
}

void setSocketTimeouts(int Fd, const DaemonOptions &DO) {
  auto Set = [Fd](int Opt, uint64_t Ms) {
    if (!Ms)
      return;
    timeval Tv{};
    Tv.tv_sec = static_cast<time_t>(Ms / 1000);
    Tv.tv_usec = static_cast<suseconds_t>((Ms % 1000) * 1000);
    setsockopt(Fd, SOL_SOCKET, Opt, &Tv, sizeof(Tv));
  };
  Set(SO_RCVTIMEO, DO.ReadTimeoutMs);
  Set(SO_SNDTIMEO, DO.WriteTimeoutMs);
}

/// Writes one response line, honoring the serve.conn.stall failpoint
/// (sleep before the write, so the socket write timeout and the client's
/// read path see a stalled daemon). False when the client is gone or the
/// write timed out.
bool writeResponse(serve::CompileService &Svc, int Fd, std::string Text) {
  if (Svc.injectFault("serve.conn.stall"))
    usleep(100000);
  Text.push_back('\n');
  size_t Off = 0;
  while (Off < Text.size()) {
    ssize_t W = write(Fd, Text.data() + Off, Text.size() - Off);
    if (W <= 0)
      return false;
    Off += static_cast<size_t>(W);
  }
  return true;
}

/// One connection: read lines, answer each in order. A read timeout, a
/// half-closed or vanished client, or an oversized request line ends the
/// connection; none of them touch the daemon. Sets the daemon-wide stop
/// and drain flags through \p State.
void serveConnection(serve::CompileService &Svc, int Fd,
                     const DaemonOptions &DO, DaemonState &State) {
  std::string Buffer;
  char Chunk[4096];
  // A line over the cap is answered once with a protocol error, then the
  // connection hangs up: a client streaming an unbounded line cannot hold
  // memory hostage. The newline can land in the same chunk that crossed
  // the cap, so a completed line gets the same rejection.
  auto Oversized = [&](size_t Bytes) {
    if (!DO.MaxRequestBytes || Bytes <= DO.MaxRequestBytes)
      return false;
    writeResponse(Svc, Fd,
                  serve::buildErrorResponse(
                      "", "request line exceeds " +
                              std::to_string(DO.MaxRequestBytes) + " bytes")
                      .dump(0));
    return true;
  };
  for (;;) {
    size_t NL;
    while ((NL = Buffer.find('\n')) == std::string::npos) {
      if (Oversized(Buffer.size()))
        return;
      ssize_t N = read(Fd, Chunk, sizeof(Chunk));
      if (N <= 0) // EOF, error, or SO_RCVTIMEO expiry (EAGAIN)
        return;
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    std::string Line = Buffer.substr(0, NL);
    Buffer.erase(0, NL + 1);
    if (Oversized(Line.size()))
      return;
    if (Line.empty())
      continue;
    serve::ServeRequest Req;
    std::string Error;
    std::string Response;
    bool Shutdown = false, Drain = false;
    if (!serve::parseRequestLine(Line, Req, Error))
      Response = serve::buildErrorResponse(Req.Id, Error).dump(0);
    else
      Response = handleRequest(Svc, Req, State.ActiveConns.load(), Shutdown,
                               Drain);
    bool Wrote = writeResponse(Svc, Fd, std::move(Response));
    if (Shutdown || Drain) {
      if (Drain)
        State.Drain.store(true);
      State.Stop.store(true);
      return;
    }
    if (!Wrote)
      return;
  }
}

int runDaemon(serve::CompileService &Svc, const std::string &SocketPath,
              const DaemonOptions &DO) {
  int ListenFd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    std::perror("gcsafe-serve: socket");
    return support::ExitError;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "gcsafe-serve: socket path too long\n");
    close(ListenFd);
    return support::ExitUsage;
  }
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);
  unlink(SocketPath.c_str()); // a stale socket from a dead daemon
  if (bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      listen(ListenFd, 64) < 0) {
    std::perror("gcsafe-serve: bind/listen");
    close(ListenFd);
    return support::ExitError;
  }
  std::fprintf(stderr, "gcsafe-serve: listening on %s (%u worker(s))\n",
               SocketPath.c_str(), Svc.options().Workers);

  DaemonState State;
  struct Conn {
    std::thread T;
    std::shared_ptr<std::atomic<bool>> Done;
  };
  std::vector<Conn> Connections;
  // Reap finished connection threads so a long-lived daemon does not
  // accumulate one joinable std::thread per connection ever accepted.
  auto Reap = [&Connections](bool JoinAll) {
    for (size_t I = 0; I < Connections.size();) {
      if (JoinAll || Connections[I].Done->load()) {
        Connections[I].T.join();
        Connections.erase(Connections.begin() + I);
      } else {
        ++I;
      }
    }
  };

  // Each connection thread records into the ring under its own worker
  // index, after the pool's 1..N: it answers memory hits at admission,
  // and one index per thread keeps each index's events in end order.
  uint32_t NextTrack = Svc.options().Workers + 1;
  while (!State.Stop.load()) {
    int Fd = accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (State.Stop.load())
        break;
      continue;
    }
    Reap(false);
    setSocketTimeouts(Fd, DO);
    auto Done = std::make_shared<std::atomic<bool>>(false);
    Conn C;
    C.Done = Done;
    C.T = std::thread([&Svc, &DO, &State, ListenFd, Fd, Done,
                       Track = NextTrack++] {
      support::setTraceWorker(Track);
      State.ActiveConns.fetch_add(1);
      serveConnection(Svc, Fd, DO, State);
      close(Fd);
      State.ActiveConns.fetch_sub(1);
      if (State.Stop.load())
        shutdown(ListenFd, SHUT_RDWR); // unblock accept()
      Done->store(true);
    });
    Connections.push_back(std::move(C));
  }
  Reap(true);
  if (State.Drain.load()) {
    // Graceful retirement: the service already sheds new work ("draining"
    // responses); wait for the queued requests to finish before exiting.
    Svc.waitIdle();
  }
  close(ListenFd);
  unlink(SocketPath.c_str());
  return support::ExitSuccess;
}

} // namespace

int main(int argc, char **argv) {
  serve::ServiceOptions SO;
  DaemonOptions DO;
  support::FaultInjector ServiceFaults;
  std::string SocketPath, ChromePath, LockGraphPath;
  bool Once = false, PrintStats = false, MetricsText = false;
  uint64_t SchedSeed = 0;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    const char *Rest = nullptr;
    if (driver::flagValue(Arg, "--socket", Rest)) {
      SocketPath = Rest;
    } else if (!std::strcmp(Arg, "--once")) {
      Once = true;
    } else if (driver::flagValue(Arg, "--workers", Rest)) {
      SO.Workers = static_cast<unsigned>(std::strtoul(Rest, nullptr, 10));
      if (!SO.Workers) {
        std::fprintf(stderr, "--workers must be positive\n");
        return support::ExitUsage;
      }
    } else if (driver::flagValue(Arg, "--cache-max", Rest)) {
      SO.CacheMaxEntries = std::strtoull(Rest, nullptr, 10);
      if (!SO.CacheMaxEntries) {
        std::fprintf(stderr, "--cache-max must be positive\n");
        return support::ExitUsage;
      }
    } else if (!std::strcmp(Arg, "--no-cache")) {
      SO.CacheEnabled = false;
    } else if (driver::flagValue(Arg, "--queue-max", Rest)) {
      SO.QueueMax = std::strtoull(Rest, nullptr, 10);
    } else if (driver::flagValue(Arg, "--store-dir", Rest)) {
      SO.StoreDir = Rest;
      if (SO.StoreDir.empty()) {
        std::fprintf(stderr, "--store-dir needs a directory\n");
        return support::ExitUsage;
      }
    } else if (!std::strcmp(Arg, "--isolate")) {
      SO.Isolate = true;
    } else if (driver::flagValue(Arg, "--isolate-timeout", Rest)) {
      SO.IsolateTimeoutMs = std::strtoull(Rest, nullptr, 10);
    } else if (driver::flagValue(Arg, "--isolate-retries", Rest)) {
      SO.IsolateRetries =
          static_cast<unsigned>(std::strtoul(Rest, nullptr, 10));
    } else if (driver::flagValue(Arg, "--read-timeout", Rest)) {
      DO.ReadTimeoutMs = std::strtoull(Rest, nullptr, 10);
    } else if (driver::flagValue(Arg, "--write-timeout", Rest)) {
      DO.WriteTimeoutMs = std::strtoull(Rest, nullptr, 10);
    } else if (driver::flagValue(Arg, "--max-request", Rest)) {
      DO.MaxRequestBytes = std::strtoull(Rest, nullptr, 10);
    } else if (driver::flagValue(Arg, "--fail-inject", Rest)) {
      std::string Error;
      if (!support::FaultInjector::parse(Rest, ServiceFaults, Error)) {
        std::fprintf(stderr, "bad --fail-inject spec: %s\n", Error.c_str());
        return support::ExitUsage;
      }
      SO.Faults = &ServiceFaults;
    } else if (driver::flagValue(Arg, "--flightrec-dir", Rest)) {
      SO.FlightDir = Rest;
    } else if (driver::flagValue(Arg, "--trace-chrome", Rest)) {
      ChromePath = Rest;
      // The per-request span tree is only interesting with the compiler's
      // own spans nested under it.
      SO.StitchTraces = true;
    } else if (!std::strcmp(Arg, "--metrics-text")) {
      MetricsText = true;
    } else if (!std::strcmp(Arg, "--stats")) {
      PrintStats = true;
    } else if (driver::flagValue(Arg, "--sched-seed", Rest)) {
      SchedSeed = std::strtoull(Rest, nullptr, 10);
      if (!SchedSeed) {
        std::fprintf(stderr, "--sched-seed must be positive\n");
        return support::ExitUsage;
      }
    } else if (driver::flagValue(Arg, "--lockgraph", Rest)) {
      LockGraphPath = Rest;
    } else if (!std::strcmp(Arg, "--help") || !std::strcmp(Arg, "-h")) {
      usage();
      return support::ExitSuccess;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Arg);
      usage();
      return support::ExitUsage;
    }
  }
  if (Once == !SocketPath.empty()) {
    std::fprintf(stderr,
                 "gcsafe-serve: exactly one of --socket=PATH or --once is "
                 "required\n");
    usage();
    return support::ExitUsage;
  }

  // Arm the schedule fuzzer before any worker thread exists so every
  // interleave point is covered from the first request.
  if (SchedSeed)
    support::ScheduleFuzzer::enable(SchedSeed);
  else
    support::ScheduleFuzzer::enableFromEnv();

  serve::CompileService Svc(SO);
  if (!SO.FlightDir.empty())
    // A fatal signal in the daemon itself (not an isolated child) leaves
    // a post-mortem too. Installed after the service exists; the service
    // outlives every worker, so the ring pointer stays valid.
    support::installFlightDump(Svc.ring(),
                               SO.FlightDir + "/flightrec-fatal.json");
  int Code = Once ? runOnce(Svc) : runDaemon(Svc, SocketPath, DO);
  if (PrintStats) {
    support::Stats S = Svc.statsSnapshot();
    for (const support::Stats::Entry &E : S.entries()) {
      if (E.K == support::Stats::Entry::Kind::Gauge)
        std::fprintf(stderr, "%s=%g\n", E.Path.c_str(), E.Gauge);
      else
        std::fprintf(stderr, "%s=%llu\n", E.Path.c_str(),
                     static_cast<unsigned long long>(E.Count));
    }
  }
  if (MetricsText)
    std::fputs(serve::metricsToPrometheus(Svc.metricsSnapshot()).c_str(),
               stderr);
  if (!ChromePath.empty()) {
    std::string Text = support::traceToChromeJson(Svc.ring()).dump(2);
    Text.push_back('\n');
    if (std::FILE *F = std::fopen(ChromePath.c_str(), "w")) {
      std::fwrite(Text.data(), 1, Text.size(), F);
      std::fclose(F);
    } else {
      std::fprintf(stderr, "gcsafe-serve: cannot write %s\n",
                   ChromePath.c_str());
    }
  }
  if (!LockGraphPath.empty() && !support::writeLockGraph(LockGraphPath))
    std::fprintf(stderr, "gcsafe-serve: cannot write %s\n",
                 LockGraphPath.c_str());
  return Code;
}
