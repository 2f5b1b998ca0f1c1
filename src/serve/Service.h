//===- serve/Service.h - The in-process compile service --------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CompileService: a thread pool of compile workers in front of the
/// re-entrant driver (driver/Request.h), a content-addressed response
/// cache (serve/Cache.h) and a shared per-function verification memo.
/// Both gcsafe-serve (over a unix socket) and gcsafe-batch (in-process,
/// always under Isolate) sit on this class; docs/SERVING.md is the
/// architecture document.
///
/// Every request is keyed as received — build fingerprint, raw source and
/// canonical flags — before any frontend work: a cache hit never builds
/// a RequestContext, it splices the entry's pre-rendered bytes into its
/// response, and a memory hit is answered at admission on the submitting
/// thread without queueing. Only a miss gets a fresh RequestContext —
/// fault injector, self-heal ladder and quarantine set are all
/// request-private — so nothing a request degrades leaks into the next
/// one. The only cross-request state is deliberately shareable: the
/// response cache and the verify memo, both keyed purely on content.
///
/// Overload behavior (docs/SERVING.md §"Operating under load"): submit()
/// is admission-controlled — past QueueMax queued requests (or once the
/// service is draining or stopping) a request is *shed* with a typed
/// ServeResult instead of queueing unboundedly. A request may carry a
/// wall-clock deadline (RequestOptions::DeadlineNs): the remaining budget
/// is clamped into the pass/GC/VM watchdogs, a request that expires in
/// the queue never starts, and an expired result is never cached. With
/// ServiceOptions::Isolate each cache miss compiles in a forked sandbox
/// (driver/Isolate.h) so a crashing compile costs one request, not the
/// process; crashes retry one degradation-ladder rung lower.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SERVE_SERVICE_H
#define GCSAFE_SERVE_SERVICE_H

#include "driver/Request.h"
#include "serve/Cache.h"
#include "serve/Store.h"
#include "serve/Telemetry.h"
#include "support/Trace.h"
#include "support/RankedMutex.h"

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace gcsafe {
namespace serve {

struct ServiceOptions {
  unsigned Workers = 4;
  size_t CacheMaxEntries = 1024;
  bool CacheEnabled = true;
  /// Admission control: submit() sheds (typed "overloaded" result) once
  /// this many requests are queued. 0 = unbounded: gcsafe-batch admits
  /// its whole batch this way.
  size_t QueueMax = 256;
  /// Run each cache-missing compile in a forked sandbox: a SIGSEGV in
  /// the compiler costs that one request, and crashes retry one ladder
  /// rung lower (driver/Isolate.h). The only isolation and retry path:
  /// gcsafe-serve --isolate and every gcsafe-batch run use it.
  bool Isolate = false;
  /// Per-sandbox wall timeout under Isolate (SIGKILL past it; 0 = none).
  uint64_t IsolateTimeoutMs = 30000;
  /// Crash retries per request under Isolate, each one rung lower.
  unsigned IsolateRetries = 1;
  /// Optional *service-wide* failpoint injector (serve.queue.full,
  /// serve.worker.crash, serve.conn.stall). Unlike the per-request
  /// injectors it is shared across threads; the service serializes every
  /// consult behind a mutex. Must outlive the service. May be null.
  support::FaultInjector *Faults = nullptr;
  /// When non-empty, every request that ends "crashed" dumps the event
  /// ring to DIR/flightrec-<request_id>.json (gcsafe-flightrec-v1), so a
  /// post-mortem can read the victim's last events. The directory must
  /// exist. Empty = no dumps (the ring still records).
  std::string FlightDir;
  /// Let each in-process compile record its driver spans (cat
  /// "phase"/"pass"/"gc"/"vm") straight into the service ring, stamped
  /// with the request's trace id, so the Chrome export nests compiler
  /// internals under the request span. Off by default: an untraced
  /// compile records nothing (gcsafe-serve --trace-chrome turns it on).
  bool StitchTraces = false;
  /// When non-empty, a crash-safe on-disk response store (serve/Store.h)
  /// backs the in-memory cache under DIR/gcsafe-store-v1/: validated
  /// entries survive restarts, a startup scrub quarantines anything it
  /// cannot prove intact, and persistent IO errors degrade the store to
  /// memory-only without affecting service availability. Empty = memory
  /// cache only (the pre-durability behavior).
  std::string StoreDir;
};

/// One forked sandbox run under ServiceOptions::Isolate.
struct SandboxAttempt {
  std::string Rung; ///< The ladder rung the sandbox started at.
  /// "signal", "timeout" (SIGKILLed at the deadline), "crashed" (no
  /// result payload or no sandbox), or driver::outcomeForExit of the
  /// result the child reported.
  std::string Outcome;
  int ExitCode = 0;
  int Signal = 0;
  uint64_t DurationMs = 0;
};

/// One request's result as the service reports it: the driver outcome
/// plus the cache verdict.
struct ServeResult {
  bool Ok = false;
  bool Cached = false;
  int ExitCode = 0;
  bool Degraded = false;
  std::string Rung = "full";
  std::vector<std::string> Quarantined;
  std::string CacheKey; ///< Empty when the source failed to parse.
  /// The request's service-level identity: the client-supplied id, or one
  /// the service generated at admission. It is stamped on the result
  /// *after* any cache replay and lives in the response head, never in
  /// the cached bytes, which keeps warm and cold responses byte-identical.
  std::string RequestId;
  /// Service-level disposition, empty for a normally-executed request:
  /// "overloaded" (shed at admission), "draining"/"shutdown" (rejected
  /// by a stopping service), "deadline" (the request's wall-clock budget
  /// expired), "crashed" (an isolated worker died and retries ran out).
  /// Never set on a cached entry — these results are not cacheable.
  std::string Status;
  std::string Error;
  support::Json Report;
  bool HasReport = false;
  support::Json Lint;
  bool HasLint = false;
  /// The response rendered once (serve::renderCacheEntry): set on a cache
  /// hit and on the cold result that inserted the entry. A hit carries
  /// only Ok/ExitCode/Degraded/CacheKey/RequestId besides it — Rung,
  /// Quarantined, Status, Error, Report and Lint stay empty; the response
  /// line is spliced from these bytes (serve::renderCompileResponse), and
  /// an in-process reader parses them on demand (serve::expandCached).
  CacheEntryPtr Rendered;
  /// One record per forked sandbox, in order; filled only under
  /// ServiceOptions::Isolate (empty for a hit, a shed or an in-process
  /// compile). Never rendered into a response, the cache or the store.
  std::vector<SandboxAttempt> Attempts;
};

/// A point-in-time readiness snapshot (the protocol's "health" op).
struct ServiceHealth {
  bool Ready = false; ///< Accepting work: not draining/stopping, queue below max.
  unsigned Workers = 0;
  size_t QueueDepth = 0;
  size_t QueueMax = 0;
  bool Draining = false;
  bool Stopping = false;
  bool Isolate = false;
};

/// The canonical flag string entering the cache key, derived from the
/// request-field table (driver/Request.h).
using driver::canonicalFlagString;

/// Serialization of a ServeResult as the durable store's payload (and
/// back); a cache hit is expanded from its rendered bytes first.
support::Json serveResultToJson(const ServeResult &R);
bool serveResultFromJson(const support::Json &J, ServeResult &Out);

class CompileService {
public:
  explicit CompileService(ServiceOptions Opts = {});
  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;
  ~CompileService(); ///< stop(): drains the queue and joins the workers.

  /// Runs one request on the calling thread (cache consulted first).
  /// Admission control does not apply, but the request's DeadlineNs does
  /// (measured from this call).
  ServeResult compile(const driver::RequestOptions &Request,
                      bool UseCache = true);

  /// Admits one request. Admission-controlled: on a full queue — or a
  /// draining or stopped service — the returned future is already
  /// resolved to a typed shed result (Status "overloaded"/"draining"/
  /// "shutdown", exit code ExitOverloaded) instead of enqueueing work
  /// that would never run. Otherwise a memory-cache hit is answered on
  /// the calling thread (the future is ready on return) and a miss is
  /// enqueued for the worker pool.
  std::future<ServeResult> submit(driver::RequestOptions Request,
                                  bool UseCache = true);

  /// Stops admitting new requests; already-queued work still runs.
  /// waitIdle() then blocks until the queue and the workers are empty —
  /// the graceful-shutdown pair behind the protocol's "drain" op.
  void drain();
  void waitIdle();

  /// Idempotent: rejects new submits, lets the workers drain the queue,
  /// and joins them. The destructor calls it; a submit that observes the
  /// stopped service fails fast with a typed result rather than racing
  /// the teardown.
  void stop();

  /// Readiness for an external supervisor (the "health" op).
  ServiceHealth health() const;

  /// One consult of the service-wide failpoint injector (serialized; the
  /// injector itself is not thread-safe). False when no injector is
  /// configured. The daemon uses this for serve.conn.stall.
  bool injectFault(const std::string &Site) GCSAFE_EXCLUDES(FaultMu);

  /// The serve.* stats keys (docs/OBSERVABILITY.md §"serve").
  support::Stats statsSnapshot() const;

  /// The gcsafe-metrics-v1 snapshot behind the protocol's "metrics" op
  /// (docs/OBSERVABILITY.md §8): uptime, request rate, a *sampled* queue
  /// depth gauge, and per-stage latency histograms (queue_wait,
  /// cache_lookup, compile, isolate, e2e) with p50/p90/p99/max.
  support::Json metricsSnapshot() const;

  /// The daemon-wide lock-free event ring (support/Trace.h).
  const support::TraceBuffer &ring() const { return Flight; }

  const ServiceOptions &options() const { return Opts; }
  driver::VerifyMemo &verifyMemo() { return Memo; }
  ContentCache &cache() { return Cache; }
  /// The durable store, or null when ServiceOptions::StoreDir is empty.
  Store *store() { return Disk.get(); }
  /// The startup scrub's gcsafe-store-v1 report (null JSON when there is
  /// no store).
  const support::Json &scrubReport() const { return ScrubReport; }

private:
  void workerLoop() GCSAFE_EXCLUDES(QueueMu);
  /// Single-flight leadership of one cache key (membership in
  /// InFlight): destroying a held lease erases the key and wakes its
  /// waiters, so every exit path of the request holding it releases —
  /// a typed early return, a crash, an uncacheable result, or a queued
  /// task destroyed unrun.
  struct LeaseRelease {
    CompileService *Svc; // value-initialized (null) in an empty lease
    void operator()(const std::string *Key) const;
  };
  using FlightLease = std::unique_ptr<const std::string, LeaseRelease>;

  /// One admitted request: its ids, clocks and cache key, and what its
  /// admission probe (probeAndLead) found.
  struct Admission {
    driver::RequestOptions Request; ///< RequestId assigned.
    std::string TraceId, Key;
    /// Admission time (the queue-wait, end-to-end and deadline clocks
    /// start here) and the absolute monotonic expiry (0 = none).
    uint64_t SubmitNs = 0, DeadlineAtNs = 0;
    bool WantCache = false;
    /// The admission probe's span; both 0 when none was made.
    uint64_t ProbeStartNs = 0, ProbeEndNs = 0;
    CacheEntryPtr Hit; ///< The admission probe's entry on a hit.
    FlightLease Lease; ///< Taken on an admission miss.
  };

  /// The admission step shared by compile() and submit(): stamps the
  /// request's ids and clocks and derives its cache key.
  Admission admit(driver::RequestOptions Request, bool UseCache);
  /// When the request consults the cache and no request leads its key:
  /// its first memory probe and, on a miss, its single-flight lease, both
  /// under InFlightMu — a leader inserts before its release needs that
  /// lock, so the lease holder never has to probe again before it
  /// compiles. Behind a leader it does neither; the worker probes after
  /// the leader. submit() calls it under QueueMu, so leadership is taken
  /// in queue order.
  void probeAndLead(Admission &A) GCSAFE_EXCLUDES(InFlightMu);
  /// The one path that answers a cache hit: its result and all of its
  /// telemetry after the first probe's cache.lookup span (recorded where
  /// that probe was made). \p AtAdmission: the hit is the admission
  /// probe's, answered on the admitting thread, so this also opens the
  /// request (serve.requests, a zero-length queue.wait, request.begin);
  /// otherwise compileAt already did.
  ServeResult answerHit(const Admission &A, CacheEntryPtr Entry,
                        bool AtAdmission);
  /// Opens a request's telemetry: serve.requests, its queue.wait span
  /// and request.begin.
  void beginRequest(uint64_t SubmitNs, uint64_t BeginNs);
  /// Every exit path of a request funnels through this: the echoed
  /// request id, the response counters, the end-to-end histogram (its
  /// count therefore equals serve.requests exactly — the chaos harness
  /// asserts this), and the request.end marker.
  ServeResult finishRequest(const Admission &A, ServeResult R);

  /// The worker side of a request not answered at admission: cache lookup
  /// and store read-through (as \p A's lease holder or a waiter behind
  /// one), deadline bookkeeping, then — on a miss only — the frontend,
  /// in-process or sandboxed execution, and the cache insert.
  ServeResult compileAt(Admission A);
  /// One cache-missing compile under Opts.Isolate: forked sandbox,
  /// SIGKILL deadline, crash retries one rung lower, one Attempts record
  /// per sandbox. TraceId stamps the crash telemetry; a final "crashed"
  /// result dumps the event ring. The frontend runs only in the sandbox:
  /// \p Parsed is cleared when a sandbox reports that the source does not
  /// parse, and left alone when none lived to say.
  ServeResult isolatedCompile(const driver::RequestOptions &Request,
                              uint64_t DeadlineAtNs,
                              const std::string &TraceId, bool &Parsed);
  void countResult(const ServeResult &R);
  /// One serving stage from StartNs to EndNs: its histogram sample and
  /// its span in the ring.
  void stage(support::Histogram &H, const char *Name, uint64_t StartNs,
             uint64_t EndNs) GCSAFE_EXCLUDES(HistMu);
  /// Assigns Request.RequestId (when the client sent none) and returns
  /// the request's unique trace id: "<request_id>#<seq>". The sequence
  /// suffix is what keeps duplicate client-supplied ids distinguishable
  /// in traces while the echoed id stays exactly what the client sent.
  std::string assignRequestId(driver::RequestOptions &Request);

  ServiceOptions Opts;
  ContentCache Cache;
  /// Durable tier behind Cache (serve/Store.h); null without StoreDir.
  /// Thread-safe; its internal rank (serve.store) sits above every lock
  /// the service holds at a store call site, and the store never calls
  /// back into the service while holding it.
  std::unique_ptr<Store> Disk;
  support::Json ScrubReport; ///< Startup scrub result (null w/o store).
  driver::VerifyMemo Memo;
  const uint64_t StartNs; ///< Service birth; uptime/rate baseline.

  /// The service's one event ring: lock-free, safe to record from any
  /// worker and dump from a signal.
  static constexpr size_t FlightCapacity = 2048;
  support::TraceBuffer Flight;

  /// Per-stage latency histograms (support::Histogram is not
  /// thread-safe; every record/read goes through HistMu).
  mutable support::RankedMutex HistMu{support::LockRank::ServeHist,
                                      "serve.hist"};
  support::Histogram HistQueueWait GCSAFE_GUARDED_BY(HistMu),
      HistCacheLookup GCSAFE_GUARDED_BY(HistMu),
      HistCompile GCSAFE_GUARDED_BY(HistMu),
      HistIsolate GCSAFE_GUARDED_BY(HistMu),
      HistE2E GCSAFE_GUARDED_BY(HistMu);

  std::atomic<uint64_t> RequestSeq{0}; ///< Trace-id uniquifier.

  /// Serializes Opts.Faults consults (the injector is not thread-safe).
  mutable support::RankedMutex FaultMu{support::LockRank::ServeFault,
                                       "serve.faults"};

  std::atomic<uint64_t> Requests{0}, ResponsesOk{0}, ResponsesError{0},
      ResponsesDegraded{0};
  std::atomic<uint64_t> QueueShed{0}, DeadlineExpired{0};
  std::atomic<uint64_t> IsolateRequests{0}, IsolateCrashes{0},
      IsolateRetries{0}, IsolateTimeouts{0};

  /// Single-flight: cache keys a request leads. Leadership is taken at
  /// admission, in queue order (submit() holds QueueMu while it calls
  /// probeAndLead), so a waiter is never dequeued before its leader and
  /// pipelined "cold then warm" is deterministic. A same-key miss waits
  /// for the leader and replays its entry instead of duplicating the
  /// compile, which also keeps a thundering herd of identical requests
  /// from multiplying load under overload. A leader whose result turned
  /// out uncacheable wakes the waiters into re-electing at execution
  /// (tests/test_race.cpp forces that schedule deterministically).
  support::RankedMutex InFlightMu{support::LockRank::ServeInFlight,
                                  "serve.singleflight"};
  support::CondVar InFlightCv;
  std::set<std::string> InFlight GCSAFE_GUARDED_BY(InFlightMu);

  mutable support::RankedMutex QueueMu{support::LockRank::ServeQueue,
                                       "serve.queue"};
  support::CondVar QueueCv;
  support::CondVar IdleCv;
  std::deque<std::packaged_task<ServeResult()>> Queue GCSAFE_GUARDED_BY(QueueMu);
  size_t Active GCSAFE_GUARDED_BY(QueueMu) = 0; ///< Mid-execute requests.
  /// Sampled gauges mirroring Queue under QueueMu, readable lock-free by
  /// statsSnapshot()/metricsSnapshot()/health() — the snapshot paths
  /// never contend with admission (memory orders: store-release under
  /// the lock, load-acquire at the sample site; the pairing only orders
  /// the gauge against its own publication, nothing else is inferred).
  std::atomic<size_t> QueueDepth{0};
  std::atomic<size_t> QueuePeak{0};
  std::atomic<bool> Draining{false}; ///< Written under QueueMu.
  std::atomic<bool> Stopping{false}; ///< Written under QueueMu.
  std::vector<std::thread> Pool;
};

} // namespace serve
} // namespace gcsafe

#endif // GCSAFE_SERVE_SERVICE_H
