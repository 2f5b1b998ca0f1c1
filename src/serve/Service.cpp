//===- serve/Service.cpp --------------------------------------*- C++ -*-===//

#include "serve/Service.h"

#include "driver/Isolate.h"
#include "serve/Protocol.h"
#include "support/ExitCodes.h"
#include "support/Hash.h"
#include "support/Interleave.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>

#include <unistd.h>

using namespace gcsafe;
using namespace gcsafe::serve;

support::Json gcsafe::serve::serveResultToJson(const ServeResult &Result) {
  support::Json J = support::Json::object();
  J["ok"] = support::Json::boolean(Result.Ok);
  writeResultFields(Result, /*WithCacheKey=*/false, J);
  return J;
}

bool gcsafe::serve::serveResultFromJson(const support::Json &J,
                                        ServeResult &Out) {
  if (!J.isObject() || !J.has("exit_code") || !J.has("ok"))
    return false;
  Out.Ok = J.get("ok")->asBool();
  Out.ExitCode = static_cast<int>(J.get("exit_code")->asInt());
  if (const support::Json *D = J.get("degraded"))
    Out.Degraded = D->asBool();
  if (const support::Json *R = J.get("rung"))
    Out.Rung = R->asString();
  if (const support::Json *Q = J.get("quarantined"))
    for (size_t I = 0; I < Q->size(); ++I)
      Out.Quarantined.push_back(Q->at(I).asString());
  if (const support::Json *S = J.get("status"))
    Out.Status = S->asString();
  if (const support::Json *E = J.get("error"))
    Out.Error = E->asString();
  if (const support::Json *R = J.get("report")) {
    Out.Report = *R;
    Out.HasReport = true;
  }
  if (const support::Json *L = J.get("lint")) {
    Out.Lint = *L;
    Out.HasLint = true;
  }
  return true;
}

namespace {

/// A request id reduced to filename-safe characters for the flight-dump
/// path (the client controls the id; it must not traverse directories).
std::string fsSafeId(const std::string &Rid) {
  std::string Out = Rid.empty() ? "unnamed" : Rid;
  for (char &C : Out)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '.' &&
        C != '_' && C != '-')
      C = '_';
  return Out;
}

/// The cache key of a request as received (docs/SERVING.md §3): the
/// build fingerprint, the raw source, the canonical flag string and the
/// request name, which the cached reports print as their "input". No
/// frontend runs — the annotator is a pure function of these, and the
/// fingerprint covers every source file of the build.
std::string requestKey(const driver::RequestOptions &R) {
  support::ContentHasher H(driver::keyFingerprint());
  H.update(R.Source);
  H.update(canonicalFlagString(R));
  H.update(R.Name);
  return H.hex();
}

/// A cache hit: the counted fields plus the entry's rendered bytes.
ServeResult hitResult(const std::string &Key, CacheEntryPtr E) {
  ServeResult R;
  R.Ok = E->Ok;
  R.ExitCode = E->ExitCode;
  R.Degraded = E->Degraded;
  R.Rung.clear(); // lives in the rendered bytes (expandCached)
  R.Cached = true;
  R.CacheKey = Key;
  R.Rendered = std::move(E);
  return R;
}

/// Lifts a driver outcome into the service's result shape.
ServeResult resultFromOutcome(driver::RequestOutcome &&Outcome) {
  ServeResult R;
  R.Ok = Outcome.Ok;
  R.ExitCode = Outcome.ExitCode;
  R.Degraded = Outcome.Degraded;
  R.Rung = Outcome.Rung;
  R.Quarantined = std::move(Outcome.Quarantined);
  R.Error = std::move(Outcome.Error);
  R.Report = std::move(Outcome.Report);
  R.HasReport = Outcome.HasReport;
  R.Lint = std::move(Outcome.Lint);
  R.HasLint = Outcome.HasLint;
  return R;
}

ServeResult typedResult(const char *Status, int ExitCode, std::string Error) {
  ServeResult R;
  R.Ok = false;
  R.Status = Status;
  R.ExitCode = ExitCode;
  R.Error = std::move(Error);
  return R;
}

/// Clamps every watchdog to the remaining wall budget, so a request with
/// a deadline cannot out-sleep it inside the VM or the GC.
void clampWatchdogs(driver::RequestOptions &O, uint64_t DeadlineAtNs) {
  if (!DeadlineAtNs)
    return;
  uint64_t Now = support::monotonicNowNs();
  uint64_t Remain = DeadlineAtNs > Now ? DeadlineAtNs - Now : 1;
  auto Clamp = [Remain](uint64_t &V) { V = V ? std::min(V, Remain) : Remain; };
  Clamp(O.VmDeadlineNs);
  Clamp(O.GcDeadlineNs);
  if (O.SelfHeal)
    Clamp(O.PassDeadlineNs);
}

} // namespace

CompileService::CompileService(ServiceOptions O)
    : Opts(O), Cache(O.CacheMaxEntries), StartNs(support::monotonicNowNs()),
      Flight(FlightCapacity) {
  if (!Opts.StoreDir.empty()) {
    Store::Options SO;
    SO.Dir = Opts.StoreDir;
    SO.Fingerprint = driver::keyFingerprint();
    SO.Inject = [this](const std::string &Site) { return injectFault(Site); };
    SO.Event = [this](const char *Stage, uint64_t Value) {
      Flight.emit("store", Stage, Value);
    };
    Disk.reset(new Store(std::move(SO)));
    // Scrub before the first worker can read: nothing unvalidated is
    // ever reachable from a request.
    ScrubReport = Disk->scrub();
  }
  unsigned N = Opts.Workers ? Opts.Workers : 1;
  Pool.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Pool.emplace_back([this, I] {
      support::setTraceWorker(I + 1); // 0 is reserved for caller threads.
      workerLoop();
    });
}

CompileService::~CompileService() { stop(); }

void CompileService::stop() {
  {
    support::RankedGuard Lock(QueueMu);
    if (Stopping.load(std::memory_order_relaxed))
      return;
    Stopping.store(true, std::memory_order_release);
  }
  QueueCv.notifyAll();
  for (std::thread &T : Pool)
    T.join();
}

void CompileService::drain() {
  {
    support::RankedGuard Lock(QueueMu);
    if (Draining.load(std::memory_order_relaxed))
      return;
    Draining.store(true, std::memory_order_release);
  }
  Flight.emit("serve", "service.drain");
}

void CompileService::waitIdle() {
  support::RankedLock Lock(QueueMu);
  IdleCv.wait(Lock, [this]() GCSAFE_REQUIRES(QueueMu) {
    return Queue.empty() && Active == 0;
  });
}

ServiceHealth CompileService::health() const {
  // A point-in-time sample built entirely from the lock-free gauges: a
  // supervisor probing readiness never contends with admission.
  ServiceHealth H;
  H.Workers = static_cast<unsigned>(Pool.size());
  H.QueueDepth = QueueDepth.load(std::memory_order_acquire);
  H.QueueMax = Opts.QueueMax;
  H.Draining = Draining.load(std::memory_order_acquire);
  H.Stopping = Stopping.load(std::memory_order_acquire);
  H.Isolate = Opts.Isolate;
  H.Ready = !H.Stopping && !H.Draining &&
            (!Opts.QueueMax || H.QueueDepth < Opts.QueueMax);
  return H;
}

bool CompileService::injectFault(const std::string &Site) {
  if (!Opts.Faults)
    return false;
  support::RankedGuard Lock(FaultMu);
  return Opts.Faults->shouldFail(Opts.Faults->siteId(Site));
}

void CompileService::workerLoop() {
  for (;;) {
    std::packaged_task<ServeResult()> Task;
    {
      support::RankedLock Lock(QueueMu);
      QueueCv.wait(Lock, [this]() GCSAFE_REQUIRES(QueueMu) {
        return Stopping.load(std::memory_order_relaxed) || !Queue.empty();
      });
      if (Queue.empty()) {
        if (Stopping.load(std::memory_order_relaxed))
          return;
        continue;
      }
      Task = std::move(Queue.front());
      Queue.pop_front();
      QueueDepth.store(Queue.size(), std::memory_order_release);
      ++Active;
    }
    GCSAFE_INTERLEAVE_POINT("serve.queue.pop");
    Task();
    {
      support::RankedGuard Lock(QueueMu);
      --Active;
    }
    IdleCv.notifyAll();
  }
}

std::future<ServeResult>
CompileService::submit(driver::RequestOptions Request, bool UseCache) {
  bool Injected = injectFault("serve.queue.full");
  // The raw key costs microseconds, so it is derived here, outside the
  // queue lock; the first probe and single-flight leadership are taken
  // below under it: in admission order, the order the FIFO queue hands
  // requests out.
  Admission A = admit(std::move(Request), UseCache);
  // Everything this thread records for the request carries its trace id.
  support::TraceScope Scope(A.TraceId);

  std::future<ServeResult> F;
  const char *Shed = nullptr;
  std::string Why;
  bool Hit = false;
  // The first probe's span, recorded once the queue lock is released (a
  // miss's admission has moved into its task by then).
  uint64_t ProbeStartNs = 0, ProbeEndNs = 0;
  {
    support::RankedGuard Lock(QueueMu);
    if (Stopping.load(std::memory_order_relaxed)) {
      Shed = "shutdown";
      Why = "the service is shutting down";
    } else if (Draining.load(std::memory_order_relaxed)) {
      Shed = "draining";
      Why = "the service is draining";
    } else if (Injected) {
      Shed = "overloaded";
      Why = "the submit queue is full (injected serve.queue.full)";
    } else if (Opts.QueueMax && Queue.size() >= Opts.QueueMax) {
      Shed = "overloaded";
      Why = "the submit queue is full (" + std::to_string(Opts.QueueMax) +
            " requests deep)";
    } else {
      probeAndLead(A);
      ProbeStartNs = A.ProbeStartNs;
      ProbeEndNs = A.ProbeEndNs;
      // A hit is answered below, on this thread; only a miss is queued.
      Hit = A.Hit != nullptr;
      if (!Hit) {
        std::packaged_task<ServeResult()> Task(
            [this, A = std::move(A)]() mutable {
              return compileAt(std::move(A));
            });
        F = Task.get_future();
        Queue.push_back(std::move(Task));
        size_t Depth = Queue.size();
        // The gauges shadow Queue under QueueMu; peak's read-modify-write
        // is safe because every writer holds the lock — the atomics exist
        // for the lock-free snapshot readers.
        QueueDepth.store(Depth, std::memory_order_release);
        if (Depth > QueuePeak.load(std::memory_order_relaxed))
          QueuePeak.store(Depth, std::memory_order_release);
      }
    }
  }
  if (ProbeEndNs)
    stage(HistCacheLookup, "cache.lookup", ProbeStartNs, ProbeEndNs);
  if (!Shed && !Hit) {
    QueueCv.notifyOne();
    return F;
  }

  std::promise<ServeResult> P;
  if (Hit) {
    P.set_value(answerHit(A, A.Hit, /*AtAdmission=*/true));
    return P.get_future();
  }
  // Shed: resolve the caller's future immediately with a typed result.
  // No probe was made, no task queued and no lease taken; the request
  // never counts as executed (serve.requests counts work,
  // serve.queue.shed counts refusals).
  QueueShed.fetch_add(1, std::memory_order_relaxed);
  Flight.emit("serve", "queue.shed");
  ServeResult R =
      typedResult(Shed, support::ExitOverloaded, "request shed: " + Why);
  R.RequestId = A.Request.RequestId;
  P.set_value(std::move(R));
  return P.get_future();
}

void CompileService::LeaseRelease::operator()(const std::string *Key) const {
  {
    support::RankedGuard L(Svc->InFlightMu);
    Svc->InFlight.erase(*Key);
  }
  Svc->InFlightCv.notifyAll();
  delete Key;
}

CompileService::Admission
CompileService::admit(driver::RequestOptions Request, bool UseCache) {
  Admission A;
  // The deadline clock starts at admission: time spent queued counts
  // against the request's budget — so does the queue-wait histogram.
  A.SubmitNs = support::monotonicNowNs();
  A.DeadlineAtNs = Request.DeadlineNs ? A.SubmitNs + Request.DeadlineNs : 0;
  A.TraceId = assignRequestId(Request);
  A.Key = requestKey(Request);
  A.WantCache = UseCache && Opts.CacheEnabled;
  A.Request = std::move(Request);
  return A;
}

void CompileService::probeAndLead(Admission &A) {
  if (!A.WantCache)
    return;
  support::RankedGuard L(InFlightMu);
  // Behind a leader, the first probe is left to the worker, after the
  // leader has had its chance to publish.
  if (InFlight.count(A.Key))
    return;
  A.ProbeStartNs = support::monotonicNowNs();
  bool Hit = Cache.lookup(A.Key, A.Hit);
  A.ProbeEndNs = support::monotonicNowNs();
  // A leader inserts its entry before its lease's release takes this
  // lock, so this miss stays a miss for as long as the lease is held.
  if (!Hit) {
    InFlight.insert(A.Key);
    A.Lease = FlightLease(new std::string(A.Key), LeaseRelease{this});
  }
}

std::string CompileService::assignRequestId(driver::RequestOptions &Request) {
  uint64_t Seq = RequestSeq.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Request.RequestId.empty())
    Request.RequestId = "r-" + std::to_string(Seq);
  return Request.RequestId + "#" + std::to_string(Seq);
}

void CompileService::stage(support::Histogram &H, const char *Name,
                           uint64_t StartNs, uint64_t EndNs) {
  {
    support::RankedGuard Lock(HistMu);
    H.record(EndNs - StartNs);
  }
  Flight.span("serve", Name, StartNs, EndNs - StartNs);
}

void CompileService::countResult(const ServeResult &R) {
  if (R.Ok)
    ResponsesOk.fetch_add(1, std::memory_order_relaxed);
  else
    ResponsesError.fetch_add(1, std::memory_order_relaxed);
  if (R.Degraded)
    ResponsesDegraded.fetch_add(1, std::memory_order_relaxed);
}

void CompileService::beginRequest(uint64_t SubmitNs, uint64_t BeginNs) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  stage(HistQueueWait, "queue.wait", std::min(SubmitNs, BeginNs), BeginNs);
  Flight.emit("serve", "request.begin");
}

ServeResult CompileService::finishRequest(const Admission &A, ServeResult R) {
  R.RequestId = A.Request.RequestId;
  countResult(R);
  stage(HistE2E, "e2e", A.SubmitNs, support::monotonicNowNs());
  Flight.emit("serve", "request.end", uint64_t(R.ExitCode));
  return R;
}

ServeResult CompileService::answerHit(const Admission &A, CacheEntryPtr Entry,
                                      bool AtAdmission) {
  // Never queued: the request begins where its first probe ended.
  if (AtAdmission)
    beginRequest(A.ProbeEndNs, A.ProbeEndNs);
  Flight.emit("serve", "cache.hit");
  return finishRequest(A, hitResult(A.Key, std::move(Entry)));
}

ServeResult CompileService::compile(const driver::RequestOptions &Request,
                                    bool UseCache) {
  Admission A = admit(Request, UseCache);
  support::TraceScope Scope(A.TraceId);
  probeAndLead(A);
  if (A.ProbeEndNs)
    stage(HistCacheLookup, "cache.lookup", A.ProbeStartNs, A.ProbeEndNs);
  if (A.Hit)
    return answerHit(A, A.Hit, /*AtAdmission=*/true);
  return compileAt(std::move(A));
}

ServeResult CompileService::compileAt(Admission A) {
  // Every event this thread records until return — the service's and,
  // when stitched, the compiler's — carries the request's trace id.
  support::TraceScope Scope(A.TraceId);
  const driver::RequestOptions &Request = A.Request;
  const std::string &Key = A.Key, &TraceId = A.TraceId;
  uint64_t DeadlineAtNs = A.DeadlineAtNs;
  beginRequest(A.SubmitNs, support::monotonicNowNs());

  // A request that expired while queued never starts — and never gets a
  // chance to insert anything into the cache or the memo.
  if (DeadlineAtNs && support::monotonicNowNs() > DeadlineAtNs) {
    DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
    Flight.emit("serve", "request.deadline");
    return finishRequest(A, typedResult("deadline",
                                        support::ExitWatchdogTimeout,
                                        "deadline expired before the "
                                        "compile started"));
  }

  if (A.WantCache) {
    // Lookup / single-flight loop: hit → splice the entry; miss while
    // holding the lease → compile; miss while another request leads this
    // key → wait and re-check (the leader's insert turns the re-check into
    // a hit, so concurrent identical requests cost one compile, not N). A
    // leader whose result was uncacheable wakes the waiters into electing
    // the next leader here, so progress is guaranteed. A lease taken at
    // admission came with the request's first probe, a miss that nothing
    // can have published over since, so its holder starts at the store.
    bool Timed = static_cast<bool>(A.Lease), Probe = !Timed;
    bool StoreProbed = false;
    for (;; Probe = true) {
      if (Probe) {
        CacheEntryPtr Entry;
        uint64_t LookupStartNs = support::monotonicNowNs();
        bool Hit = Cache.lookup(Key, Entry);
        if (!Timed) {
          // Only the first probe counts: re-checks after waiting out a
          // single-flight leader measure the leader, not the cache.
          Timed = true;
          stage(HistCacheLookup, "cache.lookup", LookupStartNs,
                support::monotonicNowNs());
        }
        if (Hit)
          return answerHit(A, std::move(Entry), /*AtAdmission=*/false);
      }
      // Memory miss: read through to the durable store (once — a re-loop
      // after a store hit or a single-flight wait consults memory only).
      // A validated disk payload is rendered once into a memory entry and
      // replayed through the hit path above, so a warm-restart response
      // is byte-identical to the response that was cached.
      if (Disk && !StoreProbed) {
        StoreProbed = true;
        std::string Payload;
        support::Json J;
        std::string JsonError;
        ServeResult Stored;
        if (Disk->lookup(Key, Payload) &&
            support::Json::parse(Payload, J, JsonError) &&
            serveResultFromJson(J, Stored)) {
          Stored.CacheKey = Key;
          Cache.insert(Key, renderCacheEntry(Stored));
          Flight.emit("serve", "store.hit");
          continue;
        }
      }
      if (A.Lease)
        break;
      support::RankedLock L(InFlightMu);
      if (InFlight.insert(Key).second) {
        A.Lease = FlightLease(new std::string(Key), LeaseRelease{this});
        break;
      }
      // Counted by the hook while the lock is still held, so "observed
      // waiting" can never race the leader's release+notify: the leader
      // needs this mutex to erase its key, and we do not drop it between
      // the in-flight check and the wait below.
      GCSAFE_INTERLEAVE_POINT("serve.singleflight.wait");
      if (DeadlineAtNs) {
        uint64_t Now = support::monotonicNowNs();
        if (Now >= DeadlineAtNs ||
            InFlightCv.waitFor(L, std::chrono::nanoseconds(
                                      DeadlineAtNs - Now)) ==
                std::cv_status::timeout) {
          // The budget ran out while queued behind the leader: same
          // typed expiry as a deadline that fired anywhere else.
          L.unlock();
          DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
          Flight.emit("serve", "request.deadline");
          ServeResult R =
              typedResult("deadline", support::ExitWatchdogTimeout,
                          "deadline expired while waiting for an "
                          "in-flight identical compile");
          R.CacheKey = Key;
          return finishRequest(A, std::move(R));
        }
      } else {
        InFlightCv.wait(L);
      }
    }
    // The leader's window: it holds single-flight for this key but has
    // not started (let alone published) the compile. The re-election
    // test parks the first leader here and kills it with the
    // serve.worker.crash failpoint below.
    GCSAFE_INTERLEAVE_POINT("serve.singleflight.elect");
    Flight.emit("serve", "cache.miss");
  }

  // A miss: only now does the request get its private state and a
  // frontend. Under Opts.Isolate the frontend runs only in the sandbox,
  // so a frontend crash costs the sandbox, never the daemon.
  ServeResult Result;
  bool Parsed = true;
  if (Opts.Isolate) {
    uint64_t IsoStartNs = support::monotonicNowNs();
    Result = isolatedCompile(Request, DeadlineAtNs, TraceId, Parsed);
    stage(HistIsolate, "isolate", IsoStartNs, support::monotonicNowNs());
  } else {
    // The only shared pieces are content-keyed.
    driver::RequestOptions Opts2 = Request;
    Opts2.Memo = &Memo;
    clampWatchdogs(Opts2, DeadlineAtNs);
    driver::RequestContext Ctx(std::move(Opts2),
                               Opts.StitchTraces ? &Flight : nullptr);
    Parsed = Ctx.compilation().parse();
    if (injectFault("serve.worker.crash")) {
      // An in-process worker cannot survive a real SIGSEGV, so without
      // Opts.Isolate the crash failpoint models the *disposition*
      // instead: the same typed result, telemetry and flight dump as a
      // sandboxed crash whose retries ran out. The payoff is determinism
      // — a leader can be killed between its election and its publish
      // without a fork, which is how tests/test_race.cpp drives
      // single-flight re-election.
      Flight.emit("serve", "worker.crash");
      if (!Opts.FlightDir.empty())
        Flight.dumpToFile(Opts.FlightDir + "/flightrec-" +
                              fsSafeId(Request.RequestId) + ".json",
                          "crash", Request.RequestId, TraceId, 0);
      Result = typedResult("crashed", support::ExitWorkerCrash,
                           "worker crash injected (serve.worker.crash)");
    } else {
      uint64_t ExecStartNs = support::monotonicNowNs();
      Result = resultFromOutcome(Ctx.execute());
      stage(HistCompile, "compile", ExecStartNs, support::monotonicNowNs());
    }
  }

  // The service-side deadline guard: whatever the request was doing when
  // its budget ran out, the caller gets a typed deadline result.
  bool Expired = DeadlineAtNs && support::monotonicNowNs() > DeadlineAtNs;
  if (Expired && Result.Status.empty()) {
    DeadlineExpired.fetch_add(1, std::memory_order_relaxed);
    Flight.emit("serve", "request.deadline");
    std::vector<SandboxAttempt> Attempts = std::move(Result.Attempts);
    Result = typedResult("deadline", support::ExitWatchdogTimeout,
                         "deadline expired during the compile");
    Result.Attempts = std::move(Attempts);
  }

  // A source that fails to parse answers with an empty key and is never
  // cached; its lease (if any) is released on return, so same-key
  // waiters re-elect and fail the same way on their own.
  if (Parsed)
    Result.CacheKey = Key;

  // Never cache a service-level disposition (shed/deadline/crash) or a
  // timing-dependent watchdog expiry of a deadline request: cache entries
  // must be pure functions of content, and an expired request must not
  // poison the cache for the identical request asked with more budget.
  // The entry is rendered before RequestId is stamped on the result, so
  // warm replays stay byte-identical across requests.
  bool Cacheable = A.WantCache && Parsed && Result.Status.empty() &&
                   !(DeadlineAtNs &&
                     Result.ExitCode == support::ExitWatchdogTimeout);
  if (Cacheable) {
    // Rendered once: this cold response and every later hit are spliced
    // from the same bytes.
    Result.Rendered = renderCacheEntry(Result);
    Cache.insert(Key, Result.Rendered);
    // Write through to the durable store in its own payload format.
    // Failures are the store's problem (counted, possibly degrading it)
    // — never this request's; the response is already committed above.
    if (Disk)
      Disk->insert(Key, serveResultToJson(Result).dump(0));
    // Between the insert and the lease's release: a waiter woken here
    // must still re-check the cache, not assume the key vanished.
    GCSAFE_INTERLEAVE_POINT("serve.singleflight.publish");
  }

  return finishRequest(A, std::move(Result));
}

ServeResult
CompileService::isolatedCompile(const driver::RequestOptions &Request,
                                uint64_t DeadlineAtNs,
                                const std::string &TraceId, bool &Parsed) {
  driver::OptRung Rung = Request.StartRung;
  std::vector<SandboxAttempt> Attempts;
  // Every return below carries the sandbox record. Terminal "crashed"
  // results also dump the event ring next to the response
  // (gcsafe-flightrec-v1): the post-mortem names the victim request and
  // carries its last events. The dump runs in the parent, outside signal
  // context, but reuses the same async-signal-safe writer.
  auto Done = [&](ServeResult R) {
    R.Attempts = std::move(Attempts);
    return R;
  };
  auto Crashed = [&](int Signal, std::string Error) {
    if (!Opts.FlightDir.empty())
      Flight.dumpToFile(Opts.FlightDir + "/flightrec-" +
                            fsSafeId(Request.RequestId) + ".json",
                        "crash", Request.RequestId, TraceId, Signal);
    return Done(
        typedResult("crashed", support::ExitWorkerCrash, std::move(Error)));
  };
  for (unsigned Attempt = 0;; ++Attempt) {
    IsolateRequests.fetch_add(1, std::memory_order_relaxed);
    // The crash failpoint is drawn in the parent (the injector is shared,
    // service-wide state the child must not touch) and the verdict is
    // carried across the fork by value.
    bool InjectCrash = injectFault("serve.worker.crash");

    uint64_t TimeoutMs = Opts.IsolateTimeoutMs;
    if (DeadlineAtNs) {
      uint64_t Now = support::monotonicNowNs();
      uint64_t RemainMs =
          DeadlineAtNs > Now ? (DeadlineAtNs - Now) / 1000000ull + 1 : 1;
      TimeoutMs = TimeoutMs ? std::min(TimeoutMs, RemainMs) : RemainMs;
    }

    driver::RequestOptions ChildOpts = Request;
    // The child is a fresh single-threaded process: it must not touch the
    // shared memo (its mutex may be held by another worker at fork time),
    // and its updates would die with it anyway.
    ChildOpts.Memo = nullptr;
    clampWatchdogs(ChildOpts, DeadlineAtNs);
    if (Attempt) {
      ChildOpts.SelfHeal = true;
      ChildOpts.StartRung = Rung;
    }

    // The payload is one parse-verdict byte ('1' parsed, '0' did not),
    // written before anything can crash, then the result's JSON.
    driver::SandboxOutcome Out = driver::runInSandbox(
        [&ChildOpts, InjectCrash](int Fd) -> int {
          auto Send = [Fd](const std::string &Bytes) {
            size_t Off = 0;
            while (Off < Bytes.size()) {
              ssize_t W = write(Fd, Bytes.data() + Off, Bytes.size() - Off);
              if (W <= 0)
                return false;
              Off += static_cast<size_t>(W);
            }
            return true;
          };
          driver::RequestContext Ctx(std::move(ChildOpts));
          if (!Send(Ctx.compilation().parse() ? "1" : "0"))
            return support::ExitError;
          if (InjectCrash)
            raise(SIGSEGV);
          ServeResult R = resultFromOutcome(Ctx.execute());
          return Send(serveResultToJson(R).dump(0)) ? support::ExitSuccess
                                                    : support::ExitError;
        },
        TimeoutMs);
    if (!Out.Payload.empty()) {
      Parsed = Out.Payload[0] == '1';
      Out.Payload.erase(0, 1);
    }

    SandboxAttempt A;
    A.Rung = driver::optRungName(Rung);
    A.ExitCode = Out.ExitCode;
    A.Signal = Out.Signal;
    A.DurationMs = Out.DurationMs;
    switch (Out.St) {
    case driver::SandboxOutcome::Status::SpawnError:
      A.Outcome = "crashed";
      Attempts.push_back(std::move(A));
      return Crashed(0, "could not spawn an isolated worker");
    case driver::SandboxOutcome::Status::TimedOut: {
      IsolateTimeouts.fetch_add(1, std::memory_order_relaxed);
      Flight.emit("serve", "worker.timeout", Out.DurationMs);
      A.Outcome = "timeout";
      Attempts.push_back(std::move(A));
      bool RequestDeadline =
          DeadlineAtNs && support::monotonicNowNs() > DeadlineAtNs;
      return Done(typedResult(
          "deadline", support::ExitWatchdogTimeout,
          RequestDeadline
              ? "isolated worker killed at the request deadline"
              : "isolated worker killed after " +
                    std::to_string(Out.DurationMs) + "ms (--isolate-timeout)"));
    }
    case driver::SandboxOutcome::Status::Signaled: {
      IsolateCrashes.fetch_add(1, std::memory_order_relaxed);
      Flight.emit("serve", "worker.crash", uint64_t(Out.Signal));
      A.Outcome = "signal";
      Attempts.push_back(std::move(A));
      bool Expired = DeadlineAtNs && support::monotonicNowNs() > DeadlineAtNs;
      if (Attempt < Opts.IsolateRetries && !Expired) {
        // Re-enter the degradation ladder one rung lower: a crash at full
        // optimization often clears at a simpler one.
        IsolateRetries.fetch_add(1, std::memory_order_relaxed);
        Rung = driver::lowerRung(Rung);
        continue;
      }
      return Crashed(Out.Signal,
                     "isolated worker killed by signal " +
                         std::to_string(Out.Signal) + " on attempt " +
                         std::to_string(Attempt + 1) + " at rung " +
                         driver::optRungName(Rung));
    }
    case driver::SandboxOutcome::Status::Exited:
      break;
    }

    support::Json J;
    std::string JsonError;
    ServeResult R;
    if (!support::Json::parse(Out.Payload, J, JsonError) ||
        !serveResultFromJson(J, R)) {
      A.Outcome = "crashed";
      Attempts.push_back(std::move(A));
      return Crashed(0, "isolated worker exited (status " +
                            std::to_string(Out.ExitCode) +
                            ") without a result payload");
    }
    A.Outcome = driver::outcomeForExit(R.ExitCode);
    A.ExitCode = R.ExitCode;
    Attempts.push_back(std::move(A));
    return Done(std::move(R));
  }
}

support::Stats CompileService::statsSnapshot() const {
  support::Stats S;
  S.set("serve.workers", Pool.size());
  S.set("serve.uptime_ns", support::monotonicNowNs() - StartNs);
  S.set("serve.requests", Requests.load(std::memory_order_relaxed));
  S.set("serve.responses.ok", ResponsesOk.load(std::memory_order_relaxed));
  S.set("serve.responses.error",
        ResponsesError.load(std::memory_order_relaxed));
  S.set("serve.responses.degraded",
        ResponsesDegraded.load(std::memory_order_relaxed));
  // depth is a point-in-time sample, not a lifetime total: report it
  // with Gauge kind so consumers (--stats printing) never treat it as a
  // monotonic counter. peak and shed stay true counters.
  // Both gauges are lock-free mirrors of the queue (written under
  // QueueMu, sampled here with acquire), so snapshotting never blocks
  // admission.
  S.setFloat("serve.queue.depth",
             static_cast<double>(QueueDepth.load(std::memory_order_acquire)));
  S.set("serve.queue.peak", QueuePeak.load(std::memory_order_acquire));
  S.set("serve.queue.shed", QueueShed.load(std::memory_order_relaxed));
  S.set("serve.deadline.expired",
        DeadlineExpired.load(std::memory_order_relaxed));
  S.set("serve.isolate.requests",
        IsolateRequests.load(std::memory_order_relaxed));
  S.set("serve.isolate.crashes",
        IsolateCrashes.load(std::memory_order_relaxed));
  S.set("serve.isolate.retries",
        IsolateRetries.load(std::memory_order_relaxed));
  S.set("serve.isolate.timeouts",
        IsolateTimeouts.load(std::memory_order_relaxed));
  CacheStats C = Cache.stats();
  S.set("serve.cache.hits", C.Hits);
  S.set("serve.cache.misses", C.Misses);
  S.set("serve.cache.insertions", C.Insertions);
  S.set("serve.cache.evictions", C.Evictions);
  S.set("serve.cache.entries", C.Entries);
  S.set("serve.cache.bytes", C.Bytes);
  S.set("serve.verify_memo.hits", Memo.hits());
  S.set("serve.verify_memo.misses", Memo.misses());
  S.set("serve.verify_memo.entries", Memo.entries());
  // Always present (zeros without a store) so every consumer of the
  // schema sees one shape; degraded is a 0/1 gauge, not a counter.
  StoreStats D = Disk ? Disk->stats() : StoreStats();
  S.set("serve.store.hits", D.Hits);
  S.set("serve.store.misses", D.Misses);
  S.set("serve.store.writes", D.Writes);
  S.set("serve.store.scrubbed", D.Scrubbed);
  S.set("serve.store.quarantined", D.Quarantined);
  S.set("serve.store.io_errors", D.IoErrors);
  S.setFloat("serve.store.degraded", D.Degraded ? 1.0 : 0.0);
  return S;
}

support::Json CompileService::metricsSnapshot() const {
  using support::Json;
  Json M = Json::object();
  M["schema"] = Json::string("gcsafe-metrics-v1");
  uint64_t Now = support::monotonicNowNs();
  uint64_t UptimeNs = Now > StartNs ? Now - StartNs : 1;
  uint64_t Req = Requests.load(std::memory_order_relaxed);
  M["uptime_ns"] = Json::integer(UptimeNs);
  M["requests"] = Json::integer(Req);
  M["rate_rps"] =
      Json::number(double(Req) * 1e9 / static_cast<double>(UptimeNs));
  // depth is a *sampled gauge* — the value at snapshot time, not a
  // lifetime total like peak and shed (which are true counters).
  Json Q = Json::object();
  Q["depth"] =
      Json::integer(uint64_t(QueueDepth.load(std::memory_order_acquire)));
  Q["peak"] =
      Json::integer(uint64_t(QueuePeak.load(std::memory_order_acquire)));
  Q["shed"] = Json::integer(QueueShed.load(std::memory_order_relaxed));
  M["queue"] = std::move(Q);
  Json Stages = Json::object();
  {
    support::RankedGuard Lock(HistMu);
    Stages["queue_wait"] = HistQueueWait.toJson();
    Stages["cache_lookup"] = HistCacheLookup.toJson();
    Stages["compile"] = HistCompile.toJson();
    Stages["isolate"] = HistIsolate.toJson();
    Stages["e2e"] = HistE2E.toJson();
  }
  M["stages"] = std::move(Stages);
  // Mirrors serve.store.* in statsSnapshot(): always present, zeros
  // without a store, degraded as a 0/1 gauge.
  StoreStats D = Disk ? Disk->stats() : StoreStats();
  Json St = Json::object();
  St["hits"] = Json::integer(D.Hits);
  St["misses"] = Json::integer(D.Misses);
  St["writes"] = Json::integer(D.Writes);
  St["scrubbed"] = Json::integer(D.Scrubbed);
  St["quarantined"] = Json::integer(D.Quarantined);
  St["io_errors"] = Json::integer(D.IoErrors);
  St["degraded"] = Json::integer(uint64_t(D.Degraded ? 1 : 0));
  M["store"] = std::move(St);
  return M;
}
