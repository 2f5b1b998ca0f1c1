//===- tests/test_race.cpp - Concurrency-safety analysis layer -----------===//
//
// The runtime half of docs/ANALYSIS.md §"Concurrency checking": the
// deterministic schedule fuzzer (seeded preemption injection swept over
// 64+ seeds), the lock-rank lint's self-tests (a seeded rank inversion
// and a seeded dropped lock must each be caught, mirroring what
// tools/safety_mutate does for the GC-safety verifier), the flight
// recorder's seqlock under a multi-writer hammer, and single-flight
// leader re-election when a leader dies between its election and its
// publish. Everything here is also a ThreadSanitizer target: the `race`
// ctest label re-runs this binary under GCSAFE_SANITIZE=thread with zero
// suppressions.
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"
#include "support/ExitCodes.h"
#include "support/FaultInject.h"
#include "support/Interleave.h"
#include "support/RankedMutex.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

using namespace gcsafe;
using namespace gcsafe::serve;
using support::LockRank;
using support::RankCheckPolicy;

namespace {

// Small on purpose: the sweep tests compile it hundreds of times.
const char *kTinySource = R"(
struct node { struct node *next; long value; };

int main(void) {
  struct node *head;
  struct node *n;
  long i;
  long s;
  head = 0;
  for (i = 0; i < 6; i++) {
    n = (struct node *)gc_malloc(sizeof(struct node));
    n->value = i;
    n->next = head;
    head = n;
  }
  s = 0;
  while (head) { s = s + head->value; head = head->next; }
  print_int(s);
  print_char(10);
  return 0;
}
)";

driver::RequestOptions tinyRequest(const char *Name = "tiny") {
  driver::RequestOptions R;
  R.Name = Name;
  R.Source = kTinySource;
  R.Mode = driver::CompileMode::O2SafePost;
  R.Run = true;
  return R;
}

/// Scoped Record policy + graph scrub: the lint self-tests must not leave
/// their deliberately poisoned edges (or the Abort policy disarmed)
/// behind for later tests.
struct RecordPolicyScope {
  RecordPolicyScope() { support::setRankCheckPolicy(RankCheckPolicy::Record); }
  ~RecordPolicyScope() {
    support::setRankCheckPolicy(RankCheckPolicy::Abort);
    support::resetLockGraph();
  }
};

/// Scoped point hook install/clear.
struct HookScope {
  HookScope(support::ScheduleFuzzer::PointHook H, void *Ctx) {
    support::ScheduleFuzzer::setPointHook(H, Ctx);
  }
  ~HookScope() { support::ScheduleFuzzer::setPointHook(nullptr, nullptr); }
};

//===----------------------------------------------------------------------===//
// Schedule fuzzer: determinism and plumbing
//===----------------------------------------------------------------------===//

TEST(ScheduleFuzzer, DecideIsPureAndSeedSensitive) {
  using support::ScheduleAction;
  using support::ScheduleFuzzer;
  // Purity: the same (seed, point, hit) triple always decides the same
  // action — this is the whole reproducibility contract, so hammer it.
  for (uint64_t Seed : {1ull, 42ull, 0xdeadbeefull}) {
    for (uint64_t Hit = 0; Hit < 16; ++Hit) {
      ScheduleAction First =
          ScheduleFuzzer::decide(Seed, "serve.cache.lookup", Hit, 250);
      for (int Rep = 0; Rep < 100; ++Rep)
        EXPECT_EQ(First,
                  ScheduleFuzzer::decide(Seed, "serve.cache.lookup", Hit, 250));
    }
  }
  // Sensitivity: across a seed sweep the decision function must actually
  // use every input — seeds, points and hit indices must each be able to
  // flip the outcome, and all three actions must occur.
  int Continues = 0, Yields = 0, Sleeps = 0;
  bool SeedMatters = false, PointMatters = false, HitMatters = false;
  for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
    using SA = support::ScheduleAction;
    SA A = ScheduleFuzzer::decide(Seed, "serve.cache.lookup", 0, 250);
    SA B = ScheduleFuzzer::decide(Seed + 1, "serve.cache.lookup", 0, 250);
    SA C = ScheduleFuzzer::decide(Seed, "serve.cache.insert", 0, 250);
    SA D = ScheduleFuzzer::decide(Seed, "serve.cache.lookup", 1, 250);
    SeedMatters |= A != B;
    PointMatters |= A != C;
    HitMatters |= A != D;
    switch (A) {
    case SA::Continue: ++Continues; break;
    case SA::Yield: ++Yields; break;
    case SA::Sleep: ++Sleeps; break;
    }
  }
  EXPECT_TRUE(SeedMatters);
  EXPECT_TRUE(PointMatters);
  EXPECT_TRUE(HitMatters);
  EXPECT_GT(Continues, 0);
  EXPECT_GT(Yields + Sleeps, 0);
  // Permille 0 never preempts; 1000 always does.
  for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
    EXPECT_EQ(ScheduleFuzzer::decide(Seed, "p", Seed, 0),
              support::ScheduleAction::Continue);
    EXPECT_NE(ScheduleFuzzer::decide(Seed, "p", Seed, 1000),
              support::ScheduleAction::Continue);
  }
}

TEST(ScheduleFuzzer, PointsCountAndDisableStops) {
  using support::ScheduleFuzzer;
  ScheduleFuzzer::resetCounters();
  ScheduleFuzzer::enable(99, 1000); // every hit preempts
  ASSERT_TRUE(ScheduleFuzzer::enabled());
  for (int I = 0; I < 50; ++I)
    GCSAFE_INTERLEAVE_POINT("race.test.point");
  EXPECT_EQ(ScheduleFuzzer::points(), 50u);
  EXPECT_EQ(ScheduleFuzzer::yields() + ScheduleFuzzer::sleeps(), 50u);
  ScheduleFuzzer::disable();
  GCSAFE_INTERLEAVE_POINT("race.test.point");
  EXPECT_EQ(ScheduleFuzzer::points(), 50u); // disabled hits don't count
  ScheduleFuzzer::resetCounters();
}

//===----------------------------------------------------------------------===//
// The event ring: the seqlock under fire
//===----------------------------------------------------------------------===//

/// A 4-writer hammer on a deliberately tiny ring (every slot is lapped
/// thousands of times) with concurrent snapshot readers. Each event's
/// Value and trace id redundantly encode (writer, iteration); a torn slot
/// would pair them inconsistently.
TEST(TraceRingRace, MultiWriterHammerNeverTears) {
  support::TraceBuffer Ring(64);
  constexpr int Writers = 4;
  constexpr int PerWriter = 20000;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Torn{0}, Seen{0};

  std::thread Reader([&] {
    // The pass that *starts* after Stop runs over a quiesced ring, so at
    // least one pass always validates complete events — the writers can
    // otherwise finish before this thread is first scheduled.
    for (;;) {
      bool WasStopped = Stop.load(std::memory_order_acquire);
      for (const support::TraceEvent &E : Ring.snapshot()) {
        Seen.fetch_add(1, std::memory_order_relaxed);
        uint32_t W = static_cast<uint32_t>(E.Value >> 32);
        uint32_t K = static_cast<uint32_t>(E.Value);
        char Want[48];
        std::snprintf(Want, sizeof(Want), "w%u-%u", W, K);
        if (W >= Writers || std::strcmp(E.TraceId, Want) != 0 ||
            std::strcmp(E.Cat, "race") != 0 || E.Worker != W + 1 ||
            E.Seq == 0)
          Torn.fetch_add(1, std::memory_order_relaxed);
      }
      if (WasStopped)
        break;
    }
  });

  std::vector<std::thread> Pool;
  for (uint32_t W = 0; W < Writers; ++W)
    Pool.emplace_back([&, W] {
      support::setTraceWorker(W + 1);
      for (uint32_t K = 0; K < PerWriter; ++K) {
        char Rid[48];
        std::snprintf(Rid, sizeof(Rid), "w%u-%u", W, K);
        support::TraceScope Scope(Rid);
        Ring.emit("race", "hammer", (uint64_t(W) << 32) | K);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  Stop.store(true, std::memory_order_release);
  Reader.join();

  EXPECT_EQ(Torn.load(), 0u);
  EXPECT_GT(Seen.load(), 0u);
  EXPECT_EQ(Ring.recorded(), uint64_t(Writers) * PerWriter);

  // Quiesced, the ring holds exactly its capacity of complete events,
  // all from the final lap (claim-CAS drops lapped writes, so a few
  // holes are legal under contention — but nothing torn survives).
  std::vector<support::TraceEvent> Final = Ring.snapshot();
  EXPECT_LE(Final.size(), 64u);
  EXPECT_GT(Final.size(), 0u);
  // Claim-CAS drops a write whose slot a concurrent writer holds, so a
  // slot may retain an event from an earlier lap — but nothing ancient.
  for (const support::TraceEvent &E : Final)
    EXPECT_GT(E.Seq, uint64_t(Writers) * PerWriter / 2);
}

TEST(TraceRingRace, DumpUnderFireParsesAndIsSane) {
  support::TraceBuffer Ring(128);
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Pool;
  for (uint32_t W = 0; W < 3; ++W)
    Pool.emplace_back([&, W] {
      support::setTraceWorker(W + 1);
      support::TraceScope Scope("rid-" + std::to_string(W));
      uint32_t K = 0;
      while (!Stop.load(std::memory_order_acquire))
        Ring.emit("race", "dump", ++K);
    });

  // Dump mid-hammer, exactly as the fatal-signal handler would (the same
  // word-wise seqlock reads; only write(2) under the hood).
  // Per-process names: concurrent runs of this binary share TempDir().
  std::string Path = ::testing::TempDir() + "race_flightrec_" +
                     std::to_string(getpid()) + ".json";
  ASSERT_TRUE(Ring.dumpToFile(Path, "signal", "victim", "victim#1", 11));
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Pool)
    T.join();

  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  support::Json J;
  std::string Error;
  ASSERT_TRUE(support::Json::parse(Buf.str(), J, Error)) << Error;
  EXPECT_EQ(J.get("schema")->asString(), "gcsafe-flightrec-v1");
  EXPECT_EQ(J.get("reason")->asString(), "signal");
  EXPECT_EQ(J.get("signal")->asInt(), 11);
  const support::Json *Events = J.get("events");
  ASSERT_NE(Events, nullptr);
  for (size_t I = 0; I < Events->size(); ++I) {
    const support::Json &E = Events->at(I);
    EXPECT_EQ(E.get("cat")->asString(), "race");
    EXPECT_GT(E.get("seq")->asInt(), 0);
  }
  ::unlink(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Lock-rank lint: self-tests (the safety_mutate pattern — prove the
// detector detects by planting exactly one violation)
//===----------------------------------------------------------------------===//

TEST(RankLint, SeededInversionIsCaught) {
  RecordPolicyScope Policy;
  support::resetLockGraph();
  support::RankedMutex Outer(LockRank::ServeHist, "serve.hist");
  support::RankedMutex Inner(LockRank::ServeQueue, "serve.queue");
  uint64_t Before = support::lockLintCounters().RankInversions;
  {
    // serve.hist (rank 4) held while taking serve.queue (rank 0): the
    // canonical deadlock-shaped nesting the discipline bans.
    support::RankedGuard G1(Outer);
    support::RankedGuard G2(Inner);
  }
  uint64_t After = support::lockLintCounters().RankInversions;
  EXPECT_EQ(After, Before + 1);

  // The poisoned edge must be visible in the exported graph, flagged as
  // its first_inversion.
  support::Json G = support::lockGraphToJson();
  const support::Json *V = G.get("violations");
  ASSERT_NE(V, nullptr);
  EXPECT_GE(V->get("rank_inversions")->asInt(), 1);
  const support::Json *First = V->get("first_inversion");
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(First->get("from")->asInt(),
            int64_t(LockRank::ServeHist));
  EXPECT_EQ(First->get("to")->asInt(), int64_t(LockRank::ServeQueue));
}

TEST(RankLint, SameRankReacquisitionIsCaught) {
  RecordPolicyScope Policy;
  support::resetLockGraph();
  support::RankedMutex A(LockRank::ServeCache, "serve.cache");
  support::RankedMutex B(LockRank::ServeCache, "serve.cache");
  uint64_t Before = support::lockLintCounters().RankInversions;
  {
    support::RankedGuard G1(A);
    support::RankedGuard G2(B); // same rank: order between them undefined
  }
  EXPECT_EQ(support::lockLintCounters().RankInversions, Before + 1);
}

TEST(RankLint, SeededDroppedLockIsCaught) {
  RecordPolicyScope Policy;
  support::RankedMutex Mu(LockRank::ServeFault, "serve.faults");
  uint64_t Before = support::lockLintCounters().DroppedLocks;
  Mu.assertHeld(); // not held: the dynamic dropped-lock detector fires
  EXPECT_EQ(support::lockLintCounters().DroppedLocks, Before + 1);
  {
    support::RankedGuard G(Mu);
    Mu.assertHeld(); // held: no violation
  }
  EXPECT_EQ(support::lockLintCounters().DroppedLocks, Before + 1);
}

TEST(RankLint, LegalNestingRecordsForwardEdgesOnly) {
  support::resetLockGraph();
  support::RankedMutex Queue(LockRank::ServeQueue, "serve.queue");
  support::RankedMutex Flight(LockRank::ServeInFlight, "serve.singleflight");
  support::RankedMutex Hist(LockRank::ServeHist, "serve.hist");
  for (int I = 0; I < 3; ++I) {
    support::RankedGuard G1(Queue);
    support::RankedGuard G2(Flight);
    support::RankedGuard G3(Hist);
  }

  support::Json G = support::lockGraphToJson();
  EXPECT_EQ(G.get("schema")->asString(), "gcsafe-lockgraph-v1");
  const support::Json *Edges = G.get("edges");
  ASSERT_NE(Edges, nullptr);
  ASSERT_GE(Edges->size(), 2u);
  for (size_t I = 0; I < Edges->size(); ++I) {
    const support::Json &E = Edges->at(I);
    // Strictly increasing ranks = trivially acyclic; the Python checker
    // (check_bench_json.py --lockgraph) re-proves acyclicity generically.
    EXPECT_LT(E.get("from")->asInt(), E.get("to")->asInt());
  }
  EXPECT_EQ(G.get("violations")->get("rank_inversions")->asInt(), 0);

  std::string Path = ::testing::TempDir() + "race_lockgraph_" +
                     std::to_string(getpid()) + ".json";
  ASSERT_TRUE(support::writeLockGraph(Path));
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  support::Json Reparsed;
  std::string Error;
  EXPECT_TRUE(support::Json::parse(Buf.str(), Reparsed, Error)) << Error;
  ::unlink(Path.c_str());
  support::resetLockGraph();
}

//===----------------------------------------------------------------------===//
// Queue gauges under concurrency
//===----------------------------------------------------------------------===//

TEST(ServeGaugesRace, LockFreeSnapshotsStayConsistent) {
  ServiceOptions SO;
  SO.Workers = 2;
  CompileService Svc(SO);
  std::atomic<bool> Stop{false};
  std::thread Poller([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      ServiceHealth H = Svc.health();
      EXPECT_LE(H.QueueDepth, size_t(SO.QueueMax));
      // Sampled gauges: depth and peak are separate atomics, so a
      // sampler between their stores may briefly see depth > peak —
      // don't assert a relation mid-flight, only sanity per value.
      support::Stats S = Svc.statsSnapshot();
      support::Json M = Svc.metricsSnapshot();
      EXPECT_LE(uint64_t(M.get("queue")->get("depth")->asInt()),
                uint64_t(SO.QueueMax));
      EXPECT_EQ(M.get("schema")->asString(), "gcsafe-metrics-v1");
    }
  });

  std::vector<std::future<ServeResult>> Futures;
  for (int I = 0; I < 24; ++I)
    Futures.push_back(Svc.submit(tinyRequest()));
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().Ok);
  Svc.waitIdle();
  Stop.store(true, std::memory_order_release);
  Poller.join();

  ServiceHealth H = Svc.health();
  EXPECT_EQ(H.QueueDepth, 0u);
  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.requests"), 24u);
  EXPECT_EQ(S.get("serve.responses.ok"), 24u);
}

//===----------------------------------------------------------------------===//
// Single-flight: leader re-election under a forced schedule
//===----------------------------------------------------------------------===//

struct ReelectCtl {
  std::atomic<int> WaitersSeen{0};
  std::atomic<int> Elections{0};
};

void reelectHook(const char *Point, void *Ctx) {
  auto *C = static_cast<ReelectCtl *>(Ctx);
  if (!std::strcmp(Point, "serve.singleflight.wait")) {
    C->WaitersSeen.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  if (!std::strcmp(Point, "serve.singleflight.elect") &&
      C->Elections.fetch_add(1, std::memory_order_acq_rel) == 0) {
    // Park the first leader until all three followers are provably
    // queued behind its key. The waiters are counted while they still
    // hold the single-flight mutex, so none of them can be mistaken for
    // "about to elect" — and the 20s ceiling keeps a regression loud
    // rather than hung.
    uint64_t Start = support::monotonicNowNs();
    while (C->WaitersSeen.load(std::memory_order_acquire) < 3 &&
           support::monotonicNowNs() - Start < 20ull * 1000 * 1000 * 1000)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The exact schedule the single-flight design worries about: the leader
/// dies *after* election, *before* publish, with a full complement of
/// waiters parked behind it. The waiters must re-elect (no lost wakeup,
/// no duplicate compiles, no stuck future), and the death must not be
/// cached.
TEST(SingleFlightRace, LeaderKilledBetweenElectionAndPublishReelects) {
  support::FaultInjector FI;
  std::string Error;
  // @n1: the crash fires for exactly the first leader's compile.
  ASSERT_TRUE(
      support::FaultInjector::parse("7:serve.worker.crash@n1", FI, Error))
      << Error;
  ServiceOptions SO;
  SO.Workers = 4;
  SO.Faults = &FI;

  ReelectCtl Ctl;
  HookScope Hook(&reelectHook, &Ctl);

  CompileService Svc(SO);
  std::vector<std::future<ServeResult>> Futures;
  for (int I = 0; I < 4; ++I)
    Futures.push_back(Svc.submit(tinyRequest()));

  int Crashed = 0, ColdOk = 0, WarmOk = 0;
  std::string Key;
  for (auto &F : Futures) {
    ServeResult R = F.get(); // a lost wakeup would hang right here
    if (Key.empty())
      Key = R.CacheKey;
    EXPECT_EQ(R.CacheKey, Key);
    if (R.Status == "crashed") {
      ++Crashed;
      EXPECT_EQ(R.ExitCode, support::ExitWorkerCrash);
      EXPECT_FALSE(R.Cached);
    } else if (R.Ok) {
      R.Cached ? ++WarmOk : ++ColdOk;
    }
  }
  // Deterministic verdict: one killed leader, one re-elected leader that
  // compiled cold, two waiters replaying its published payload.
  EXPECT_EQ(Crashed, 1);
  EXPECT_EQ(ColdOk, 1);
  EXPECT_EQ(WarmOk, 2);
  EXPECT_GE(Ctl.WaitersSeen.load(), 3);
  EXPECT_GE(Ctl.Elections.load(), 2);

  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.cache.insertions"), 1u); // the crash never cached
  EXPECT_EQ(S.get("serve.requests"), 4u);
}

//===----------------------------------------------------------------------===//
// The seed sweep: 64 forced preemption schedules over the full service
//===----------------------------------------------------------------------===//

/// Interleaving-invariant checks under 64 distinct preemption schedules.
/// The verdicts are invariants that must hold under *every* legal
/// interleaving (single-flight admits one insert per key; every future
/// resolves; counters balance) — a seed that breaks one reproduces the
/// same forced-preemption schedule from its number alone.
TEST(ScheduleSweep, SixtyFourSeedsKeepServiceInvariants) {
  for (uint64_t Seed = 1; Seed <= 64; ++Seed) {
    support::ScheduleFuzzer::resetCounters();
    support::ScheduleFuzzer::enable(Seed, 400);

    ServiceOptions SO;
    SO.Workers = 4;
    CompileService Svc(SO);

    // Four identical requests (one cache key, single-flight contention)
    // plus two distinct ones (their own keys) — enough concurrency for
    // every annotated point to matter.
    std::vector<std::future<ServeResult>> Futures;
    for (int I = 0; I < 4; ++I)
      Futures.push_back(Svc.submit(tinyRequest()));
    driver::RequestOptions Other = tinyRequest("other");
    Other.Annot.PreferSlowBases = true; // outcome-relevant: its own key
    Futures.push_back(Svc.submit(Other));
    driver::RequestOptions Third = tinyRequest("third");
    Third.Verify = driver::SafetyVerify::Final;
    Futures.push_back(Svc.submit(Third));

    size_t Ok = 0;
    for (auto &F : Futures)
      Ok += F.get().Ok ? 1 : 0;
    Svc.waitIdle();

    support::Stats S = Svc.statsSnapshot();
    EXPECT_EQ(Ok, Futures.size()) << "seed " << Seed;
    EXPECT_EQ(S.get("serve.requests"), Futures.size()) << "seed " << Seed;
    EXPECT_EQ(S.get("serve.responses.ok"), Futures.size()) << "seed " << Seed;
    // Single-flight's core promise: concurrent identical requests cost
    // one compile — three distinct keys, exactly three insertions, under
    // every forced schedule.
    EXPECT_EQ(S.get("serve.cache.insertions"), 3u) << "seed " << Seed;
    EXPECT_EQ(S.get("serve.queue.shed"), 0u) << "seed " << Seed;

    support::ScheduleFuzzer::disable();
  }
  EXPECT_GT(support::ScheduleFuzzer::points(), 0u);
  support::ScheduleFuzzer::resetCounters();
}

} // namespace
