//===- support/RankedMutex.cpp --------------------------------*- C++ -*-===//

#include "support/RankedMutex.h"

#include "support/Stats.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace gcsafe;
using namespace gcsafe::support;

const char *gcsafe::support::lockRankName(LockRank R) {
  switch (R) {
  case LockRank::ServeQueue:
    return "serve.queue";
  case LockRank::ServeInFlight:
    return "serve.singleflight";
  case LockRank::ServeFault:
    return "serve.faults";
  case LockRank::ServeHist:
    return "serve.hist";
  case LockRank::ServeCache:
    return "serve.cache";
  case LockRank::ServeStore:
    return "serve.store";
  case LockRank::DriverVerifyMemo:
    return "driver.verify_memo";
  case LockRank::NumRanks:
    break;
  }
  return "?";
}

namespace {

constexpr unsigned NumRanks = static_cast<unsigned>(LockRank::NumRanks);
constexpr unsigned MaxHeld = 16;

/// The per-thread stack of held ranks. Ranks are tiny and the discipline
/// forbids holding two mutexes of one rank, so a fixed array suffices;
/// overflow (never expected) degrades to not tracking the excess.
thread_local struct HeldStack {
  uint8_t Ranks[MaxHeld];
  unsigned Depth = 0;
} Held;

/// The acquisition graph: Edges[from][to] counts acquisitions of rank
/// `to` while `from` was the innermost held rank. Lock-free so the lint
/// itself can never invert anything, and TSan-clean by construction.
std::atomic<uint64_t> Edges[NumRanks][NumRanks];
std::atomic<uint64_t> Acquisitions[NumRanks];
std::atomic<uint64_t> RankInversions{0};
std::atomic<uint64_t> DroppedLocks{0};
/// First inversion observed, packed (from << 8 | to) + 1; 0 = none.
std::atomic<uint32_t> FirstInversion{0};
std::atomic<uint8_t> Policy{static_cast<uint8_t>(RankCheckPolicy::Abort)};

[[noreturn]] void abortWithDiagnostic(const char *What, const char *HeldName,
                                      const char *WantName) {
  // stderr + abort, not exceptions: the lint must fire identically from
  // any thread, including ones with no handler on the stack.
  std::fprintf(stderr,
               "gcsafe lock-rank lint: %s: holding '%s' while %s '%s' "
               "(ranks must strictly increase with nesting depth; see "
               "docs/ANALYSIS.md \"Concurrency checking\")\n",
               What, HeldName, What[0] == 'r' ? "acquiring" : "touching",
               WantName);
  std::abort();
}

void violationInversion(LockRank From, LockRank To) {
  RankInversions.fetch_add(1, std::memory_order_relaxed);
  uint32_t Packed = (static_cast<uint32_t>(From) << 8 |
                     static_cast<uint32_t>(To)) + 1;
  uint32_t Expected = 0;
  FirstInversion.compare_exchange_strong(Expected, Packed,
                                         std::memory_order_relaxed);
  if (rankCheckPolicy() == RankCheckPolicy::Abort)
    abortWithDiagnostic("rank inversion", lockRankName(From),
                        lockRankName(To));
}

/// Lint one acquisition-to-be: records the nesting edge and flags an
/// inversion. Runs *before* the underlying mutex blocks.
void lintCheck(LockRank Rank, const char *) {
  unsigned R = static_cast<unsigned>(Rank);
  Acquisitions[R].fetch_add(1, std::memory_order_relaxed);
  if (Held.Depth == 0)
    return;
  LockRank Top = static_cast<LockRank>(Held.Ranks[Held.Depth - 1]);
  Edges[static_cast<unsigned>(Top)][R].fetch_add(1,
                                                 std::memory_order_relaxed);
  if (Top >= Rank)
    violationInversion(Top, Rank);
}

void lintPush(LockRank Rank) {
  if (Held.Depth < MaxHeld)
    Held.Ranks[Held.Depth] = static_cast<uint8_t>(Rank);
  ++Held.Depth;
}

void lintPop(LockRank Rank) {
  // Unlock order may legally differ from lock order with unique_locks:
  // remove the innermost occurrence of this rank, wherever it sits.
  if (Held.Depth == 0)
    return;
  if (Held.Depth > MaxHeld) {
    --Held.Depth;
    return;
  }
  for (unsigned I = Held.Depth; I-- > 0;) {
    if (Held.Ranks[I] == static_cast<uint8_t>(Rank)) {
      for (unsigned J = I + 1; J < Held.Depth; ++J)
        Held.Ranks[J - 1] = Held.Ranks[J];
      --Held.Depth;
      return;
    }
  }
}

bool lintHeld(LockRank Rank) {
  unsigned N = Held.Depth < MaxHeld ? Held.Depth : MaxHeld;
  for (unsigned I = 0; I < N; ++I)
    if (Held.Ranks[I] == static_cast<uint8_t>(Rank))
      return true;
  return false;
}

} // namespace

void gcsafe::support::setRankCheckPolicy(RankCheckPolicy P) {
  Policy.store(static_cast<uint8_t>(P), std::memory_order_relaxed);
}

RankCheckPolicy gcsafe::support::rankCheckPolicy() {
  return static_cast<RankCheckPolicy>(Policy.load(std::memory_order_relaxed));
}

LockLintCounters gcsafe::support::lockLintCounters() {
  LockLintCounters C;
  C.RankInversions = RankInversions.load(std::memory_order_relaxed);
  C.DroppedLocks = DroppedLocks.load(std::memory_order_relaxed);
  return C;
}

void gcsafe::support::resetLockGraph() {
  for (unsigned I = 0; I < NumRanks; ++I) {
    Acquisitions[I].store(0, std::memory_order_relaxed);
    for (unsigned J = 0; J < NumRanks; ++J)
      Edges[I][J].store(0, std::memory_order_relaxed);
  }
  RankInversions.store(0, std::memory_order_relaxed);
  DroppedLocks.store(0, std::memory_order_relaxed);
  FirstInversion.store(0, std::memory_order_relaxed);
}

void RankedMutex::lock() {
  lintCheck(Rank, Name);
  M.lock();
  lintPush(Rank);
}

void RankedMutex::unlock() {
  lintPop(Rank);
  M.unlock();
}

void RankedMutex::assertHeld() const {
  if (lintHeld(Rank))
    return;
  DroppedLocks.fetch_add(1, std::memory_order_relaxed);
  if (rankCheckPolicy() == RankCheckPolicy::Abort)
    abortWithDiagnostic("dropped lock", "<nothing>", Name);
}

RankedLock::RankedLock(RankedMutex &Mu) : Mu(Mu) {
  lintCheck(Mu.rank(), Mu.name());
  Inner = std::unique_lock<std::mutex>(Mu.native());
  lintPush(Mu.rank());
  Owned = true;
}

RankedLock::~RankedLock() {
  if (Owned)
    lintPop(Mu.rank());
}

void RankedLock::lock() {
  lintCheck(Mu.rank(), Mu.name());
  Inner.lock();
  lintPush(Mu.rank());
  Owned = true;
}

void RankedLock::unlock() {
  lintPop(Mu.rank());
  Inner.unlock();
  Owned = false;
}

Json gcsafe::support::lockGraphToJson() {
  Json Root = Json::object();
  Root["schema"] = Json::string("gcsafe-lockgraph-v1");
  Root["policy"] = Json::string(
      rankCheckPolicy() == RankCheckPolicy::Abort ? "abort" : "record");

  Json Ranks = Json::array();
  for (unsigned I = 0; I < NumRanks; ++I) {
    Json R = Json::object();
    R["rank"] = Json::integer(uint64_t(I));
    R["name"] = Json::string(lockRankName(static_cast<LockRank>(I)));
    R["acquisitions"] =
        Json::integer(Acquisitions[I].load(std::memory_order_relaxed));
    Ranks.push(std::move(R));
  }
  Root["ranks"] = std::move(Ranks);

  Json Es = Json::array();
  for (unsigned I = 0; I < NumRanks; ++I)
    for (unsigned J = 0; J < NumRanks; ++J) {
      uint64_t N = Edges[I][J].load(std::memory_order_relaxed);
      if (!N)
        continue;
      Json E = Json::object();
      E["from"] = Json::integer(uint64_t(I));
      E["to"] = Json::integer(uint64_t(J));
      E["from_name"] = Json::string(lockRankName(static_cast<LockRank>(I)));
      E["to_name"] = Json::string(lockRankName(static_cast<LockRank>(J)));
      E["count"] = Json::integer(N);
      Es.push(std::move(E));
    }
  Root["edges"] = std::move(Es);

  Json V = Json::object();
  V["rank_inversions"] =
      Json::integer(RankInversions.load(std::memory_order_relaxed));
  V["dropped_locks"] =
      Json::integer(DroppedLocks.load(std::memory_order_relaxed));
  uint32_t First = FirstInversion.load(std::memory_order_relaxed);
  if (First) {
    Json F = Json::object();
    F["from"] = Json::integer(uint64_t((First - 1) >> 8));
    F["to"] = Json::integer(uint64_t((First - 1) & 0xff));
    V["first_inversion"] = std::move(F);
  }
  Root["violations"] = std::move(V);
  return Root;
}

bool gcsafe::support::writeLockGraph(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << lockGraphToJson().dump(2) << "\n";
  return Out.good();
}
