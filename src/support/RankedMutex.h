//===- support/RankedMutex.h - Lock-rank-linted mutex ----------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime half of the concurrency-safety toolchain (docs/ANALYSIS.md
/// §"Concurrency checking"): a mutex that knows its place in a global
/// acquisition order and lints every acquisition against it.
///
/// Every long-lived mutex in the codebase carries a LockRank. The
/// discipline is: a thread may only acquire a mutex whose rank is
/// *strictly higher* than every rank it already holds. Because the ranks
/// form a total order, any execution that obeys the discipline is
/// deadlock-free by construction; the lint makes a violation loud the
/// first time the wrong nesting ever runs, instead of the first time it
/// deadlocks under production load.
///
/// Three observable artifacts:
///
///  - the *held-rank check*: each lock() consults a thread-local stack of
///    held ranks; an out-of-order acquisition is a rank inversion —
///    abort() with a diagnostic under the default policy, a counted
///    violation under RankCheckPolicy::Record (the self-test mode);
///  - the *acquisition graph*: every nested acquisition records a
///    (held-rank → acquired-rank) edge in a lock-free matrix;
///    lockGraphToJson() exports it as a gcsafe-lockgraph-v1 document and
///    `check_bench_json.py --lockgraph` verifies the graph is acyclic;
///  - assertHeld(): the dynamic "dropped lock" catcher — code that
///    touches guarded state asserts the guard is actually held, mirroring
///    what Clang's -Wthread-safety proves statically (the annotation on
///    assertHeld teaches the static analysis about the dynamic check).
///
/// The lint is always compiled in: the per-acquisition cost is a
/// thread-local push plus two relaxed atomic increments, which is noise
/// next to the uncontended futex path itself. There is deliberately no
/// "release build" escape hatch — the serve layer runs the lint in
/// production builds the same way it runs admission control.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SUPPORT_RANKEDMUTEX_H
#define GCSAFE_SUPPORT_RANKEDMUTEX_H

#include "support/ThreadSafety.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

namespace gcsafe {
namespace support {

class Json;

/// The global lock order, outermost first: a thread holding rank R may
/// only acquire ranks strictly greater than R. Adding a mutex means
/// adding a rank here, in the position its nesting requires, and a name
/// in lockRankName() — docs/ANALYSIS.md keeps the human-readable table.
enum class LockRank : uint8_t {
  ServeQueue = 0,  ///< serve::CompileService queue + worker pool state.
  ServeInFlight,   ///< serve::CompileService single-flight table.
  ServeFault,      ///< serve::CompileService service-wide failpoint consults.
  ServeHist,       ///< serve::CompileService latency histograms.
  ServeCache,      ///< serve::ContentCache LRU + stats.
  ServeStore,      ///< serve::Store durable-cache counters (never held
                   ///< across IO or callbacks).
  DriverVerifyMemo, ///< driver::VerifyMemo shared verification memo.
  NumRanks
};

/// Display name of a rank ("serve.queue", ...).
const char *lockRankName(LockRank R);

/// What a detected violation (rank inversion or dropped lock) does.
enum class RankCheckPolicy : uint8_t {
  Abort, ///< Diagnostic to stderr, then abort(). The default everywhere.
  Record ///< Count it and keep going — the lint self-test's mode.
};
void setRankCheckPolicy(RankCheckPolicy P);
RankCheckPolicy rankCheckPolicy();

/// Lifetime totals of the lint (process-global, lock-free).
struct LockLintCounters {
  uint64_t RankInversions = 0;
  uint64_t DroppedLocks = 0;
};
LockLintCounters lockLintCounters();

/// The acquisition graph + lint counters as a gcsafe-lockgraph-v1
/// document (schema in docs/ANALYSIS.md §"Concurrency checking").
Json lockGraphToJson();

/// Serializes lockGraphToJson() to \p Path; false when unwritable.
bool writeLockGraph(const std::string &Path);

/// Zeroes the edge matrix and violation counters (tests only; live held
/// ranks are per-thread and unaffected).
void resetLockGraph();

/// A std::mutex that participates in the rank lint and carries the Clang
/// capability annotation. Non-recursive, non-copyable.
class GCSAFE_CAPABILITY("mutex") RankedMutex {
public:
  RankedMutex(LockRank Rank, const char *Name) : Rank(Rank), Name(Name) {}
  RankedMutex(const RankedMutex &) = delete;
  RankedMutex &operator=(const RankedMutex &) = delete;

  /// Lints the acquisition *before* blocking, so a rank inversion is
  /// reported even on the run where it would have deadlocked.
  void lock() GCSAFE_ACQUIRE();
  void unlock() GCSAFE_RELEASE();

  /// The dynamic dropped-lock check: code touching state guarded by this
  /// mutex calls assertHeld() at entry. A violation follows the policy
  /// (abort or count), and the annotation tells the static analysis the
  /// capability is held past this point.
  void assertHeld() const GCSAFE_ASSERT_CAPABILITY(this);

  LockRank rank() const { return Rank; }
  const char *name() const { return Name; }

  /// The raw mutex, for CondVar's wait path only.
  std::mutex &native() { return M; }

private:
  std::mutex M;
  const LockRank Rank;
  const char *const Name;
};

/// std::lock_guard over a RankedMutex.
class GCSAFE_SCOPED_CAPABILITY RankedGuard {
public:
  explicit RankedGuard(RankedMutex &Mu) GCSAFE_ACQUIRE(Mu) : Mu(Mu) {
    Mu.lock();
  }
  ~RankedGuard() GCSAFE_RELEASE() { Mu.unlock(); }
  RankedGuard(const RankedGuard &) = delete;
  RankedGuard &operator=(const RankedGuard &) = delete;

private:
  RankedMutex &Mu;
};

/// std::unique_lock over a RankedMutex: the CondVar wait target, and the
/// early-unlock shape compileAt's deadline paths need.
class GCSAFE_SCOPED_CAPABILITY RankedLock {
public:
  explicit RankedLock(RankedMutex &Mu) GCSAFE_ACQUIRE(Mu);
  ~RankedLock() GCSAFE_RELEASE();
  RankedLock(const RankedLock &) = delete;
  RankedLock &operator=(const RankedLock &) = delete;

  void lock() GCSAFE_ACQUIRE();
  void unlock() GCSAFE_RELEASE();
  bool ownsLock() const { return Owned; }

private:
  friend class CondVar;
  RankedMutex &Mu;
  std::unique_lock<std::mutex> Inner;
  bool Owned = false;
};

/// condition_variable over RankedLock. The lock is held at entry and at
/// return of every wait; the interior release/reacquire is invisible to
/// both the rank lint (no other lock can be acquired by a blocked
/// thread) and the static analysis (the capability is held across the
/// call, which is exactly the contract).
class CondVar {
public:
  void notifyOne() { Cv.notify_one(); }
  void notifyAll() { Cv.notify_all(); }

  void wait(RankedLock &L) { Cv.wait(L.Inner); }

  template <class Pred> void wait(RankedLock &L, Pred P) {
    Cv.wait(L.Inner, std::move(P));
  }

  template <class Rep, class Period>
  std::cv_status waitFor(RankedLock &L,
                         const std::chrono::duration<Rep, Period> &D) {
    return Cv.wait_for(L.Inner, D);
  }

private:
  std::condition_variable Cv;
};

} // namespace support
} // namespace gcsafe

#endif // GCSAFE_SUPPORT_RANKEDMUTEX_H
