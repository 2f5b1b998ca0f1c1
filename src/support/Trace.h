//===- support/Trace.h - The event ring ------------------------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one event ring (docs/OBSERVABILITY.md §2). Every producer — the
/// driver's phases, the optimizer's passes, the collector, the VM and the
/// compile service's request stages — records fixed-size, heap-free
/// TraceEvents into a TraceBuffer: instants, and spans that carry their
/// own start and length. The ring is lock-free, so the compile service's
/// workers share one, and its dump is async-signal-safe, so a fatal-signal
/// handler can write it. One document format (gcsafe-flightrec-v1) serves
/// the crash dump and gcsafe-cc --trace-json; one Chrome exporter serves
/// gcsafe-cc and gcsafe-serve --trace-chrome.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SUPPORT_TRACE_H
#define GCSAFE_SUPPORT_TRACE_H

#include "support/Stats.h"

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gcsafe {
namespace support {

/// One ring record. Categories group producers ("phase", "pass", "gc",
/// "vm", "serve", ...); Value and Aux are event-defined payloads
/// documented per event name in docs/OBSERVABILITY.md. Trivially copyable
/// and heap-free: slots are written lock-free from any thread and read
/// from a fatal-signal handler, so nothing here may own memory.
struct TraceEvent {
  uint64_t Seq = 0;     ///< Global record order (1-based); 0 = empty slot.
  uint64_t StartNs = 0; ///< monotonicNowNs() at the event or span start.
  uint64_t DurNs = 0;   ///< Span length; 0 for an instant.
  uint64_t Value = 0;
  uint64_t Aux = 0;
  const char *Cat = "";  ///< Static literal.
  const char *Name = ""; ///< Static literal.
  uint32_t Worker = 0;   ///< The recording thread's worker index.
  char TraceId[48] = {0}; ///< The recording thread's trace id, scrubbed.
  char Detail[44] = {0};  ///< Free-form context, truncated and scrubbed.
};
static_assert(std::is_trivially_copyable<TraceEvent>::value,
              "TraceEvent is copied as raw words");
static_assert(sizeof(TraceEvent) % sizeof(uint64_t) == 0,
              "TraceEvent must be word-copyable into a seqlock slot");

/// Sets the worker index this thread stamps into every event it records
/// (0, the default, is any thread that is not a pool worker).
void setTraceWorker(uint32_t Worker);

/// Stamps \p TraceId into every event this thread records while the scope
/// lives, then restores the previous id: a request's compiler spans land
/// in a shared ring attributed to it without being passed the id.
class TraceScope {
public:
  explicit TraceScope(std::string_view TraceId);
  ~TraceScope();
  TraceScope(const TraceScope &) = delete;
  TraceScope &operator=(const TraceScope &) = delete;

private:
  char Saved[sizeof(TraceEvent::TraceId)];
};

/// The ring. Recording is lock-free (one fetch_add, one CAS to claim the
/// slot, relaxed word stores); when it wraps, the oldest events are
/// overwritten and counted as dropped, so tracing can stay on for long
/// runs in bounded memory.
///
/// Memory ordering is the atomic seqlock recipe from Boehm, "Can Seqlocks
/// Get Along With Programming Language Memory Models?" (MSPC 2012): slot
/// payloads are relaxed atomic words bracketed by a release-fenced
/// odd/even ticket, so the ring is TSan-clean with zero suppressions
/// (docs/ANALYSIS.md §"Concurrency checking"). A reader accepts a slot
/// only when the ticket is even and unchanged across the word copy; a
/// writer that laps a straggling writer on the same slot loses the claim
/// CAS and drops its event instead of tearing the payload.
class TraceBuffer {
public:
  explicit TraceBuffer(size_t Capacity = 4096);
  TraceBuffer(const TraceBuffer &) = delete;
  TraceBuffer &operator=(const TraceBuffer &) = delete;

  /// Records an instant. \p Cat and \p Name MUST be string literals (they
  /// are stored by pointer); \p Detail is copied, truncated and scrubbed.
  void emit(const char *Cat, const char *Name, uint64_t Value = 0,
            uint64_t Aux = 0, std::string_view Detail = {});
  /// Records a span that started at \p StartNs and lasted \p DurNs.
  /// Record it as it closes, so one thread's events end in record order.
  void span(const char *Cat, const char *Name, uint64_t StartNs,
            uint64_t DurNs, uint64_t Value = 0, uint64_t Aux = 0,
            std::string_view Detail = {});

  /// Torn-write-tolerant copy of the ring, oldest first. Not for signal
  /// context (allocates).
  std::vector<TraceEvent> snapshot() const;

  size_t capacity() const { return Slots.size(); }
  /// Total events ever recorded.
  uint64_t recorded() const { return Head.load(std::memory_order_acquire); }
  /// Events overwritten because the ring wrapped.
  uint64_t dropped() const {
    uint64_t N = recorded();
    return N > Slots.size() ? N - Slots.size() : 0;
  }

  /// Async-signal-safe dump of the ring as one gcsafe-flightrec-v1 JSON
  /// line: only write(2) and stack buffers. \p Reason is "crash" (isolate
  /// path), "signal" (fatal handler) or "export" (gcsafe-cc
  /// --trace-json); \p RequestId / \p TraceId name the attributed victim
  /// (may be empty); \p Signal is the killing signal (0 = none).
  void dumpTo(int Fd, const char *Reason, const char *RequestId,
              const char *TraceId, int Signal) const;

  /// open + dumpTo + close. Returns false when the file cannot be created.
  bool dumpToFile(const std::string &Path, const char *Reason,
                  const std::string &RequestId, const std::string &TraceId,
                  int Signal) const;

private:
  struct Slot {
    /// 0 = never written; odd = write in progress; even = Seq * 2.
    std::atomic<uint64_t> Ticket{0};
    static constexpr size_t Words = sizeof(TraceEvent) / sizeof(uint64_t);
    std::atomic<uint64_t> Data[Words];
  };
  std::vector<Slot> Slots;
  std::atomic<uint64_t> Head{0};
};

/// Installs a fatal-signal handler (SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT)
/// that dumps \p R to \p Path (reason "signal") and then re-raises with
/// the default disposition. The ring pointer and path are stored in
/// globals: call at most once per process, with a ring that outlives
/// every thread (gcsafe-serve --flightrec-dir does this at startup).
void installFlightDump(const TraceBuffer &R, const std::string &Path);

/// Chrome trace_event export of a ring (object form {"traceEvents":
/// [...]}), loadable in Perfetto / chrome://tracing: pid 1, one track per
/// worker, spans as "X" complete events, serve request.begin/request.end
/// as async "b"/"e" pairs keyed by trace id (so each request reads as one
/// span tree), everything else as "i" instants; sorted by timestamp in
/// microseconds on the shared monotonic clock.
Json traceToChromeJson(const TraceBuffer &Ring);

} // namespace support
} // namespace gcsafe

#endif // GCSAFE_SUPPORT_TRACE_H
