//===- support/Trace.cpp --------------------------------------*- C++ -*-===//

#include "support/Trace.h"

#include <algorithm>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

using namespace gcsafe;
using namespace gcsafe::support;

namespace {

/// This thread's identity, stamped into every event it records.
thread_local uint32_t CurrentWorker = 0;
thread_local char CurrentTraceId[sizeof(TraceEvent::TraceId)] = {0};

/// Copies \p Src into the fixed field \p Dst (NUL-terminated, truncated),
/// scrubbed to JSON-safe printable ASCII so the signal-context dumper can
/// emit it verbatim, without an escaper.
template <size_t N> void copyScrubbed(char (&Dst)[N], std::string_view Src) {
  size_t Len = std::min(Src.size(), N - 1);
  for (size_t I = 0; I < Len; ++I) {
    char C = Src[I];
    Dst[I] = (C < 0x20 || C > 0x7e || C == '"' || C == '\\') ? '_' : C;
  }
  std::memset(Dst + Len, 0, N - Len);
}

/// The reader half of the seqlock protocol: copies one slot's payload
/// into \p Out iff the ticket was \p WantTicket (even, nonzero) and
/// stayed that value across the word copy. Relaxed word loads bracketed
/// by an acquire load and an acquire fence — safe from any thread and
/// from signal context.
template <typename SlotT>
bool readSlot(const SlotT &S, uint64_t WantTicket, TraceEvent &Out) {
  if (!WantTicket || (WantTicket & 1))
    return false;
  uint64_t W[SlotT::Words];
  for (size_t I = 0; I < SlotT::Words; ++I)
    W[I] = S.Data[I].load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (S.Ticket.load(std::memory_order_relaxed) != WantTicket)
    return false; // Torn: a writer claimed the slot mid-copy.
  std::memcpy(&Out, W, sizeof(Out));
  return true;
}

} // namespace

void support::setTraceWorker(uint32_t Worker) { CurrentWorker = Worker; }

TraceScope::TraceScope(std::string_view TraceId) {
  std::memcpy(Saved, CurrentTraceId, sizeof(Saved));
  copyScrubbed(CurrentTraceId, TraceId);
}

TraceScope::~TraceScope() {
  std::memcpy(CurrentTraceId, Saved, sizeof(Saved));
}

TraceBuffer::TraceBuffer(size_t Capacity) : Slots(Capacity ? Capacity : 1) {}

void TraceBuffer::emit(const char *Cat, const char *Name, uint64_t Value,
                       uint64_t Aux, std::string_view Detail) {
  span(Cat, Name, monotonicNowNs(), 0, Value, Aux, Detail);
}

void TraceBuffer::span(const char *Cat, const char *Name, uint64_t StartNs,
                       uint64_t DurNs, uint64_t Value, uint64_t Aux,
                       std::string_view Detail) {
  // Build the event on the stack first: the slot only ever holds either
  // a complete payload or an odd ticket.
  TraceEvent E;
  E.StartNs = StartNs;
  E.DurNs = DurNs;
  E.Value = Value;
  E.Aux = Aux;
  E.Cat = Cat;
  E.Name = Name;
  E.Worker = CurrentWorker;
  std::memcpy(E.TraceId, CurrentTraceId, sizeof(E.TraceId));
  copyScrubbed(E.Detail, Detail);
  uint64_t Seq = Head.fetch_add(1, std::memory_order_relaxed) + 1;
  E.Seq = Seq;
  Slot &S = Slots[(Seq - 1) % Slots.size()];
  uint64_t W[Slot::Words];
  std::memcpy(W, &E, sizeof(E));

  // Claim the slot: even (or never-written) -> odd. Losing the CAS means
  // a writer one full ring lap away is still mid-write; dropping this
  // event beats tearing that one.
  uint64_t Cur = S.Ticket.load(std::memory_order_relaxed);
  if ((Cur & 1) ||
      !S.Ticket.compare_exchange_strong(Cur, Seq * 2 - 1,
                                        std::memory_order_relaxed))
    return;
  // Release fence: the odd ticket is visible before any payload word, so
  // a reader can never pair fresh words with the stale even ticket.
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t I = 0; I < Slot::Words; ++I)
    S.Data[I].store(W[I], std::memory_order_relaxed);
  S.Ticket.store(Seq * 2, std::memory_order_release);
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::vector<TraceEvent> Out;
  Out.reserve(Slots.size());
  for (const Slot &S : Slots) {
    TraceEvent E;
    if (readSlot(S, S.Ticket.load(std::memory_order_acquire), E))
      Out.push_back(E);
  }
  std::sort(Out.begin(), Out.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              return A.Seq < B.Seq;
            });
  return Out;
}

namespace {

/// A buffered, async-signal-safe JSON emitter: fixed stack buffer,
/// write(2) on flush, no allocation and no locale-dependent formatting.
struct SafeWriter {
  int Fd;
  char Buf[4096];
  size_t Len = 0;

  explicit SafeWriter(int Fd) : Fd(Fd) {}

  void flush() {
    size_t Off = 0;
    while (Off < Len) {
      ssize_t W = ::write(Fd, Buf + Off, Len - Off);
      if (W <= 0)
        break;
      Off += static_cast<size_t>(W);
    }
    Len = 0;
  }
  void putc(char C) {
    if (Len == sizeof(Buf))
      flush();
    Buf[Len++] = C;
  }
  void put(const char *S) {
    for (; S && *S; ++S)
      putc(*S);
  }
  /// Event strings are pre-scrubbed, but scrub anyway: this also runs on
  /// the caller-supplied reason/id arguments. At most \p Max characters.
  void putJsonStr(const char *S, size_t Max = ~size_t(0)) {
    putc('"');
    for (; S && *S && Max; ++S, --Max) {
      char C = *S;
      putc((C < 0x20 || C > 0x7e || C == '"' || C == '\\') ? '_' : C);
    }
    putc('"');
  }
  void putU64(uint64_t V) {
    char Tmp[24];
    size_t N = 0;
    do {
      Tmp[N++] = char('0' + V % 10);
      V /= 10;
    } while (V);
    while (N)
      putc(Tmp[--N]);
  }
  void putKey(const char *Key, uint64_t V) {
    put(",\"");
    put(Key);
    put("\":");
    putU64(V);
  }
};

} // namespace

void TraceBuffer::dumpTo(int Fd, const char *Reason, const char *RequestId,
                         const char *TraceId, int Signal) const {
  uint64_t Recorded = Head.load(std::memory_order_acquire);
  SafeWriter W(Fd);
  W.put("{\"schema\":\"gcsafe-flightrec-v1\",\"reason\":");
  W.putJsonStr(Reason ? Reason : "");
  W.putKey("signal", Signal < 0 ? 0 : uint64_t(Signal));
  W.put(",\"request_id\":");
  W.putJsonStr(RequestId ? RequestId : "");
  // Truncated like the events' copies, so a long id still matches them.
  W.put(",\"trace_id\":");
  W.putJsonStr(TraceId ? TraceId : "", sizeof(TraceEvent::TraceId) - 1);
  W.putKey("capacity", Slots.size());
  W.putKey("recorded", Recorded);
  W.putKey("dropped", Recorded > Slots.size() ? Recorded - Slots.size() : 0);
  W.put(",\"events\":[");

  // Oldest-first without sorting (no heap in signal context): walk the
  // sequence numbers of the last lap. Everything live is within it.
  uint64_t Oldest = Recorded > Slots.size() ? Recorded - Slots.size() + 1 : 1;
  bool First = true;
  for (uint64_t Seq = Oldest; Seq <= Recorded; ++Seq) {
    const Slot &S = Slots[(Seq - 1) % Slots.size()];
    TraceEvent E;
    if (!readSlot(S, S.Ticket.load(std::memory_order_acquire), E) ||
        E.Seq != Seq)
      continue; // Empty, torn, or already overwritten by a racing writer.
    if (!First)
      W.putc(',');
    First = false;
    W.put("{\"seq\":");
    W.putU64(E.Seq);
    W.putKey("t_ns", E.StartNs);
    W.putKey("dur_ns", E.DurNs);
    W.putKey("worker", E.Worker);
    W.put(",\"cat\":");
    W.putJsonStr(E.Cat);
    W.put(",\"name\":");
    W.putJsonStr(E.Name);
    W.put(",\"request_id\":");
    W.putJsonStr(E.TraceId);
    W.putKey("value", E.Value);
    W.putKey("aux", E.Aux);
    if (E.Detail[0]) {
      W.put(",\"detail\":");
      W.putJsonStr(E.Detail);
    }
    W.putc('}');
  }
  W.put("]}\n");
  W.flush();
}

bool TraceBuffer::dumpToFile(const std::string &Path, const char *Reason,
                             const std::string &RequestId,
                             const std::string &TraceId, int Signal) const {
  int Fd = ::open(Path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (Fd < 0)
    return false;
  dumpTo(Fd, Reason, RequestId.c_str(), TraceId.c_str(), Signal);
  ::close(Fd);
  return true;
}

//===----------------------------------------------------------------------===//
// Fatal-signal dump
//===----------------------------------------------------------------------===//

namespace {

const TraceBuffer *FatalRing = nullptr;
char FatalPath[512] = {0};

void fatalDumpHandler(int Sig) {
  // SA_RESETHAND restored the default disposition before we got here;
  // everything below is async-signal-safe (open/write/close only).
  if (FatalRing && FatalPath[0]) {
    int Fd = ::open(FatalPath, O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (Fd >= 0) {
      FatalRing->dumpTo(Fd, "signal", "", "", Sig);
      ::close(Fd);
    }
  }
  raise(Sig);
}

} // namespace

void support::installFlightDump(const TraceBuffer &R,
                                const std::string &Path) {
  FatalRing = &R;
  size_t N = std::min(Path.size(), sizeof(FatalPath) - 1);
  std::memcpy(FatalPath, Path.data(), N);
  FatalPath[N] = '\0';
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = fatalDumpHandler;
  SA.sa_flags = SA_RESETHAND;
  sigemptyset(&SA.sa_mask);
  const int Fatal[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
  for (int Sig : Fatal)
    sigaction(Sig, &SA, nullptr);
}

//===----------------------------------------------------------------------===//
// Chrome trace_event export
//===----------------------------------------------------------------------===//

Json support::traceToChromeJson(const TraceBuffer &Ring) {
  std::vector<Json> Out;
  std::vector<uint32_t> Workers;
  for (const TraceEvent &E : Ring.snapshot()) {
    if (std::find(Workers.begin(), Workers.end(), E.Worker) == Workers.end())
      Workers.push_back(E.Worker);
    std::string Cat = E.Cat, Name = E.Name;
    Json J = Json::object();
    J["name"] = Json::string(Cat + "." + Name +
                             (E.Detail[0] ? ":" + std::string(E.Detail) : ""));
    J["cat"] = Json::string(Cat);
    J["ts"] = Json::number(static_cast<double>(E.StartNs) / 1000.0);
    if (Cat == "serve" && (Name == "request.begin" || Name == "request.end")) {
      // Async begin/end pair keyed by trace id: Chrome/Perfetto nests
      // every stage between them under one per-request span tree.
      J["name"] = Json::string("request");
      J["ph"] = Json::string(Name == "request.begin" ? "b" : "e");
      J["id"] = Json::string(E.TraceId);
    } else if (E.DurNs) {
      J["ph"] = Json::string("X");
      J["dur"] = Json::number(static_cast<double>(E.DurNs) / 1000.0);
    } else {
      J["ph"] = Json::string("i");
      J["s"] = Json::string("t");
    }
    J["pid"] = Json::integer(int64_t(1));
    J["tid"] = Json::integer(uint64_t(E.Worker));
    Json Args = Json::object();
    if (E.TraceId[0])
      Args["request_id"] = Json::string(E.TraceId);
    Args["value"] = Json::integer(E.Value);
    Args["aux"] = Json::integer(E.Aux);
    Args["seq"] = Json::integer(E.Seq);
    J["args"] = std::move(Args);
    Out.push_back(std::move(J));
  }
  std::stable_sort(Out.begin(), Out.end(), [](const Json &A, const Json &B) {
    return A.get("ts")->asDouble() < B.get("ts")->asDouble();
  });

  Json Events = Json::array();
  std::sort(Workers.begin(), Workers.end());
  for (uint32_t W : Workers) {
    Json M = Json::object();
    M["name"] = Json::string("thread_name");
    M["ph"] = Json::string("M");
    M["pid"] = Json::integer(int64_t(1));
    M["tid"] = Json::integer(uint64_t(W));
    Json Args = Json::object();
    Args["name"] = Json::string(W ? "worker " + std::to_string(W) : "main");
    M["args"] = std::move(Args);
    Events.push(std::move(M));
  }
  for (Json &J : Out)
    Events.push(std::move(J));
  Json Root = Json::object();
  Root["traceEvents"] = std::move(Events);
  Root["displayTimeUnit"] = Json::string("ms");
  return Root;
}
