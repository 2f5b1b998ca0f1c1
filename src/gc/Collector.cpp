//===- gc/Collector.cpp ---------------------------------------*- C++ -*-===//

#include "gc/Collector.h"

#include <bit>
#include <cassert>
#include <csetjmp>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

using namespace gcsafe;
using namespace gcsafe::gc;

namespace {
constexpr size_t SegmentPages = 256; // 1 MiB segments
} // namespace

const char *gcsafe::gc::oomPolicyName(OomPolicy P) {
  switch (P) {
  case OomPolicy::Graceful: return "graceful";
  case OomPolicy::Fail: return "fail";
  case OomPolicy::Abort: return "abort";
  }
  return "?";
}

const char *gcsafe::gc::allocStatusName(AllocStatus S) {
  switch (S) {
  case AllocStatus::Ok: return "ok";
  case AllocStatus::OutOfMemory: return "out-of-memory";
  case AllocStatus::TooLarge: return "too-large";
  }
  return "?";
}

Collector::Collector(CollectorConfig ConfigIn) : Config(std::move(ConfigIn)) {
  if (Config.Faults) {
    FpSegmentAlloc = Config.Faults->siteId("heap.segment_alloc");
    FpPageTableGrow = Config.Faults->siteId("heap.page_table_grow");
    FpAllocSmall = Config.Faults->siteId("gc.alloc_small");
    FpAllocLarge = Config.Faults->siteId("gc.alloc_large");
  }
}

bool Collector::faultFires(size_t SiteId) {
  if (!Config.Faults || !Config.Faults->shouldFail(SiteId))
    return false;
  ++Stats.FaultsInjected;
  return true;
}

Collector::~Collector() {
  for (Segment &S : Segments)
    std::free(S.Base);
  for (PageDescriptor *D : AllPages)
    delete D;
}

size_t Collector::paddedSize(size_t Size) {
  if (Size == 0)
    Size = 1;
  Size += 1;
  return (Size + GranuleSize - 1) & ~(GranuleSize - 1);
}

void Collector::maybeCollect() {
  if (DisableDepth || InCollection)
    return;
  bool CountHit =
      Config.AllocCountTrigger && AllocsSinceGC >= Config.AllocCountTrigger;
  bool BytesHit = BytesSinceGC >= Config.BytesTrigger;
  if (CountHit || BytesHit)
    collect();
}

void *Collector::allocate(size_t Size) { return allocateImpl(Size, false); }

void *Collector::allocateAtomic(size_t Size) {
  return allocateImpl(Size, true);
}

AllocResult Collector::tryAllocate(size_t Size) {
  return tryAllocateImpl(Size, false);
}

AllocResult Collector::tryAllocateAtomic(size_t Size) {
  return tryAllocateImpl(Size, true);
}

void *Collector::allocateImpl(size_t Size, bool Atomic) {
  AllocResult R = tryAllocateImpl(Size, Atomic);
  if (R.ok())
    return R.Ptr;
  if (Config.Oom == OomPolicy::Abort) {
    std::fprintf(stderr, "gcsafe: out of memory (%zu bytes, %s)\n", Size,
                 allocStatusName(R.Status));
    std::abort();
  }
  return nullptr;
}

/// One allocation attempt, with the entry failpoints applied. Retries call
/// this again, re-drawing the failpoints, so injected transient failures
/// can recover on a later rung.
void *Collector::attemptAlloc(size_t Padded, bool Atomic, bool Small) {
  if (faultFires(Small ? FpAllocSmall : FpAllocLarge))
    return nullptr;
  return Small ? allocateSmall(Padded, Atomic)
               : allocateLarge(Padded, Atomic);
}

/// The OOM recovery ladder (docs/ROBUSTNESS.md): emergency collection,
/// then Config.OomRetries re-collect-and-retry rungs, then the client
/// callback. Returns null only when every rung failed.
void *Collector::recoverFromOom(size_t Padded, bool Atomic, bool Small,
                                size_t Size) {
  if (Config.Oom == OomPolicy::Fail)
    return nullptr;
  void *P = nullptr;
  bool CanCollect = !DisableDepth && !InCollection;
  if (CanCollect) {
    ++Stats.EmergencyCollections;
    if (Config.Trace)
      Config.Trace->emit("gc", "oom.emergency", Size, Stats.HeapPages);
    collect();
    P = attemptAlloc(Padded, Atomic, Small);
  }
  for (unsigned I = 0; !P && I < Config.OomRetries; ++I) {
    ++Stats.OomRetriesPerformed;
    if (Config.Trace)
      Config.Trace->emit("gc", "oom.retry", I + 1, Size);
    if (I > 0 && CanCollect)
      collect();
    P = attemptAlloc(Padded, Atomic, Small);
  }
  if (!P && Config.OomFn) {
    ++Stats.OomCallbackInvocations;
    if (Config.Trace)
      Config.Trace->emit("gc", "oom.callback", Padded, 0);
    P = Config.OomFn(Padded);
  }
  return P;
}

AllocResult Collector::tryAllocateImpl(size_t Size, bool Atomic) {
  ++AllocsSinceGC;
  ++Stats.AllocationCount;
  Stats.BytesRequested += Size;
  maybeCollect();
  size_t Padded = paddedSize(Size);
  if (Padded < Size) { // size arithmetic overflowed: invalid request
    ++Stats.AllocFailures;
    return {nullptr, AllocStatus::TooLarge};
  }
  BytesSinceGC += Padded;
  bool Small = Padded <= MaxSmallSize;
  void *Result = attemptAlloc(Padded, Atomic, Small);
  if (!Result)
    Result = recoverFromOom(Padded, Atomic, Small, Size);
  if (!Result) {
    ++Stats.AllocFailures;
    if (Config.Trace)
      Config.Trace->emit("gc", "oom.fail", Size, Stats.HeapPages);
    return {nullptr, AllocStatus::OutOfMemory};
  }
  std::memset(Result, 0, Padded);
  // OomFn can hand out memory outside the collected heap; only heap
  // objects enter the profile (the sweep never reports frees for the
  // rest, and the live-bytes invariant is over heap objects only).
  if (Config.Profile && baseOf(Result) == Result)
    Config.Profile->recordAlloc(Result, Size, Padded, CurAllocSite,
                                Stats.Collections);
  return {Result, AllocStatus::Ok};
}

void *Collector::allocateSmall(size_t Padded, bool Atomic) {
  size_t Class = Padded / GranuleSize - 1;
  assert(Class < NumSizeClasses && "bad size class");
  if (Class >= NumSizeClasses)
    return nullptr; // defensive: invalid request must not corrupt the heap

  FreeSlot *&List = FreeLists[Atomic][Class];
  if (!List) {
    PageDescriptor *Desc = takeFreePage();
    if (!Desc)
      return nullptr; // page acquisition failed; the caller runs the ladder
    initSmallPage(Desc, Padded, Atomic);
  }
  FreeSlot *Slot = List;
  List = Slot->Next;
  PageDescriptor *Desc = Table.lookup(Slot);
  Desc->setAllocBit(Desc->slotOf(reinterpret_cast<uintptr_t>(Slot)));
  return Slot;
}

void Collector::initSmallPage(PageDescriptor *Desc, size_t ObjSize,
                              bool Atomic) {
  Desc->Kind = PageKind::PK_Small;
  Desc->Atomic = Atomic;
  Desc->ObjSize = static_cast<uint16_t>(ObjSize);
  Desc->ObjCount = static_cast<uint16_t>(PageSize / ObjSize);
  Desc->SlotMul = static_cast<uint32_t>((uint64_t(1) << 32) / ObjSize + 1);
  Desc->LargePages = 0;
  Desc->LargeSize = 0;
  Desc->LargeHead = nullptr;

  // Poison the whole page before carving it into free slots so the audit's
  // poison-byte invariant (every free slot is PoisonByte beyond its
  // free-list header) holds for never-yet-allocated slots too.
  std::memset(Desc->PageStart, PoisonByte, PageSize);
  for (unsigned I = 0; I < Desc->ObjCount; ++I)
    pushFreeSlot(Desc, I);
}

void Collector::pushFreeSlot(PageDescriptor *Desc, unsigned Slot) {
  auto *Free = reinterpret_cast<FreeSlot *>(Desc->PageStart +
                                            size_t(Slot) * Desc->ObjSize);
  FreeSlot *&List = FreeLists[Desc->Atomic][Desc->ObjSize / GranuleSize - 1];
  Free->Next = List;
  List = Free;
}

void *Collector::allocateLarge(size_t Padded, bool Atomic) {
  size_t NPages = (Padded + PageSize - 1) / PageSize;
  std::vector<PageDescriptor *> Descs;
  char *Run = takePageRun(NPages, Descs);
  if (!Run)
    return nullptr;
  PageDescriptor *Head = Descs[0];
  Head->Kind = PageKind::PK_LargeStart;
  Head->Atomic = Atomic;
  Head->LargePages = static_cast<uint32_t>(NPages);
  Head->LargeSize = Padded;
  Head->LargeHead = nullptr;
  Head->setAllocBit(0);
  for (size_t I = 1; I < NPages; ++I) {
    PageDescriptor *Cont = Descs[I];
    Cont->Kind = PageKind::PK_LargeCont;
    Cont->Atomic = Atomic;
    Cont->LargeHead = Head;
  }
  return Run;
}

PageDescriptor *Collector::takeFreePage() {
  if (FreePageList) {
    PageDescriptor *Desc = FreePageList;
    FreePageList = Desc->NextFree;
    Desc->NextFree = nullptr;
    return Desc;
  }
  std::vector<PageDescriptor *> Descs;
  if (!takePageRun(1, Descs))
    return nullptr;
  return Descs[0];
}

char *Collector::takePageRun(size_t NPages,
                             std::vector<PageDescriptor *> &Descs) {
  // Hard heap cap (testable stand-in for real exhaustion): refuse to grow
  // past Config.MaxHeapPages. 0 means unlimited.
  if (Config.MaxHeapPages && Stats.HeapPages + NPages > Config.MaxHeapPages)
    return nullptr;

  // Try to bump-allocate from the most recent segment.
  Segment *Seg = nullptr;
  if (!Segments.empty() &&
      Segments.back().NextFreePage + NPages <= Segments.back().Pages)
    Seg = &Segments.back();
  if (!Seg) {
    if (faultFires(FpSegmentAlloc))
      return nullptr;
    size_t Want = NPages > SegmentPages ? NPages : SegmentPages;
    // Don't speculatively reserve past the cap; the earlier check
    // guarantees Room >= NPages.
    if (Config.MaxHeapPages) {
      size_t Room = Config.MaxHeapPages - Stats.HeapPages;
      if (Want > Room)
        Want = Room;
    }
    char *Base =
        static_cast<char *>(std::aligned_alloc(PageSize, Want * PageSize));
    if (!Base && Want > NPages) {
      // Backoff: the full segment reserve failed; retry at the request's
      // exact size before reporting exhaustion.
      ++Stats.SegmentBackoffs;
      Want = NPages;
      Base =
          static_cast<char *>(std::aligned_alloc(PageSize, Want * PageSize));
    }
    if (!Base)
      return nullptr;
    Segments.push_back({Base, Want, 0});
    Seg = &Segments.back();
  }
  char *Run = Seg->Base + Seg->NextFreePage * PageSize;
  size_t FirstDesc = Descs.size();
  for (size_t I = 0; I < NPages; ++I) {
    PageDescriptor *Desc = nullptr;
    if (!faultFires(FpPageTableGrow))
      Desc = new (std::nothrow) PageDescriptor();
    if (Desc)
      Desc->PageStart = Run + I * PageSize;
    if (!Desc || !Table.insert(Desc->PageStart, Desc)) {
      // Mid-run failure: unregister the pages already mapped for this run
      // and leave the bump pointer untouched, so the heap is exactly as it
      // was before the call. The segment (if freshly reserved) is kept for
      // future requests.
      delete Desc;
      while (Descs.size() > FirstDesc) {
        PageDescriptor *Prev = Descs.back();
        Descs.pop_back();
        Table.erase(Prev->PageStart);
        assert(!AllPages.empty() && AllPages.back() == Prev);
        AllPages.pop_back();
        delete Prev;
      }
      return nullptr;
    }
    AllPages.push_back(Desc);
    Descs.push_back(Desc);
  }
  Seg->NextFreePage += NPages;
  Stats.HeapPages += NPages;
  return Run;
}

void *Collector::baseOf(const void *P) const {
  HeapRef L = locate(reinterpret_cast<uintptr_t>(P));
  return L.State == HeapRef::Live ? L.Base : nullptr;
}

Collector::Relation Collector::relate(const void *P, const void *Base) const {
  HeapRef L = locate(reinterpret_cast<uintptr_t>(Base));
  if (L.State != HeapRef::Live)
    return L.State == HeapRef::Freed ? Relation::Freed : Relation::NotHeap;
  uintptr_t Off =
      reinterpret_cast<uintptr_t>(P) - reinterpret_cast<uintptr_t>(L.Base);
  return Off < L.Size ? Relation::Same : Relation::Other;
}

size_t Collector::objectSize(const void *P) const {
  HeapRef L = locate(reinterpret_cast<uintptr_t>(P));
  return L.State == HeapRef::Live ? L.Size : 0;
}

void Collector::addStaticRoots(const void *Begin, const void *End) {
  StaticRoots.push_back(
      {static_cast<const char *>(Begin), static_cast<const char *>(End)});
}

void Collector::removeStaticRoots(const void *Begin) {
  for (size_t I = 0; I < StaticRoots.size(); ++I) {
    if (StaticRoots[I].Begin == Begin) {
      StaticRoots.erase(StaticRoots.begin() + I);
      return;
    }
  }
}

int Collector::addRootScanner(RootScanFn Fn) {
  int Token = NextScannerToken++;
  RootScanners.emplace_back(Token, std::move(Fn));
  return Token;
}

void Collector::removeRootScanner(int Token) {
  for (size_t I = 0; I < RootScanners.size(); ++I) {
    if (RootScanners[I].first == Token) {
      RootScanners.erase(RootScanners.begin() + I);
      return;
    }
  }
}

//===----------------------------------------------------------------------===//
// Marking
//===----------------------------------------------------------------------===//

// Most scanned words are not heap pointers: their rejection is inlined
// into the scan loops, and only live objects pay for a call.
[[gnu::always_inline]] inline void Collector::markAddress(uintptr_t Addr,
                                                        bool FromHeap) {
  HeapRef L = locate(Addr);
  if (L.State == HeapRef::Live)
    markObject(L, Addr, FromHeap);
}

class Collector::MarkVisitor : public RootVisitor {
public:
  explicit MarkVisitor(Collector &C) : C(C) {}
  void visitRange(const void *Begin, const void *End) override {
    C.markRange(static_cast<const char *>(Begin),
                static_cast<const char *>(End), /*FromHeap=*/false);
  }
  void visitWord(uintptr_t Word) override {
    C.markAddress(Word, /*FromHeap=*/false);
  }

private:
  Collector &C;
};

void Collector::markObject(const HeapRef &L, uintptr_t Addr, bool FromHeap) {
  char *Base = L.Base;
  bool Interior = Addr != reinterpret_cast<uintptr_t>(Base);

  // Base-pointers-only mode: words found in the heap are only treated as
  // pointers when they address the first byte of the object.
  if (FromHeap && Interior && !Config.AllInteriorPointers)
    return;

  ++CurEvent.PointerHits;
  if (Interior) {
    ++CurEvent.InteriorHits;
    if (Config.Profile)
      Config.Profile->recordInteriorHit(Base);
  }

  if (L.Bits->markBit(L.Slot))
    return;
  L.Bits->setMarkBit(L.Slot);
  ++CurEvent.MarkedObjects;
  if (Interior) {
    ++CurEvent.FalseRetentionCandidates;
    if (Config.Profile)
      Config.Profile->recordFalseRetention(Base);
  }
  if (!L.Bits->Atomic)
    MarkStack.push_back({Base, L.Size});
}

// A conservative scan reads whole frames, ASan redzones included (bdwgc's
// stack scanner opts out the same way). Only in ASan builds: GCC will not
// inline a function across a sanitizer-attribute mismatch.
#if defined(__SANITIZE_ADDRESS__) || defined(__clang__)
__attribute__((no_sanitize_address))
#endif
void Collector::markRange(const char *Begin, const char *End, bool FromHeap) {
  uintptr_t B = reinterpret_cast<uintptr_t>(Begin);
  uintptr_t E = reinterpret_cast<uintptr_t>(End);
  B = (B + sizeof(uintptr_t) - 1) & ~(sizeof(uintptr_t) - 1);
  for (; B + sizeof(uintptr_t) <= E; B += sizeof(uintptr_t)) {
    uintptr_t Word;
    std::memcpy(&Word, reinterpret_cast<const void *>(B), sizeof(Word));
    ++CurEvent.WordsScanned;
    markAddress(Word, FromHeap);
  }
}

void Collector::drainMarkStack() {
  while (!MarkStack.empty()) {
    MarkItem Item = MarkStack.back();
    MarkStack.pop_back();
    markRange(Item.Begin, Item.Begin + Item.Size, /*FromHeap=*/true);
  }
}

void Collector::scanMachineStack() {
  if (!StackBottom)
    return;
  // Spill callee-saved registers into a jmp_buf so register-resident
  // pointers are visible on the stack, then conservatively scan from the
  // current frame to the recorded stack bottom.
  std::jmp_buf Env;
  setjmp(Env);
  markRange(reinterpret_cast<const char *>(&Env),
            reinterpret_cast<const char *>(StackBottom),
            /*FromHeap=*/false);
}

void Collector::collect() {
  if (DisableDepth || InCollection)
    return;
  InCollection = true;

  CurEvent = CollectionEvent();
  CurEvent.Index = Stats.Collections;
  uint64_t MarkStartNs = support::monotonicNowNs();

  for (const RootRange &R : StaticRoots)
    markRange(R.Begin, R.End, /*FromHeap=*/false);
  MarkVisitor Visitor(*this);
  for (auto &Scanner : RootScanners)
    Scanner.second(Visitor);
  if (Config.ScanMachineStack)
    scanMachineStack();
  drainMarkStack();

  CurEvent.MarkNs = support::monotonicNowNs() - MarkStartNs;
  if (Config.Trace)
    Config.Trace->span("gc", "mark", MarkStartNs, CurEvent.MarkNs,
                       CurEvent.MarkedObjects, CurEvent.WordsScanned);
  uint64_t SweepStartNs = support::monotonicNowNs();

  sweep();

  uint64_t EndNs = support::monotonicNowNs();
  CurEvent.SweepNs = EndNs - SweepStartNs;
  CurEvent.FreedObjects = Stats.FreedObjectsLastGC;
  CurEvent.LiveBytes = Stats.LiveBytesAfterLastGC;
  if (Config.Trace) {
    Config.Trace->span("gc", "sweep", SweepStartNs, CurEvent.SweepNs,
                       CurEvent.FreedObjects, CurEvent.LiveBytes);
    Config.Trace->span("gc", "collect", MarkStartNs, EndNs - MarkStartNs,
                       CurEvent.Index, Stats.HeapPages);
  }

  if (Config.CollectDeadlineNs &&
      CurEvent.MarkNs + CurEvent.SweepNs > Config.CollectDeadlineNs) {
    ++Stats.GcDeadlineExceeded;
    if (Config.Trace)
      Config.Trace->emit("robust", "gc.deadline",
                         CurEvent.MarkNs + CurEvent.SweepNs,
                         Config.CollectDeadlineNs);
  }

  Stats.MarkNs += CurEvent.MarkNs;
  Stats.SweepNs += CurEvent.SweepNs;
  Stats.WordsScanned += CurEvent.WordsScanned;
  Stats.PointerHits += CurEvent.PointerHits;
  Stats.MarkedObjects += CurEvent.MarkedObjects;
  Stats.InteriorPointerHits += CurEvent.InteriorHits;
  Stats.FalseRetentionCandidates += CurEvent.FalseRetentionCandidates;
  if (Stats.Events.size() >= CollectorStats::MaxEvents)
    Stats.Events.pop_front();
  Stats.Events.push_back(CurEvent);

  ++Stats.Collections;
  BytesSinceGC = 0;
  AllocsSinceGC = 0;
  InCollection = false;

  if (Config.AuditEachCollection)
    auditHeap();
}

//===----------------------------------------------------------------------===//
// Sweeping
//===----------------------------------------------------------------------===//

void Collector::sweep() {
  for (auto &Lists : FreeLists)
    for (FreeSlot *&List : Lists)
      List = nullptr;

  size_t LiveBytes = 0;
  size_t Freed = 0;

  CurEvent.PagesScanned = AllPages.size();
  for (PageDescriptor *Desc : AllPages) {
    switch (Desc->Kind) {
    case PageKind::PK_Free:
    case PageKind::PK_LargeCont:
      break;
    case PageKind::PK_Small: {
      // One 64-slot word at a time: the dead slots are alloc & ~mark. Only
      // they are poisoned and reported, and the marks are cleared for the
      // next collection.
      const unsigned Words = (Desc->ObjCount + 63) / 64;
      unsigned Live = 0;
      for (unsigned W = 0; W < Words; ++W) {
        uint64_t Dead = Desc->AllocBits[W] & ~Desc->MarkBits[W];
        Desc->AllocBits[W] &= ~Dead;
        Desc->MarkBits[W] = 0;
        Live += std::popcount(Desc->AllocBits[W]);
        Freed += std::popcount(Dead);
        for (; Dead; Dead &= Dead - 1) {
          char *Obj = Desc->PageStart +
                      size_t(W * 64 + std::countr_zero(Dead)) * Desc->ObjSize;
          if (Config.Profile)
            Config.Profile->recordFree(Obj, CurEvent.Index);
          std::memset(Obj, PoisonByte, Desc->ObjSize);
        }
      }
      if (Live == 0) {
        Desc->Kind = PageKind::PK_Free;
        Desc->NextFree = FreePageList;
        FreePageList = Desc;
        break;
      }
      LiveBytes += size_t(Live) * Desc->ObjSize;
      // The free list gets every clear slot, in ascending slot order.
      for (unsigned W = 0; W < Words; ++W) {
        unsigned Left = Desc->ObjCount - W * 64;
        uint64_t Free = ~Desc->AllocBits[W];
        if (Left < 64)
          Free &= (uint64_t(1) << Left) - 1;
        for (; Free; Free &= Free - 1)
          pushFreeSlot(Desc, W * 64 + std::countr_zero(Free));
      }
      break;
    }
    case PageKind::PK_LargeStart: {
      if (!Desc->allocBit(0))
        break;
      if (Desc->markBit(0)) {
        Desc->MarkBits[0] = 0;
        LiveBytes += Desc->LargeSize;
        break;
      }
      ++Freed;
      if (Config.Profile)
        Config.Profile->recordFree(Desc->PageStart, CurEvent.Index);
      std::memset(Desc->PageStart, PoisonByte, Desc->LargeSize);
      Desc->clearAllocBit(0);
      releaseLargeRun(Desc);
      break;
    }
    }
  }

  Stats.LiveBytesAfterLastGC = LiveBytes;
  Stats.FreedObjectsLastGC = Freed;

  if (Config.Profile)
    Config.Profile->snapshotAfterGc();
}

/// Returns every page of the large object headed by \p Head to the free
/// page list.
void Collector::releaseLargeRun(PageDescriptor *Head) {
  size_t NPages = Head->LargePages;
  for (size_t I = 0; I < NPages; ++I) {
    PageDescriptor *PD = Table.lookup(Head->PageStart + I * PageSize);
    assert(PD && "large run page missing from table");
    PD->Kind = PageKind::PK_Free;
    PD->LargeHead = nullptr;
    PD->NextFree = FreePageList;
    FreePageList = PD;
  }
}

void Collector::deallocate(void *P) {
  HeapRef L = locate(reinterpret_cast<uintptr_t>(P));
  if (L.State != HeapRef::Live)
    return;
  if (Config.Profile)
    Config.Profile->recordFree(L.Base, Stats.Collections);
  std::memset(L.Base, PoisonByte, L.Size);
  L.Bits->clearAllocBit(L.Slot);
  if (L.Bits->Kind == PageKind::PK_Small)
    pushFreeSlot(L.Bits, L.Slot);
  else
    releaseLargeRun(L.Bits);
}

//===----------------------------------------------------------------------===//
// Heap integrity audit
//===----------------------------------------------------------------------===//

HeapAuditReport Collector::auditHeap() {
  HeapAuditReport R;
  char Buf[192];
  auto Violate = [&](const char *Fmt, auto... Args) {
    std::snprintf(Buf, sizeof(Buf), Fmt, Args...);
    ++R.ViolationCount;
    if (R.Violations.size() < HeapAuditReport::MaxRecorded)
      R.Violations.emplace_back(Buf);
    if (Config.Trace)
      Config.Trace->emit("gc", "audit.violation", R.ViolationCount, 0);
  };

  size_t FreePages = 0;
  for (PageDescriptor *D : AllPages) {
    ++R.PagesAudited;
    uintptr_t A = reinterpret_cast<uintptr_t>(D->PageStart);
    if (!D->PageStart || (A & (PageSize - 1)) != 0) {
      Violate("page %p: start misaligned", (void *)D->PageStart);
      continue;
    }
    if (Table.lookup(D->PageStart) != D) {
      Violate("page %p: page-table mapping does not point back to its "
              "descriptor",
              (void *)D->PageStart);
      continue;
    }

    switch (D->Kind) {
    case PageKind::PK_Free: {
      ++FreePages;
      bool Dirty = false;
      for (uint64_t W : D->AllocBits)
        Dirty |= W != 0;
      for (uint64_t W : D->MarkBits)
        Dirty |= W != 0;
      if (Dirty)
        Violate("free page %p: stale alloc/mark bits", (void *)D->PageStart);
      break;
    }
    case PageKind::PK_Small: {
      if (D->ObjSize == 0 || D->ObjSize % GranuleSize != 0 ||
          D->ObjSize > MaxSmallSize) {
        Violate("small page %p: bad object size %u", (void *)D->PageStart,
                unsigned(D->ObjSize));
        break;
      }
      if (D->ObjCount != PageSize / D->ObjSize) {
        Violate("small page %p: object count %u inconsistent with size %u",
                (void *)D->PageStart, unsigned(D->ObjCount),
                unsigned(D->ObjSize));
        break;
      }
      for (unsigned Slot = 0; Slot < MaxSlotsPerPage; ++Slot) {
        bool Alloc = D->allocBit(Slot);
        bool Mark = D->markBit(Slot);
        if (Slot >= D->ObjCount) {
          if (Alloc || Mark)
            Violate("small page %p: bit set beyond slot count (slot %u)",
                    (void *)D->PageStart, Slot);
          continue;
        }
        if (Mark && !Alloc)
          Violate("small page %p slot %u: marked but not allocated",
                  (void *)D->PageStart, Slot);
        if (Alloc) {
          ++R.ObjectsAudited;
          continue;
        }
        ++R.FreeSlotsAudited;
        // Freed (and never-allocated) slots must hold the poison pattern
        // beyond the free-list header; anything else means a client wrote
        // through a dangling pointer or the sweeper missed a slot.
        const unsigned char *Bytes = reinterpret_cast<const unsigned char *>(
            D->PageStart + size_t(Slot) * D->ObjSize);
        for (size_t B = sizeof(FreeSlot); B < D->ObjSize; ++B) {
          if (Bytes[B] != PoisonByte) {
            Violate("small page %p slot %u: poison damaged at byte %zu "
                    "(0x%02x)",
                    (void *)D->PageStart, Slot, B, Bytes[B]);
            break;
          }
        }
      }
      break;
    }
    case PageKind::PK_LargeStart: {
      ++R.LargeRunsAudited;
      if (!D->allocBit(0)) {
        Violate("large head %p: no alloc bit (freed run kept its head kind)",
                (void *)D->PageStart);
        break;
      }
      ++R.ObjectsAudited;
      if (D->LargePages == 0 ||
          D->LargeSize > size_t(D->LargePages) * PageSize ||
          D->LargeSize <= (size_t(D->LargePages) - 1) * PageSize) {
        Violate("large head %p: size %zu does not fit %u pages",
                (void *)D->PageStart, D->LargeSize, unsigned(D->LargePages));
        break;
      }
      for (size_t I = 1; I < D->LargePages; ++I) {
        PageDescriptor *PD = Table.lookup(D->PageStart + I * PageSize);
        if (!PD || PD->Kind != PageKind::PK_LargeCont || PD->LargeHead != D)
          Violate("large head %p: continuation page %zu not linked back",
                  (void *)D->PageStart, I);
      }
      break;
    }
    case PageKind::PK_LargeCont: {
      PageDescriptor *Head = D->LargeHead;
      if (!Head || Head->Kind != PageKind::PK_LargeStart) {
        Violate("large cont %p: dangling head pointer", (void *)D->PageStart);
        break;
      }
      uintptr_t Off = A - reinterpret_cast<uintptr_t>(Head->PageStart);
      if (Off == 0 || Off % PageSize != 0 ||
          Off / PageSize >= Head->LargePages)
        Violate("large cont %p: outside its head's run",
                (void *)D->PageStart);
      break;
    }
    }
  }

  // Free page list: every node PK_Free, and the list covers exactly the
  // PK_Free pages (no leaks, no duplicates, no cycles).
  size_t FreeListLen = 0;
  for (PageDescriptor *D = FreePageList; D; D = D->NextFree) {
    if (++FreeListLen > AllPages.size()) {
      Violate("free page list: cycle detected after %zu nodes", FreeListLen);
      break;
    }
    if (D->Kind != PageKind::PK_Free)
      Violate("free page list: node %p is not a free page",
              (void *)D->PageStart);
  }
  if (FreeListLen <= AllPages.size() && FreeListLen != FreePages)
    Violate("free page list: length %zu but %zu free pages exist",
            FreeListLen, FreePages);

  // Small-object free lists: membership, class, atomicity, alignment,
  // cycles.
  size_t SlotCap = AllPages.size() * (PageSize / GranuleSize) + 1;
  for (size_t Index = 0; Index < 2 * NumSizeClasses; ++Index) {
    bool Atomic = Index >= NumSizeClasses;
    size_t Class = Index % NumSizeClasses;
    size_t Expect = (Class + 1) * GranuleSize;
    size_t Len = 0;
    for (FreeSlot *S = FreeLists[Atomic][Class]; S; S = S->Next) {
      if (++Len > SlotCap) {
        Violate("free list class %zu: cycle detected", Class);
        break;
      }
      PageDescriptor *PD = Table.lookup(S);
      if (!PD || PD->Kind != PageKind::PK_Small) {
        Violate("free list class %zu: slot %p not on a small page", Class,
                (void *)S);
        break;
      }
      if (PD->ObjSize != Expect) {
        Violate("free list class %zu: slot %p on page of size %u", Class,
                (void *)S, unsigned(PD->ObjSize));
        continue;
      }
      if (PD->Atomic != Atomic)
        Violate("free list class %zu: slot %p on a page of the other "
                "atomicity",
                Class, (void *)S);
      size_t Off = reinterpret_cast<char *>(S) - PD->PageStart;
      if (Off % PD->ObjSize != 0) {
        Violate("free list class %zu: slot %p misaligned in page", Class,
                (void *)S);
        continue;
      }
      if (PD->allocBit(static_cast<unsigned>(Off / PD->ObjSize)))
        Violate("free list class %zu: slot %p is allocated", Class,
                (void *)S);
    }
  }

  R.Ok = R.ViolationCount == 0;
  ++Stats.AuditsRun;
  Stats.AuditViolations += R.ViolationCount;
  if (Config.Trace)
    Config.Trace->emit("gc", "audit.end", R.ViolationCount, R.PagesAudited);
  return R;
}
