//===- tests/test_gc.cpp - Conservative collector tests ------------------===//

#include "gc/Check.h"
#include "gc/Collector.h"
#include "gc/Heap.h"
#include "gc/Roots.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

using namespace gcsafe;
using namespace gcsafe::gc;

namespace {
CollectorConfig quietConfig() {
  CollectorConfig C;
  C.BytesTrigger = ~size_t(0) >> 1; // never auto-collect
  return C;
}

bool isPoisoned(const void *P, size_t Offset, size_t Len) {
  const auto *B = static_cast<const unsigned char *>(P);
  for (size_t I = 0; I < Len; ++I)
    if (B[Offset + I] != PoisonByte)
      return false;
  return true;
}
} // namespace

//===----------------------------------------------------------------------===//
// Page table (the fixed-height-2 tree)
//===----------------------------------------------------------------------===//

TEST(PageTable, InsertLookupErase) {
  PageTable T;
  alignas(4096) static char Page[PageSize];
  PageDescriptor D;
  D.PageStart = Page;
  T.insert(Page, &D);
  EXPECT_EQ(T.lookup(Page), &D);
  EXPECT_EQ(T.lookup(Page + 100), &D);
  EXPECT_EQ(T.lookup(Page + PageSize - 1), &D);
  T.erase(Page);
  EXPECT_EQ(T.lookup(Page), nullptr);
}

TEST(PageTable, MissesReturnNull) {
  PageTable T;
  int Local;
  EXPECT_EQ(T.lookup(&Local), nullptr);
  EXPECT_EQ(T.lookup(nullptr), nullptr);
}

TEST(PageTable, AddressesOutsideTheMappedSpanMissBeforeTheProbe) {
  PageTable T;
  alignas(4096) static char Pages[3 * PageSize];
  PageDescriptor D0, D2;
  T.insert(Pages, &D0);
  T.insert(Pages + 2 * PageSize, &D2);
  uintptr_t Below = reinterpret_cast<uintptr_t>(Pages) - 1;
  EXPECT_EQ(T.lookup(reinterpret_cast<const void *>(Below)), nullptr);
  EXPECT_EQ(T.lookup(Pages), &D0);
  EXPECT_EQ(T.lookup(Pages + PageSize), nullptr); // a hole inside the span
  EXPECT_EQ(T.lookup(Pages + 3 * PageSize - 1), &D2);
  EXPECT_EQ(T.lookup(Pages + 3 * PageSize), nullptr);
}

TEST(PageTable, ManyPagesAcrossChunks) {
  // Drive the collector to create many pages and verify every object's
  // page resolves through the two-level structure.
  Collector C(quietConfig());
  std::vector<void *> Ptrs;
  for (int I = 0; I < 5000; ++I)
    Ptrs.push_back(C.allocate(64));
  for (void *P : Ptrs)
    EXPECT_NE(C.pageTable().lookup(P), nullptr);
  EXPECT_GT(C.pageTable().topEntryCount(), 0u);
}

//===----------------------------------------------------------------------===//
// Allocation and GC_base
//===----------------------------------------------------------------------===//

TEST(Collector, BaseOfExactAndInterior) {
  Collector C(quietConfig());
  char *P = static_cast<char *>(C.allocate(100));
  EXPECT_EQ(C.baseOf(P), P);
  EXPECT_EQ(C.baseOf(P + 1), P);
  EXPECT_EQ(C.baseOf(P + 99), P);
}

TEST(Collector, OnePastEndResolvesWithSlack) {
  // "we handle [one past the end] by allocating all heap objects with at
  // least one extra byte at the end".
  Collector C(quietConfig());
  char *P = static_cast<char *>(C.allocate(100));
  EXPECT_EQ(C.baseOf(P + 100), P);
}

TEST(Collector, BaseOfNonHeapIsNull) {
  Collector C(quietConfig());
  int Local = 0;
  static int Global = 0;
  EXPECT_EQ(C.baseOf(&Local), nullptr);
  EXPECT_EQ(C.baseOf(&Global), nullptr);
  EXPECT_EQ(C.baseOf(nullptr), nullptr);
  EXPECT_EQ(C.baseOf(reinterpret_cast<void *>(0x10)), nullptr);
}

TEST(Collector, AdjacentObjectsHaveDistinctBases) {
  Collector C(quietConfig());
  char *A = static_cast<char *>(C.allocate(16));
  char *B = static_cast<char *>(C.allocate(16));
  EXPECT_NE(C.baseOf(A), C.baseOf(B));
  EXPECT_TRUE(C.sameObject(A, A + 5));
  EXPECT_FALSE(C.sameObject(A, B));
}

TEST(Collector, LargeObjectInteriorPointers) {
  Collector C(quietConfig());
  size_t Size = 3 * PageSize + 100;
  char *P = static_cast<char *>(C.allocate(Size));
  EXPECT_EQ(C.baseOf(P), P);
  EXPECT_EQ(C.baseOf(P + PageSize), P);           // continuation page
  EXPECT_EQ(C.baseOf(P + 2 * PageSize + 50), P);  // deep interior
  EXPECT_EQ(C.baseOf(P + Size - 1), P);
  EXPECT_GE(C.objectSize(P), Size);
}

TEST(Collector, LargeObjectSlackBelongsToNoObject) {
  // The slack between a large object's padded end and the end of its last
  // page is outside the object for every query: the checker, objectSize,
  // the freed-access probe and retention all agree. A one-page object
  // (2049..4096 padded bytes) has its slack on its head page, a multi-page
  // object on a continuation page.
  for (size_t Size : {size_t(3000), 3 * PageSize + 100}) {
    SCOPED_TRACE(Size);
    Collector C(quietConfig());
    char *P = static_cast<char *>(C.allocate(Size));
    size_t Padded = C.objectSize(P);
    ASSERT_GT(Padded, MaxSmallSize);
    size_t Span = (Padded + PageSize - 1) / PageSize * PageSize;
    for (char *Q : {P + Padded, P + (Padded + Span) / 2, P + Span - 1}) {
      EXPECT_EQ(C.baseOf(Q), nullptr);
      EXPECT_FALSE(C.sameObject(P, Q));
      EXPECT_FALSE(C.sameObject(Q, P));
      EXPECT_EQ(C.objectSize(Q), 0u);
      EXPECT_FALSE(C.pointsToFreedObject(Q));
      PointerCheck Check(C);
      Check.sameObj(Q, P);
      EXPECT_EQ(Check.violationCount(), 1u);
    }
    EXPECT_EQ(C.baseOf(P + Padded - 1), P);

    // A root into the object's last byte retains it; one into the slack
    // does not.
    const char *Root = P + Padded - 1;
    C.addStaticRoots(&Root, &Root + 1);
    C.collect();
    EXPECT_EQ(C.baseOf(P), P);
    Root = P + Padded;
    C.collect();
    EXPECT_EQ(C.baseOf(P), nullptr);
    EXPECT_TRUE(C.pointsToFreedObject(P));
    EXPECT_TRUE(C.pointsToFreedObject(P + Padded));
    C.removeStaticRoots(&Root);
  }
}

TEST(Collector, SlotIndexIsExactWithoutDivision) {
  // PageDescriptor::slotOf multiplies by a reciprocal instead of dividing
  // by the object size; check it against division for every size class
  // and every offset in a page.
  Collector C(quietConfig());
  for (size_t Size = GranuleSize; Size <= MaxSmallSize; Size += GranuleSize) {
    void *P = C.allocate(Size - 1); // the one-past-end byte pads it to Size
    const PageDescriptor *D = C.pageTable().lookup(P);
    ASSERT_NE(D, nullptr);
    ASSERT_EQ(D->ObjSize, Size);
    size_t Wrong = 0;
    for (uintptr_t Off = 0; Off < PageSize; ++Off)
      Wrong += D->slotOf(reinterpret_cast<uintptr_t>(D->PageStart) + Off) !=
               Off / Size;
    EXPECT_EQ(Wrong, 0u) << "size " << Size;
  }
}

TEST(Collector, AtomicAndNormalSlotsComeFromTheirOwnPages) {
  // Small free lists are kept per atomicity, so a request never takes a
  // slot from a page of the other kind, before or after a sweep.
  Collector C(quietConfig());
  RootVector Live(C);
  for (int Round = 0; Round < 2; ++Round) {
    for (int I = 0; I < 400; ++I) {
      bool Atomic = I % 3 == 0;
      void *P = Atomic ? C.allocateAtomic(48) : C.allocate(48);
      ASSERT_NE(P, nullptr);
      EXPECT_EQ(C.pageTable().lookup(P)->Atomic, Atomic) << I;
      if (I % 4 == 0)
        Live.push(P);
    }
    C.collect();
    EXPECT_TRUE(C.auditHeap().Ok);
  }
}

TEST(Collector, ObjectSizeIsRoundedUp) {
  // The paper: "Our checking is not completely accurate, since the garbage
  // collector rounds up object sizes."
  Collector C(quietConfig());
  void *P = C.allocate(10);
  EXPECT_GE(C.objectSize(P), 10u);
  EXPECT_EQ(C.objectSize(P) % GranuleSize, 0u);
}

TEST(Collector, AllocationIsZeroed) {
  Collector C(quietConfig());
  for (int I = 0; I < 100; ++I) {
    char *P = static_cast<char *>(C.allocate(200));
    for (int J = 0; J < 200; ++J)
      ASSERT_EQ(P[J], 0);
    std::memset(P, 0xFF, 200); // dirty it for the next reuse
  }
}

TEST(Collector, DistinctSizeClasses) {
  Collector C(quietConfig());
  void *Small = C.allocate(8);
  void *Mid = C.allocate(100);
  void *Big = C.allocate(1500);
  EXPECT_LT(C.objectSize(Small), C.objectSize(Mid));
  EXPECT_LT(C.objectSize(Mid), C.objectSize(Big));
}

//===----------------------------------------------------------------------===//
// Collection
//===----------------------------------------------------------------------===//

TEST(Collector, UnreachableObjectsAreFreedAndPoisoned) {
  Collector C(quietConfig());
  char *P = static_cast<char *>(C.allocate(64));
  std::memset(P, 0x55, 64);
  void *Escape = P;
  C.collect(); // nothing registered as root: everything dies
  (void)Escape;
  EXPECT_EQ(C.baseOf(P), nullptr);
  EXPECT_TRUE(C.pointsToFreedObject(P));
  // The poison pattern covers the slot past the free-list link word.
  EXPECT_TRUE(isPoisoned(P, sizeof(void *), 16));
  EXPECT_GE(C.stats().FreedObjectsLastGC, 1u);
}

TEST(Collector, StaticRootKeepsObjectAlive) {
  Collector C(quietConfig());
  static void *Slot;
  Slot = C.allocate(64);
  C.addStaticRoots(&Slot, &Slot + 1);
  std::memset(Slot, 0x77, 64);
  C.collect();
  EXPECT_EQ(C.baseOf(Slot), Slot);
  auto *B = static_cast<unsigned char *>(Slot);
  EXPECT_EQ(B[10], 0x77);
  C.removeStaticRoots(&Slot);
  C.collect();
  EXPECT_EQ(C.baseOf(Slot), nullptr);
  Slot = nullptr;
}

TEST(Collector, InteriorRootPointerKeepsObjectAlive) {
  Collector C(quietConfig());
  static char *Mid;
  char *P = static_cast<char *>(C.allocate(128));
  Mid = P + 60;
  C.addStaticRoots(&Mid, &Mid + 1);
  C.collect();
  EXPECT_EQ(C.baseOf(P), P) << "interior pointer must keep the object";
  C.removeStaticRoots(&Mid);
  Mid = nullptr;
}

TEST(Collector, HeapChainIsTraced) {
  Collector C(quietConfig());
  struct Node {
    Node *Next;
    long Payload;
  };
  static Node *Head;
  Head = nullptr;
  for (int I = 0; I < 50; ++I) {
    auto *N = static_cast<Node *>(C.allocate(sizeof(Node)));
    N->Next = Head;
    N->Payload = I;
    Head = N;
  }
  C.addStaticRoots(&Head, &Head + 1);
  C.allocate(16); // garbage
  C.collect();
  int Count = 0;
  for (Node *N = Head; N; N = N->Next) {
    EXPECT_EQ(N->Payload, 49 - Count);
    ++Count;
  }
  EXPECT_EQ(Count, 50);
  C.removeStaticRoots(&Head);
  Head = nullptr;
}

TEST(Collector, AtomicObjectsAreNotScanned) {
  Collector C(quietConfig());
  static void **AtomicSlot;
  AtomicSlot = static_cast<void **>(C.allocateAtomic(64));
  void *Target = C.allocate(32);
  AtomicSlot[0] = Target; // pointer hidden in pointer-free memory
  C.addStaticRoots(&AtomicSlot, &AtomicSlot + 1);
  C.collect();
  EXPECT_EQ(C.baseOf(Target), nullptr)
      << "pointer stored in atomic memory must not keep its target";
  C.removeStaticRoots(&AtomicSlot);
  AtomicSlot = nullptr;
}

TEST(Collector, RootScannerCallback) {
  Collector C(quietConfig());
  void *Kept = C.allocate(48);
  void *Dropped = C.allocate(48);
  int Token = C.addRootScanner([&](RootVisitor &V) {
    V.visitWord(reinterpret_cast<uintptr_t>(Kept));
  });
  C.collect();
  EXPECT_EQ(C.baseOf(Kept), Kept);
  EXPECT_EQ(C.baseOf(Dropped), nullptr);
  C.removeRootScanner(Token);
  C.collect();
  EXPECT_EQ(C.baseOf(Kept), nullptr);
}

TEST(Collector, AllocCountTriggerCollectsAutomatically) {
  CollectorConfig Cfg = quietConfig();
  Cfg.AllocCountTrigger = 10;
  Collector C(Cfg);
  for (int I = 0; I < 100; ++I)
    C.allocate(32);
  EXPECT_GE(C.stats().Collections, 5u);
}

TEST(Collector, DisableCollectionNests) {
  CollectorConfig Cfg = quietConfig();
  Cfg.AllocCountTrigger = 1;
  Collector C(Cfg);
  C.disableCollection();
  C.disableCollection();
  for (int I = 0; I < 20; ++I)
    C.allocate(16);
  EXPECT_EQ(C.stats().Collections, 0u);
  C.enableCollection();
  C.collect();
  EXPECT_EQ(C.stats().Collections, 0u) << "still disabled once";
  C.enableCollection();
  C.collect();
  EXPECT_EQ(C.stats().Collections, 1u);
}

TEST(Collector, FreedPagesAreReused) {
  Collector C(quietConfig());
  for (int Round = 0; Round < 20; ++Round) {
    for (int I = 0; I < 1000; ++I)
      C.allocate(64);
    C.collect();
  }
  // 20 rounds x 1000 x ~80 bytes would be ~1.6 MB live at once; with reuse
  // the heap stays near one round's footprint.
  EXPECT_LT(C.stats().HeapPages * PageSize, 4u << 20);
}

TEST(Collector, LargeObjectsFreedAndPagesRecycled) {
  Collector C(quietConfig());
  static void *Keep;
  for (int I = 0; I < 50; ++I) {
    void *P = C.allocate(5 * PageSize);
    if (I == 49)
      Keep = P;
  }
  C.addStaticRoots(&Keep, &Keep + 1);
  C.collect();
  EXPECT_EQ(C.baseOf(Keep), Keep);
  EXPECT_GE(C.stats().FreedObjectsLastGC, 40u);
  C.removeStaticRoots(&Keep);
  Keep = nullptr;
}

TEST(Collector, ExplicitDeallocate) {
  Collector C(quietConfig());
  void *P = C.allocate(64);
  C.deallocate(P);
  EXPECT_EQ(C.baseOf(P), nullptr);
  EXPECT_TRUE(C.pointsToFreedObject(P));
}

//===----------------------------------------------------------------------===//
// Base-pointers-only mode (the paper's Extensions section)
//===----------------------------------------------------------------------===//

TEST(Collector, BaseOnlyModeIgnoresHeapInteriorPointers) {
  CollectorConfig Cfg = quietConfig();
  Cfg.AllInteriorPointers = false;
  Collector C(Cfg);
  static void **Holder;
  Holder = static_cast<void **>(C.allocate(sizeof(void *)));
  char *Target = static_cast<char *>(C.allocate(64));
  *Holder = Target + 8; // interior pointer stored in the heap
  C.addStaticRoots(&Holder, &Holder + 1);
  C.collect();
  EXPECT_EQ(C.baseOf(Target), nullptr)
      << "heap-resident interior pointer must not retain in base-only mode";
  C.removeStaticRoots(&Holder);
  Holder = nullptr;
}

TEST(Collector, BaseOnlyModeHonorsRootInteriorPointers) {
  // "interior pointers [are] valid only if they originate from the stack
  // or registers".
  CollectorConfig Cfg = quietConfig();
  Cfg.AllInteriorPointers = false;
  Collector C(Cfg);
  static char *Mid;
  char *Target = static_cast<char *>(C.allocate(64));
  Mid = Target + 8;
  C.addStaticRoots(&Mid, &Mid + 1);
  C.collect();
  EXPECT_EQ(C.baseOf(Target), Target);
  C.removeStaticRoots(&Mid);
  Mid = nullptr;
}

TEST(Collector, BaseOnlyModeHonorsHeapBasePointers) {
  CollectorConfig Cfg = quietConfig();
  Cfg.AllInteriorPointers = false;
  Collector C(Cfg);
  static void **Holder;
  Holder = static_cast<void **>(C.allocate(sizeof(void *)));
  char *Target = static_cast<char *>(C.allocate(64));
  *Holder = Target; // exact base pointer in the heap
  C.addStaticRoots(&Holder, &Holder + 1);
  C.collect();
  EXPECT_EQ(C.baseOf(Target), Target);
  C.removeStaticRoots(&Holder);
  Holder = nullptr;
}

//===----------------------------------------------------------------------===//
// Roots helpers
//===----------------------------------------------------------------------===//

TEST(Roots, RootVectorPinsObjects) {
  Collector C(quietConfig());
  RootVector Roots(C);
  void *A = C.allocate(32);
  void *B = C.allocate(32);
  Roots.push(A);
  C.collect();
  EXPECT_EQ(C.baseOf(A), A);
  EXPECT_EQ(C.baseOf(B), nullptr);
  Roots.pop();
  C.collect();
  EXPECT_EQ(C.baseOf(A), nullptr);
}

TEST(Roots, TypedRootPinsAndReleases) {
  Collector C(quietConfig());
  long *P = static_cast<long *>(C.allocate(sizeof(long)));
  {
    Root<long> R(C, P);
    *R = 42;
    C.collect();
    EXPECT_EQ(C.baseOf(P), P);
    EXPECT_EQ(*R, 42);
  }
  C.collect();
  EXPECT_EQ(C.baseOf(P), nullptr);
}

//===----------------------------------------------------------------------===//
// Pointer-arithmetic checking (GC_same_obj & friends)
//===----------------------------------------------------------------------===//

TEST(PointerCheck, SameObjectPasses) {
  Collector C(quietConfig());
  PointerCheck Check(C);
  char *P = static_cast<char *>(C.allocate(100));
  EXPECT_EQ(Check.sameObj(P + 10, P), P + 10);
  EXPECT_EQ(Check.violationCount(), 0u);
  EXPECT_EQ(Check.checkCount(), 1u);
}

TEST(PointerCheck, EscapedPointerIsViolation) {
  Collector C(quietConfig());
  PointerCheck Check(C);
  char *P = static_cast<char *>(C.allocate(32));
  Check.sameObj(P + 4096, P, "test-context");
  ASSERT_EQ(Check.violationCount(), 1u);
  EXPECT_EQ(Check.violations()[0].Context, "test-context");
}

TEST(PointerCheck, PointerBeforeArrayIsViolation) {
  // The gawk-style bug: q = buf - 1.
  Collector C(quietConfig());
  PointerCheck Check(C);
  char *Buf = static_cast<char *>(C.allocate(64));
  Check.sameObj(Buf - 1, Buf);
  EXPECT_GE(Check.violationCount(), 1u);
}

TEST(PointerCheck, NonHeapBaseIsSkipped) {
  // "cfrac ... was linked with the default malloc/free implementation.
  // Hence pointer arithmetic checking was not operational."
  Collector C(quietConfig());
  PointerCheck Check(C);
  char StackBuf[64];
  volatile long Offset = 100; // defeat the compiler's array-bounds warning
  Check.sameObj(StackBuf + Offset, StackBuf);
  EXPECT_EQ(Check.violationCount(), 0u);
  EXPECT_EQ(Check.checkCount(), 1u);
}

TEST(PointerCheck, PreIncrUpdatesAndChecks) {
  Collector C(quietConfig());
  PointerCheck Check(C);
  char *P = static_cast<char *>(C.allocate(32));
  void *VP = P;
  void *R = Check.preIncr(&VP, 4);
  EXPECT_EQ(R, P + 4);
  EXPECT_EQ(VP, P + 4);
  EXPECT_EQ(Check.violationCount(), 0u);
  // Walk off the object.
  Check.preIncr(&VP, 4096);
  EXPECT_EQ(Check.violationCount(), 1u);
}

TEST(PointerCheck, PostIncrReturnsOldValue) {
  Collector C(quietConfig());
  PointerCheck Check(C);
  char *P = static_cast<char *>(C.allocate(32));
  void *VP = P;
  void *R = Check.postIncr(&VP, 8);
  EXPECT_EQ(R, P);
  EXPECT_EQ(VP, P + 8);
}

TEST(PointerCheck, ViolationHandlerFires) {
  Collector C(quietConfig());
  PointerCheck Check(C);
  int Fired = 0;
  Check.setViolationHandler([&](const CheckViolation &) { ++Fired; });
  char *P = static_cast<char *>(C.allocate(16));
  Check.sameObj(P + 4096, P);
  EXPECT_EQ(Fired, 1);
}

TEST(PointerCheck, OnePastEndIsLegal) {
  Collector C(quietConfig());
  PointerCheck Check(C);
  char *P = static_cast<char *>(C.allocate(100));
  Check.sameObj(P + 100, P); // one past the end: allowed by the slack byte
  EXPECT_EQ(Check.violationCount(), 0u);
}

TEST(PointerCheck, OneLookupAgreesWithTheTwoLookupDefinition) {
  // sameObj looks the base up once and range-tests P. The oracle is its
  // old definition: for a live base, a violation iff baseOf(P) differs from
  // baseOf(Base); otherwise iff Base points into a freed object. It is
  // checked at every offset around a small object (from its start and its
  // middle), a two-page large object (from both pages), a freed slot, a
  // freed large run and a non-heap base.
  Collector C(quietConfig());
  PointerCheck Check(C);
  char *Small = static_cast<char *>(C.allocate(100));
  C.allocate(100); // a live neighbour in the next slot
  char *Large = static_cast<char *>(C.allocate(PageSize + 100));
  char *Freed = static_cast<char *>(C.allocate(48));
  char *FreedLarge = static_cast<char *>(C.allocate(PageSize + 100));
  C.deallocate(Freed);
  C.deallocate(FreedLarge);
  char StackBuf[64];
  for (const char *Base : {Small, Small + 50, Large, Large + PageSize, Freed,
                           FreedLarge, static_cast<char *>(StackBuf)}) {
    void *BaseObj = C.baseOf(Base);
    for (ptrdiff_t Off = -16; Off < ptrdiff_t(PageSize + 16); ++Off) {
      auto *P = reinterpret_cast<const void *>(
          reinterpret_cast<uintptr_t>(Base) + Off);
      bool Expected = BaseObj ? C.baseOf(P) != BaseObj
                              : C.pointsToFreedObject(Base);
      size_t Before = Check.violationCount();
      Check.sameObj(P, Base);
      ASSERT_EQ(Check.violationCount() - Before, Expected ? 1u : 0u)
          << static_cast<const void *>(Base) << " + " << Off;
      ASSERT_EQ(C.sameObject(Base, P), BaseObj && C.baseOf(P) == BaseObj)
          << static_cast<const void *>(Base) << " + " << Off;
    }
  }
}

//===----------------------------------------------------------------------===//
// Stress / property sweeps
//===----------------------------------------------------------------------===//

class CollectorStress : public ::testing::TestWithParam<unsigned> {};

TEST_P(CollectorStress, LiveSetSurvivesManyCollections) {
  CollectorConfig Cfg = quietConfig();
  Cfg.AllocCountTrigger = 64;
  Collector C(Cfg);
  RootVector Roots(C);
  std::mt19937_64 Rng(GetParam());

  struct Tracked {
    unsigned char *Ptr;
    size_t Size;
    unsigned char Tag;
  };
  std::vector<Tracked> Live;

  for (int Step = 0; Step < 4000; ++Step) {
    size_t Size = 1 + Rng() % (Step % 97 == 0 ? 3 * PageSize : 256);
    auto *P = static_cast<unsigned char *>(C.allocate(Size));
    auto Tag = static_cast<unsigned char>(Rng() % 250 + 1);
    std::memset(P, Tag, Size);
    if (Rng() % 3 != 0) {
      Roots.push(P);
      Live.push_back({P, Size, Tag});
    }
    if (Live.size() > 200) {
      // Drop the oldest half.
      RootVector Fresh(C); // placeholder to keep indexing simple
      (void)Fresh;
      std::vector<Tracked> Kept(Live.begin() + 100, Live.end());
      Roots.clear();
      for (const Tracked &T : Kept)
        Roots.push(T.Ptr);
      Live = std::move(Kept);
    }
  }
  C.collect();
  for (const Tracked &T : Live) {
    ASSERT_EQ(C.baseOf(T.Ptr), T.Ptr);
    for (size_t I = 0; I < T.Size; I += 17)
      ASSERT_EQ(T.Ptr[I], T.Tag) << "corrupted survivor";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectorStress,
                         ::testing::Values(1u, 2u, 3u, 42u, 1996u));

TEST(Collector, BaseOfConsistencySweep) {
  Collector C(quietConfig());
  std::mt19937_64 Rng(7);
  for (int I = 0; I < 500; ++I) {
    size_t Size = 1 + Rng() % 4000;
    char *P = static_cast<char *>(C.allocate(Size));
    for (int J = 0; J < 16; ++J) {
      size_t Off = Rng() % Size;
      ASSERT_EQ(C.baseOf(P + Off), P)
          << "interior pointer at offset " << Off << " of " << Size;
    }
  }
}

//===----------------------------------------------------------------------===//
// Parameterized size-class sweep
//===----------------------------------------------------------------------===//

class SizeClassSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SizeClassSweep, AllocationInvariantsHoldPerSize) {
  size_t Size = GetParam();
  Collector C(quietConfig());
  // A handful of objects of this exact size.
  std::vector<char *> Objs;
  for (int I = 0; I < 8; ++I)
    Objs.push_back(static_cast<char *>(C.allocate(Size)));
  for (char *P : Objs) {
    ASSERT_EQ(C.baseOf(P), P);
    ASSERT_EQ(C.baseOf(P + Size - 1), P) << "last byte";
    ASSERT_EQ(C.baseOf(P + Size), P) << "one past end (slack byte)";
    ASSERT_GE(C.objectSize(P), Size);
    // Objects of the same request size never alias.
    for (char *Q : Objs) {
      if (P != Q) {
        ASSERT_FALSE(C.sameObject(P, Q));
      }
    }
  }
  // Survive a collection while rooted; die after.
  static std::vector<char *> *RootSlot;
  RootSlot = &Objs;
  int Token = C.addRootScanner([&](RootVisitor &V) {
    V.visitRange(RootSlot->data(), RootSlot->data() + RootSlot->size());
  });
  C.collect();
  for (char *P : Objs)
    ASSERT_EQ(C.baseOf(P), P);
  C.removeRootScanner(Token);
  C.collect();
  for (char *P : Objs)
    ASSERT_EQ(C.baseOf(P), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeClassSweep,
                         ::testing::Values(1, 2, 8, 15, 16, 17, 31, 32, 48,
                                           100, 255, 256, 512, 1000, 2000,
                                           2047, 2048, 2049, 4095, 4096,
                                           4097, 10000, 50000));

//===----------------------------------------------------------------------===//
// Alignment and statistics
//===----------------------------------------------------------------------===//

TEST(Collector, AllocationsAreGranuleAligned) {
  Collector C(quietConfig());
  for (size_t Size : {1u, 7u, 24u, 100u, 3000u, 9000u}) {
    void *P = C.allocate(Size);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % GranuleSize, 0u)
        << "size " << Size;
  }
}

TEST(Collector, StatsTrackActivity) {
  Collector C(quietConfig());
  static void *Keep;
  Keep = C.allocate(100);
  C.allocate(50);
  C.addStaticRoots(&Keep, &Keep + 1);
  C.collect();
  const CollectorStats &S = C.stats();
  EXPECT_EQ(S.AllocationCount, 2u);
  EXPECT_EQ(S.BytesRequested, 150u);
  EXPECT_EQ(S.Collections, 1u);
  EXPECT_GE(S.FreedObjectsLastGC, 1u);
  EXPECT_GE(S.LiveBytesAfterLastGC, 100u);
  EXPECT_GT(S.HeapPages, 0u);
  C.removeStaticRoots(&Keep);
  Keep = nullptr;
}
