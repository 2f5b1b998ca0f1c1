//===- gc/Collector.h - Conservative mark-sweep collector ------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conservative, non-moving mark-sweep garbage collector in the style of
/// [BoehmWeiser88] / [Boehm95], providing the substrate the paper assumes:
///
///  * any address corresponding to some place inside a heap allocated
///    object is recognized as a valid pointer (interior pointers), with an
///    optional base-pointers-only mode for heap-resident pointers (the
///    paper's "Extensions" section);
///  * every heap object is allocated with at least one extra byte at the
///    end, so one-past-the-end pointers keep the object alive;
///  * GC_base-style mapping from any interior address to the object start,
///    backed by the fixed-height-2 page table (see gc/Heap.h), which is what
///    makes the paper's GC_same_obj checking fast;
///  * client-defined root sets (static ranges and callback scanners), plus
///    optional conservative scanning of the machine stack;
///  * sweep-time poisoning of freed objects so premature collection is
///    observable in tests and demos.
///
/// Collector instances are independent; the virtual machine owns one with a
/// custom root scanner over its frames, while native clients (the cord
/// library) use one with registered roots or machine-stack scanning.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_GC_COLLECTOR_H
#define GCSAFE_GC_COLLECTOR_H

#include "gc/Heap.h"
#include "support/FaultInject.h"
#include "support/Profile.h"
#include "support/Trace.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace gcsafe {
namespace gc {

/// Byte written over freed objects when poisoning is enabled.
constexpr unsigned char PoisonByte = 0xDD;

/// What the allocator does when the heap cannot satisfy a request even
/// after the recovery ladder (emergency collection, bounded retries, the
/// client OOM callback).
enum class OomPolicy : uint8_t {
  Graceful, ///< Run the full recovery ladder; on failure return a typed
            ///< error (allocate() returns null) — the default.
  Fail,     ///< No recovery attempts: fail fast with a typed error. For
            ///< deterministic tests of the failure path.
  Abort,    ///< Run the ladder; on failure abort the process (the
            ///< pre-robustness legacy behaviour, opt-in only).
};

const char *oomPolicyName(OomPolicy P);

/// Why an allocation failed.
enum class AllocStatus : uint8_t {
  Ok,
  OutOfMemory, ///< Heap exhausted (or exhaustion injected) and every rung
               ///< of the recovery ladder failed.
  TooLarge,    ///< The request overflowed size arithmetic.
};

const char *allocStatusName(AllocStatus S);

/// Typed allocation outcome (the tryAllocate* surface). ok() implies Ptr
/// is a zeroed heap object; otherwise Status says why there is none.
struct AllocResult {
  void *Ptr = nullptr;
  AllocStatus Status = AllocStatus::Ok;
  bool ok() const { return Status == AllocStatus::Ok; }
};

/// Last-resort client hook invoked when the recovery ladder is exhausted
/// (bdwgc's GC_oom_fn). Receives the *padded* size; must return at least
/// that many writable bytes, or null to let the allocation fail. Returned
/// memory is NOT in the collected heap: the collector neither scans nor
/// reclaims it, and baseOf() on it yields null.
using OomCallback = std::function<void *(size_t PaddedSize)>;

/// One heap-integrity audit (Collector::auditHeap). Counters always cover
/// the whole heap; Violations keeps at most MaxRecorded messages while
/// ViolationCount is the true total.
struct HeapAuditReport {
  static constexpr size_t MaxRecorded = 64;

  bool Ok = true;
  uint64_t ViolationCount = 0;
  uint64_t PagesAudited = 0;
  uint64_t ObjectsAudited = 0;    ///< Live objects (alloc bit set).
  uint64_t FreeSlotsAudited = 0;  ///< Free small slots (incl. poison scan).
  uint64_t LargeRunsAudited = 0;
  std::vector<std::string> Violations;
};

/// Tuning and behaviour switches for one Collector instance.
struct CollectorConfig {
  /// Collect after this many allocation calls (0 = disabled). Used by the
  /// VM to schedule adversarial collections.
  size_t AllocCountTrigger = 0;

  /// Collect after this many bytes allocated since the last collection.
  size_t BytesTrigger = 4 * 1024 * 1024;

  /// Overwrite freed objects with PoisonByte during sweep.
  bool PoisonOnFree = true;

  /// Pad every object by one byte before size-class rounding so a pointer
  /// one past the end still lies inside the object's slot (the paper's
  /// "allocating all heap objects with at least one extra byte at the
  /// end").
  bool OnePastEndSlack = true;

  /// Recognize pointers to the interior of objects found in the heap. When
  /// false, heap-resident words must point to the first byte of an object
  /// to keep it alive; roots may still hold interior pointers (the paper's
  /// Extensions mode).
  bool AllInteriorPointers = true;

  /// Conservatively scan the machine stack of the collecting thread from
  /// the stack bottom recorded at construction (or via setStackBottom).
  bool ScanMachineStack = false;

  /// Keep per-collection event records for the most recent this-many
  /// collections (0 disables recording; cumulative counters still update).
  size_t EventLimit = 256;

  /// Optional event sink: every collection records cat="gc" spans
  /// (mark, sweep, collect), and the OOM ladder and heap audits record
  /// oom.* / audit.* events.
  support::TraceBuffer *Trace = nullptr;

  /// What allocation does when the heap is exhausted. See OomPolicy.
  OomPolicy Oom = OomPolicy::Graceful;

  /// Recovery rungs after the emergency collection: how many more times to
  /// re-collect and retry before invoking OomFn / failing.
  unsigned OomRetries = 3;

  /// Last-resort client OOM hook (bdwgc's GC_oom_fn). See OomCallback.
  OomCallback OomFn;

  /// Hard cap on pages ever obtained from the OS (0 = unlimited). The
  /// testable stand-in for real memory exhaustion: crossing it drives the
  /// same OOM ladder a failed OS allocation would.
  size_t MaxHeapPages = 0;

  /// Run auditHeap() after every collection; violations land in
  /// CollectorStats and the trace.
  bool AuditEachCollection = false;

  /// Per-collection wall budget in nanoseconds (0 = none). A collection
  /// whose mark+sweep exceeds it counts in
  /// CollectorStats::GcDeadlineExceeded and emits a cat="robust"
  /// gc.deadline trace event; the embedder (the VM's --gc-deadline
  /// watchdog) decides whether that is fatal.
  uint64_t CollectDeadlineNs = 0;

  /// Optional failpoint registry. When set, page-segment acquisition,
  /// page-table growth, and the small/large allocation entry points
  /// consult it (sites: heap.segment_alloc, heap.page_table_grow,
  /// gc.alloc_small, gc.alloc_large) and fail on demand, exercising the
  /// OOM ladder deterministically.
  support::FaultInjector *Faults = nullptr;

  /// Optional allocation-site heap profiler (docs/OBSERVABILITY.md §6).
  /// When set, every successful allocation, sweep/deallocate free, and
  /// mark-time interior/false-retention hit is reported to it, attributed
  /// to the site last passed to Collector::setAllocSite().
  support::HeapProfile *Profile = nullptr;
};

/// One collection, as observed by the instrumentation: timing for the two
/// phases plus the marking-accuracy counters the paper's conservatism
/// arguments are about.
struct CollectionEvent {
  uint64_t Index = 0;        ///< 0-based collection number.
  uint64_t MarkNs = 0;       ///< Root scan + transitive marking.
  uint64_t SweepNs = 0;
  uint64_t PagesScanned = 0; ///< Page descriptors examined by the sweep.
  uint64_t WordsScanned = 0; ///< Candidate words examined while marking.
  uint64_t PointerHits = 0;  ///< Words that addressed a live object.
  uint64_t MarkedObjects = 0;
  uint64_t FreedObjects = 0;
  uint64_t LiveBytes = 0;
  /// Hits whose address was not the object's first byte — the interior
  /// pointers conservatism must honor.
  uint64_t InteriorHits = 0;
  /// Objects whose *first* (marking) reference was an interior address: if
  /// that word was a disguised integer rather than a pointer, the object
  /// is falsely retained. The paper's Extensions section exists to shrink
  /// this set.
  uint64_t FalseRetentionCandidates = 0;
};

/// Counters exposed for tests and benchmarks. The *Ns / *Scanned / *Hits
/// fields are cumulative over all collections; Events holds the most
/// recent CollectorConfig::EventLimit per-collection records.
struct CollectorStats {
  size_t Collections = 0;
  size_t AllocationCount = 0;
  size_t BytesRequested = 0;      ///< Cumulative user-requested bytes.
  size_t HeapPages = 0;           ///< Pages ever obtained from the OS.
  size_t LiveBytesAfterLastGC = 0;
  size_t FreedObjectsLastGC = 0;

  uint64_t MarkNs = 0;
  uint64_t SweepNs = 0;
  uint64_t WordsScanned = 0;
  uint64_t PointerHits = 0;
  uint64_t MarkedObjects = 0;
  uint64_t InteriorPointerHits = 0;
  uint64_t FalseRetentionCandidates = 0;

  // The failure story (docs/ROBUSTNESS.md): how often the OOM ladder ran,
  // how far down it got, and what the integrity audits saw.
  uint64_t EmergencyCollections = 0; ///< Ladder rung 1: collect-on-OOM.
  uint64_t OomRetriesPerformed = 0;  ///< Ladder rung 2: re-collect + retry.
  uint64_t OomCallbackInvocations = 0; ///< Ladder rung 3: client OomFn.
  uint64_t AllocFailures = 0;  ///< Typed errors returned to the client.
  uint64_t FaultsInjected = 0; ///< Failpoint firings observed.
  uint64_t SegmentBackoffs = 0; ///< Full-size segment refused; retried at
                                ///< the request's minimum page count.
  uint64_t AuditsRun = 0;
  uint64_t AuditViolations = 0;
  /// Collections whose mark+sweep blew CollectorConfig::CollectDeadlineNs.
  uint64_t GcDeadlineExceeded = 0;

  std::deque<CollectionEvent> Events;
};

/// Passed to registered root scanners; report pointer-holding memory
/// through it.
class RootVisitor {
public:
  virtual ~RootVisitor() = default;
  /// Conservatively scans the aligned words of [\p Begin, \p End).
  virtual void visitRange(const void *Begin, const void *End) = 0;
  /// Treats \p Word as a potential pointer.
  virtual void visitWord(uintptr_t Word) = 0;
};

using RootScanFn = std::function<void(RootVisitor &)>;

/// The collector. See file comment.
class Collector {
public:
  explicit Collector(CollectorConfig Config = CollectorConfig());
  Collector(const Collector &) = delete;
  Collector &operator=(const Collector &) = delete;
  ~Collector();

  /// Allocates \p Size bytes of zeroed, pointer-containing memory. May
  /// trigger a collection first. On exhaustion runs the OOM recovery
  /// ladder; if that fails, returns null under the Graceful/Fail policies
  /// and aborts only under OomPolicy::Abort.
  void *allocate(size_t Size);

  /// Allocates \p Size bytes the collector will not scan for pointers
  /// (strings, numeric arrays). Same failure contract as allocate().
  void *allocateAtomic(size_t Size);

  /// The typed-result allocation surface: like allocate()/allocateAtomic()
  /// but never aborts regardless of policy; failures come back as an
  /// AllocStatus.
  AllocResult tryAllocate(size_t Size);
  AllocResult tryAllocateAtomic(size_t Size);

  /// Walks the whole heap validating its invariants: page-table
  /// cross-mapping, alloc/mark-bit consistency, free-list sanity,
  /// poison-byte integrity of freed slots, and large-run linkage. Safe to
  /// call at any point outside an in-progress collection; allocates only
  /// in the C++ heap. Updates CollectorStats::AuditsRun/AuditViolations
  /// and emits gc/audit.* trace events.
  HeapAuditReport auditHeap();

  /// Forces a full mark-sweep collection now (no-op while disabled).
  void collect();

  /// Explicit deallocation (GC_free): immediately frees the object \p P
  /// points into. Provided for completeness; clients normally never call
  /// it.
  void deallocate(void *P);

  /// Returns the start of the heap object containing \p P, or null if \p P
  /// does not point into a live heap object. Interior pointers are always
  /// accepted here, in every mode (this is the GC_base operation the
  /// checker relies on).
  void *baseOf(const void *P) const;

  /// True if \p P points into a live heap object.
  bool isHeapPointer(const void *P) const { return baseOf(P) != nullptr; }

  /// True if \p P points into heap memory whose object has been freed
  /// (swept or explicitly deallocated). Used by the VM to detect premature
  /// collection: a GC-safety failure manifests as a load from a freed,
  /// poisoned object.
  bool pointsToFreedObject(const void *P) const;

  /// True if \p P and \p Q point into the same live heap object (the
  /// predicate behind the paper's GC_same_obj).
  bool sameObject(const void *P, const void *Q) const;

  /// Returns the usable (padded) size of the object containing \p P; 0 if
  /// \p P is not a heap pointer. The padding is why the paper calls its
  /// checking "not completely accurate, since the garbage collector rounds
  /// up object sizes".
  size_t objectSize(const void *P) const;

  /// Registers [\p Begin, \p End) as a permanent root range.
  void addStaticRoots(const void *Begin, const void *End);

  /// Removes a root range previously registered with the same \p Begin.
  void removeStaticRoots(const void *Begin);

  /// Registers a callback invoked during marking to report additional
  /// roots; returns a token for removeRootScanner.
  int addRootScanner(RootScanFn Fn);
  void removeRootScanner(int Token);

  /// Nested disable/enable of automatic and explicit collections.
  void disableCollection() { ++DisableDepth; }
  void enableCollection() {
    if (DisableDepth)
      --DisableDepth;
  }

  /// Records the high end of the machine stack for ScanMachineStack mode.
  void setStackBottom(const void *Bottom) { StackBottom = Bottom; }

  const CollectorStats &stats() const { return Stats; }
  const CollectorConfig &config() const { return Config; }
  void setAllocCountTrigger(size_t N) { Config.AllocCountTrigger = N; }

  /// Tags subsequent allocations with an allocation site interned in
  /// Config.Profile (HeapProfile::UntaggedSite = untagged). The VM sets
  /// this before each gc_malloc/calloc/realloc builtin; the tag is sticky
  /// until the next call. No-op without a profiler attached.
  void setAllocSite(size_t Site) { CurAllocSite = Site; }

  /// Test hook: the page table.
  const PageTable &pageTable() const { return Table; }

private:
  struct Segment {
    char *Base = nullptr;
    size_t Pages = 0;
    size_t NextFreePage = 0;
  };

  struct FreeSlot {
    FreeSlot *Next;
  };

  class MarkVisitor;

  size_t paddedSize(size_t Size) const;
  void *allocateSmall(size_t Padded, bool Atomic);
  void *allocateLarge(size_t Padded, bool Atomic);
  void *allocateImpl(size_t Size, bool Atomic);
  AllocResult tryAllocateImpl(size_t Size, bool Atomic);
  void *attemptAlloc(size_t Padded, bool Atomic, bool Small);
  void *recoverFromOom(size_t Padded, bool Atomic, bool Small, size_t Size);
  bool faultFires(size_t SiteId);
  void maybeCollect();
  PageDescriptor *takeFreePage();
  char *takePageRun(size_t NPages, std::vector<PageDescriptor *> &Descs);
  void initSmallPage(PageDescriptor *Desc, size_t ObjSize, bool Atomic);

  void markAddress(uintptr_t Addr, bool FromHeap);
  void markRange(const char *Begin, const char *End, bool FromHeap);
  void drainMarkStack();
  void scanMachineStack();
  void sweep();
  void rebuildFreeLists();

  CollectorConfig Config;
  CollectorStats Stats;
  PageTable Table;
  std::vector<Segment> Segments;
  std::vector<PageDescriptor *> AllPages; // every descriptor ever created
  PageDescriptor *FreePageList = nullptr;
  FreeSlot *FreeLists[NumSizeClasses] = {};

  struct RootRange {
    const char *Begin;
    const char *End;
  };
  std::vector<RootRange> StaticRoots;
  std::vector<std::pair<int, RootScanFn>> RootScanners;
  int NextScannerToken = 1;

  struct MarkItem {
    char *Begin;
    size_t Size;
  };
  std::vector<MarkItem> MarkStack;

  CollectionEvent CurEvent; ///< Scratch for the collection in progress.
  size_t CurAllocSite = support::HeapProfile::UntaggedSite;
  size_t BytesSinceGC = 0;
  size_t AllocsSinceGC = 0;
  unsigned DisableDepth = 0;
  bool InCollection = false;
  const void *StackBottom = nullptr;

  /// Cached failpoint handles (valid only when Config.Faults is set).
  size_t FpSegmentAlloc = 0;
  size_t FpPageTableGrow = 0;
  size_t FpAllocSmall = 0;
  size_t FpAllocLarge = 0;
};

} // namespace gc
} // namespace gcsafe

#endif // GCSAFE_GC_COLLECTOR_H
