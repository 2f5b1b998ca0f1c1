//===- gc/Heap.h - Page heap and two-level page table ----------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-level heap structures of the conservative collector: pages of
/// uniformly sized objects and the address-to-page mapping. The paper
/// contrasts its checker with Jones/Kelly: "Their fundamental data structure
/// is a splay tree of objects, we use a tree of fixed height 2 describing
/// pages of uniformly sized objects." PageTable below is that fixed-height-2
/// tree: a hashed top level keyed on the high address bits, each entry
/// holding a flat array of page descriptors for a contiguous address chunk.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_GC_HEAP_H
#define GCSAFE_GC_HEAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gcsafe {
namespace gc {

/// Pages are 4 KiB; objects are carved from pages in multiples of the
/// granule (16 bytes).
constexpr size_t PageSizeLog = 12;
constexpr size_t PageSize = size_t(1) << PageSizeLog;
constexpr size_t GranuleSize = 16;
constexpr size_t MaxSlotsPerPage = PageSize / GranuleSize;

/// Objects whose (padded) size exceeds this are allocated as runs of whole
/// pages ("large" objects).
constexpr size_t MaxSmallSize = 2048;

/// Number of size classes: class C holds objects of (C + 1) * GranuleSize
/// bytes.
constexpr size_t NumSizeClasses = MaxSmallSize / GranuleSize;

/// What a page is currently used for.
enum class PageKind : uint8_t {
  PK_Free,       ///< On the free page list.
  PK_Small,      ///< Uniformly sized small objects.
  PK_LargeStart, ///< First page of a large object.
  PK_LargeCont,  ///< Continuation page of a large object.
};

/// Side metadata for one heap page. Never stored inside the page itself so
/// object payloads stay contiguous, mirroring the real collector. A free
/// page's bitmaps are all clear, and so is every mark bit outside a
/// collection: the sweep clears the marks it reads.
struct PageDescriptor {
  char *PageStart = nullptr;
  PageKind Kind = PageKind::PK_Free;
  bool Atomic = false;     ///< Objects contain no pointers (skip in mark).
  uint16_t ObjSize = 0;    ///< PK_Small: rounded object size in bytes.
  uint16_t ObjCount = 0;   ///< PK_Small: number of slots in the page.
  /// PK_Small: 2^32 / ObjSize + 1, so slotOf() needs no division. For
  /// ObjSize = d <= MaxSmallSize write SlotMul * d = 2^32 + e, 0 < e <= d;
  /// then Off * SlotMul / 2^32 = Off / d + Off * e / (d * 2^32), and the
  /// error term stays below 1 / d because Off * e < 2^12 * 2^11 < 2^32.
  uint32_t SlotMul = 0;
  uint32_t LargePages = 0; ///< PK_LargeStart: total pages in the run.
  size_t LargeSize = 0;    ///< PK_LargeStart: padded object size in bytes.
  PageDescriptor *LargeHead = nullptr; ///< PK_LargeCont: run's first page.
  PageDescriptor *NextFree = nullptr;  ///< Free-page list linkage.

  /// Per-slot bitmaps, indexed by slot number. Sized for the worst case
  /// (GranuleSize-byte slots).
  uint64_t AllocBits[MaxSlotsPerPage / 64] = {};
  uint64_t MarkBits[MaxSlotsPerPage / 64] = {};

  /// PK_Small: the slot holding address \p A of this page.
  unsigned slotOf(uintptr_t A) const {
    return static_cast<unsigned>((uint64_t(A & (PageSize - 1)) * SlotMul) >>
                                 32);
  }
  bool allocBit(unsigned Slot) const {
    return (AllocBits[Slot / 64] >> (Slot % 64)) & 1;
  }
  void setAllocBit(unsigned Slot) { AllocBits[Slot / 64] |= uint64_t(1) << (Slot % 64); }
  void clearAllocBit(unsigned Slot) {
    AllocBits[Slot / 64] &= ~(uint64_t(1) << (Slot % 64));
  }
  bool markBit(unsigned Slot) const {
    return (MarkBits[Slot / 64] >> (Slot % 64)) & 1;
  }
  void setMarkBit(unsigned Slot) { MarkBits[Slot / 64] |= uint64_t(1) << (Slot % 64); }
};

/// Fixed-height-2 address-to-descriptor map. Level 1 is a chained hash
/// table keyed on the address bits above a "chunk" (a 4 MiB span of 1024
/// pages); level 2 is a dense array of descriptor pointers, one per page in
/// the chunk. Lookup is one hash probe plus one array index — the property
/// the paper relies on to make GC_same_obj fast.
class PageTable {
public:
  static constexpr size_t ChunkPagesLog = 10; // 1024 pages = 4 MiB chunk
  static constexpr size_t ChunkPages = size_t(1) << ChunkPagesLog;
  static constexpr size_t TopTableSize = 4096; // power of two

  PageTable() = default;
  PageTable(const PageTable &) = delete;
  PageTable &operator=(const PageTable &) = delete;
  ~PageTable();

  /// Registers \p Desc as the descriptor for the page containing \p
  /// PageAddr (which must be page-aligned). Returns false — registering
  /// nothing — if \p PageAddr is misaligned or growing the table's top
  /// level fails; callers treat that as page-acquisition failure and
  /// roll back rather than aborting.
  bool insert(const void *PageAddr, PageDescriptor *Desc);

  /// Removes the mapping for the page containing \p PageAddr.
  void erase(const void *PageAddr);

  /// Returns the descriptor for the page containing \p Addr, or null if the
  /// address is not inside the collected heap. Addresses outside [Lo, Hi),
  /// the span of every page ever mapped, are rejected before the hash probe
  /// (bdwgc's plausible-heap-address test).
  PageDescriptor *lookup(const void *Addr) const {
    uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
    if (A - Lo >= Hi - Lo)
      return nullptr;
    uintptr_t Key = A >> (PageSizeLog + ChunkPagesLog);
    const TopEntry *E = Top[hashKey(Key)];
    while (E && E->Key != Key)
      E = E->Next;
    if (!E)
      return nullptr;
    return E->Pages[(A >> PageSizeLog) & (ChunkPages - 1)];
  }

  /// Number of level-1 entries currently allocated (test hook).
  size_t topEntryCount() const { return EntryCount; }

private:
  struct TopEntry {
    uintptr_t Key = 0;
    TopEntry *Next = nullptr;
    PageDescriptor *Pages[ChunkPages] = {};
  };

  static size_t hashKey(uintptr_t Key) {
    return (Key * 0x9E3779B97F4A7C15ull >> 32) & (TopTableSize - 1);
  }

  TopEntry *findOrCreate(uintptr_t Key);

  TopEntry *Top[TopTableSize] = {};
  size_t EntryCount = 0;
  uintptr_t Lo = 0, Hi = 0; ///< Lo == Hi: nothing mapped yet.
};

} // namespace gc
} // namespace gcsafe

#endif // GCSAFE_GC_HEAP_H
