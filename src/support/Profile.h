//===- support/Profile.h - Allocation-site and cycle profiling -*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling subsystem behind gcsafe-cc --profile-json /
/// --profile-period / --profile-folded (docs/OBSERVABILITY.md §6). Two
/// coordinated producers:
///
///  * HeapProfile — an allocation-site heap profiler. The VM tags every
///    gc_malloc/calloc/realloc call with a site id (function + flat IR
///    instruction index); the collector reports every allocation, sweep,
///    explicit free and mark-time retention hit back here, so conservative
///    over-retention (interior-pointer hits, false-retention candidates)
///    is attributed to the site that allocated the *retained* object —
///    per-site counters, live bytes after each GC, and an
///    object-age-in-collections histogram.
///
///  * CycleProfile — a sampling profiler over the VM's deterministic cycle
///    clock. Every N modeled cycles the VM records the executing call
///    stack, leaf function and instruction kind; the profile aggregates
///    per-function self-cycles, per-(function, kind) cycles, and
///    Brendan-Gregg collapsed stacks ready for flamegraph.pl.
///
/// Everything here follows the same nullable-pointer cost model as Stats
/// and TraceBuffer: producers take a nullable Profiler*, and with it null
/// the instrumented paths cost one branch.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SUPPORT_PROFILE_H
#define GCSAFE_SUPPORT_PROFILE_H

#include "support/Stats.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace gcsafe {
namespace support {

//===----------------------------------------------------------------------===//
// HeapProfile
//===----------------------------------------------------------------------===//

/// One allocation site: where in the program an allocation call lives.
/// InstIndex is the flat IR instruction index within Function (blocks
/// concatenated in order), so two calls on one line stay distinct.
struct AllocSite {
  std::string Function;
  uint32_t InstIndex = 0;
  std::string Kind; ///< "GC_malloc", "GC_malloc_atomic", "calloc", ...
};

/// Number of buckets in the object-age histogram. Bucket B counts objects
/// freed after surviving ageBucket⁻¹(B) collections: 0, 1, 2, 3, 4–7,
/// 8–15, 16–31, 32+.
constexpr size_t AgeBuckets = 8;

/// Returns the histogram bucket for an object freed after surviving
/// \p Collections collections.
inline size_t ageBucket(uint64_t Collections) {
  if (Collections < 4)
    return static_cast<size_t>(Collections);
  if (Collections < 8)
    return 4;
  if (Collections < 16)
    return 5;
  if (Collections < 32)
    return 6;
  return 7;
}

/// Per-site counters. Cur* fields track the instantaneous live set;
/// *AfterGc fields are snapshots taken at the end of each collection, so
/// the sum of LiveBytesAfterGc over all sites equals the collector's
/// live_bytes_after_last_gc.
struct AllocSiteStats {
  uint64_t Allocs = 0;
  uint64_t BytesRequested = 0;
  uint64_t BytesPadded = 0; ///< After slack + size-class rounding.
  uint64_t Freed = 0;       ///< Swept or explicitly deallocated.
  uint64_t CurLiveBytes = 0;
  uint64_t CurLiveObjects = 0;
  uint64_t LiveBytesAfterGc = 0;
  uint64_t LiveObjectsAfterGc = 0;
  uint64_t PeakLiveBytesAfterGc = 0;
  /// Mark-time pointer hits whose address was interior to an object from
  /// this site (every hit, like CollectionEvent::InteriorHits).
  uint64_t InteriorHits = 0;
  /// Objects from this site whose *first* marking reference was interior
  /// (CollectionEvent::FalseRetentionCandidates, with a name attached).
  uint64_t FalseRetentions = 0;
  /// Collections survived at free time, bucketed by ageBucket().
  uint64_t AgeHistogram[AgeBuckets] = {};
};

/// The allocation-site heap profiler. The collector is the only producer;
/// the VM (or any client) interns sites and hands the current site id to
/// the collector before each allocation. Not thread-safe, like the rest of
/// the system.
class HeapProfile {
public:
  /// Site id used when an allocation reaches the collector with no site
  /// tagged (native clients like the cord library). Mapped to a synthetic
  /// "<untagged>" site on first use.
  static constexpr size_t UntaggedSite = ~size_t(0);

  /// Interns (Function, InstIndex, Kind), returning a stable site id.
  size_t internSite(const std::string &Function, uint32_t InstIndex,
                    const std::string &Kind);

  /// A successful allocation of \p Requested bytes (padded to \p Padded)
  /// at \p Base, tagged with \p Site, born when the collector had run
  /// \p Collection collections.
  void recordAlloc(const void *Base, size_t Requested, size_t Padded,
                   size_t Site, uint64_t Collection);

  /// Object at \p Base freed (swept during collection \p Collection, or
  /// explicitly deallocated). Unknown bases are ignored.
  void recordFree(const void *Base, uint64_t Collection);

  /// Mark-time attribution: a pointer hit interior to the object at
  /// \p Base / an object at \p Base whose first marking reference was
  /// interior.
  void recordInteriorHit(const void *Base);
  void recordFalseRetention(const void *Base);

  /// End-of-collection hook: snapshots every site's Cur* counters into its
  /// *AfterGc fields.
  void snapshotAfterGc();

  size_t siteCount() const { return Sites.size(); }
  const AllocSite &site(size_t Id) const { return Sites[Id]; }
  const AllocSiteStats &siteStats(size_t Id) const { return SiteStats[Id]; }
  /// Sum of per-site LiveBytesAfterGc at the last snapshot — must equal
  /// the collector's live_bytes_after_last_gc.
  uint64_t liveBytesAtLastGc() const { return LastGcLiveBytes; }
  uint64_t snapshots() const { return Snapshots; }
  uint64_t trackedLiveObjects() const { return Live.size(); }

  /// Serializes as the "heap" object of the gcsafe-profile-v1 schema.
  Json toJson() const;

  void clear();

private:
  struct ObjMeta {
    uint32_t Site = 0;
    uint32_t BirthCollection = 0;
    uint64_t Padded = 0;
  };

  size_t untaggedId();

  std::vector<AllocSite> Sites;
  std::vector<AllocSiteStats> SiteStats;
  std::map<std::string, size_t> Index; ///< "function\x1f index\x1f kind" → id.
  std::unordered_map<const void *, ObjMeta> Live;
  uint64_t LastGcLiveBytes = 0;
  uint64_t Snapshots = 0;
  size_t Untagged = UntaggedSite;
};

//===----------------------------------------------------------------------===//
// CycleProfile
//===----------------------------------------------------------------------===//

/// The VM-side sampling profiler. Samples are taken on the deterministic
/// modeled-cycle clock, so two identical runs produce identical profiles.
/// Each sample carries the cycles elapsed since the previous sample as its
/// weight; summed weights equal the total sampled cycles exactly.
class CycleProfile {
public:
  /// One sample. \p FoldedStack is the semicolon-joined call stack
  /// (outermost first, flamegraph.pl input order), \p LeafFunction the
  /// executing function, \p Kind the instruction-kind label ("alu",
  /// "memory", "branch", "call", "allocator", "keep_live", "checks",
  /// "kill"), \p WeightCycles the cycles attributed to this sample.
  void addSample(const std::string &FoldedStack,
                 const std::string &LeafFunction, const char *Kind,
                 uint64_t WeightCycles);

  uint64_t sampleCount() const { return Samples; }
  uint64_t sampledCycles() const { return TotalWeight; }

  /// Brendan Gregg collapsed-stack output: one "stack weight" line per
  /// distinct stack, ready for flamegraph.pl.
  std::string foldedOutput() const;

  /// Serializes as the "cycles" object of the gcsafe-profile-v1 schema.
  Json toJson() const;

  void clear();

private:
  struct FunctionCycles {
    uint64_t Self = 0;
    std::map<std::string, uint64_t> ByKind;
  };

  uint64_t Samples = 0;
  uint64_t TotalWeight = 0;
  std::map<std::string, uint64_t> Folded;        ///< stack → cycles.
  std::map<std::string, FunctionCycles> PerFunc; ///< leaf → cycles.
};

//===----------------------------------------------------------------------===//
// Profiler
//===----------------------------------------------------------------------===//

/// The aggregate handed to the VM (and through it to the collector). All
/// profiling is off unless a Profiler is attached; sampling additionally
/// requires SamplePeriodCycles > 0.
struct Profiler {
  /// Record a cycle sample every this many modeled cycles (0 = sampling
  /// off; heap profiling is always on while attached).
  uint64_t SamplePeriodCycles = 0;

  HeapProfile Heap;
  CycleProfile Cycles;

  /// Builds the full gcsafe-profile-v1 document. \p Input / \p Mode /
  /// \p Machine identify the run like the run report's header.
  Json toJson(const std::string &Input, const std::string &Mode,
              const std::string &Machine) const;
};

} // namespace support
} // namespace gcsafe

#endif // GCSAFE_SUPPORT_PROFILE_H
