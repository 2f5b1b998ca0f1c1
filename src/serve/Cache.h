//===- serve/Cache.h - Content-addressed response cache --------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile service's content-addressed cache (docs/SERVING.md). Keys
/// are stable content hashes (support/Hash.h) of the raw request source +
/// canonical flag string, seeded with the build fingerprint; values are
/// immutable entries holding the cold response rendered once — the bytes
/// from "exit_code" to the closing brace — plus the three result fields
/// the service counts on a hit. A hit splices the request's own head onto
/// those bytes, which is what makes a warm response byte-identical to
/// the cold one it memoizes. Eviction is LRU with a fixed entry cap.
/// Thread-safe: one instance is shared by every worker of a
/// CompileService; all state is guarded by a ranked mutex
/// (support/RankedMutex.h) and annotated for Clang's thread-safety
/// analysis (docs/ANALYSIS.md §"Concurrency checking").
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SERVE_CACHE_H
#define GCSAFE_SERVE_CACHE_H

#include "support/RankedMutex.h"

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

namespace gcsafe {
namespace serve {

struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
  uint64_t Bytes = 0; ///< Sum of entry byte sizes (keys excluded).
};

/// One immutable cache value. The service stores a rendered response
/// tail in Bytes (serve::renderCacheEntry); the string overloads of
/// lookup/insert below carry Bytes alone.
struct CacheEntry {
  std::string Bytes;
  bool Ok = false;
  int ExitCode = 0;
  bool Degraded = false;
};
using CacheEntryPtr = std::shared_ptr<const CacheEntry>;

/// LRU map from cache key to an immutable entry.
class ContentCache {
public:
  explicit ContentCache(size_t MaxEntries = 1024)
      : MaxEntries(MaxEntries ? MaxEntries : 1) {}

  /// True on a hit; shares the entry into \p Out (no copy of its bytes)
  /// and marks it most-recently-used.
  bool lookup(const std::string &Key, CacheEntryPtr &Out);
  /// As above, copying the entry's bytes into \p Out.
  bool lookup(const std::string &Key, std::string &Out);

  /// Records \p E under \p Key (no-op if the key is already present),
  /// evicting the least-recently-used entry when full.
  void insert(const std::string &Key, CacheEntryPtr E);
  /// As above, for an entry of bare bytes.
  void insert(const std::string &Key, std::string Payload);

  CacheStats stats() const;
  void clear();

private:
  using Entry = std::pair<std::string, CacheEntryPtr>;
  mutable support::RankedMutex Mu{support::LockRank::ServeCache,
                                  "serve.cache"};
  /// Front = most recently used.
  std::list<Entry> Lru GCSAFE_GUARDED_BY(Mu);
  std::unordered_map<std::string, std::list<Entry>::iterator>
      Map GCSAFE_GUARDED_BY(Mu);
  size_t MaxEntries;
  uint64_t Bytes GCSAFE_GUARDED_BY(Mu) = 0;
  uint64_t Hits GCSAFE_GUARDED_BY(Mu) = 0, Misses GCSAFE_GUARDED_BY(Mu) = 0,
           Insertions GCSAFE_GUARDED_BY(Mu) = 0,
           Evictions GCSAFE_GUARDED_BY(Mu) = 0;
};

} // namespace serve
} // namespace gcsafe

#endif // GCSAFE_SERVE_CACHE_H
