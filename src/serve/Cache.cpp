//===- serve/Cache.cpp ----------------------------------------*- C++ -*-===//

#include "serve/Cache.h"

#include "support/Interleave.h"

using namespace gcsafe;
using namespace gcsafe::serve;

bool ContentCache::lookup(const std::string &Key, CacheEntryPtr &Out) {
  // The gap between a miss here and the caller's single-flight election
  // is where a duplicate compile would sneak in; the schedule fuzzer
  // widens it on demand (tests/test_race.cpp).
  GCSAFE_INTERLEAVE_POINT("serve.cache.lookup");
  support::RankedGuard Lock(Mu);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    ++Misses;
    return false;
  }
  ++Hits;
  Lru.splice(Lru.begin(), Lru, It->second);
  Out = It->second->second;
  return true;
}

bool ContentCache::lookup(const std::string &Key, std::string &Out) {
  CacheEntryPtr E;
  if (!lookup(Key, E))
    return false;
  Out = E->Bytes;
  return true;
}

void ContentCache::insert(const std::string &Key, CacheEntryPtr E) {
  GCSAFE_INTERLEAVE_POINT("serve.cache.insert");
  support::RankedGuard Lock(Mu);
  if (Map.count(Key))
    return; // content-addressed: an existing entry is already this value
  while (Map.size() >= MaxEntries) {
    Entry &Victim = Lru.back();
    Bytes -= Victim.second->Bytes.size();
    Map.erase(Victim.first);
    Lru.pop_back();
    ++Evictions;
  }
  Bytes += E->Bytes.size();
  Lru.emplace_front(Key, std::move(E));
  Map[Key] = Lru.begin();
  ++Insertions;
}

void ContentCache::insert(const std::string &Key, std::string Payload) {
  auto E = std::make_shared<CacheEntry>();
  E->Bytes = std::move(Payload);
  insert(Key, CacheEntryPtr(std::move(E)));
}

CacheStats ContentCache::stats() const {
  support::RankedGuard Lock(Mu);
  CacheStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Insertions = Insertions;
  S.Evictions = Evictions;
  S.Entries = Map.size();
  S.Bytes = Bytes;
  return S;
}

void ContentCache::clear() {
  support::RankedGuard Lock(Mu);
  Lru.clear();
  Map.clear();
  Bytes = 0;
}
