//===- support/Profile.cpp ------------------------------------*- C++ -*-===//

#include "support/Profile.h"

#include <algorithm>

using namespace gcsafe;
using namespace gcsafe::support;

//===----------------------------------------------------------------------===//
// HeapProfile
//===----------------------------------------------------------------------===//

size_t HeapProfile::internSite(const std::string &Function, uint32_t InstIndex,
                               const std::string &Kind) {
  std::string Key = Function;
  Key += '\x1f';
  Key += std::to_string(InstIndex);
  Key += '\x1f';
  Key += Kind;
  auto It = Index.find(Key);
  if (It != Index.end())
    return It->second;
  size_t Id = Sites.size();
  Sites.push_back({Function, InstIndex, Kind});
  SiteStats.emplace_back();
  Index.emplace(std::move(Key), Id);
  return Id;
}

size_t HeapProfile::untaggedId() {
  if (Untagged == UntaggedSite)
    Untagged = internSite("<untagged>", 0, "native");
  return Untagged;
}

void HeapProfile::recordAlloc(const void *Base, size_t Requested, size_t Padded,
                              size_t Site, uint64_t Collection) {
  if (Site == UntaggedSite)
    Site = untaggedId();
  AllocSiteStats &S = SiteStats[Site];
  ++S.Allocs;
  S.BytesRequested += Requested;
  S.BytesPadded += Padded;
  S.CurLiveBytes += Padded;
  ++S.CurLiveObjects;
  ObjMeta &M = Live[Base]; // Overwrites stale entries on address reuse.
  M.Site = static_cast<uint32_t>(Site);
  M.BirthCollection = static_cast<uint32_t>(Collection);
  M.Padded = Padded;
}

void HeapProfile::recordFree(const void *Base, uint64_t Collection) {
  auto It = Live.find(Base);
  if (It == Live.end())
    return;
  const ObjMeta &M = It->second;
  AllocSiteStats &S = SiteStats[M.Site];
  ++S.Freed;
  S.CurLiveBytes -= M.Padded;
  --S.CurLiveObjects;
  uint64_t Age =
      Collection > M.BirthCollection ? Collection - M.BirthCollection : 0;
  ++S.AgeHistogram[ageBucket(Age)];
  Live.erase(It);
}

void HeapProfile::recordInteriorHit(const void *Base) {
  auto It = Live.find(Base);
  if (It == Live.end())
    return;
  ++SiteStats[It->second.Site].InteriorHits;
}

void HeapProfile::recordFalseRetention(const void *Base) {
  auto It = Live.find(Base);
  if (It == Live.end())
    return;
  ++SiteStats[It->second.Site].FalseRetentions;
}

void HeapProfile::snapshotAfterGc() {
  uint64_t Total = 0;
  for (AllocSiteStats &S : SiteStats) {
    S.LiveBytesAfterGc = S.CurLiveBytes;
    S.LiveObjectsAfterGc = S.CurLiveObjects;
    S.PeakLiveBytesAfterGc = std::max(S.PeakLiveBytesAfterGc, S.CurLiveBytes);
    Total += S.CurLiveBytes;
  }
  LastGcLiveBytes = Total;
  ++Snapshots;
}

Json HeapProfile::toJson() const {
  Json Heap = Json::object();
  Heap["live_bytes_after_last_gc"] = Json::integer(LastGcLiveBytes);
  Heap["gc_snapshots"] = Json::integer(Snapshots);
  Heap["tracked_live_objects"] =
      Json::integer(static_cast<uint64_t>(Live.size()));
  Json SitesJson = Json::array();
  for (size_t Id = 0; Id < Sites.size(); ++Id) {
    const AllocSite &Site = Sites[Id];
    const AllocSiteStats &S = SiteStats[Id];
    Json SJ = Json::object();
    SJ["id"] = Json::integer(static_cast<uint64_t>(Id));
    SJ["function"] = Json::string(Site.Function);
    SJ["inst_index"] = Json::integer(static_cast<uint64_t>(Site.InstIndex));
    SJ["kind"] = Json::string(Site.Kind);
    SJ["allocs"] = Json::integer(S.Allocs);
    SJ["bytes_requested"] = Json::integer(S.BytesRequested);
    SJ["bytes_padded"] = Json::integer(S.BytesPadded);
    SJ["freed"] = Json::integer(S.Freed);
    SJ["live_bytes"] = Json::integer(S.LiveBytesAfterGc);
    SJ["live_objects"] = Json::integer(S.LiveObjectsAfterGc);
    SJ["peak_live_bytes"] = Json::integer(S.PeakLiveBytesAfterGc);
    SJ["interior_hits"] = Json::integer(S.InteriorHits);
    SJ["false_retentions"] = Json::integer(S.FalseRetentions);
    Json Ages = Json::array();
    for (uint64_t Bucket : S.AgeHistogram)
      Ages.push(Json::integer(Bucket));
    SJ["age_histogram"] = std::move(Ages);
    SitesJson.push(std::move(SJ));
  }
  Heap["sites"] = std::move(SitesJson);
  return Heap;
}

void HeapProfile::clear() {
  Sites.clear();
  SiteStats.clear();
  Index.clear();
  Live.clear();
  LastGcLiveBytes = 0;
  Snapshots = 0;
  Untagged = UntaggedSite;
}

//===----------------------------------------------------------------------===//
// CycleProfile
//===----------------------------------------------------------------------===//

void CycleProfile::addSample(const std::string &FoldedStack,
                             const std::string &LeafFunction, const char *Kind,
                             uint64_t WeightCycles) {
  ++Samples;
  TotalWeight += WeightCycles;
  Folded[FoldedStack] += WeightCycles;
  FunctionCycles &F = PerFunc[LeafFunction];
  F.Self += WeightCycles;
  F.ByKind[Kind] += WeightCycles;
}

std::string CycleProfile::foldedOutput() const {
  std::string Out;
  for (const auto &[Stack, Cycles] : Folded) {
    Out += Stack;
    Out += ' ';
    Out += std::to_string(Cycles);
    Out += '\n';
  }
  return Out;
}

Json CycleProfile::toJson() const {
  Json Cycles = Json::object();
  Cycles["sampled_cycles"] = Json::integer(TotalWeight);
  Cycles["samples"] = Json::integer(Samples);
  Json Funcs = Json::array();
  for (const auto &[Name, F] : PerFunc) {
    Json FJ = Json::object();
    FJ["name"] = Json::string(Name);
    FJ["self_cycles"] = Json::integer(F.Self);
    Json ByKind = Json::object();
    for (const auto &[Kind, W] : F.ByKind)
      ByKind[Kind] = Json::integer(W);
    FJ["by_kind"] = std::move(ByKind);
    Funcs.push(std::move(FJ));
  }
  Cycles["functions"] = std::move(Funcs);
  Json FoldedJson = Json::array();
  for (const auto &[Stack, W] : Folded) {
    Json E = Json::object();
    E["stack"] = Json::string(Stack);
    E["cycles"] = Json::integer(W);
    FoldedJson.push(std::move(E));
  }
  Cycles["folded"] = std::move(FoldedJson);
  return Cycles;
}

void CycleProfile::clear() {
  Samples = 0;
  TotalWeight = 0;
  Folded.clear();
  PerFunc.clear();
}

//===----------------------------------------------------------------------===//
// Profiler
//===----------------------------------------------------------------------===//

Json Profiler::toJson(const std::string &Input, const std::string &Mode,
                      const std::string &Machine) const {
  Json Root = Json::object();
  Root["schema"] = Json::string("gcsafe-profile-v1");
  Root["input"] = Json::string(Input);
  Root["mode"] = Json::string(Mode);
  Root["machine"] = Json::string(Machine);
  Root["sample_period_cycles"] = Json::integer(SamplePeriodCycles);
  Root["heap"] = Heap.toJson();
  Root["cycles"] = Cycles.toJson();
  return Root;
}
