//===- tests/test_profile.cpp - Allocation-site and cycle profiler tests --===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// The profiling subsystem's contract (docs/OBSERVABILITY.md §6):
//
//  * HeapProfile interns stable site ids and keeps exact per-site
//    accounting: age histograms sum to the freed count, and the per-site
//    live-bytes-after-GC sum equals the collector's
//    live_bytes_after_last_gc;
//  * mark-time retention (interior hits, false-retention candidates) is
//    attributed to the site that allocated the retained object, and the
//    per-site sums equal the collector's cumulative counters;
//  * CycleProfile's folded stacks and per-function self-cycles both sum to
//    the sampled total by construction, and the profile is deterministic
//    on the VM's modeled-cycle clock;
//  * with sampling off (period 0) the modeled cycle count is bit-identical
//    to a run with no profiler at all.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "support/Profile.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gcsafe;
using namespace gcsafe::support;

namespace {

//===----------------------------------------------------------------------===//
// HeapProfile unit behavior
//===----------------------------------------------------------------------===//

TEST(HeapProfile, InternsStableIds) {
  HeapProfile H;
  size_t A = H.internSite("main", 3, "GC_malloc");
  size_t B = H.internSite("main", 7, "GC_malloc");
  size_t C = H.internSite("main", 3, "calloc"); // same spot, other kind
  EXPECT_NE(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(H.internSite("main", 3, "GC_malloc"), A);
  ASSERT_EQ(H.siteCount(), 3u);
  EXPECT_EQ(H.site(A).Function, "main");
  EXPECT_EQ(H.site(A).InstIndex, 3u);
  EXPECT_EQ(H.site(C).Kind, "calloc");
}

TEST(HeapProfile, AgeHistogramSumsToFreed) {
  HeapProfile H;
  size_t S = H.internSite("f", 0, "GC_malloc");
  char Backing[64] = {};
  // Born at collection 0, freed at collections 0,1,4,40: buckets 0,1,4,7.
  for (uint64_t Death : {0u, 1u, 4u, 40u}) {
    H.recordAlloc(Backing, 8, 16, S, 0);
    H.recordFree(Backing, Death);
  }
  const AllocSiteStats &St = H.siteStats(S);
  EXPECT_EQ(St.Allocs, 4u);
  EXPECT_EQ(St.Freed, 4u);
  EXPECT_EQ(St.CurLiveBytes, 0u);
  EXPECT_EQ(St.AgeHistogram[0], 1u);
  EXPECT_EQ(St.AgeHistogram[1], 1u);
  EXPECT_EQ(St.AgeHistogram[4], 1u);
  EXPECT_EQ(St.AgeHistogram[7], 1u);
  uint64_t Sum = 0;
  for (uint64_t B : St.AgeHistogram)
    Sum += B;
  EXPECT_EQ(Sum, St.Freed);
  // Freeing an address the profiler never saw is a no-op.
  H.recordFree(Backing + 1, 0);
  EXPECT_EQ(H.siteStats(S).Freed, 4u);
}

TEST(HeapProfile, UntaggedAllocationsGetSyntheticSite) {
  HeapProfile H;
  char Backing[16] = {};
  H.recordAlloc(Backing, 8, 16, HeapProfile::UntaggedSite, 0);
  ASSERT_EQ(H.siteCount(), 1u);
  EXPECT_EQ(H.site(0).Function, "<untagged>");
  EXPECT_EQ(H.siteStats(0).Allocs, 1u);
}

TEST(HeapProfile, SnapshotTracksLiveBytesAndPeak) {
  HeapProfile H;
  size_t S = H.internSite("f", 0, "GC_malloc");
  char A[32] = {}, B[32] = {};
  H.recordAlloc(A, 24, 32, S, 0);
  H.recordAlloc(B, 24, 32, S, 0);
  H.snapshotAfterGc();
  EXPECT_EQ(H.liveBytesAtLastGc(), 64u);
  EXPECT_EQ(H.siteStats(S).PeakLiveBytesAfterGc, 64u);
  H.recordFree(B, 1);
  H.snapshotAfterGc();
  EXPECT_EQ(H.liveBytesAtLastGc(), 32u);
  EXPECT_EQ(H.siteStats(S).LiveBytesAfterGc, 32u);
  EXPECT_EQ(H.siteStats(S).PeakLiveBytesAfterGc, 64u); // peak sticks
  EXPECT_EQ(H.snapshots(), 2u);
}

//===----------------------------------------------------------------------===//
// CycleProfile unit behavior
//===----------------------------------------------------------------------===//

TEST(CycleProfile, SumsAndFoldedOutput) {
  CycleProfile P;
  P.addSample("main", "main", "alu", 10);
  P.addSample("main;f", "f", "memory", 20);
  P.addSample("main;f", "f", "alu", 5);
  EXPECT_EQ(P.sampleCount(), 3u);
  EXPECT_EQ(P.sampledCycles(), 35u);

  // Folded lines: "stack weight", weights merged per distinct stack.
  std::istringstream In(P.foldedOutput());
  uint64_t Total = 0;
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    Total += std::stoull(Line.substr(Space + 1));
  }
  EXPECT_EQ(Lines, 2u);
  EXPECT_EQ(Total, P.sampledCycles());

  // JSON: by-kind sums to self, functions sum to sampled total.
  Json J = P.toJson();
  uint64_t SelfSum = 0;
  for (size_t I = 0; I < J.get("functions")->size(); ++I) {
    const Json &F = J.get("functions")->at(I);
    uint64_t ByKind = 0;
    for (const auto &KV : F.get("by_kind")->members())
      ByKind += static_cast<uint64_t>(KV.second.asInt());
    EXPECT_EQ(ByKind, static_cast<uint64_t>(F.get("self_cycles")->asInt()));
    SelfSum += static_cast<uint64_t>(F.get("self_cycles")->asInt());
  }
  EXPECT_EQ(SelfSum, P.sampledCycles());
}

//===----------------------------------------------------------------------===//
// End-to-end: VM + collector feeding the profiler
//===----------------------------------------------------------------------===//

// Two distinct allocation sites in main: the node cells (looped) and one
// 64-byte buffer that is only reachable through an interior pointer when
// gc_collect() runs — the derived `buf + 8` overwrites the base pointer, so
// conservative marking must retain the buffer via an interior hit.
const char *TwoSiteProgram = R"(
struct node { struct node *next; long v; };
int main(void) {
  struct node *head = 0;
  char *buf;
  long i;
  long sum = 0;
  for (i = 0; i < 40; i = i + 1) {
    struct node *n = (struct node *)gc_malloc(sizeof(struct node));
    n->next = head;
    n->v = i;
    head = n;
  }
  buf = (char *)gc_malloc(64);
  buf = buf + 8;
  gc_collect();
  for (; head; head = head->next)
    sum = sum + head->v;
  if (buf != 0)
    sum = sum + 1;
  return (int)sum;
}
)";

struct ProfiledRun {
  driver::CompileResult CR;
  vm::RunResult Run;
};

ProfiledRun runProfiled(Profiler *Prof, uint64_t Period = 0,
                        driver::CompileMode Mode = driver::CompileMode::O2) {
  if (Prof)
    Prof->SamplePeriodCycles = Period;
  driver::Compilation C("twosite", TwoSiteProgram);
  driver::CompileOptions CO;
  CO.Mode = Mode;
  ProfiledRun R;
  R.CR = C.compile(CO);
  if (!R.CR.Ok)
    return R;
  vm::VMOptions VO;
  VO.GcAllocTrigger = 16; // deterministic collections beyond gc_collect()
  VO.Profile = Prof;
  vm::VM Machine(R.CR.Module, VO);
  R.Run = Machine.run();
  return R;
}

TEST(Profile, SiteAttributionAndRetention) {
  Profiler Prof;
  ProfiledRun A = runProfiled(&Prof);
  ASSERT_TRUE(A.CR.Ok) << A.CR.Errors;
  ASSERT_TRUE(A.Run.Ok) << A.Run.Error;
  EXPECT_EQ(A.Run.ExitCode, 40 * 39 / 2 + 1);
  ASSERT_GT(A.Run.Gc.Collections, 0u);

  const HeapProfile &H = Prof.Heap;
  // Two gc_malloc call sites in main, both tagged.
  size_t NodeSite = ~size_t(0), BufSite = ~size_t(0);
  for (size_t Id = 0; Id < H.siteCount(); ++Id) {
    const AllocSite &S = H.site(Id);
    EXPECT_EQ(S.Function, "main");
    EXPECT_EQ(S.Kind, "GC_malloc");
    if (H.siteStats(Id).Allocs == 40)
      NodeSite = Id;
    else if (H.siteStats(Id).Allocs == 1)
      BufSite = Id;
  }
  ASSERT_NE(NodeSite, ~size_t(0)) << "looped site not found";
  ASSERT_NE(BufSite, ~size_t(0)) << "buffer site not found";
  EXPECT_NE(H.site(NodeSite).InstIndex, H.site(BufSite).InstIndex);
  EXPECT_EQ(H.siteStats(BufSite).BytesRequested, 64u);

  // The buffer survives gc_collect() though only `buf + 8` is live, and
  // the interior hit lands on the buffer's site, not the nodes'.
  EXPECT_EQ(H.siteStats(BufSite).LiveObjectsAfterGc, 1u);
  EXPECT_GE(H.siteStats(BufSite).InteriorHits, 1u);

  // Per-site sums equal the collector's cumulative counters: every hit
  // and every candidate is attributed to exactly one site.
  uint64_t Interior = 0, False = 0;
  for (size_t Id = 0; Id < H.siteCount(); ++Id) {
    Interior += H.siteStats(Id).InteriorHits;
    False += H.siteStats(Id).FalseRetentions;
  }
  EXPECT_EQ(Interior, A.Run.Gc.InteriorPointerHits);
  EXPECT_EQ(False, A.Run.Gc.FalseRetentionCandidates);
}

TEST(Profile, LiveBytesSumMatchesCollector) {
  Profiler Prof;
  ProfiledRun A = runProfiled(&Prof);
  ASSERT_TRUE(A.Run.Ok) << A.Run.Error;
  ASSERT_GT(Prof.Heap.snapshots(), 0u);
  EXPECT_EQ(Prof.Heap.snapshots(), A.Run.Gc.Collections);

  uint64_t SiteSum = 0;
  for (size_t Id = 0; Id < Prof.Heap.siteCount(); ++Id)
    SiteSum += Prof.Heap.siteStats(Id).LiveBytesAfterGc;
  EXPECT_EQ(SiteSum, Prof.Heap.liveBytesAtLastGc());
  EXPECT_EQ(Prof.Heap.liveBytesAtLastGc(), A.Run.Gc.LiveBytesAfterLastGC);

  // Per-site age histograms sum to the per-site freed counts.
  for (size_t Id = 0; Id < Prof.Heap.siteCount(); ++Id) {
    const AllocSiteStats &S = Prof.Heap.siteStats(Id);
    uint64_t Ages = 0;
    for (uint64_t B : S.AgeHistogram)
      Ages += B;
    EXPECT_EQ(Ages, S.Freed) << "site " << Id;
  }
}

TEST(Profile, DeterministicAcrossIdenticalRuns) {
  Profiler P1, P2;
  ProfiledRun A = runProfiled(&P1, 64);
  ProfiledRun B = runProfiled(&P2, 64);
  ASSERT_TRUE(A.Run.Ok && B.Run.Ok);
  // The whole document — sites, counters, samples, folded stacks — is on
  // the modeled clock, so it is bit-identical across identical runs.
  EXPECT_EQ(P1.toJson("t.c", "-O2", "sparc10").dump(2),
            P2.toJson("t.c", "-O2", "sparc10").dump(2));
  EXPECT_EQ(P1.Cycles.foldedOutput(), P2.Cycles.foldedOutput());
}

TEST(Profile, SamplingSumsToSampledCycles) {
  Profiler Prof;
  ProfiledRun A = runProfiled(&Prof, 64);
  ASSERT_TRUE(A.Run.Ok) << A.Run.Error;
  ASSERT_GT(Prof.Cycles.sampleCount(), 0u);
  EXPECT_LE(Prof.Cycles.sampledCycles(), A.Run.Cycles);

  Json J = Prof.Cycles.toJson();
  uint64_t SelfSum = 0, FoldedSum = 0;
  for (size_t I = 0; I < J.get("functions")->size(); ++I)
    SelfSum += static_cast<uint64_t>(
        J.get("functions")->at(I).get("self_cycles")->asInt());
  for (size_t I = 0; I < J.get("folded")->size(); ++I)
    FoldedSum += static_cast<uint64_t>(
        J.get("folded")->at(I).get("cycles")->asInt());
  EXPECT_EQ(SelfSum, Prof.Cycles.sampledCycles());
  EXPECT_EQ(FoldedSum, Prof.Cycles.sampledCycles());
}

TEST(Profile, SamplingOffCostsNothing) {
  // Period 0: heap profiling stays on, but the modeled cycle count must be
  // bit-identical to a run with no profiler attached at all.
  Profiler Prof;
  ProfiledRun With = runProfiled(&Prof, 0);
  ProfiledRun Without = runProfiled(nullptr);
  ASSERT_TRUE(With.Run.Ok && Without.Run.Ok);
  EXPECT_EQ(With.Run.Cycles, Without.Run.Cycles);
  EXPECT_EQ(With.Run.InstructionsExecuted, Without.Run.InstructionsExecuted);
  EXPECT_EQ(Prof.Cycles.sampleCount(), 0u);
  EXPECT_TRUE(Prof.Cycles.foldedOutput().empty());
  EXPECT_GT(Prof.Heap.siteCount(), 0u); // heap side still recorded
}

TEST(Profile, DocumentHeaderAndSchema) {
  Profiler Prof;
  ProfiledRun A = runProfiled(&Prof, 128);
  ASSERT_TRUE(A.Run.Ok);
  Json Doc = Prof.toJson("twosite.c", "-O2", "sparc10");
  EXPECT_EQ(Doc.get("schema")->asString(), "gcsafe-profile-v1");
  EXPECT_EQ(Doc.get("input")->asString(), "twosite.c");
  EXPECT_EQ(Doc.get("sample_period_cycles")->asInt(), 128);
  ASSERT_TRUE(Doc.has("heap"));
  ASSERT_TRUE(Doc.has("cycles"));
  // Site ids are dense and ordered in the emitted document.
  const Json *Sites = Doc.get("heap")->get("sites");
  for (size_t I = 0; I < Sites->size(); ++I)
    EXPECT_EQ(Sites->at(I).get("id")->asInt(), static_cast<int64_t>(I));
  // Round-trips through the parser.
  std::string Text = Doc.dump(2);
  Json Back;
  std::string Error;
  ASSERT_TRUE(Json::parse(Text, Back, Error)) << Error;
  EXPECT_EQ(Back.dump(2), Text);
}

} // namespace
