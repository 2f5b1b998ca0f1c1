//===- tests/test_workloads.cpp - Workload program invariants ------------===//
//
// The benchmark workloads are inputs to every experiment; pin down their
// observable behaviour so frontend/VM regressions surface immediately.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace gcsafe;
using namespace gcsafe::driver;
using namespace gcsafe::workloads;

namespace {
struct Golden {
  const Workload *W;
  const char *Output;
};
} // namespace

TEST(Workloads, GoldenOutputs) {
  const Golden Expected[] = {
      {&cordtest(), "cordtest sum=130250\n"},
      {&cfrac(), "cfrac check=70401\n"},
      {&gawk(), "gawk total=8879285\n"},
      {&gawkBuggy(), "gawk total=8879285\n"},
      {&gs(), "gs check=100034\n"},
      {&displacedIndex(), "sum=5995\n"},
      {&strcpyLoop(), "copied=204400\n"},
      {&charIndex(), "f sum=1650000\n"},
  };
  for (const Golden &G : Expected) {
    auto R = compileAndRun(G.W->Name, G.W->Source, CompileMode::O2, {});
    ASSERT_TRUE(R.Ok) << G.W->Name << ": " << R.Error;
    EXPECT_EQ(R.Output, G.Output) << G.W->Name;
  }
}

TEST(Workloads, ParseCleanlyWithNoWarnings) {
  for (const Workload *W :
       {&cordtest(), &cfrac(), &gawk(), &gs(), &displacedIndex(),
        &strcpyLoop(), &charIndex()}) {
    Compilation C(W->Name, W->Source);
    ASSERT_TRUE(C.parse()) << W->Name << "\n" << C.renderedDiagnostics();
    EXPECT_EQ(C.diags().warningCount(), 0u)
        << W->Name << "\n" << C.renderedDiagnostics();
  }
}

TEST(Workloads, BuggyGawkTripsTheOutOfObjectLint) {
  // The buggy splitter's `q = rec - 1` manufactures a pointer before the
  // record — exactly the out-of-object hazard the source checker lints.
  Compilation C(gawkBuggy().Name, gawkBuggy().Source);
  ASSERT_TRUE(C.parse()) << C.renderedDiagnostics();
  EXPECT_EQ(C.diags().warningCount(), 1u) << C.renderedDiagnostics();
  EXPECT_NE(C.renderedDiagnostics().find("out-of-object"),
            std::string::npos)
      << C.renderedDiagnostics();
}

TEST(Workloads, AreAllocationIntensive) {
  // The paper: "All of these programs are very pointer and allocation
  // intensive." Each workload must allocate at least hundreds of objects.
  for (const Workload *W : benchmarkSuite()) {
    auto R = compileAndRun(W->Name, W->Source, CompileMode::O2, {});
    ASSERT_TRUE(R.Ok) << W->Name;
    EXPECT_GT(R.Gc.AllocationCount, 300u) << W->Name;
    EXPECT_GT(R.Gc.BytesRequested, 10000u) << W->Name;
  }
}

TEST(Workloads, BuggyGawkDiffersOnlyInTheSplitter) {
  std::string Clean = gawk().Source;
  std::string Buggy = gawkBuggy().Source;
  EXPECT_NE(Clean, Buggy);
  // Shared prefix (record generation etc.) and shared suffix (main) around
  // the splitter.
  EXPECT_NE(Clean.find("make_record"), std::string::npos);
  EXPECT_NE(Buggy.find("make_record"), std::string::npos);
  EXPECT_EQ(Clean.find("rec - 1"), std::string::npos);
  EXPECT_NE(Buggy.find("rec - 1"), std::string::npos);
}

TEST(Workloads, DescriptionsArePresent) {
  for (const Workload *W :
       {&cordtest(), &cfrac(), &gawk(), &gs(), &displacedIndex(),
        &strcpyLoop(), &charIndex()}) {
    EXPECT_NE(W->Name, nullptr);
    EXPECT_NE(W->Description, nullptr);
    EXPECT_GT(std::string(W->Description).size(), 8u) << W->Name;
  }
}

TEST(Workloads, SuiteMatchesPaperOrder) {
  auto Suite = benchmarkSuite();
  ASSERT_EQ(Suite.size(), 4u);
  EXPECT_STREQ(Suite[0]->Name, "cordtest");
  EXPECT_STREQ(Suite[1]->Name, "cfrac");
  EXPECT_STREQ(Suite[2]->Name, "gawk");
  EXPECT_STREQ(Suite[3]->Name, "gs");
}
