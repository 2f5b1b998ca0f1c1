//===- tests/test_selfheal.cpp - Degradation-ladder stress tests ---------===//
//
// The self-healing pipeline story (docs/ROBUSTNESS.md §5): every Mutate.h
// corruption operator, injected as a mid-pipeline pass fault, must be
// caught by the commit gate, rolled back, and quarantined — and the run
// must still produce exactly the output the unoptimized (inherently safe)
// build produces, with zero freed-memory accesses under adversarial
// collection scheduling. Plus the deadline watchdogs that feed the same
// ladder. Scheduled under `ctest -L stress`.
//
//===----------------------------------------------------------------------===//

#include "analysis/Mutate.h"
#include "driver/Pipeline.h"
#include "driver/SelfHeal.h"
#include "support/ExitCodes.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <string>

using namespace gcsafe;
using namespace gcsafe::driver;

namespace {

// A linked-list workload with enough pointer traffic that every corruption
// operator has a site to bite: KEEP_LIVE annotations (DeleteKeepLive),
// inserted kills (DropKill, HoistKill), derived-pointer bases
// (ClobberBase).
const char *kListSource = R"(
struct node {
  struct node *next;
  long value;
};

long sum_list(struct node *head) {
  long s;
  s = 0;
  while (head) {
    s = s + head->value;
    head = head->next;
  }
  return s;
}

int main(void) {
  struct node *head;
  struct node *n;
  long i;
  head = 0;
  for (i = 0; i < 60; i++) {
    n = (struct node *)gc_malloc(sizeof(struct node));
    n->value = i * 3;
    n->next = head;
    head = n;
  }
  print_int(sum_list(head));
  print_char(10);
  return 0;
}
)";

const char *kSpinSource = R"(
int main(void) {
  long i;
  long acc;
  i = 0;
  acc = 0;
  while (i < 2000000000) {
    acc = acc + i;
    i = i + 1;
  }
  print_int(acc);
  return 0;
}
)";

vm::VMOptions adversarial() {
  vm::VMOptions VO;
  VO.GcAllocTrigger = 5;
  VO.GcInstructionPeriod = 503;
  return VO;
}

/// Reference output: the fully debuggable build is inherently GC-safe.
std::string referenceOutput() {
  vm::RunResult R =
      compileAndRun("ref.c", kListSource, CompileMode::Debug, adversarial());
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Output;
}

struct HealedRun {
  SelfHealReport Heal;
  vm::RunResult Run;
  bool CompileOk = false;
};

HealedRun healAndRun(const std::string &FailSpec, int CorruptKind = -1,
                     uint64_t PassDeadlineNs = 0,
                     OptRung StartRung = OptRung::Full) {
  HealedRun Out;
  Compilation Comp("selfheal.c", kListSource);
  if (!Comp.parse())
    return Out;

  support::FaultInjector Faults;
  if (!FailSpec.empty()) {
    std::string Error;
    if (!support::FaultInjector::parse(FailSpec, Faults, Error)) {
      ADD_FAILURE() << "bad fail spec: " << Error;
      return Out;
    }
  }

  CompileOptions CO;
  CO.Mode = CompileMode::O2Safe;
  SelfHealOptions SH;
  SH.StartRung = StartRung;
  SH.PassDeadlineNs = PassDeadlineNs;
  SH.Faults = FailSpec.empty() ? nullptr : &Faults;
  SH.CorruptKind = CorruptKind;
  CompileResult CR = compileSelfHealing(Comp, CO, SH, Out.Heal);
  Out.CompileOk = CR.Ok;
  if (!CR.Ok || !Out.Heal.Ok)
    return Out;

  vm::VMOptions VO = adversarial();
  vm::VM Machine(CR.Module, VO);
  Out.Run = Machine.run();
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// The ladder's happy path
//===----------------------------------------------------------------------===//

TEST(SelfHeal, CleanCompileIsNotDegraded) {
  HealedRun R = healAndRun("");
  ASSERT_TRUE(R.CompileOk);
  ASSERT_TRUE(R.Heal.Ok);
  EXPECT_FALSE(R.Heal.Degraded);
  EXPECT_EQ(R.Heal.Rung, OptRung::Full);
  EXPECT_TRUE(R.Heal.Rollbacks.empty());
  EXPECT_TRUE(R.Heal.Quarantined.empty());
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  EXPECT_EQ(R.Run.Output, referenceOutput());
}

TEST(SelfHeal, EntryRungFloorIsDegraded) {
  HealedRun R = healAndRun("", -1, 0, OptRung::Unoptimized);
  ASSERT_TRUE(R.Heal.Ok);
  EXPECT_TRUE(R.Heal.Degraded);
  EXPECT_EQ(R.Heal.Rung, OptRung::Unoptimized);
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  EXPECT_EQ(R.Run.Output, referenceOutput());
}

//===----------------------------------------------------------------------===//
// Every corruption operator is caught, rolled back, and healed
//===----------------------------------------------------------------------===//

TEST(SelfHeal, FourOperatorsCaughtAndHealed) {
  const std::string Reference = referenceOutput();
  for (int Kind = 0; Kind < 4; ++Kind) {
    SCOPED_TRACE("operator " +
                 std::string(analysis::mutationKindName(
                     static_cast<analysis::MutationKind>(Kind))));
    HealedRun R = healAndRun("7:opt.pass.corrupt@always", Kind);
    ASSERT_TRUE(R.CompileOk);
    // Never a crash, never unsafe code: the gate must veto and the ladder
    // must still deliver a verified module.
    ASSERT_TRUE(R.Heal.Ok);
    EXPECT_TRUE(R.Heal.Degraded);
    EXPECT_FALSE(R.Heal.Rollbacks.empty())
        << "corruption must be detected and rolled back";
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
    EXPECT_EQ(R.Run.Output, Reference)
        << "healed build must match the inherently safe build";
    EXPECT_EQ(R.Run.FreedAccesses, 0u)
        << "healed build must never touch freed memory";
  }
}

TEST(SelfHeal, SeedSweptCorruptionStress) {
  const std::string Reference = referenceOutput();
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    HealedRun R =
        healAndRun(std::to_string(Seed) + ":opt.pass.corrupt@p0.3");
    ASSERT_TRUE(R.CompileOk);
    ASSERT_TRUE(R.Heal.Ok);
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
    EXPECT_EQ(R.Run.Output, Reference);
    EXPECT_EQ(R.Run.FreedAccesses, 0u);
    // Degradation must be reported iff a recovery action happened.
    EXPECT_EQ(R.Heal.Degraded,
              !R.Heal.Rollbacks.empty() || R.Heal.Rung != OptRung::Full);
  }
}

//===----------------------------------------------------------------------===//
// Deadlines and the ladder
//===----------------------------------------------------------------------===//

TEST(SelfHeal, PassDeadlineRollsBackAndStillDelivers) {
  // A 1ns budget makes every pass a deadline fault. All of them roll
  // back; the snapshot (identity) result is still safe and correct.
  HealedRun R = healAndRun("", -1, /*PassDeadlineNs=*/1);
  ASSERT_TRUE(R.CompileOk);
  ASSERT_TRUE(R.Heal.Ok);
  EXPECT_TRUE(R.Heal.Degraded);
  ASSERT_FALSE(R.Heal.Rollbacks.empty());
  bool SawDeadline = false;
  for (const driver::PassRollback &RB : R.Heal.Rollbacks)
    if (RB.Reason == "deadline")
      SawDeadline = true;
  EXPECT_TRUE(SawDeadline);
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  EXPECT_EQ(R.Run.Output, referenceOutput());
}

TEST(SelfHeal, VerifierTimeoutDescendsToFloor) {
  // The commit gate treats a verifier timeout as a conservative veto;
  // with the verifier timing out always, the ladder descends to the
  // floor, where a timeout (but never a failure) is accepted.
  HealedRun R = healAndRun("3:analysis.verify.timeout@always");
  ASSERT_TRUE(R.CompileOk);
  ASSERT_TRUE(R.Heal.Ok);
  EXPECT_TRUE(R.Heal.Degraded);
  EXPECT_EQ(R.Heal.Rung, OptRung::Unoptimized);
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  EXPECT_EQ(R.Run.Output, referenceOutput());
}

TEST(SelfHeal, VmWatchdogStopsRunawayProgram) {
  Compilation Comp("spin.c", kSpinSource);
  ASSERT_TRUE(Comp.parse());
  CompileOptions CO;
  CO.Mode = CompileMode::O2Safe;
  CompileResult CR = Comp.compile(CO);
  ASSERT_TRUE(CR.Ok);
  vm::VMOptions VO;
  VO.VmDeadlineNs = 50ull * 1000000; // 50ms against a multi-second loop
  vm::VM Machine(CR.Module, VO);
  vm::RunResult R = Machine.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.WatchdogTimeout);
  EXPECT_NE(R.Error.find("deadline"), std::string::npos) << R.Error;
}

TEST(SelfHeal, GcDeadlineIsAWatchdogFault) {
  Compilation Comp("gcdl.c", kListSource);
  ASSERT_TRUE(Comp.parse());
  CompileOptions CO;
  CO.Mode = CompileMode::O2Safe;
  CompileResult CR = Comp.compile(CO);
  ASSERT_TRUE(CR.Ok);
  vm::VMOptions VO = adversarial();
  VO.GcDeadlineNs = 1; // every collection exceeds 1ns
  vm::VM Machine(CR.Module, VO);
  vm::RunResult R = Machine.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.WatchdogTimeout);
  EXPECT_NE(R.Error.find("GC collection deadline"), std::string::npos)
      << R.Error;
}

//===----------------------------------------------------------------------===//
// The exit-code contract
//===----------------------------------------------------------------------===//

TEST(SelfHeal, ExitCodeContract) {
  using namespace gcsafe::support;
  EXPECT_STREQ(exitCodeName(ExitSuccess), "success");
  EXPECT_STREQ(exitCodeName(ExitError), "error");
  EXPECT_STREQ(exitCodeName(ExitUsage), "usage");
  EXPECT_STREQ(exitCodeName(ExitSafetyViolation), "safety-violation");
  EXPECT_STREQ(exitCodeName(ExitMutantEscape), "mutant-escape");
  EXPECT_STREQ(exitCodeName(ExitDegradedSuccess), "degraded-success");
  EXPECT_STREQ(exitCodeName(ExitWatchdogTimeout), "watchdog-timeout");
  EXPECT_TRUE(exitCodeIsSuccess(ExitSuccess));
  EXPECT_TRUE(exitCodeIsSuccess(ExitDegradedSuccess));
  EXPECT_FALSE(exitCodeIsSuccess(ExitError));
  EXPECT_FALSE(exitCodeIsSuccess(ExitUsage));
  EXPECT_FALSE(exitCodeIsSuccess(ExitSafetyViolation));
  EXPECT_FALSE(exitCodeIsSuccess(ExitMutantEscape));
  EXPECT_FALSE(exitCodeIsSuccess(ExitWatchdogTimeout));
}

TEST(SelfHeal, RungNamesRoundTrip) {
  EXPECT_STREQ(optRungName(OptRung::Full), "full");
  EXPECT_STREQ(optRungName(OptRung::Quarantined), "quarantined");
  EXPECT_STREQ(optRungName(OptRung::PeepholeOnly), "peephole");
  EXPECT_STREQ(optRungName(OptRung::Unoptimized), "unoptimized");
  OptRung R;
  EXPECT_TRUE(parseOptRung("full", R));
  EXPECT_EQ(R, OptRung::Full);
  EXPECT_TRUE(parseOptRung("peephole", R));
  EXPECT_EQ(R, OptRung::PeepholeOnly);
  EXPECT_TRUE(parseOptRung("unoptimized", R));
  EXPECT_EQ(R, OptRung::Unoptimized);
  EXPECT_FALSE(parseOptRung("quarantined", R))
      << "quarantined is an outcome, not an enterable rung";
  EXPECT_FALSE(parseOptRung("warp", R));
}
