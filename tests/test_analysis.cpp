//===- tests/test_analysis.cpp - Static GC-safety verifier ---------------===//
//
// Tests for the analysis subsystem (docs/ANALYSIS.md): the BaseLiveness
// facts and the plain opt::Liveness instance on hand-built CFGs, the SafetyVerifier's point checks and
// kill-placement audit, pass-to-pass KEEP_LIVE continuity, the mutation
// self-test (the verifier must flag every seeded corruption and pass every
// clean program in every mode), and the gcsafe-lint-v1 report.
//
//===----------------------------------------------------------------------===//

#include "analysis/BaseLiveness.h"
#include "analysis/Mutate.h"
#include "analysis/SafetyVerifier.h"
#include "driver/Pipeline.h"
#include "ir/Lower.h"
#include "opt/CFG.h"
#include "support/FaultInject.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace gcsafe;
using namespace gcsafe::analysis;
using namespace gcsafe::driver;
using namespace gcsafe::workloads;

namespace {

//===----------------------------------------------------------------------===//
// Hand-built IR helpers
//===----------------------------------------------------------------------===//

ir::Instruction inst(ir::Opcode Op) {
  ir::Instruction I;
  I.Op = Op;
  return I;
}

ir::Instruction movImm(uint32_t D, int64_t V) {
  ir::Instruction I = inst(ir::Opcode::Mov);
  I.Dst = D;
  I.A = ir::Value::imm(V);
  return I;
}

ir::Instruction movReg(uint32_t D, uint32_t S) {
  ir::Instruction I = inst(ir::Opcode::Mov);
  I.Dst = D;
  I.A = ir::Value::reg(S);
  return I;
}

ir::Instruction addImm(uint32_t D, uint32_t A, int64_t V) {
  ir::Instruction I = inst(ir::Opcode::Add);
  I.Dst = D;
  I.A = ir::Value::reg(A);
  I.B = ir::Value::imm(V);
  return I;
}

ir::Instruction keepLive(uint32_t D, uint32_t A, uint32_t Base) {
  ir::Instruction I = inst(ir::Opcode::KeepLive);
  I.Dst = D;
  I.A = ir::Value::reg(A);
  I.B = ir::Value::reg(Base);
  return I;
}

ir::Instruction kill(uint32_t R) {
  ir::Instruction I = inst(ir::Opcode::Kill);
  I.A = ir::Value::reg(R);
  return I;
}

ir::Instruction ret(uint32_t R = ir::NoReg) {
  ir::Instruction I = inst(ir::Opcode::Ret);
  if (R != ir::NoReg)
    I.A = ir::Value::reg(R);
  return I;
}

ir::Instruction jmp(uint32_t B) {
  ir::Instruction I = inst(ir::Opcode::Jmp);
  I.Blk1 = B;
  return I;
}

ir::Instruction br(uint32_t Cond, uint32_t B1, uint32_t B2) {
  ir::Instruction I = inst(ir::Opcode::Br);
  I.A = ir::Value::reg(Cond);
  I.Blk1 = B1;
  I.Blk2 = B2;
  return I;
}

ir::Function makeFunction(const char *Name, uint32_t NumRegs,
                          std::vector<std::vector<ir::Instruction>> Blocks) {
  ir::Function F;
  F.Name = Name;
  F.NumRegs = NumRegs;
  for (size_t I = 0; I < Blocks.size(); ++I) {
    ir::BasicBlock B;
    B.Name = "b" + std::to_string(I);
    B.Insts = std::move(Blocks[I]);
    F.Blocks.push_back(std::move(B));
  }
  return F;
}

/// Runs layer 1 (point checks) only — hand-built functions have no
/// insertKills-canonical placement to audit.
std::vector<SafetyDiag> pointCheck(const ir::Function &F) {
  SafetyVerifyOptions VO;
  VO.Pass = "(test)";
  VO.CheckKillPlacement = false;
  std::vector<SafetyDiag> Diags;
  verifyFunctionSafety(F, VO, Diags);
  return Diags;
}

bool hasKind(const std::vector<SafetyDiag> &Diags, const char *Kind) {
  return std::any_of(Diags.begin(), Diags.end(),
                     [&](const SafetyDiag &D) { return D.Kind == Kind; });
}

std::string renderAll(const std::vector<SafetyDiag> &Diags) {
  std::string Out;
  for (const SafetyDiag &D : Diags)
    Out += formatSafetyDiag(D) + "\n";
  return Out;
}

/// The registers \p Derived is pinned to in \p Facts, ascending.
std::vector<uint32_t> bases(const ir::Function &F, const BaseLiveness &BL,
                            const BaseFacts &Facts, uint32_t Derived) {
  std::vector<uint32_t> Out;
  for (uint32_t B = 0; B < F.NumRegs; ++B)
    if (BL.pinned(Facts, Derived, B))
      Out.push_back(B);
  return Out;
}

/// True when no register carries a fact in \p Facts.
bool noFacts(const BaseFacts &Facts) {
  return std::all_of(Facts.Bits.begin(), Facts.Bits.end(),
                     [](uint64_t W) { return W == 0; });
}

const std::vector<const Workload *> &allWorkloads() {
  static const std::vector<const Workload *> All = {
      &cordtest(), &cfrac(),      &gawk(),      &gawkBuggy(),
      &gs(),       &displacedIndex(), &strcpyLoop(), &charIndex()};
  return All;
}

const CompileMode AllModes[] = {CompileMode::O2, CompileMode::O2Safe,
                                CompileMode::O2SafePost, CompileMode::Debug,
                                CompileMode::DebugChecked};

CompileResult compileWorkload(const Workload &W, const CompileOptions &CO) {
  Compilation C(W.Name, W.Source);
  EXPECT_TRUE(C.parse()) << W.Name << "\n" << C.renderedDiagnostics();
  return C.compile(CO);
}

} // namespace

//===----------------------------------------------------------------------===//
// BaseLiveness on hand-built CFGs
//===----------------------------------------------------------------------===//

TEST(BaseLiveness, StraightLineFactsAndPlainLiveness) {
  // r0 = 100; r1 = r0 + 8; r2 = KEEP_LIVE(r1, r0); return r2
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), addImm(1, 0, 8), keepLive(2, 1, 0), ret(2)}});
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  EXPECT_TRUE(noFacts(BL.factsIn(0)));
  // r2 is the one register that can carry a fact (and, below, does).
  EXPECT_EQ(BL.candidates(), std::vector<uint32_t>{2u});

  // Walk the transfer function through the block.
  BaseFacts Facts = BL.factsIn(0);
  BL.transfer(F.Blocks[0].Insts[0], Facts);
  BL.transfer(F.Blocks[0].Insts[1], Facts);
  EXPECT_TRUE(noFacts(Facts));
  BL.transfer(F.Blocks[0].Insts[2], Facts);
  EXPECT_EQ(bases(F, BL, Facts, 2), std::vector<uint32_t>{0u});
  EXPECT_TRUE(bases(F, BL, Facts, 1).empty());

  // The kill-insertion contract covers the KeepLive destination only.
  EXPECT_TRUE(BL.inKillContract(2, 0));
  EXPECT_FALSE(BL.inKillContract(1, 0));
  EXPECT_FALSE(BL.inKillContract(0, 0));

  // Plain (unextended) liveness: the base r0 is dead after the KeepLive —
  // exactly the fact the extended instance extends away.
  opt::Liveness Plain(F, CFG, opt::Liveness::Plain);
  std::vector<opt::RegSet> LiveAfter;
  Plain.liveAfter(0, LiveAfter);
  ASSERT_EQ(LiveAfter.size(), 4u);
  EXPECT_TRUE(LiveAfter[0].test(0));
  EXPECT_TRUE(LiveAfter[1].test(0)); // r0 still read by the KeepLive.
  EXPECT_FALSE(LiveAfter[2].test(0));
  EXPECT_TRUE(LiveAfter[2].test(2));
}

TEST(BaseLiveness, CopiesCarryFactsOutsideTheContract) {
  // r1 = KEEP_LIVE(r0, r0); r2 = r1; return r2
  ir::Function F = makeFunction(
      "f", 3, {{movImm(0, 100), keepLive(1, 0, 0), movReg(2, 1), ret(2)}});
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  BaseFacts Facts = BL.factsIn(0);
  for (const ir::Instruction &I : F.Blocks[0].Insts)
    BL.transfer(I, Facts);
  EXPECT_EQ(bases(F, BL, Facts, 2), std::vector<uint32_t>{0u});

  // Copy-carried facts are real derivations but outside the kill contract.
  EXPECT_TRUE(BL.inKillContract(1, 0));
  EXPECT_FALSE(BL.inKillContract(2, 0));
}

TEST(BaseLiveness, WritebackSelfAnchors) {
  // The specialized ++/-- expansion: r0 = KEEP_LIVE(r1, r0). The result
  // replaces its own base, so no fact survives.
  ir::Function F = makeFunction(
      "f", 2, {{movImm(0, 100), addImm(1, 0, 1), keepLive(0, 1, 0), ret(0)}});
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  BaseFacts Facts = BL.factsIn(0);
  for (const ir::Instruction &I : F.Blocks[0].Insts)
    BL.transfer(I, Facts);
  EXPECT_TRUE(bases(F, BL, Facts, 0).empty());
  EXPECT_TRUE(pointCheck(F).empty()) << renderAll(pointCheck(F));
}

TEST(BaseLiveness, RedefinitionErasesTheFact) {
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), keepLive(2, 0, 0), addImm(2, 2, 1), ret(2)}});
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);
  BaseFacts Facts = BL.factsIn(0);
  BL.transfer(F.Blocks[0].Insts[1], Facts);
  EXPECT_FALSE(bases(F, BL, Facts, 2).empty());
  BL.transfer(F.Blocks[0].Insts[2], Facts);
  EXPECT_TRUE(bases(F, BL, Facts, 2).empty());
}

TEST(BaseLiveness, MergeJoinsBaseSets) {
  // Both arms KEEP_LIVE into r3 with different bases; at the join r3 is
  // pinned to the union {r1, r2}.
  ir::Function F = makeFunction(
      "f", 5,
      {
          {movImm(0, 1), movImm(1, 100), movImm(2, 200), br(0, 1, 2)},
          {keepLive(3, 1, 1), jmp(3)},
          {keepLive(3, 2, 2), jmp(3)},
          {ret(3)},
      });
  opt::CFGInfo CFG(F);
  BaseLiveness BL(F, CFG);

  const BaseFacts &AtJoin = BL.factsIn(3);
  EXPECT_EQ(bases(F, BL, AtJoin, 3), (std::vector<uint32_t>{1u, 2u}));
}

TEST(PlainLiveness, LoopLivenessReachesTheHeader) {
  // b0: r0=0, r1=10 -> b1: while (r1 > 0) -> b2: r1-- -> b1; b3: ret r0
  ir::Instruction Cmp = inst(ir::Opcode::CmpGtS);
  Cmp.Dst = 2;
  Cmp.A = ir::Value::reg(1);
  Cmp.B = ir::Value::imm(0);
  ir::Instruction Dec = inst(ir::Opcode::Sub);
  Dec.Dst = 1;
  Dec.A = ir::Value::reg(1);
  Dec.B = ir::Value::imm(1);
  ir::Function F = makeFunction("f", 3,
                                {
                                    {movImm(0, 0), movImm(1, 10), jmp(1)},
                                    {Cmp, br(2, 2, 3)},
                                    {Dec, jmp(1)},
                                    {ret(0)},
                                });
  opt::CFGInfo CFG(F);
  opt::Liveness Live(F, CFG, opt::Liveness::Plain);

  EXPECT_TRUE(Live.liveIn(1).test(0)); // survives the loop to the return
  EXPECT_TRUE(Live.liveIn(1).test(1)); // loop-carried counter
  EXPECT_TRUE(Live.liveOut(2).test(1));
  EXPECT_FALSE(Live.liveOut(3).test(0));
}

TEST(PlainLiveness, CallArgumentsAreUses) {
  // b0: r0 = 100; jmp b1 -> b1: r1 = call f(r0); r2 = call g(r0); ret r1
  ir::Instruction CallF = inst(ir::Opcode::Call);
  CallF.Dst = 1;
  CallF.Args = {ir::Value::reg(0)};
  ir::Instruction CallG = inst(ir::Opcode::Call);
  CallG.Dst = 2;
  CallG.Args = {ir::Value::reg(0)};
  ir::Function F = makeFunction(
      "f", 3, {{movImm(0, 100), jmp(1)}, {CallF, CallG, ret(1)}});
  opt::CFGInfo CFG(F);
  opt::Liveness Live(F, CFG, opt::Liveness::Plain);

  EXPECT_TRUE(Live.liveIn(1).test(0));
  EXPECT_TRUE(Live.liveOut(0).test(0));
  std::vector<opt::RegSet> LiveAfter;
  Live.liveAfter(1, LiveAfter);
  ASSERT_EQ(LiveAfter.size(), 3u);
  EXPECT_TRUE(LiveAfter[0].test(0)); // still an argument of the second call
  EXPECT_FALSE(LiveAfter[1].test(0));
  EXPECT_EQ(Live.maxPressure(1), 2u); // {r0, r1} between the calls
}

TEST(PlainLiveness, OnlyTheExtendedInstanceKeepsTheBaseLive) {
  // r0 = 100; r1 = r0 + 8; r2 = KEEP_LIVE(r1, r0); return r2
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), addImm(1, 0, 8), keepLive(2, 1, 0), ret(2)}});
  opt::CFGInfo CFG(F);
  opt::Liveness Plain(F, CFG, opt::Liveness::Plain);
  opt::Liveness Extended(F, CFG, opt::Liveness::KeepLiveExtended);

  std::vector<opt::RegSet> PlainAfter, ExtendedAfter;
  Plain.liveAfter(0, PlainAfter);
  Extended.liveAfter(0, ExtendedAfter);
  ASSERT_EQ(PlainAfter.size(), 4u);
  ASSERT_EQ(ExtendedAfter.size(), 4u);
  // After the KeepLive, r0 is dead to the plain instance only.
  EXPECT_TRUE(PlainAfter[2].test(2));
  EXPECT_TRUE(ExtendedAfter[2].test(2));
  EXPECT_FALSE(PlainAfter[2].test(0));
  EXPECT_TRUE(ExtendedAfter[2].test(0));
  // Before it, both instances agree.
  for (uint32_t R = 0; R < 3; ++R) {
    EXPECT_EQ(PlainAfter[1].test(R), ExtendedAfter[1].test(R)) << R;
  }
  EXPECT_EQ(Plain.maxPressure(0), 2u);
  EXPECT_EQ(Extended.maxPressure(0), 2u);
}

//===----------------------------------------------------------------------===//
// SafetyVerifier point checks on hand-built violations
//===----------------------------------------------------------------------===//

TEST(SafetyVerifier, CleanStraightLineIsGreen) {
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), addImm(1, 0, 8), keepLive(2, 1, 0), kill(1),
        ret(2)}});
  auto Diags = pointCheck(F);
  EXPECT_TRUE(Diags.empty()) << renderAll(Diags);
}

TEST(SafetyVerifier, BaseKillAfterTheDerivedValueIsRedefinedIsGreen) {
  // r2 = KEEP_LIVE(r1, r0) is redefined as a fresh value before r0 is
  // killed, so the kill is correct. Only the KEEP_LIVE-extended liveness,
  // which is flow-insensitive about r2's bases, would call r0 live there.
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), addImm(1, 0, 8), keepLive(2, 1, 0), kill(1),
        movImm(2, 7), kill(0), ret(2)}});
  auto Diags = pointCheck(F);
  EXPECT_TRUE(Diags.empty()) << renderAll(Diags);
}

TEST(SafetyVerifier, KillOfLiveRegisterFlagged) {
  ir::Function F =
      makeFunction("f", 1, {{movImm(0, 5), kill(0), ret(0)}});
  auto Diags = pointCheck(F);
  ASSERT_FALSE(Diags.empty());
  EXPECT_TRUE(hasKind(Diags, "kill_live_register")) << renderAll(Diags);
  EXPECT_EQ(Diags[0].Function, "f");
  EXPECT_EQ(Diags[0].Pass, "(test)");
}

TEST(SafetyVerifier, KillOfPinnedBaseFlagged) {
  // Kill r0 while r2 = KEEP_LIVE(r1, r0) is still live: the premature
  // collection window the paper's condition (2) forbids.
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), addImm(1, 0, 8), keepLive(2, 1, 0), kill(0),
        ret(2)}});
  auto Diags = pointCheck(F);
  ASSERT_FALSE(Diags.empty());
  EXPECT_TRUE(hasKind(Diags, "base_killed")) << renderAll(Diags);
  const SafetyDiag *D = nullptr;
  for (const SafetyDiag &Cand : Diags)
    if (Cand.Kind == "base_killed")
      D = &Cand;
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Derived, 2u);
  EXPECT_EQ(D->Base, 0u);
  EXPECT_EQ(D->Block, 0u);
  EXPECT_EQ(D->Index, 3u);
}

TEST(SafetyVerifier, ClobberOfPinnedBaseFlagged) {
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), keepLive(2, 0, 0), movImm(0, 0), ret(2)}});
  auto Diags = pointCheck(F);
  ASSERT_FALSE(Diags.empty());
  EXPECT_TRUE(hasKind(Diags, "base_clobbered")) << renderAll(Diags);
}

TEST(SafetyVerifier, RebaseReadingTheBaseIsExempt) {
  // `r0 = r0 + 8` after the KeepLive still holds a pointer into the same
  // object — the rebase the ++/-- expansion emits is not a clobber.
  ir::Function F = makeFunction(
      "f", 3,
      {{movImm(0, 100), keepLive(2, 0, 0), addImm(0, 0, 8), ret(2)}});
  auto Diags = pointCheck(F);
  EXPECT_TRUE(Diags.empty()) << renderAll(Diags);
}

TEST(SafetyVerifier, KeepLiveContinuityFlagsDroppedAnnotations) {
  ir::Function F = makeFunction(
      "f", 2, {{movImm(0, 100), keepLive(1, 0, 0), ret(1)}});
  KeepLiveContinuity Continuity;
  Continuity.record(F);

  // A "pass" silently rewrites the KeepLive into a Mov while its result is
  // still consumed by the return.
  ir::Function Mutated = F;
  Mutated.Blocks[0].Insts[1] = movReg(1, 0);
  std::vector<SafetyDiag> Diags;
  Continuity.check(Mutated, "bad_pass", Diags);
  ASSERT_EQ(Diags.size(), 1u) << renderAll(Diags);
  EXPECT_EQ(Diags[0].Kind, "keep_live_dropped");
  EXPECT_EQ(Diags[0].Pass, "bad_pass");
  EXPECT_EQ(Diags[0].Derived, 1u);

  // Legal disappearance: the derived value lost every use (dead code).
  KeepLiveContinuity Continuity2;
  Continuity2.record(F);
  ir::Function Dead = F;
  Dead.Blocks[0].Insts[1] = movReg(1, 0);
  Dead.Blocks[0].Insts[2] = ret(0);
  std::vector<SafetyDiag> None;
  Continuity2.check(Dead, "dce", None);
  EXPECT_TRUE(None.empty()) << renderAll(None);
}

TEST(SafetyVerifier, FormatIsReadable) {
  SafetyDiag D;
  D.Function = "main";
  D.Block = 2;
  D.Index = 7;
  D.Pass = "licm";
  D.Kind = "base_killed";
  D.Message = "base r3 killed";
  std::string Line = formatSafetyDiag(D);
  EXPECT_NE(Line.find("main"), std::string::npos);
  EXPECT_NE(Line.find("base_killed"), std::string::npos);
  EXPECT_NE(Line.find("licm"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Whole-pipeline verification: clean on every workload in every mode
//===----------------------------------------------------------------------===//

TEST(SafetyPipeline, AllWorkloadsVerifyCleanInEveryMode) {
  for (const Workload *W : allWorkloads()) {
    for (CompileMode Mode : AllModes) {
      SCOPED_TRACE(std::string(W->Name) + " / " + compileModeName(Mode));
      CompileOptions CO;
      CO.Mode = Mode;
      CO.Verify = SafetyVerify::EachPass;
      CO.VerifyIREachPass = true;
      CompileResult CR = compileWorkload(*W, CO);
      ASSERT_TRUE(CR.Ok) << CR.Errors;
      EXPECT_TRUE(CR.SafetyOk) << renderAll(CR.SafetyDiags);
      EXPECT_TRUE(CR.IRVerifyErrors.empty())
          << CR.IRVerifyErrors.front();
      EXPECT_GT(CR.Stats.get("analysis.verify.runs"), 0u);
      EXPECT_EQ(CR.Stats.get("analysis.verify.diags"), 0u);
      EXPECT_TRUE(CR.Stats.has("analysis.verify.ns"));
    }
  }
}

TEST(SafetyPipeline, SafeModesCarryKeepLivesSoGreenIsNotVacuous) {
  auto countKeepLives = [](const ir::Module &M) {
    unsigned N = 0;
    for (const ir::Function &F : M.Functions)
      for (const ir::BasicBlock &B : F.Blocks)
        for (const ir::Instruction &I : B.Insts)
          if (I.Op == ir::Opcode::KeepLive)
            ++N;
    return N;
  };
  CompileOptions Safe;
  Safe.Mode = CompileMode::O2Safe;
  Safe.Verify = SafetyVerify::Final;
  CompileResult SafeCR = compileWorkload(displacedIndex(), Safe);
  ASSERT_TRUE(SafeCR.Ok);
  EXPECT_GT(countKeepLives(SafeCR.Module), 0u);

  CompileOptions Plain;
  Plain.Mode = CompileMode::O2;
  Plain.Verify = SafetyVerify::Final;
  CompileResult PlainCR = compileWorkload(displacedIndex(), Plain);
  ASSERT_TRUE(PlainCR.Ok);
  EXPECT_EQ(countKeepLives(PlainCR.Module), 0u);
  EXPECT_TRUE(PlainCR.SafetyOk);
}

TEST(SafetyPipeline, CorpusSurvivorsVerifyClean) {
  // Whatever malformed-corpus files happen to parse must still verify —
  // the verifier may not false-positive on degenerate-but-legal inputs.
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(GCSAFE_CORPUS_DIR))
    if (Entry.path().extension() == ".c")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  for (const auto &Path : Files) {
    SCOPED_TRACE(Path.filename().string());
    std::ifstream In(Path);
    std::ostringstream SS;
    SS << In.rdbuf();
    Compilation C(Path.filename().string(), SS.str());
    if (!C.parse())
      continue;
    CompileOptions CO;
    CO.Mode = CompileMode::O2SafePost;
    CO.Verify = SafetyVerify::EachPass;
    CompileResult CR = C.compile(CO);
    if (!CR.Ok)
      continue;
    EXPECT_TRUE(CR.SafetyOk) << renderAll(CR.SafetyDiags);
  }
}

//===----------------------------------------------------------------------===//
// Mutation self-test: every seeded corruption must be flagged
//===----------------------------------------------------------------------===//

TEST(SafetyMutation, EveryMutantIsCaughtInSafeModes) {
  for (const Workload *W : allWorkloads()) {
    for (CompileMode Mode :
         {CompileMode::O2Safe, CompileMode::O2SafePost}) {
      SCOPED_TRACE(std::string(W->Name) + " / " + compileModeName(Mode));
      CompileOptions CO;
      CO.Mode = Mode;
      CompileResult CR = compileWorkload(*W, CO);
      ASSERT_TRUE(CR.Ok) << CR.Errors;

      std::vector<Mutation> Mutants = enumerateMutations(CR.Module);
      EXPECT_FALSE(Mutants.empty()) << "no mutation sites";
      for (const Mutation &Mu : Mutants) {
        ir::Module Copy = CR.Module;
        ASSERT_TRUE(applyMutation(Copy, Mu)) << Mu.Description;
        SafetyVerifyOptions VO;
        VO.Pass = "(mutant)";
        std::vector<SafetyDiag> Diags;
        verifyFunctionSafety(Copy.Functions[Mu.FunctionIndex], VO, Diags);
        EXPECT_FALSE(Diags.empty()) << "escaped: " << Mu.Description;
      }
    }
  }
}

TEST(SafetyMutation, KillOnlyModesStillAuditPlacement) {
  // O2 has no KEEP_LIVEs, but its kill placement is still canonical; the
  // drop/hoist operators must be enumerable and caught there too.
  CompileOptions CO;
  CO.Mode = CompileMode::O2;
  CompileResult CR = compileWorkload(gawk(), CO);
  ASSERT_TRUE(CR.Ok) << CR.Errors;

  std::vector<Mutation> Mutants = enumerateMutations(CR.Module);
  ASSERT_FALSE(Mutants.empty());
  for (const Mutation &Mu : Mutants) {
    EXPECT_TRUE(Mu.Kind == MutationKind::DropKill ||
                Mu.Kind == MutationKind::HoistKill)
        << Mu.Description;
    ir::Module Copy = CR.Module;
    ASSERT_TRUE(applyMutation(Copy, Mu)) << Mu.Description;
    SafetyVerifyOptions VO;
    VO.Pass = "(mutant)";
    std::vector<SafetyDiag> Diags;
    verifyFunctionSafety(Copy.Functions[Mu.FunctionIndex], VO, Diags);
    EXPECT_FALSE(Diags.empty()) << "escaped: " << Mu.Description;
  }
}

TEST(SafetyMutation, DescriptionsAreDeterministic) {
  CompileOptions CO;
  CO.Mode = CompileMode::O2SafePost;
  CompileResult A = compileWorkload(displacedIndex(), CO);
  CompileResult B = compileWorkload(displacedIndex(), CO);
  ASSERT_TRUE(A.Ok && B.Ok);
  std::vector<Mutation> MA = enumerateMutations(A.Module);
  std::vector<Mutation> MB = enumerateMutations(B.Module);
  ASSERT_EQ(MA.size(), MB.size());
  for (size_t I = 0; I < MA.size(); ++I)
    EXPECT_EQ(MA[I].Description, MB[I].Description);
}

//===----------------------------------------------------------------------===//
// Offending-pass attribution (each-pass bisection)
//===----------------------------------------------------------------------===//

TEST(SafetyPipeline, EachPassModeNamesTheOffendingPass) {
  // Emulate a buggy LICM that silently rewrites the first still-used
  // KEEP_LIVE into a plain Mov. The each-pass verifier must attribute the
  // violation to "licm" by name.
  bool Mutated = false;
  CompileOptions CO;
  CO.Mode = CompileMode::O2Safe;
  CO.Verify = SafetyVerify::EachPass;
  CO.PassMutator = [&Mutated](const char *Pass, ir::Function &F) {
    if (Mutated || std::string(Pass) != "licm")
      return;
    opt::DefUseCounts DU = opt::countDefsUses(F);
    for (ir::BasicBlock &B : F.Blocks) {
      for (ir::Instruction &I : B.Insts) {
        if (I.Op != ir::Opcode::KeepLive || I.Dst == ir::NoReg ||
            DU.Uses[I.Dst] == 0)
          continue;
        I.Op = ir::Opcode::Mov;
        I.B = ir::Value::none();
        Mutated = true;
        return;
      }
    }
  };
  CompileResult CR = compileWorkload(displacedIndex(), CO);
  ASSERT_TRUE(CR.Ok) << CR.Errors;
  ASSERT_TRUE(Mutated) << "no KEEP_LIVE survived to licm";
  EXPECT_FALSE(CR.SafetyOk);
  bool Attributed = false;
  for (const SafetyDiag &D : CR.SafetyDiags)
    Attributed = Attributed ||
                 (D.Pass == "licm" && D.Kind == "keep_live_dropped");
  EXPECT_TRUE(Attributed) << renderAll(CR.SafetyDiags);
}

TEST(SafetyPipeline, GateCommittedStatesAreNotVerifiedAgain) {
  // Under a commit gate with each-pass checkpoints, the verifier runs for
  // (lower), every gate, every rolled-back checkpoint and (final). A
  // committed state passed the gate on the same IR, so its checkpoint only
  // counts the run. Of those runs, a state equal to the last one the same
  // function was verified on with the same kill-placement flag replays
  // that verdict; exactly the others reach the memo.
  Compilation C(cordtest().Name, cordtest().Source);
  ASSERT_TRUE(C.parse());
  annotate::AnnotationMap Annotations = C.annotate();
  ir::LowerOptions LO;
  LO.SafetyMode = ir::LowerOptions::Safety::KeepLive;
  LO.Annotations = &Annotations;
  const ir::Module Lowered = ir::lowerTranslationUnit(C.tu(), LO, C.diags());
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    support::FaultInjector Faults;
    std::string Error;
    ASSERT_TRUE(support::FaultInjector::parse(
        std::to_string(Seed) + ":opt.pass.corrupt@p0.3", Faults, Error))
        << Error;
    PassTransactions Txn;
    Txn.Faults = &Faults;
    VerifyMemo Memo;
    // Every pass that ran, as it reached the gate (before the corruption
    // failpoint), with the corruptions and rollbacks before it.
    struct Gate {
      std::string Pass;
      ir::Function IR;
      uint64_t Corruptions;
      size_t Rollbacks;
    };
    std::vector<Gate> Gates;
    CompileOptions CO;
    CO.Mode = CompileMode::O2Safe;
    CO.Verify = SafetyVerify::EachPass;
    CO.Txn = &Txn;
    CO.Memo = &Memo;
    CO.PassMutator = [&](const char *Pass, ir::Function &F) {
      Gates.push_back({Pass, F, Txn.CorruptionsApplied, Txn.Rollbacks.size()});
    };
    CompileResult CR = C.compile(CO);
    ASSERT_TRUE(CR.Ok) << CR.Errors;
    ASSERT_FALSE(Txn.Rollbacks.empty()) << "seed " << Seed;

    // The runner's replay rule over the same states. A corrupted state is
    // unknown here (nullptr): it is verified, and equals nothing later.
    std::map<std::string, ir::Function> Last[2], Committed;
    uint64_t NotReplayed = 0;
    auto Verify = [&](const std::string &Fn, const ir::Function *IR,
                      bool KillPlacement) {
      auto It = Last[KillPlacement].find(Fn);
      if (IR && It != Last[KillPlacement].end() && It->second == *IR)
        return;
      ++NotReplayed;
      if (IR)
        Last[KillPlacement][Fn] = *IR;
      else
        Last[KillPlacement].erase(Fn);
    };
    for (ir::Function F : Lowered.Functions) {
      Verify(F.Name, &F, false);
      opt::removeUnreachableBlocks(F);
      Committed[F.Name] = F;
    }
    for (size_t K = 0; K < Gates.size(); ++K) {
      const Gate &G = Gates[K];
      bool AtEnd = K + 1 == Gates.size();
      bool Corrupted = (AtEnd ? Txn.CorruptionsApplied
                              : Gates[K + 1].Corruptions) > G.Corruptions;
      bool RolledBack =
          (AtEnd ? Txn.Rollbacks.size() : Gates[K + 1].Rollbacks) >
          G.Rollbacks;
      Verify(G.IR.Name, Corrupted ? nullptr : &G.IR,
             G.Pass == "insert_kills");
      if (RolledBack) {
        Verify(G.IR.Name, &Committed[G.IR.Name], false);
      } else {
        ASSERT_FALSE(Corrupted) << "seed " << Seed << ": committed corruption";
        Committed[G.IR.Name] = G.IR;
      }
    }
    for (const auto &[Name, F] : Committed)
      Verify(Name, &F, !Txn.Quarantine.count("insert_kills"));

    uint64_t Functions = CR.Module.Functions.size();
    EXPECT_EQ(Memo.hits() + Memo.misses(), NotReplayed) << "seed " << Seed;
    EXPECT_LT(NotReplayed, 2 * Functions + Gates.size() + Txn.Rollbacks.size())
        << "seed " << Seed;
    // Each pass that ran still counts one checkpoint run.
    EXPECT_EQ(CR.Stats.get("analysis.verify.runs"),
              2 * Functions + Gates.size())
        << "seed " << Seed;
    EXPECT_TRUE(CR.SafetyDiags.empty()) << renderAll(CR.SafetyDiags);
  }
}

TEST(SafetyPipeline, ASourceOffsetChangeForcesAFreshVerify) {
  // Each-pass checkpoints replay the verdict of a function a pass left
  // unchanged. A mutator that changes only one instruction's source
  // offset after every pass makes every checkpoint a new state: every
  // verifier run then reaches the memo, and none is replayed.
  auto Lookups = [](bool MoveALoc) {
    VerifyMemo Memo;
    uint32_t Offset = 0;
    CompileOptions CO;
    CO.Mode = CompileMode::O2SafePost;
    CO.Verify = SafetyVerify::EachPass;
    CO.Memo = &Memo;
    if (MoveALoc)
      CO.PassMutator = [&Offset](const char *, ir::Function &F) {
        F.Blocks[0].Insts[0].Loc = Offset++;
      };
    CompileResult CR = compileWorkload(displacedIndex(), CO);
    EXPECT_TRUE(CR.Ok) << CR.Errors;
    EXPECT_TRUE(CR.SafetyOk) << renderAll(CR.SafetyDiags);
    return std::make_pair(Memo.hits() + Memo.misses(),
                          CR.Stats.get("analysis.verify.runs"));
  };
  auto [Replayed, Runs] = Lookups(false);
  EXPECT_LT(Replayed, Runs);
  auto [Fresh, MovedRuns] = Lookups(true);
  EXPECT_EQ(MovedRuns, Runs);
  EXPECT_EQ(Fresh, Runs);
}

TEST(SafetyPipeline, VerifyMemoStaysBoundedAndRecomputesEvictedVerdicts) {
  // An unsafe function: its verdict and diagnostics are what a lookup
  // after eviction must still produce.
  ir::Function F =
      makeFunction("f", 1, {{movImm(0, 5), kill(0), ret(0)}});
  SafetyVerifyOptions VO;
  VO.Pass = "(test)";
  VO.CheckKillPlacement = false;
  VerifyMemo Memo;
  std::vector<SafetyDiag> First;
  EXPECT_FALSE(verifyFunctionSafetyMemo(&Memo, F, VO, First));
  ASSERT_FALSE(First.empty());
  EXPECT_EQ(Memo.misses(), 1u);
  for (size_t I = 0; I <= VerifyMemo::MaxEntries; ++I) {
    Memo.insert("filler-" + std::to_string(I), true, {});
    ASSERT_LE(Memo.entries(), VerifyMemo::MaxEntries) << "insert " << I;
  }
  // The filler pushed the memo past its cap at least once, so f's entry
  // is gone: the lookup misses and recomputes the same verdict.
  std::vector<SafetyDiag> Again;
  EXPECT_FALSE(verifyFunctionSafetyMemo(&Memo, F, VO, Again));
  EXPECT_EQ(Memo.misses(), 2u);
  EXPECT_EQ(renderAll(Again), renderAll(First));
  // ... and records it again, so the next lookup hits.
  std::vector<SafetyDiag> Hit;
  EXPECT_FALSE(verifyFunctionSafetyMemo(&Memo, F, VO, Hit));
  EXPECT_EQ(Memo.hits(), 1u);
  EXPECT_EQ(renderAll(Hit), renderAll(First));
}

TEST(SafetyPipeline, VerifyMemoKeysOnSourceOffsets) {
  // Two functions that differ only in the source offset of the offending
  // kill: each diagnostic carries its own function's offset (and so its
  // own lint line), never the one recorded for the other.
  ir::Function A = makeFunction("f", 1, {{movImm(0, 5), kill(0), ret(0)}});
  ir::Function B = A;
  A.Blocks[0].Insts[1].Loc = 10;
  B.Blocks[0].Insts[1].Loc = 20;
  SafetyVerifyOptions VO;
  VO.Pass = "(test)";
  VO.CheckKillPlacement = false;
  VerifyMemo Memo;
  std::vector<SafetyDiag> DA, DB;
  EXPECT_FALSE(verifyFunctionSafetyMemo(&Memo, A, VO, DA));
  EXPECT_FALSE(verifyFunctionSafetyMemo(&Memo, B, VO, DB));
  ASSERT_EQ(DA.size(), 1u) << renderAll(DA);
  ASSERT_EQ(DB.size(), 1u) << renderAll(DB);
  EXPECT_EQ(DA[0].SrcOffset, 10u);
  EXPECT_EQ(DB[0].SrcOffset, 20u);
  EXPECT_EQ(Memo.misses(), 2u);
}

TEST(SafetyPipeline, VerifyMemoKeysOnParameters) {
  // r1 = 5; return r1 — once with an unused parameter r0, which the
  // canonical placement kills at entry, and once without parameters. The
  // kill-placement audit flags only the first; a verdict recorded for one
  // must not be replayed for the other.
  ir::Function WithParam = makeFunction("f", 2, {{movImm(1, 5), ret(1)}});
  WithParam.ParamRegs = {0};
  ir::Function NoParam = WithParam;
  NoParam.ParamRegs.clear();
  SafetyVerifyOptions VO;
  VO.Pass = "(test)";
  VerifyMemo Memo;
  std::vector<SafetyDiag> DW, DN;
  EXPECT_FALSE(verifyFunctionSafetyMemo(&Memo, WithParam, VO, DW));
  ASSERT_EQ(DW.size(), 1u) << renderAll(DW);
  EXPECT_EQ(DW[0].Kind, "kill_missing");
  EXPECT_EQ(DW[0].Base, 0u);
  EXPECT_TRUE(verifyFunctionSafetyMemo(&Memo, NoParam, VO, DN))
      << renderAll(DN);
  EXPECT_EQ(Memo.misses(), 2u);
}

//===----------------------------------------------------------------------===//
// gcsafe-lint-v1 report
//===----------------------------------------------------------------------===//

TEST(LintReport, CleanReportShapeAndDeterminism) {
  auto build = [] {
    Compilation C(gawk().Name, gawk().Source);
    EXPECT_TRUE(C.parse());
    CompileOptions CO;
    CO.Mode = CompileMode::O2SafePost;
    CO.Verify = SafetyVerify::EachPass;
    CompileResult CR = C.compile(CO);
    EXPECT_TRUE(CR.Ok);
    return buildLintReport(gawk().Name, CO.Mode, /*EachPass=*/true, CR,
                           &C.buffer())
        .dump();
  };
  std::string First = build();
  std::string Second = build();
  EXPECT_EQ(First, Second); // byte-identical across runs

  support::Json Doc;
  std::string Error;
  ASSERT_TRUE(support::Json::parse(First, Doc, Error)) << Error;
  ASSERT_TRUE(Doc.isObject());
  EXPECT_EQ(Doc.get("schema")->asString(), "gcsafe-lint-v1");
  EXPECT_EQ(Doc.get("input")->asString(), gawk().Name);
  EXPECT_EQ(Doc.get("mode")->asString(),
            compileModeName(CompileMode::O2SafePost));
  EXPECT_EQ(Doc.get("verify")->asString(), "each-pass");
  EXPECT_TRUE(Doc.get("clean")->asBool());
  EXPECT_EQ(Doc.get("diagnostics")->size(), 0u);
}

TEST(LintReport, ViolationsSerializeWithStableKinds) {
  static const std::set<std::string> KnownKinds = {
      "kill_live_register", "base_killed",   "base_clobbered",
      "kill_missing",       "kill_spurious", "keep_live_dropped",
      "structure"};
  bool Mutated = false;
  Compilation C(displacedIndex().Name, displacedIndex().Source);
  ASSERT_TRUE(C.parse());
  CompileOptions CO;
  CO.Mode = CompileMode::O2Safe;
  CO.Verify = SafetyVerify::EachPass;
  CO.PassMutator = [&Mutated](const char *Pass, ir::Function &F) {
    if (Mutated || std::string(Pass) != "licm")
      return;
    opt::DefUseCounts DU = opt::countDefsUses(F);
    for (ir::BasicBlock &B : F.Blocks)
      for (ir::Instruction &I : B.Insts)
        if (I.Op == ir::Opcode::KeepLive && I.Dst != ir::NoReg &&
            DU.Uses[I.Dst] > 0) {
          I.Op = ir::Opcode::Mov;
          I.B = ir::Value::none();
          Mutated = true;
          return;
        }
  };
  CompileResult CR = C.compile(CO);
  ASSERT_TRUE(CR.Ok && Mutated);
  ASSERT_FALSE(CR.SafetyOk);

  support::Json Doc = buildLintReport(displacedIndex().Name, CO.Mode,
                                      /*EachPass=*/true, CR, &C.buffer());
  EXPECT_FALSE(Doc.get("clean")->asBool());
  const support::Json *Diags = Doc.get("diagnostics");
  ASSERT_NE(Diags, nullptr);
  ASSERT_GT(Diags->size(), 0u);
  for (size_t I = 0; I < Diags->size(); ++I) {
    const support::Json &D = Diags->at(I);
    ASSERT_TRUE(D.isObject());
    EXPECT_TRUE(D.get("function")->isString());
    EXPECT_TRUE(D.get("block")->isInt());
    EXPECT_TRUE(D.get("index")->isInt());
    EXPECT_TRUE(D.get("line")->isInt());
    EXPECT_GE(D.get("line")->asInt(), 0);
    EXPECT_TRUE(D.get("pass")->isString());
    EXPECT_EQ(KnownKinds.count(D.get("kind")->asString()), 1u)
        << D.get("kind")->asString();
    EXPECT_GE(D.get("derived")->asInt(), -1);
    EXPECT_GE(D.get("base")->asInt(), -1);
    EXPECT_TRUE(D.get("message")->isString());
  }
}
