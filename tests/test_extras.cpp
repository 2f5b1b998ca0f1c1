//===- tests/test_extras.cpp - Verifier, CSE, stack scan, robustness -----===//

#include "driver/Pipeline.h"
#include "gc/Collector.h"
#include "ir/Verify.h"
#include "opt/CFG.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <random>

using namespace gcsafe;
using namespace gcsafe::driver;

//===----------------------------------------------------------------------===//
// IR verifier
//===----------------------------------------------------------------------===//

namespace {
ir::Module compileToModule(const std::string &Src, CompileMode Mode) {
  Compilation C("t.c", Src);
  CompileOptions CO;
  CO.Mode = Mode;
  CompileResult CR = C.compile(CO);
  EXPECT_TRUE(CR.Ok) << CR.Errors;
  return std::move(CR.Module);
}
} // namespace

TEST(Verify, CleanModulePasses) {
  ir::Module M = compileToModule(
      "long f(long *p, long n) {\n"
      "  long s; long i;\n"
      "  s = 0;\n"
      "  for (i = 0; i < n; i++) { s = s + p[i]; }\n"
      "  return s;\n"
      "}\n"
      "int main(void) { long a[4]; a[0] = 1; return f(a, 4); }\n",
      CompileMode::O2);
  std::vector<std::string> Errors;
  EXPECT_TRUE(ir::verifyModule(M, Errors))
      << (Errors.empty() ? "" : Errors[0]);
}

TEST(Verify, EveryWorkloadInEveryModeVerifies) {
  for (const workloads::Workload *W :
       {&workloads::cordtest(), &workloads::cfrac(), &workloads::gawk(),
        &workloads::gs(), &workloads::displacedIndex(),
        &workloads::strcpyLoop(), &workloads::charIndex()}) {
    for (auto Mode : {CompileMode::O2, CompileMode::O2Safe,
                      CompileMode::O2SafePost, CompileMode::Debug,
                      CompileMode::DebugChecked}) {
      Compilation C(W->Name, W->Source);
      CompileOptions CO;
      CO.Mode = Mode;
      CompileResult CR = C.compile(CO);
      ASSERT_TRUE(CR.Ok) << W->Name;
      std::vector<std::string> Errors;
      EXPECT_TRUE(ir::verifyModule(CR.Module, Errors))
          << W->Name << " " << compileModeName(Mode) << ": "
          << (Errors.empty() ? "" : Errors[0]);
    }
  }
}

TEST(Verify, DetectsBranchOutOfRange) {
  ir::Module M = compileToModule("int main(void) { return 0; }\n",
                                 CompileMode::O2);
  ir::Instruction Bad;
  Bad.Op = ir::Opcode::Jmp;
  Bad.Blk1 = 999;
  M.Functions[0].Blocks[0].Insts.insert(
      M.Functions[0].Blocks[0].Insts.begin(), Bad);
  std::vector<std::string> Errors;
  EXPECT_FALSE(ir::verifyModule(M, Errors));
}

TEST(Verify, DetectsMissingTerminator) {
  ir::Module M = compileToModule("int main(void) { return 0; }\n",
                                 CompileMode::O2);
  M.Functions[0].Blocks[0].Insts.pop_back(); // drop the ret
  std::vector<std::string> Errors;
  EXPECT_FALSE(ir::verifyModule(M, Errors));
  ASSERT_FALSE(Errors.empty());
  // Either "does not end in a terminator" or, if the ret was the only
  // instruction, "reachable block is empty".
  EXPECT_TRUE(Errors[0].find("terminator") != std::string::npos ||
              Errors[0].find("empty") != std::string::npos)
      << Errors[0];
}

TEST(Verify, DetectsUndefinedRegisterUse) {
  ir::Module M = compileToModule("int main(void) { return 0; }\n",
                                 CompileMode::O2);
  ir::Function &F = M.Functions[0];
  uint32_t Ghost = F.NumRegs; // never defined
  F.NumRegs += 1;
  ir::Instruction Use;
  Use.Op = ir::Opcode::Mov;
  Use.Dst = F.newReg();
  Use.A = ir::Value::reg(Ghost);
  F.Blocks[0].Insts.insert(F.Blocks[0].Insts.begin(), Use);
  std::vector<std::string> Errors;
  EXPECT_FALSE(ir::verifyModule(M, Errors));
  EXPECT_NE(Errors[0].find("never defined"), std::string::npos);
}

TEST(Verify, DetectsUseAfterKill) {
  ir::Module M = compileToModule("int main(void) { return 0; }\n",
                                 CompileMode::O2);
  ir::Function &F = M.Functions[0];
  uint32_t R = F.newReg();
  ir::Instruction Def;
  Def.Op = ir::Opcode::Mov;
  Def.Dst = R;
  Def.A = ir::Value::imm(1);
  ir::Instruction Kill;
  Kill.Op = ir::Opcode::Kill;
  Kill.A = ir::Value::reg(R);
  ir::Instruction Use;
  Use.Op = ir::Opcode::Mov;
  Use.Dst = F.newReg();
  Use.A = ir::Value::reg(R);
  auto &Insts = F.Blocks[0].Insts;
  Insts.insert(Insts.begin(), Use);
  Insts.insert(Insts.begin(), Kill);
  Insts.insert(Insts.begin(), Def);
  std::vector<std::string> Errors;
  EXPECT_FALSE(ir::verifyModule(M, Errors));
  EXPECT_NE(Errors[0].find("after a kill"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Local CSE
//===----------------------------------------------------------------------===//

TEST(CSE, DuplicateComputationCollapses) {
  std::string Src = "long f(long a, long b) {\n"
                    "  return (a * b + 7) ^ (a * b + 7);\n"
                    "}\n"
                    "int main(void) { print_int(f(3, 4)); "
                    "print_int(f(5, 6) == 0); return 0; }\n";
  Compilation C("t.c", Src);
  CompileOptions CO;
  CO.Mode = CompileMode::O2;
  CompileResult CR = C.compile(CO);
  ASSERT_TRUE(CR.Ok);
  EXPECT_GE(CR.OptStats.CSEd, 1u);
  vm::VM Machine(CR.Module, {});
  auto R = Machine.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Output, "01"); // x ^ x == 0
}

TEST(CSE, LoadsNotReusedAcrossStores) {
  std::string Src = "int main(void) {\n"
                    "  long *p;\n"
                    "  long a; long b;\n"
                    "  p = (long *)gc_malloc(8);\n"
                    "  *p = 10;\n"
                    "  a = *p;\n"
                    "  *p = 20;\n"
                    "  b = *p;\n"
                    "  print_int(a + b);\n"
                    "  return 0;\n"
                    "}\n";
  auto R = compileAndRun("t.c", Src, CompileMode::O2, {});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "30");
}

TEST(CSE, RepeatedLoadsBetweenStoresAreShared) {
  std::string Src = "long f(long *p) { return *p + *p; }\n"
                    "int main(void) { long x; x = 21; "
                    "print_int(f(&x)); return 0; }\n";
  Compilation C("t.c", Src);
  CompileOptions CO;
  CO.Mode = CompileMode::O2;
  CompileResult CR = C.compile(CO);
  ASSERT_TRUE(CR.Ok);
  EXPECT_GE(CR.OptStats.CSEd, 1u);
  vm::VM Machine(CR.Module, {});
  auto R = Machine.run();
  EXPECT_EQ(R.Output, "42");
}

TEST(CSE, KeepLiveResultsAreNeverMerged) {
  // Two KEEP_LIVEs of the same expression must stay distinct (opacity).
  std::string Src = "void f(char *p, long i) {\n"
                    "  char *q; char *r;\n"
                    "  q = p + i;\n"
                    "  r = p + i;\n"
                    "  *q = 1;\n"
                    "  *r = 2;\n"
                    "}\n"
                    "int main(void) { char *b; b = (char *)gc_malloc(8); "
                    "f(b, 3); print_int(b[3]); return 0; }\n";
  Compilation C("t.c", Src);
  CompileOptions CO;
  CO.Mode = CompileMode::O2Safe;
  CompileResult CR = C.compile(CO);
  ASSERT_TRUE(CR.Ok);
  unsigned KLs = 0;
  for (const ir::Function &F : CR.Module.Functions)
    for (const ir::BasicBlock &B : F.Blocks)
      for (const ir::Instruction &I : B.Insts)
        if (I.Op == ir::Opcode::KeepLive)
          ++KLs;
  EXPECT_GE(KLs, 2u) << "the adds may be CSE'd but not the keep_lives";
  vm::VM Machine(CR.Module, {});
  EXPECT_EQ(Machine.run().Output, "2");
}

//===----------------------------------------------------------------------===//
// Induction-variable strength reduction
//===----------------------------------------------------------------------===//

TEST(StrengthReduction, FiresOnScaledArrayWalk) {
  // p[i] over 8-byte elements lowers to p + i*8; the SR pass replaces the
  // per-iteration multiply with a derived induction variable.
  std::string Src = "long sum(long *p, long n) {\n"
                    "  long s; long i;\n"
                    "  s = 0;\n"
                    "  for (i = 0; i < n; i++) { s = s + p[i]; }\n"
                    "  return s;\n"
                    "}\n"
                    "int main(void) {\n"
                    "  long *a; long i;\n"
                    "  a = (long *)gc_malloc(50 * 8);\n"
                    "  for (i = 0; i < 50; i++) { a[i] = i; }\n"
                    "  print_int(sum(a, 50));\n"
                    "  return 0;\n"
                    "}\n";
  Compilation C("t.c", Src);
  CompileOptions CO;
  CO.Mode = CompileMode::O2;
  CompileResult CR = C.compile(CO);
  ASSERT_TRUE(CR.Ok);
  EXPECT_GE(CR.OptStats.StrengthReduced, 1u);
  vm::VM Machine(CR.Module, {});
  auto R = Machine.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "1225");
}

TEST(StrengthReduction, RemovesInLoopMultiplies) {
  std::string Src = "long sum(long *p, long n) {\n"
                    "  long s; long i;\n"
                    "  s = 0;\n"
                    "  for (i = 0; i < n; i++) { s = s + p[i]; }\n"
                    "  return s;\n"
                    "}\n"
                    "int main(void) { long a[4]; a[1] = 5; "
                    "return sum(a, 4) > 0; }\n";
  Compilation C("t.c", Src);
  CompileOptions CO;
  CO.Mode = CompileMode::O2;
  CompileResult CR = C.compile(CO);
  ASSERT_TRUE(CR.Ok);
  // No multiply should survive inside sum's loop body.
  const ir::Function *Sum = nullptr;
  for (const ir::Function &F : CR.Module.Functions)
    if (F.Name == "sum")
      Sum = &F;
  ASSERT_NE(Sum, nullptr);
  opt::CFGInfo CFG(*Sum);
  auto Loops = opt::findLoops(*Sum, CFG);
  ASSERT_FALSE(Loops.empty());
  unsigned InLoopMuls = 0;
  for (uint32_t B : Loops[0].Blocks)
    for (const ir::Instruction &I : Sum->Blocks[B].Insts)
      if (I.Op == ir::Opcode::Mul)
        ++InLoopMuls;
  EXPECT_EQ(InLoopMuls, 0u);
}

TEST(StrengthReduction, SafeModeStillCorrectUnderPressure) {
  std::string Src = "long sum(long *p, long n) {\n"
                    "  long s; long i;\n"
                    "  s = 0;\n"
                    "  for (i = 0; i < n; i++) { s = s + p[i]; "
                    "gc_malloc(16); }\n"
                    "  return s;\n"
                    "}\n"
                    "int main(void) {\n"
                    "  long *a; long i;\n"
                    "  a = (long *)gc_malloc(50 * 8);\n"
                    "  for (i = 0; i < 50; i++) { a[i] = i + 1; }\n"
                    "  print_int(sum(a, 50));\n"
                    "  return 0;\n"
                    "}\n";
  vm::VMOptions VO;
  VO.GcAllocTrigger = 3;
  for (auto Mode : {CompileMode::O2Safe, CompileMode::O2SafePost}) {
    auto R = compileAndRun("t.c", Src, Mode, VO);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, "1275") << compileModeName(Mode);
    EXPECT_EQ(R.FreedAccesses, 0u);
    EXPECT_GT(R.Gc.Collections, 10u);
  }
}

//===----------------------------------------------------------------------===//
// Machine-stack scanning (native clients)
//===----------------------------------------------------------------------===//

TEST(StackScan, StackResidentPointerSurvivesCollection) {
  gc::CollectorConfig Cfg;
  Cfg.BytesTrigger = ~size_t(0) >> 1;
  Cfg.ScanMachineStack = true;
  gc::Collector C(Cfg);
  int StackBottomMarker;
  C.setStackBottom(&StackBottomMarker);

  // The pointer lives only in this frame; conservative stack scanning must
  // find it.
  volatile char *P = static_cast<char *>(C.allocate(64));
  const_cast<char *>(P)[5] = 'z';
  C.collect();
  EXPECT_EQ(C.baseOf(const_cast<char *>(P)), const_cast<char *>(P));
  EXPECT_EQ(const_cast<char *>(P)[5], 'z');
  P = nullptr;
}

TEST(StackScan, DisabledByDefault) {
  gc::CollectorConfig Cfg;
  Cfg.BytesTrigger = ~size_t(0) >> 1;
  gc::Collector C(Cfg);
  EXPECT_FALSE(C.config().ScanMachineStack);
}

//===----------------------------------------------------------------------===//
// Optimization 2 ablation (specialized vs general ++/-- expansion)
//===----------------------------------------------------------------------===//

TEST(Opt2, GeneralExpansionUsesTempsAndAddressOf) {
  Compilation C("t.c", "void f(char *p) { p++; }\n");
  C.parse();
  annotate::AnnotatorOptions O;
  O.SpecializeIncDec = false;
  std::string Out =
      C.annotatedSource(annotate::AnnotationMode::Checked, O);
  // The paper's general transform: (tmp1 = &(e), tmp2 = *tmp1, ...).
  EXPECT_NE(Out.find("= &(p)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("= *__gcsafe_t"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("GC_post_incr((void"), std::string::npos)
      << "general form does not use the specialized runtime call";
}

TEST(Opt2, SpecializedExpansionAvoidsForcingToMemory) {
  Compilation C("t.c", "void f(char *p) { p++; }\n");
  C.parse();
  std::string Out = C.annotatedSource(annotate::AnnotationMode::Checked);
  EXPECT_NE(Out.find("GC_post_incr"), std::string::npos) << Out;
}

//===----------------------------------------------------------------------===//
// Ultra-adversarial scheduling: collect after every single instruction
//===----------------------------------------------------------------------===//

TEST(UltraAdversarial, SafeModesSurviveCollectionEveryInstruction) {
  std::string Src = "struct node { struct node *next; long v; };\n"
                    "int main(void) {\n"
                    "  struct node *head; struct node *n;\n"
                    "  long i; long s;\n"
                    "  head = 0;\n"
                    "  for (i = 0; i < 40; i++) {\n"
                    "    n = (struct node *)gc_malloc(sizeof(struct node));\n"
                    "    n->v = i;\n"
                    "    n->next = head;\n"
                    "    head = n;\n"
                    "  }\n"
                    "  s = 0;\n"
                    "  for (n = head; n; n = n->next) { s = s + n->v; }\n"
                    "  print_int(s);\n"
                    "  return 0;\n"
                    "}\n";
  vm::VMOptions VO;
  VO.GcInstructionPeriod = 1; // a collection between EVERY two instructions
  VO.GcAllocTrigger = 1;
  for (auto Mode : {CompileMode::O2Safe, CompileMode::O2SafePost,
                    CompileMode::Debug, CompileMode::DebugChecked}) {
    auto R = compileAndRun("t.c", Src, Mode, VO);
    ASSERT_TRUE(R.Ok) << compileModeName(Mode) << ": " << R.Error;
    EXPECT_EQ(R.Output, "780") << compileModeName(Mode);
    EXPECT_EQ(R.FreedAccesses, 0u) << compileModeName(Mode);
    EXPECT_GT(R.Gc.Collections, 100u);
  }
}

//===----------------------------------------------------------------------===//
// Frontend robustness (fuzz-ish)
//===----------------------------------------------------------------------===//

TEST(Robustness, RandomBytesDoNotCrashTheFrontend) {
  std::mt19937_64 Rng(2026);
  for (int Round = 0; Round < 60; ++Round) {
    std::string Src;
    size_t Len = Rng() % 400;
    for (size_t I = 0; I < Len; ++I)
      Src.push_back(static_cast<char>(32 + Rng() % 95));
    Compilation C("fuzz.c", Src);
    C.parse(); // must not crash; errors are expected
  }
}

TEST(Robustness, RandomTokenSoupDoesNotCrash) {
  const char *Pieces[] = {"int ",   "long ",  "char ",  "*",     "(",
                          ")",      "{",      "}",      ";",     "if",
                          "while",  "return", "x",      "y",     "f",
                          "123",    "+",      "=",      "[",     "]",
                          "struct", ",",      "\"s\"",  "->",    "++",
                          "&",      "sizeof", "void",   "else",  "1.5"};
  std::mt19937_64 Rng(1996);
  for (int Round = 0; Round < 60; ++Round) {
    std::string Src;
    size_t Len = 5 + Rng() % 120;
    for (size_t I = 0; I < Len; ++I)
      Src += Pieces[Rng() % (sizeof(Pieces) / sizeof(Pieces[0]))];
    Compilation C("fuzz.c", Src);
    if (C.parse()) {
      // If it happens to be valid, the whole pipeline must hold up.
      CompileOptions CO;
      CO.Mode = CompileMode::O2Safe;
      C.compile(CO);
    }
  }
}

TEST(Robustness, AnnotatorIsDeterministic) {
  const auto &W = workloads::gawk();
  Compilation A(W.Name, W.Source);
  Compilation B(W.Name, W.Source);
  std::string OutA = A.annotatedSource(annotate::AnnotationMode::Checked);
  std::string OutB = B.annotatedSource(annotate::AnnotationMode::Checked);
  EXPECT_EQ(OutA, OutB);
}

TEST(Robustness, DeeplyNestedExpressionsParse) {
  std::string Src = "int main(void) { return ";
  for (int I = 0; I < 200; ++I)
    Src += "(1 + ";
  Src += "0";
  for (int I = 0; I < 200; ++I)
    Src += ")";
  Src += "; }\n";
  auto R = compileAndRun("deep.c", Src, CompileMode::O2, {});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.ExitCode, 200);
}

//===----------------------------------------------------------------------===//
// Hand-built IR: peephole safety constraints
//===----------------------------------------------------------------------===//

namespace {
/// Builds: entry { p = param; z = add p, 1; w = keep_live z, BASE; d = load [w];
/// ret d } with a chosen KEEP_LIVE base register.
ir::Function buildAddKLLoad(bool BaseIsAddOperand, bool ExtraUseOfZ) {
  ir::Function F;
  F.Name = "f";
  F.ReturnsValue = true;
  uint32_t P = F.newReg();
  F.ParamRegs.push_back(P);
  uint32_t Other = F.newReg(); // an unrelated register for the bad base
  uint32_t Z = F.newReg();
  uint32_t W = F.newReg();
  uint32_t D = F.newReg();
  ir::BasicBlock B;
  B.Name = "entry";
  {
    ir::Instruction I; // other = mov p (so it is defined)
    I.Op = ir::Opcode::Mov;
    I.Dst = Other;
    I.A = ir::Value::reg(P);
    B.Insts.push_back(I);
  }
  {
    ir::Instruction I;
    I.Op = ir::Opcode::Add;
    I.Dst = Z;
    I.A = ir::Value::reg(P);
    I.B = ir::Value::imm(1);
    B.Insts.push_back(I);
  }
  {
    ir::Instruction I;
    I.Op = ir::Opcode::KeepLive;
    I.Dst = W;
    I.A = ir::Value::reg(Z);
    I.B = ir::Value::reg(BaseIsAddOperand ? P : Other);
    B.Insts.push_back(I);
  }
  if (ExtraUseOfZ) {
    ir::Instruction I; // another use of z blocks the pattern
    I.Op = ir::Opcode::Mov;
    I.Dst = F.newReg();
    I.A = ir::Value::reg(Z);
    B.Insts.push_back(I);
  }
  {
    ir::Instruction I;
    I.Op = ir::Opcode::Load;
    I.Dst = D;
    I.A = ir::Value::reg(W);
    I.Size = 1;
    B.Insts.push_back(I);
  }
  {
    ir::Instruction I;
    I.Op = ir::Opcode::Ret;
    I.A = ir::Value::reg(D);
    B.Insts.push_back(I);
  }
  F.Blocks.push_back(std::move(B));
  return F;
}

unsigned countOp(const ir::Function &F, ir::Opcode Op) {
  unsigned N = 0;
  for (const ir::BasicBlock &B : F.Blocks)
    for (const ir::Instruction &I : B.Insts)
      if (I.Op == Op)
        ++N;
  return N;
}
} // namespace

TEST(PeepholeIR, Pattern1FusesWhenBaseIsAddOperand) {
  ir::Function F = buildAddKLLoad(/*BaseIsAddOperand=*/true,
                                  /*ExtraUseOfZ=*/false);
  opt::PassStats S;
  opt::peepholePostprocess(F, S);
  EXPECT_EQ(S.PeepholeLoadFusions, 1u);
  EXPECT_EQ(countOp(F, ir::Opcode::LoadIdx), 1u);
  EXPECT_EQ(countOp(F, ir::Opcode::KeepLive), 0u);
}

TEST(PeepholeIR, Pattern1BlockedWhenBaseIsNotAnOperand) {
  // "The KEEP_LIVE base must be one of the add operands, so it stays live
  // through the fused load" — with an unrelated base the fusion would drop
  // the pinned register and must not fire.
  ir::Function F = buildAddKLLoad(/*BaseIsAddOperand=*/false,
                                  /*ExtraUseOfZ=*/false);
  opt::PassStats S;
  opt::peepholePostprocess(F, S);
  EXPECT_EQ(S.PeepholeLoadFusions, 0u);
  EXPECT_EQ(countOp(F, ir::Opcode::KeepLive), 1u);
}

TEST(PeepholeIR, Pattern1BlockedWhenValueHasOtherUses) {
  // The paper: "the register z should have no other uses."
  ir::Function F = buildAddKLLoad(/*BaseIsAddOperand=*/true,
                                  /*ExtraUseOfZ=*/true);
  opt::PassStats S;
  opt::peepholePostprocess(F, S);
  EXPECT_EQ(S.PeepholeLoadFusions, 0u);
}

//===----------------------------------------------------------------------===//
// Page-table chunk boundaries (large objects spanning level-2 chunks)
//===----------------------------------------------------------------------===//

TEST(PageTableChunks, HugeObjectCrossesChunkBoundary) {
  gc::CollectorConfig Cfg;
  Cfg.BytesTrigger = ~size_t(0) >> 1;
  gc::Collector C(Cfg);
  // A 4 MiB level-2 chunk covers 1024 pages; an 8 MiB object must span at
  // least one chunk boundary, and every interior page must resolve.
  size_t Size = 8u << 20;
  char *P = static_cast<char *>(C.allocate(Size));
  for (size_t Off = 0; Off < Size; Off += 64 * 1024)
    ASSERT_EQ(C.baseOf(P + Off), P) << "offset " << Off;
  ASSERT_EQ(C.baseOf(P + Size - 1), P);
  EXPECT_GE(C.pageTable().topEntryCount(), 2u);

  // It is collectible and poisonable like any other object.
  C.collect();
  EXPECT_EQ(C.baseOf(P), nullptr);
  EXPECT_TRUE(C.pointsToFreedObject(P + (4u << 20)));
}

//===----------------------------------------------------------------------===//
// Driver and VM error paths
//===----------------------------------------------------------------------===//

TEST(ErrorPaths, ParseErrorSurfacesDiagnostics) {
  auto R = compileAndRun("bad.c", "int main(void) { return $$$; }\n",
                         CompileMode::O2, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("compilation failed"), std::string::npos);
}

TEST(ErrorPaths, MissingMainIsReported) {
  auto R = compileAndRun("nomain.c", "long f(void) { return 1; }\n",
                         CompileMode::O2, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("main"), std::string::npos);
}

TEST(ErrorPaths, CallToUndefinedFunctionIsACompileError) {
  auto R = compileAndRun("undef.c",
                         "long ghost(long);\n"
                         "int main(void) { return ghost(1); }\n",
                         CompileMode::O2, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("undefined function"), std::string::npos);
}

TEST(ErrorPaths, IndirectCallThroughGarbageTraps) {
  auto R = compileAndRun(
      "badcall.c",
      "int main(void) {\n"
      "  long (*f)(long);\n"
      "  f = (long (*)(long))123456789;\n"
      "  return f(1);\n"
      "}\n",
      CompileMode::O2, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("indirect call"), std::string::npos);
}

TEST(ErrorPaths, PrintStrNullTraps) {
  auto R = compileAndRun("nullstr.c",
                         "int main(void) { char *p; p = 0; print_str(p); "
                         "return 0; }\n",
                         CompileMode::O2, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("print_str"), std::string::npos);
}

TEST(ErrorPaths, RoundTripReportsOriginalParseErrors) {
  auto RT = roundTripChecked("bad.c", "not a c program at all\n");
  EXPECT_FALSE(RT.Ok);
  EXPECT_NE(RT.Error.find("failed to parse"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Optimizer soundness corners
//===----------------------------------------------------------------------===//

TEST(OptSoundness, LICMDoesNotHoistLoadsPastStores) {
  // The loop stores into *p each iteration; hoisting the load would freeze
  // the first value.
  std::string Src = "int main(void) {\n"
                    "  long *p; long i; long s;\n"
                    "  p = (long *)gc_malloc(8);\n"
                    "  *p = 0;\n"
                    "  s = 0;\n"
                    "  for (i = 0; i < 10; i++) {\n"
                    "    *p = *p + i;\n"
                    "    s = s + *p;\n"
                    "  }\n"
                    "  print_int(s);\n"
                    "  return 0;\n"
                    "}\n";
  // sum of prefix sums of 0..9: 0,1,3,6,10,15,21,28,36,45 -> 165
  for (auto Mode : {CompileMode::O2, CompileMode::Debug}) {
    auto R = compileAndRun("t.c", Src, Mode, {});
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, "165") << compileModeName(Mode);
  }
}

TEST(OptSoundness, ReassociationWithNegativeDisplacement) {
  std::string Src = "long f(char *p, long i) { return p[i + 100]; }\n"
                    "int main(void) {\n"
                    "  char *b; long i;\n"
                    "  b = (char *)gc_malloc(256);\n"
                    "  for (i = 0; i < 256; i++) { b[i] = i % 50; }\n"
                    "  print_int(f(b, 55));\n"
                    "  return 0;\n"
                    "}\n";
  auto O2 = compileAndRun("t.c", Src, CompileMode::O2, {});
  auto Dbg = compileAndRun("t.c", Src, CompileMode::Debug, {});
  ASSERT_TRUE(O2.Ok && Dbg.Ok);
  EXPECT_EQ(O2.Output, Dbg.Output);
  EXPECT_EQ(O2.Output, "5"); // b[155] = 155 % 50
}

TEST(OptSoundness, DescendingScaledWalk) {
  // A negative-step induction variable with a scaled access.
  std::string Src = "int main(void) {\n"
                    "  long *a; long i; long s;\n"
                    "  a = (long *)gc_malloc(32 * 8);\n"
                    "  for (i = 0; i < 32; i++) { a[i] = i * 3; }\n"
                    "  s = 0;\n"
                    "  for (i = 31; i >= 0; i = i - 1) { s = s + a[i]; }\n"
                    "  print_int(s);\n"
                    "  return 0;\n"
                    "}\n";
  for (auto Mode : {CompileMode::O2, CompileMode::O2Safe,
                    CompileMode::Debug}) {
    auto R = compileAndRun("t.c", Src, Mode, {});
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, "1488") << compileModeName(Mode);
  }
}

TEST(OptSoundness, KeepLiveBaseNeverKilledWhileResultLive) {
  // IR-level invariant: after insertKills, no block kills a KEEP_LIVE base
  // while the keep_live result is still live in that block (scan: between
  // the keep_live and the last use of its result, no kill of the base).
  for (const workloads::Workload *W :
       {&workloads::cordtest(), &workloads::gawk(),
        &workloads::displacedIndex(), &workloads::strcpyLoop()}) {
    Compilation C(W->Name, W->Source);
    CompileOptions CO;
    CO.Mode = CompileMode::O2Safe;
    CompileResult CR = C.compile(CO);
    ASSERT_TRUE(CR.Ok);
    for (const ir::Function &F : CR.Module.Functions) {
      for (const ir::BasicBlock &B : F.Blocks) {
        for (size_t I = 0; I < B.Insts.size(); ++I) {
          const ir::Instruction &KL = B.Insts[I];
          if (KL.Op != ir::Opcode::KeepLive || !KL.B.isReg() ||
              KL.Dst == ir::NoReg)
            continue;
          uint32_t Base = KL.B.Reg;
          uint32_t Res = KL.Dst;
          // Find the last in-block use of the result.
          size_t LastUse = I;
          for (size_t J = I + 1; J < B.Insts.size(); ++J) {
            bool Uses = false;
            opt::forEachUse(B.Insts[J], [&](uint32_t R) {
              Uses = Uses || R == Res;
            });
            if (Uses)
              LastUse = J;
            if (B.Insts[J].Dst == Res)
              break; // redefined; stop tracking
          }
          for (size_t J = I + 1; J <= LastUse; ++J) {
            const ir::Instruction &X = B.Insts[J];
            ASSERT_FALSE(X.Op == ir::Opcode::Kill && X.A.isRegNo(Base))
                << W->Name << " " << F.Name
                << ": base r" << Base << " killed while keep_live result r"
                << Res << " is still used";
            if (X.Dst == Base)
              break; // base redefined: later kills refer to the new value
          }
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Optimization 4 end to end: call-site-only collection
//===----------------------------------------------------------------------===//

TEST(Opt4, AtCallsOnlyAnnotationSafeUnderCallSiteCollection) {
  // "If we know that garbage collections can be triggered only at
  // procedure calls, the number of KEEP_LIVE invocations could often be
  // reduced dramatically." The reduced annotation is safe under exactly
  // that regime.
  const auto &W = workloads::cordtest();
  auto Reference = compileAndRun(W.Name, W.Source, CompileMode::O2, {});
  ASSERT_TRUE(Reference.Ok);

  annotate::AnnotatorOptions Annot;
  Annot.Trigger = annotate::GcTrigger::AtCallsOnly;
  vm::VMOptions VO;
  VO.GcCallPeriod = 1; // a collection at every single call site
  auto R = compileAndRun(W.Name, W.Source, CompileMode::O2Safe, VO, Annot);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, Reference.Output);
  EXPECT_EQ(R.FreedAccesses, 0u);
  EXPECT_GT(R.Gc.Collections, 1000u);
}

TEST(Opt4, AtCallsOnlyAnnotationUnsafeUnderAsyncCollection) {
  // The contrapositive: the same reduced annotation is NOT safe when the
  // collector runs asynchronously — the displaced-index access carries no
  // call, so its wrap was dropped.
  const auto &W = workloads::displacedIndex();
  auto Reference = compileAndRun(W.Name, W.Source, CompileMode::O2, {});

  annotate::AnnotatorOptions Annot;
  Annot.Trigger = annotate::GcTrigger::AtCallsOnly;
  vm::VMOptions Async;
  Async.GcAllocTrigger = 5;
  auto R = compileAndRun(W.Name, W.Source, CompileMode::O2Safe, Async,
                         Annot);
  ASSERT_TRUE(R.Ok) << R.Error;
  bool Broke = R.FreedAccesses > 0 || R.Output != Reference.Output;
  EXPECT_TRUE(Broke) << "reduced annotation must not survive async GC";

  // And the full annotation does survive the same schedule.
  auto Full = compileAndRun(W.Name, W.Source, CompileMode::O2Safe, Async);
  ASSERT_TRUE(Full.Ok);
  EXPECT_EQ(Full.Output, Reference.Output);
  EXPECT_EQ(Full.FreedAccesses, 0u);
}

//===----------------------------------------------------------------------===//
// Whole-structure accesses (the paper's "additional check", implemented)
//===----------------------------------------------------------------------===//

TEST(StructCheck, OversizedStructCopyThroughCastIsCaught) {
  // A small object viewed through a larger struct type: copying it as a
  // whole reads past the allocation. The checked-mode aggregate-copy check
  // reports it.
  std::string Src =
      "struct small { long a; };\n"
      "struct big { long a; long b; long c; long d; };\n"
      "int main(void) {\n"
      "  struct small *s;\n"
      "  struct big *bp;\n"
      "  struct big local;\n"
      "  s = (struct small *)gc_malloc(sizeof(struct small));\n"
      "  s->a = 1;\n"
      "  bp = (struct big *)s;\n"
      "  local = *bp;\n"
      "  return (int)local.a;\n"
      "}\n";
  auto R = compileAndRun("t.c", Src, CompileMode::DebugChecked, {});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.CheckViolations, 0u)
      << "whole-structure access past the object must be caught";
}

TEST(StructCheck, InBoundsStructCopyIsClean) {
  std::string Src = "struct s { long a; long b; };\n"
                    "int main(void) {\n"
                    "  struct s *p; struct s *q;\n"
                    "  p = (struct s *)gc_malloc(sizeof(struct s));\n"
                    "  q = (struct s *)gc_malloc(sizeof(struct s));\n"
                    "  p->a = 1; p->b = 2;\n"
                    "  *q = *p;\n"
                    "  print_int(q->b);\n"
                    "  return 0;\n"
                    "}\n";
  auto R = compileAndRun("t.c", Src, CompileMode::DebugChecked, {});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "2");
  EXPECT_EQ(R.CheckViolations, 0u);
}

TEST(StructCheck, RecordParametersAreRejectedCleanly) {
  std::string Src = "struct s { long a; };\n"
                    "long f(struct s x) { return x.a; }\n"
                    "int main(void) { struct s v; v.a = 1; return f(v); }\n";
  auto R = compileAndRun("t.c", Src, CompileMode::O2, {});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("structures by value"), std::string::npos);
}
