//===- tests/test_backend.cpp - Lowering, optimizer and VM ---------------===//

#include "driver/Pipeline.h"
#include "workloads/Workloads.h"
#include "opt/CFG.h"
#include "opt/Passes.h"

#include <gtest/gtest.h>

using namespace gcsafe;
using namespace gcsafe::driver;

namespace {

vm::RunResult runO2(const std::string &Src, vm::VMOptions VO = {}) {
  return compileAndRun("t.c", Src, CompileMode::O2, VO);
}

std::string outputOf(const std::string &Src, CompileMode Mode) {
  auto R = compileAndRun("t.c", Src, Mode);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Output;
}

/// Runs under every compilation mode and expects identical output.
void expectAllModesAgree(const std::string &Src,
                         const std::string &Expected) {
  for (auto Mode : {CompileMode::O2, CompileMode::O2Safe,
                    CompileMode::O2SafePost, CompileMode::Debug,
                    CompileMode::DebugChecked}) {
    auto R = compileAndRun("t.c", Src, Mode);
    ASSERT_TRUE(R.Ok) << compileModeName(Mode) << ": " << R.Error;
    EXPECT_EQ(R.Output, Expected) << compileModeName(Mode);
  }
}

CompileResult compileMode(const std::string &Src, CompileMode Mode) {
  Compilation C("t.c", Src);
  CompileOptions CO;
  CO.Mode = Mode;
  return C.compile(CO);
}

/// Counts instructions with a given opcode across the module.
unsigned countOpcode(const ir::Module &M, ir::Opcode Op) {
  unsigned N = 0;
  for (const ir::Function &F : M.Functions)
    for (const ir::BasicBlock &B : F.Blocks)
      for (const ir::Instruction &I : B.Insts)
        if (I.Op == Op)
          ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Language execution coverage (every construct, differential across modes)
//===----------------------------------------------------------------------===//

TEST(Exec, ArithmeticAndPrecedence) {
  expectAllModesAgree("int main(void) { print_int(2 + 3 * 4 - 10 / 2); "
                      "print_int(-7 % 3); print_int((1 << 6) | 3); "
                      "print_int(~0 & 255); print_int(100 >> 2); return 0; }\n",
                      "9-16725525");
}

TEST(Exec, UnsignedSemantics) {
  expectAllModesAgree(
      "int main(void) {\n"
      "  unsigned int u;\n"
      "  u = 0;\n"
      "  u = u - 1;\n"
      "  print_int(u > 100);\n"
      "  print_int((long)(u >> 16));\n"
      "  return 0;\n"
      "}\n",
      "165535");
}

TEST(Exec, CharNarrowing) {
  expectAllModesAgree("int main(void) {\n"
                      "  char c;\n"
                      "  c = 200;\n" // wraps to -56 as signed char
                      "  print_int(c);\n"
                      "  c = c + 100;\n"
                      "  print_int(c);\n"
                      "  return 0;\n"
                      "}\n",
                      "-5644");
}

TEST(Exec, DoubleArithmetic) {
  expectAllModesAgree("int main(void) {\n"
                      "  double x; double y;\n"
                      "  x = 3.5; y = 2.0;\n"
                      "  print_double(x * y + 0.25);\n"
                      "  print_char(10);\n"
                      "  print_int((long)(x / y));\n"
                      "  print_int(x > y);\n"
                      "  return 0;\n"
                      "}\n",
                      "7.25\n11");
}

TEST(Exec, ControlFlow) {
  expectAllModesAgree(
      "int main(void) {\n"
      "  long i; long s;\n"
      "  s = 0;\n"
      "  for (i = 0; i < 10; i++) {\n"
      "    if (i == 3) { continue; }\n"
      "    if (i == 8) { break; }\n"
      "    s = s + i;\n"
      "  }\n"
      "  while (s < 100) { s = s * 2; }\n"
      "  do { s = s - 1; } while (s % 10);\n"
      "  print_int(s);\n"
      "  return 0;\n"
      "}\n",
      "90");
}

TEST(Exec, SwitchWithFallthrough) {
  expectAllModesAgree("long classify(long x) {\n"
                      "  long r;\n"
                      "  r = 0;\n"
                      "  switch (x) {\n"
                      "  case 1:\n"
                      "  case 2: r = 10; break;\n"
                      "  case 3: r = r + 1;\n"
                      "  case 4: r = r + 2; break;\n"
                      "  default: r = 99;\n"
                      "  }\n"
                      "  return r;\n"
                      "}\n"
                      "int main(void) {\n"
                      "  long i;\n"
                      "  for (i = 0; i < 6; i++) { print_int(classify(i)); "
                      "print_char(32); }\n"
                      "  return 0;\n"
                      "}\n",
                      "99 10 10 3 2 99 ");
}

TEST(Exec, RecursionAndCalls) {
  expectAllModesAgree("long fib(long n) {\n"
                      "  if (n < 2) { return n; }\n"
                      "  return fib(n - 1) + fib(n - 2);\n"
                      "}\n"
                      "int main(void) { print_int(fib(15)); return 0; }\n",
                      "610");
}

TEST(Exec, FunctionPointers) {
  expectAllModesAgree(
      "long dbl(long x) { return 2 * x; }\n"
      "long sqr(long x) { return x * x; }\n"
      "long apply(long (*f)(long), long v) { return f(v); }\n"
      "int main(void) {\n"
      "  long (*op)(long);\n"
      "  op = dbl;\n"
      "  print_int(apply(op, 10));\n"
      "  op = sqr;\n"
      "  print_int(op(7));\n"
      "  return 0;\n"
      "}\n",
      "2049");
}

TEST(Exec, StructsAndPointers) {
  expectAllModesAgree(
      "struct point { long x; long y; };\n"
      "struct rect { struct point a; struct point b; };\n"
      "long area(struct rect *r) {\n"
      "  return (r->b.x - r->a.x) * (r->b.y - r->a.y);\n"
      "}\n"
      "int main(void) {\n"
      "  struct rect r;\n"
      "  r.a.x = 1; r.a.y = 2; r.b.x = 5; r.b.y = 8;\n"
      "  print_int(area(&r));\n"
      "  return 0;\n"
      "}\n",
      "24");
}

TEST(Exec, RecordAssignmentCopies) {
  expectAllModesAgree("struct s { long a; long b; long c; };\n"
                      "int main(void) {\n"
                      "  struct s x; struct s y;\n"
                      "  x.a = 1; x.b = 2; x.c = 3;\n"
                      "  y = x;\n"
                      "  x.b = 99;\n"
                      "  print_int(y.a + y.b + y.c);\n"
                      "  return 0;\n"
                      "}\n",
                      "6");
}

TEST(Exec, UnionSharesStorage) {
  expectAllModesAgree("union u { long l; char c; };\n"
                      "int main(void) {\n"
                      "  union u v;\n"
                      "  v.l = 0x4142;\n"
                      "  print_int(v.c);\n" // low byte, little-endian
                      "  return 0;\n"
                      "}\n",
                      "66");
}

TEST(Exec, GlobalsAndInitializers) {
  expectAllModesAgree("long counter = 5;\n"
                      "char tag = 'x';\n"
                      "long bump(void) { counter = counter + 1; return counter; }\n"
                      "int main(void) {\n"
                      "  print_int(bump());\n"
                      "  print_int(bump());\n"
                      "  print_char(tag);\n"
                      "  return 0;\n"
                      "}\n",
                      "67x");
}

TEST(Exec, StringsAndLocalCharArrays) {
  expectAllModesAgree("int main(void) {\n"
                      "  char buf[16];\n"
                      "  char *msg;\n"
                      "  long i;\n"
                      "  msg = \"hello\";\n"
                      "  i = 0;\n"
                      "  while (msg[i]) { buf[i] = msg[i] - 32; i++; }\n"
                      "  buf[i] = 0;\n"
                      "  print_str(buf);\n"
                      "  return 0;\n"
                      "}\n",
                      "HELLO");
}

TEST(Exec, StringArrayInitializer) {
  expectAllModesAgree("int main(void) {\n"
                      "  char b[] = \"abc\";\n"
                      "  print_int(sizeof(b));\n"
                      "  print_str(b);\n"
                      "  return 0;\n"
                      "}\n",
                      "4abc");
}

TEST(Exec, ShortCircuitSideEffects) {
  expectAllModesAgree("long calls = 0;\n"
                      "long bump(long v) { calls = calls + 1; return v; }\n"
                      "int main(void) {\n"
                      "  long r;\n"
                      "  r = bump(0) && bump(1);\n"
                      "  r = r + (bump(1) || bump(1)) * 10;\n"
                      "  print_int(r);\n"
                      "  print_int(calls);\n"
                      "  return 0;\n"
                      "}\n",
                      "102");
}

TEST(Exec, TernaryAndComma) {
  expectAllModesAgree("int main(void) {\n"
                      "  long a; long b;\n"
                      "  a = 3;\n"
                      "  b = (a = a + 1, a > 3 ? 100 : 200);\n"
                      "  print_int(a + b);\n"
                      "  return 0;\n"
                      "}\n",
                      "104");
}

TEST(Exec, IncDecSemantics) {
  expectAllModesAgree("int main(void) {\n"
                      "  long x; long y;\n"
                      "  x = 5;\n"
                      "  y = x++ * 10 + ++x;\n"
                      "  print_int(x);\n"
                      "  print_int(y);\n"
                      "  return 0;\n"
                      "}\n",
                      "757");
}

TEST(Exec, PointerIncDecAndDiff) {
  expectAllModesAgree(
      "int main(void) {\n"
      "  long *arr;\n"
      "  long *p; long *q;\n"
      "  long i;\n"
      "  arr = (long *)gc_malloc(10 * 8);\n"
      "  for (i = 0; i < 10; i++) { arr[i] = i * i; }\n"
      "  p = arr;\n"
      "  p++;\n"
      "  p += 3;\n"
      "  q = arr + 9;\n"
      "  print_int(*p);\n"
      "  print_int(q - p);\n"
      "  print_int(*--q);\n"
      "  return 0;\n"
      "}\n",
      "16564");
}

TEST(Exec, HeapLinkedStructures) {
  expectAllModesAgree(
      "struct node { struct node *next; long v; };\n"
      "int main(void) {\n"
      "  struct node *head; struct node *n;\n"
      "  long i; long s;\n"
      "  head = 0;\n"
      "  for (i = 0; i < 100; i++) {\n"
      "    n = (struct node *)gc_malloc(sizeof(struct node));\n"
      "    n->v = i; n->next = head; head = n;\n"
      "  }\n"
      "  s = 0;\n"
      "  for (n = head; n; n = n->next) { s = s + n->v; }\n"
      "  print_int(s);\n"
      "  return 0;\n"
      "}\n",
      "4950");
}

TEST(Exec, MallocFamilyMapsToCollector) {
  expectAllModesAgree("int main(void) {\n"
                      "  long *p;\n"
                      "  p = (long *)malloc(8 * 4);\n"
                      "  p[3] = 7;\n"
                      "  p = (long *)realloc((void *)p, 8 * 8);\n"
                      "  p[7] = p[3] + 1;\n"
                      "  free((void *)p);\n" // no-op
                      "  print_int(p[7]);\n"
                      "  p = (long *)calloc(4, 8);\n"
                      "  print_int(p[2]);\n"
                      "  return 0;\n"
                      "}\n",
                      "80");
}

TEST(Exec, RandIsDeterministic) {
  std::string Src = "int main(void) {\n"
                    "  long i; long s;\n"
                    "  rand_seed(99);\n"
                    "  s = 0;\n"
                    "  for (i = 0; i < 10; i++) { s = s ^ rand_next() % 1000; }\n"
                    "  print_int(s);\n"
                    "  return 0;\n"
                    "}\n";
  std::string A = outputOf(Src, CompileMode::O2);
  std::string B = outputOf(Src, CompileMode::Debug);
  EXPECT_EQ(A, B);
  EXPECT_FALSE(A.empty());
}

TEST(Exec, MainExitCode) {
  auto R = runO2("int main(void) { return 42; }\n");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.ExitCode, 42);
}

//===----------------------------------------------------------------------===//
// VM guards
//===----------------------------------------------------------------------===//

TEST(VMGuards, AssertFailureHalts) {
  auto R = runO2("int main(void) { assert_true(0); return 0; }\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("assert_true"), std::string::npos);
}

TEST(VMGuards, DivisionByZeroHalts) {
  auto R = runO2("int main(void) { long z; z = 0; return (long)(10 / z); }\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division"), std::string::npos);
}

TEST(VMGuards, NullDereferenceHalts) {
  auto R = runO2("int main(void) { char *p; p = 0; return *p; }\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("dereference"), std::string::npos);
}

TEST(VMGuards, RunawayLoopHitsBudget) {
  vm::VMOptions VO;
  VO.MaxInstructions = 10000;
  auto R = compileAndRun("t.c", "int main(void) { while (1) { } return 0; }\n",
                         CompileMode::O2, VO);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(VMGuards, DeepRecursionOverflowsCleanly) {
  vm::VMOptions VO;
  VO.StackSize = 1 << 14;
  auto R = compileAndRun(
      "t.c",
      "long down(long n) { long pad[32]; pad[0] = n; return n == 0 ? 0 : "
      "down(n - 1) + pad[0]; }\n"
      "int main(void) { return down(1000000); }\n",
      CompileMode::O2, VO);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("stack overflow"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Optimizer behaviour
//===----------------------------------------------------------------------===//

TEST(Opt, ConstantFoldingShrinksCode) {
  std::string Src = "int main(void) { return (2 + 3) * (10 - 6) / 2; }\n";
  CompileResult O2 = compileMode(Src, CompileMode::O2);
  CompileResult Dbg = compileMode(Src, CompileMode::Debug);
  ASSERT_TRUE(O2.Ok);
  EXPECT_GT(O2.OptStats.Folded, 0u);
  EXPECT_LT(O2.CodeSizeUnits, Dbg.CodeSizeUnits);
}

TEST(Opt, DisguisingReassociationFires) {
  std::string Src = "long f(char *p, long i) { return p[i - 1000]; }\n"
                    "int main(void) { char *b; b = (char *)gc_malloc(16); "
                    "return f(b - 0, 1000); }\n";
  CompileResult CR = compileMode(Src, CompileMode::O2);
  ASSERT_TRUE(CR.Ok);
  EXPECT_GE(CR.OptStats.Reassociated, 1u);
}

TEST(Opt, LICMHoistsInvariants) {
  std::string Src = "long f(long a, long b, long n) {\n"
                    "  long i; long s;\n"
                    "  s = 0;\n"
                    "  for (i = 0; i < n; i++) { s = s + (a * b + 7); }\n"
                    "  return s;\n"
                    "}\n"
                    "int main(void) { return f(2, 3, 4); }\n";
  CompileResult CR = compileMode(Src, CompileMode::O2);
  ASSERT_TRUE(CR.Ok);
  EXPECT_GE(CR.OptStats.Hoisted, 1u);
}

TEST(Opt, AddressingFusionCreatesLoadIdx) {
  std::string Src = "long f(long *p, long i) { return p[i]; }\n"
                    "int main(void) { long a[4]; a[2] = 9; return f(a, 2); }\n";
  CompileResult CR = compileMode(Src, CompileMode::O2);
  ASSERT_TRUE(CR.Ok);
  EXPECT_GE(CR.OptStats.Fused, 1u);
  EXPECT_GE(countOpcode(CR.Module, ir::Opcode::LoadIdx), 1u);
}

TEST(Opt, KeepLiveBlocksFusion) {
  // The Analysis-section exhibit: safe mode cannot fuse the add into the
  // load, so the safe build has strictly more Add+Load pairs.
  std::string Src = "char f(char *x) { return x[1]; }\n"
                    "int main(void) { char b[4]; b[1] = 7; return f(b); }\n";
  CompileResult O2 = compileMode(Src, CompileMode::O2);
  CompileResult Safe = compileMode(Src, CompileMode::O2Safe);
  ASSERT_TRUE(O2.Ok);
  ASSERT_TRUE(Safe.Ok);
  EXPECT_GE(countOpcode(O2.Module, ir::Opcode::LoadIdx), 1u);
  EXPECT_GE(countOpcode(Safe.Module, ir::Opcode::KeepLive), 1u);
  EXPECT_GT(Safe.CodeSizeUnits, O2.CodeSizeUnits);
}

TEST(Opt, PostprocessorRecoversFusion) {
  // Peephole pattern 1: add;keep_live;load => loadidx when the base is an
  // add operand.
  std::string Src = "char f(char *x) { return x[1]; }\n"
                    "int main(void) { char b[4]; b[1] = 7; return f(b); }\n";
  CompileResult Safe = compileMode(Src, CompileMode::O2Safe);
  CompileResult Post = compileMode(Src, CompileMode::O2SafePost);
  ASSERT_TRUE(Post.Ok);
  EXPECT_GE(Post.OptStats.PeepholeLoadFusions, 1u);
  EXPECT_LT(Post.CodeSizeUnits, Safe.CodeSizeUnits);
  EXPECT_GE(countOpcode(Post.Module, ir::Opcode::LoadIdx), 1u);
}

TEST(Opt, KillsAreInserted) {
  CompileResult CR = compileMode(
      "int main(void) { long a; long b; a = rand_next(); b = a + 2; "
      "return b % 2; }\n",
      CompileMode::O2);
  ASSERT_TRUE(CR.Ok);
  EXPECT_GE(CR.OptStats.KillsInserted, 1u);
}

TEST(Opt, SizeUnitsIgnoreKeepLiveAndKills) {
  ir::Instruction KL;
  KL.Op = ir::Opcode::KeepLive;
  EXPECT_EQ(ir::instructionSizeUnits(KL), 0u);
  ir::Instruction Kill;
  Kill.Op = ir::Opcode::Kill;
  EXPECT_EQ(ir::instructionSizeUnits(Kill), 0u);
  ir::Instruction Check;
  Check.Op = ir::Opcode::CheckSameObj;
  EXPECT_GT(ir::instructionSizeUnits(Check), 2u);
}

TEST(Opt, DebugModeKeepsVariablesInMemory) {
  std::string Src =
      "int main(void) { long a; a = 1; a = a + 1; return a; }\n";
  CompileResult Dbg = compileMode(Src, CompileMode::Debug);
  ASSERT_TRUE(Dbg.Ok);
  EXPECT_GE(countOpcode(Dbg.Module, ir::Opcode::AddrLocal), 2u);
  EXPECT_GE(countOpcode(Dbg.Module, ir::Opcode::Store), 2u);
}

TEST(Opt, CheckedModeEmitsChecks) {
  std::string Src = "long f(long *p, long i) { return p[i]; }\n"
                    "int main(void) { long *a; a = (long *)gc_malloc(32); "
                    "a[1] = 3; return f(a, 1); }\n";
  CompileResult CR = compileMode(Src, CompileMode::DebugChecked);
  ASSERT_TRUE(CR.Ok);
  EXPECT_GE(countOpcode(CR.Module, ir::Opcode::CheckSameObj), 1u);
}

//===----------------------------------------------------------------------===//
// Machine models
//===----------------------------------------------------------------------===//

TEST(Machine, ModelsDifferInCosts) {
  std::string Src = "int main(void) {\n"
                    "  long i; long s; long *a;\n"
                    "  a = (long *)gc_malloc(800);\n"
                    "  s = 0;\n"
                    "  for (i = 0; i < 100; i++) { a[i] = i; s = s + a[i]; }\n"
                    "  print_int(s);\n"
                    "  return 0;\n"
                    "}\n";
  uint64_t Cycles[3];
  int Idx = 0;
  for (auto Model : {vm::sparc2(), vm::sparc10(), vm::pentium90()}) {
    vm::VMOptions VO;
    VO.Model = Model;
    auto R = compileAndRun("t.c", Src, CompileMode::O2, VO);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, "4950");
    Cycles[Idx++] = R.Cycles;
  }
  // Identical instruction stream, different cycle counts.
  EXPECT_NE(Cycles[0], Cycles[2]);
  EXPECT_GT(Cycles[0], Cycles[1]) << "SPARC 2 is the slowest machine";
}

TEST(Machine, RegisterPressureChargesSpills) {
  // A function with many simultaneously live values: the 6-register
  // Pentium model must charge spill cycles; the 24-register SPARC should
  // charge far fewer.
  std::string Src =
      "long f(long a, long b, long c, long d, long e, long g, long h, "
      "long i, long j, long k) {\n"
      "  long t1; long t2; long t3; long t4; long t5;\n"
      "  t1 = a + b; t2 = c + d; t3 = e + g; t4 = h + i; t5 = j + k;\n"
      "  return t1 * t2 + t3 * t4 + t5 * t1 + t2 * t3 + t4 * t5;\n"
      "}\n"
      "int main(void) { print_int(f(1,2,3,4,5,6,7,8,9,10)); return 0; }\n";
  vm::VMOptions Pent;
  Pent.Model = vm::pentium90();
  auto RP = compileAndRun("t.c", Src, CompileMode::O2, Pent);
  vm::VMOptions Sparc;
  Sparc.Model = vm::sparc10();
  auto RS = compileAndRun("t.c", Src, CompileMode::O2, Sparc);
  ASSERT_TRUE(RP.Ok && RS.Ok);
  EXPECT_EQ(RP.Output, RS.Output);
  EXPECT_GT(RP.SpillCycles, RS.SpillCycles);
}

//===----------------------------------------------------------------------===//
// IR printing
//===----------------------------------------------------------------------===//

TEST(IRPrint, ContainsStructure) {
  CompileResult CR = compileMode(
      "long f(long *p) { return p[2]; }\n"
      "int main(void) { long a[4]; a[2] = 1; return f(a); }\n",
      CompileMode::O2Safe);
  ASSERT_TRUE(CR.Ok);
  std::string Text = ir::printModule(CR.Module);
  EXPECT_NE(Text.find("func f"), std::string::npos);
  EXPECT_NE(Text.find("keep_live"), std::string::npos);
  EXPECT_NE(Text.find("ret"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Pipeline reuse and determinism
//===----------------------------------------------------------------------===//

TEST(Pipeline, CompilationObjectReusableAcrossModes) {
  Compilation C("t.c",
                "int main(void) { long *p; p = (long *)gc_malloc(16); "
                "p[1] = 7; print_int(p[1]); return 0; }\n");
  for (auto Mode : {CompileMode::O2, CompileMode::O2Safe, CompileMode::Debug,
                    CompileMode::DebugChecked, CompileMode::O2}) {
    CompileOptions CO;
    CO.Mode = Mode;
    CompileResult CR = C.compile(CO);
    ASSERT_TRUE(CR.Ok) << compileModeName(Mode) << ": " << CR.Errors;
    vm::VM Machine(CR.Module, {});
    auto R = Machine.run();
    ASSERT_TRUE(R.Ok);
    EXPECT_EQ(R.Output, "7") << compileModeName(Mode);
  }
}

TEST(Pipeline, ExecutionIsFullyDeterministic) {
  const auto &W = workloads::gawk();
  Compilation C(W.Name, W.Source);
  CompileOptions CO;
  CO.Mode = CompileMode::O2Safe;
  CompileResult CR = C.compile(CO);
  ASSERT_TRUE(CR.Ok);
  vm::VMOptions VO;
  VO.GcAllocTrigger = 13;
  uint64_t Cycles = 0, Insts = 0, Colls = 0;
  std::string Output;
  for (int Run = 0; Run < 3; ++Run) {
    vm::VM Machine(CR.Module, VO);
    auto R = Machine.run();
    ASSERT_TRUE(R.Ok);
    if (Run == 0) {
      Cycles = R.Cycles;
      Insts = R.InstructionsExecuted;
      Colls = R.Gc.Collections;
      Output = R.Output;
    } else {
      EXPECT_EQ(R.Cycles, Cycles);
      EXPECT_EQ(R.InstructionsExecuted, Insts);
      EXPECT_EQ(R.Gc.Collections, Colls);
      EXPECT_EQ(R.Output, Output);
    }
  }
}

TEST(Exec, SizeofArrayVsPointer) {
  expectAllModesAgree("int main(void) {\n"
                      "  char a[12];\n"
                      "  char *p;\n"
                      "  p = a;\n"
                      "  a[0] = 0;\n"
                      "  print_int(sizeof(a));\n"
                      "  print_int(sizeof p);\n"
                      "  return 0;\n"
                      "}\n",
                      "128");
}

TEST(Exec, CommaForLoop) {
  expectAllModesAgree("int main(void) {\n"
                      "  long i; long j; long s;\n"
                      "  s = 0;\n"
                      "  for (i = 0, j = 10; i < j; i++, j--) { s = s + 1; }\n"
                      "  print_int(s);\n"
                      "  return 0;\n"
                      "}\n",
                      "5");
}
