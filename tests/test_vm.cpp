//===- tests/test_vm.cpp - The VM's off-happy-path contract ---------------===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// Pins the exact RunResult of every way a VM run can stop other than by
// returning from main: the instruction budget, the output cap, a block
// without a terminator, stack overflow, a bad indirect call, division and
// remainder by zero, HaltOnCheckViolation and the VM deadline watchdog.
// It also pins the profiler's cycle samples and allocation-site indices,
// and the freed-access probe's exact semantics. None of these paths is
// reached by the bench baselines, so any change to the dispatch loop must
// keep every number here.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "support/Profile.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace gcsafe;
using namespace gcsafe::driver;

namespace {

/// One line with every field the contract pins.
std::string summary(const vm::RunResult &R) {
  std::ostringstream OS;
  OS << "ok=" << R.Ok << " error='" << R.Error << "' insts="
     << R.InstructionsExecuted << " cycles=" << R.Cycles
     << " spill=" << R.SpillCycles << " kills=" << R.KillsExecuted
     << " keep_lives=" << R.KeepLiveExecuted << " checks=" << R.CheckCycles
     << " alloc=" << R.AllocatorCycles << " out=" << R.Output.size()
     << " freed=" << R.FreedAccesses;
  return OS.str();
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char Ch : S) {
    H ^= Ch;
    H *= 0x100000001b3ull;
  }
  return H;
}

ir::Instruction inst(ir::Opcode Op, uint32_t Dst = ir::NoReg,
                     ir::Value A = ir::Value::none(),
                     ir::Value B = ir::Value::none()) {
  ir::Instruction I;
  I.Op = Op;
  I.Dst = Dst;
  I.A = A;
  I.B = B;
  return I;
}

ir::Instruction builtinCall(ir::Builtin Callee, uint32_t Dst,
                            std::vector<ir::Value> Args) {
  ir::Instruction I = inst(ir::Opcode::Call, Dst);
  I.BuiltinCallee = Callee;
  I.Args = std::move(Args);
  return I;
}

/// A module whose main is the single block \p Insts over \p NumRegs
/// registers.
ir::Module mainOnly(std::vector<ir::Instruction> Insts, uint32_t NumRegs) {
  ir::Module M;
  ir::Function F;
  F.Name = "main";
  F.NumRegs = NumRegs;
  F.ReturnsValue = true;
  ir::BasicBlock B;
  B.Name = "entry";
  B.Insts = std::move(Insts);
  F.Blocks.push_back(std::move(B));
  M.Functions.push_back(std::move(F));
  M.MainIndex = 0;
  return M;
}

vm::RunResult runModule(const ir::Module &M, vm::VMOptions VO = {}) {
  vm::VM Machine(M, VO);
  return Machine.run();
}

CompileResult compileWorkload(const workloads::Workload &W,
                              CompileMode Mode) {
  Compilation C(W.Name, W.Source);
  CompileOptions CO;
  CO.Mode = Mode;
  CompileResult CR = C.compile(CO);
  EXPECT_TRUE(CR.Ok) << CR.Errors;
  return CR;
}

ir::Value reg(uint32_t R) { return ir::Value::reg(R); }
ir::Value imm(int64_t V) { return ir::Value::imm(V); }

} // namespace

TEST(VMContract, InstructionBudgetFiresOnInstructionNPlusOne) {
  // Pentium 90 so the pressure model charges spills on the way.
  CompileResult CR =
      compileWorkload(workloads::cordtest(), CompileMode::O2SafePost);
  vm::VMOptions VO;
  VO.Model = vm::pentium90();
  VO.MaxInstructions = 100000;
  vm::RunResult R = runModule(CR.Module, VO);
  EXPECT_EQ(R.InstructionsExecuted, VO.MaxInstructions + 1);
  EXPECT_EQ(summary(R),
            "ok=0 error='instruction budget exceeded' insts=100001 "
            "cycles=549401 spill=2455 kills=31701 keep_lives=0 checks=0 "
            "alloc=468000 out=0 freed=0");
}

TEST(VMContract, OutputCapTripsOneInstructionAfterTheCrossingPrint) {
  vm::VMOptions VO;
  VO.MaxOutputBytes = 50;
  vm::RunResult R = compileAndRun(
      "t.c",
      "int main(void) { long i; for (i = 0; i < 100; i++) "
      "print_int(1234567); return 0; }\n",
      CompileMode::O2, VO);
  // Eight 7-byte prints cross 50 bytes; the next instruction trips.
  EXPECT_EQ(R.Output.size(), 56u);
  EXPECT_EQ(summary(R), "ok=0 error='output limit exceeded' insts=69 "
                        "cycles=119 spill=0 kills=14 keep_lives=0 checks=0 "
                        "alloc=0 out=56 freed=0");
}

TEST(VMContract, MissingTerminatorFailsBeforeCounting) {
  ir::Module M = mainOnly({inst(ir::Opcode::Mov, 0, imm(1)),
                           inst(ir::Opcode::Add, 1, reg(0), imm(2))},
                          2);
  vm::RunResult R = runModule(M);
  EXPECT_EQ(summary(R),
            "ok=0 error='control fell off the end of block 'entry' in main' "
            "insts=2 cycles=10 spill=0 kills=0 keep_lives=0 checks=0 "
            "alloc=0 out=0 freed=0");
}

TEST(VMContract, StackOverflowChargesNoCallCyclesOrPenalty) {
  vm::VMOptions VO;
  VO.StackSize = 1 << 14;
  vm::RunResult R = compileAndRun(
      "t.c",
      "long down(long n) { long pad[32]; pad[0] = n; return n == 0 ? 0 : "
      "down(n - 1) + pad[0]; }\n"
      "int main(void) { return down(1000000); }\n",
      CompileMode::O2, VO);
  EXPECT_EQ(summary(R), "ok=0 error='VM stack overflow' insts=513 "
                        "cycles=1424 spill=0 kills=128 keep_lives=0 checks=0 "
                        "alloc=0 out=0 freed=0");
}

TEST(VMContract, IndirectCallThroughNonFunctionValue) {
  ir::Instruction Call = inst(ir::Opcode::Call, 1, reg(0));
  Call.Callee = -1;
  ir::Module M = mainOnly({inst(ir::Opcode::Mov, 0, imm(7)), Call,
                           inst(ir::Opcode::Ret, ir::NoReg, imm(0))},
                          2);
  vm::RunResult R = runModule(M);
  EXPECT_EQ(summary(R),
            "ok=0 error='indirect call through a non-function value' "
            "insts=2 cycles=17 spill=0 kills=0 keep_lives=0 checks=0 "
            "alloc=0 out=0 freed=0");
}

TEST(VMContract, DivisionAndRemainderByZero) {
  struct Case {
    ir::Opcode Op;
    const char *Expected;
  } Cases[] = {
      {ir::Opcode::DivS, "ok=0 error='division by zero' insts=3 cycles=22 "
                         "spill=0 kills=0 keep_lives=0 checks=0 alloc=0 "
                         "out=0 freed=0"},
      {ir::Opcode::DivU, "ok=0 error='division by zero' insts=3 cycles=22 "
                         "spill=0 kills=0 keep_lives=0 checks=0 alloc=0 "
                         "out=0 freed=0"},
      {ir::Opcode::RemS, "ok=0 error='remainder by zero' insts=3 cycles=22 "
                         "spill=0 kills=0 keep_lives=0 checks=0 alloc=0 "
                         "out=0 freed=0"},
      {ir::Opcode::RemU, "ok=0 error='remainder by zero' insts=3 cycles=22 "
                         "spill=0 kills=0 keep_lives=0 checks=0 alloc=0 "
                         "out=0 freed=0"},
  };
  for (const Case &C : Cases) {
    ir::Module M = mainOnly({inst(ir::Opcode::Mov, 0, imm(10)),
                             inst(ir::Opcode::Mov, 1, imm(0)),
                             inst(C.Op, 2, reg(0), reg(1)),
                             inst(ir::Opcode::Ret, ir::NoReg, reg(2))},
                            3);
    EXPECT_EQ(summary(runModule(M)), C.Expected) << int(C.Op);
    // An immediate zero denominator fails the same way.
    ir::Module MI = mainOnly({inst(ir::Opcode::Mov, 0, imm(10)),
                              inst(C.Op, 2, reg(0), imm(0)),
                              inst(ir::Opcode::Ret, ir::NoReg, reg(2))},
                             3);
    EXPECT_FALSE(runModule(MI).Ok) << int(C.Op);
  }
}

TEST(VMContract, HaltOnCheckViolation) {
  // Two distinct heap objects: GC_same_obj(p, q) is a violation, both as
  // the CheckSameObj instruction and as the SameObj builtin.
  auto Build = [](bool AsBuiltin) {
    ir::Instruction Check =
        AsBuiltin ? builtinCall(ir::Builtin::SameObj, 2, {reg(0), reg(1)})
                  : inst(ir::Opcode::CheckSameObj, 2, reg(0), reg(1));
    return mainOnly({builtinCall(ir::Builtin::GcMalloc, 0, {imm(32)}),
                     builtinCall(ir::Builtin::GcMalloc, 1, {imm(32)}), Check,
                     inst(ir::Opcode::Ret, ir::NoReg, imm(0))},
                    3);
  };
  vm::VMOptions Halt;
  Halt.HaltOnCheckViolation = true;
  EXPECT_EQ(summary(runModule(Build(false), Halt)),
            "ok=0 error='pointer-arithmetic check violation' insts=3 "
            "cycles=1404 spill=0 kills=0 keep_lives=0 checks=80 "
            "alloc=1300 out=0 freed=0");
  EXPECT_EQ(summary(runModule(Build(true), Halt)),
            "ok=0 error='pointer-arithmetic check violation' insts=3 "
            "cycles=1412 spill=0 kills=0 keep_lives=0 checks=80 "
            "alloc=1300 out=0 freed=0");
  vm::RunResult Go = runModule(Build(false));
  EXPECT_TRUE(Go.Ok) << Go.Error;
  EXPECT_EQ(Go.CheckViolations, 1u);
  EXPECT_EQ(Go.ChecksPerformed, 1u);
}

TEST(VMContract, VmDeadlineSetsWatchdogTimeout) {
  vm::VMOptions VO;
  VO.VmDeadlineNs = 2000000; // 2 ms
  vm::RunResult R = compileAndRun(
      "t.c", "int main(void) { while (1) { } return 0; }\n",
      CompileMode::O2, VO);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.WatchdogTimeout);
  EXPECT_EQ(R.Error, "watchdog: VM run deadline exceeded");
  // The wall clock is polled only on every 512th instruction.
  EXPECT_EQ(R.InstructionsExecuted % 512, 0u);
  EXPECT_GT(R.InstructionsExecuted, 0u);
}

TEST(VMContract, ProfilerSamplesAndAllocSitesAreStable) {
  CompileResult CR =
      compileWorkload(workloads::cordtest(), CompileMode::O2SafePost);
  support::Profiler P;
  P.SamplePeriodCycles = 9973;
  vm::VMOptions VO;
  VO.Profile = &P;
  VO.GcAllocTrigger = 64;
  vm::RunResult R = runModule(CR.Module, VO);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::string Sites;
  for (size_t I = 0; I < P.Heap.siteCount(); ++I) {
    const support::AllocSite &S = P.Heap.site(I);
    Sites += S.Function + ":" + std::to_string(S.InstIndex) + ":" + S.Kind +
             " ";
  }
  EXPECT_EQ(Sites, "leaf:0:GC_malloc leaf:2:GC_malloc_atomic "
                   "concat:0:GC_malloc main:86:GC_malloc_atomic ");
  EXPECT_EQ(fnv1a(P.Cycles.foldedOutput()), 10392131244883195491ull);
  EXPECT_EQ(summary(R), "ok=1 error='' insts=1405523 cycles=3048593 "
                        "spill=0 kills=463568 keep_lives=48445 checks=0 "
                        "alloc=1693250 out=20 freed=0");
}

//===----------------------------------------------------------------------===//
// The freed-access probe
//===----------------------------------------------------------------------===//

TEST(FreedAccessProbe, NeverAllocatedSlotCountsWithoutAnyCollection) {
  // p and q are consecutive small objects, so q + (q - p) is the next slot
  // in allocation order: on a small-object page, never handed out. The
  // probe reports it although nothing was ever swept — which is why it
  // cannot be armed lazily at the first sweep.
  vm::RunResult R = compileAndRun(
      "t.c",
      "long g;\n"
      "int main(void) {\n"
      "  char *p; char *q; long *r;\n"
      "  p = gc_malloc(16); q = gc_malloc(16);\n"
      "  r = (long *)(q + (q - p));\n"
      "  g = *r;\n"
      "  return 0;\n"
      "}\n",
      CompileMode::O2);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Collections, 0u);
  EXPECT_EQ(R.FreedAccesses, 1u);
}

TEST(FreedAccessProbe, LocalsAndGlobalsAreNeverFreed) {
  vm::RunResult R = compileAndRun(
      "t.c",
      "long g[4];\n"
      "int main(void) { long a[4]; long i; long s; s = 0;\n"
      "  for (i = 0; i < 4; i++) { a[i] = i; g[i] = a[i] * 2; s += g[i]; }\n"
      "  print_int(s); return 0; }\n",
      CompileMode::Debug);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, "12");
  EXPECT_EQ(R.FreedAccesses, 0u);
}
