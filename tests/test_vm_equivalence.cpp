//===- tests/test_vm_equivalence.cpp - GC-schedule equivalence golden -----===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// Runs the four paper workloads under all five compile modes on the
// SPARCstation 10 model and four collector schedules (default, a
// collection after every allocation, every 997 instructions, every 7th
// call), and compares every RunResult counter plus the collector's scan
// counters against tests/golden/vm_equivalence.txt. The bench baselines
// never collect; this puts the collector, the root scan and the
// freed-access probe in the loop of the exactness oracle.
//
// Regenerate the golden (only when a change is meant to move a modeled
// number) with:
//   GCSAFE_UPDATE_GOLDEN=1 ./gcsafe_vm_equivalence_tests
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace gcsafe;
using namespace gcsafe::driver;

namespace {

struct Schedule {
  const char *Name;
  size_t AllocTrigger;
  uint64_t InstructionPeriod;
  uint64_t CallPeriod;
};

constexpr Schedule Schedules[] = {
    {"default", 0, 0, 0},
    {"alloc1", 1, 0, 0},
    {"inst997", 0, 997, 0},
    {"call7", 0, 0, 7},
};

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char Ch : S) {
    H ^= Ch;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string describe(const vm::RunResult &R) {
  const gc::CollectorStats &G = R.Gc;
  std::ostringstream OS;
  OS << "ok=" << R.Ok << " exit=" << R.ExitCode << " out=" << std::hex
     << fnv1a(R.Output) << std::dec << " insts=" << R.InstructionsExecuted
     << " cycles=" << R.Cycles << " spill=" << R.SpillCycles
     << " keep_lives=" << R.KeepLiveExecuted
     << " keep_live_cycles=" << R.KeepLiveCycles
     << " kills=" << R.KillsExecuted << " check_cycles=" << R.CheckCycles
     << " alloc_cycles=" << R.AllocatorCycles
     << " collections=" << R.Collections << " allocs=" << R.AllocCount
     << " alloc_bytes=" << R.AllocBytes << " checks=" << R.ChecksPerformed
     << " violations=" << R.CheckViolations << " freed=" << R.FreedAccesses
     << " words_scanned=" << G.WordsScanned
     << " pointer_hits=" << G.PointerHits
     << " marked=" << G.MarkedObjects
     << " interior_hits=" << G.InteriorPointerHits
     << " false_retention=" << G.FalseRetentionCandidates
     << " live_after_gc=" << G.LiveBytesAfterLastGC;
  if (!R.Ok)
    OS << " error='" << R.Error << "'";
  return OS.str();
}

std::string runSweep() {
  std::string Out;
  for (const workloads::Workload *W : workloads::benchmarkSuite()) {
    Compilation C(W->Name, W->Source);
    for (CompileMode Mode :
         {CompileMode::O2, CompileMode::O2Safe, CompileMode::O2SafePost,
          CompileMode::Debug, CompileMode::DebugChecked}) {
      CompileOptions CO;
      CO.Mode = Mode;
      CompileResult CR = C.compile(CO);
      EXPECT_TRUE(CR.Ok) << W->Name << " " << compileModeName(Mode) << ": "
                         << CR.Errors;
      for (const Schedule &S : Schedules) {
        vm::VMOptions VO;
        VO.Model = vm::sparc10();
        VO.GcAllocTrigger = S.AllocTrigger;
        VO.GcInstructionPeriod = S.InstructionPeriod;
        VO.GcCallPeriod = S.CallPeriod;
        vm::VM Machine(CR.Module, VO);
        vm::RunResult R = Machine.run();
        Out += std::string(W->Name) + " " + compileModeName(Mode) + " " +
               S.Name + ": " + describe(R) + "\n";
      }
    }
  }
  return Out;
}

} // namespace

TEST(VMEquivalence, EveryCounterMatchesTheGolden) {
  const std::string Path = GCSAFE_GOLDEN_DIR "/vm_equivalence.txt";
  std::string Actual = runSweep();
  if (const char *Update = std::getenv("GCSAFE_UPDATE_GOLDEN");
      Update && *Update == '1') {
    std::ofstream(Path) << Actual;
    GTEST_SKIP() << "wrote " << Path;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In) << "missing golden " << Path;
  std::stringstream Golden;
  Golden << In.rdbuf();

  std::istringstream Want(Golden.str()), Got(Actual);
  std::string WantLine, GotLine;
  size_t Lines = 0;
  while (std::getline(Want, WantLine)) {
    ASSERT_TRUE(std::getline(Got, GotLine)) << "sweep ended early";
    EXPECT_EQ(GotLine, WantLine);
    ++Lines;
  }
  EXPECT_FALSE(std::getline(Got, GotLine)) << "sweep has extra runs";
  EXPECT_EQ(Lines, 80u);
}
