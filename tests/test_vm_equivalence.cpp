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
// A second golden, tests/golden/pass_pipeline.txt, pins the optimizer
// pipeline itself over the same workloads and five modes: the printed IR
// after every pass of every function (as a hash), the per-pass counters
// and each-pass verifier totals, and the self-healing ladder's rollbacks,
// quarantine set, counters and trace event order under seeded pass
// corruption, verifier timeouts and pass deadlines.
//
// A third, tests/golden/safety_diags.txt, pins the safety verifier's
// output: every diagnostic (its formatted text and source offset, in
// emission order) of every seeded mutant of the same workloads in the
// safe modes, verified final and each-pass.
//
// A fourth, tests/golden/annotate.txt, pins the source-level half: for the
// same workloads, examples/sample_input.c and a source that trips every
// source check, in GCSafe and Checked mode, with the paper's default
// annotator options and with slow bases, the hashes of the rendered
// source and of its sorted edit list, the annotator statistics and every
// source-check warning.
//
// Regenerate a golden (only when a change is meant to move a modeled
// number or the optimizer's output) with:
//   GCSAFE_UPDATE_GOLDEN=1 ./gcsafe_vm_equivalence_tests
//
//===----------------------------------------------------------------------===//

#include "analysis/Mutate.h"
#include "annotate/Annotator.h"
#include "driver/Pipeline.h"
#include "driver/SelfHeal.h"
#include "ir/Verify.h"
#include "support/FaultInject.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

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
     << " collections=" << G.Collections << " allocs=" << G.AllocationCount
     << " alloc_bytes=" << G.BytesRequested << " checks=" << R.ChecksPerformed
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

constexpr CompileMode Modes[] = {
    CompileMode::O2, CompileMode::O2Safe, CompileMode::O2SafePost,
    CompileMode::Debug, CompileMode::DebugChecked};

std::string runSweep() {
  std::string Out;
  for (const workloads::Workload *W : workloads::benchmarkSuite()) {
    Compilation C(W->Name, W->Source);
    for (CompileMode Mode : Modes) {
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

/// The counters of \p Stats under \p Prefix, in insertion order, minus
/// the wall times.
std::string counters(const support::Stats &Stats, const std::string &Prefix) {
  std::string Out;
  for (const support::Stats::Entry &E : Stats.entries()) {
    const std::string &P = E.Path;
    if (!P.starts_with(Prefix) || P.ends_with(".ns"))
      continue;
    bool IsLabel = E.K == support::Stats::Entry::Kind::Label;
    Out += " " + P + "=" + (IsLabel ? E.Label : std::to_string(E.Count));
  }
  return Out;
}

std::string runPipelineSweep() {
  std::string Out;
  for (const workloads::Workload *W : workloads::benchmarkSuite()) {
    Compilation C(W->Name, W->Source);
    for (CompileMode Mode : Modes) {
      std::string Prefix = std::string(W->Name) + " " + compileModeName(Mode);
      // One line per function: the printed IR's hash after every pass.
      std::vector<std::string> Order;
      std::map<std::string, std::string> PerFunction;
      CompileOptions CO;
      CO.Mode = Mode;
      CO.Verify = SafetyVerify::EachPass;
      CO.VerifyIREachPass = true;
      CO.PassMutator = [&](const char *Pass, ir::Function &F) {
        std::string &Line = PerFunction[F.Name];
        if (Line.empty())
          Order.push_back(F.Name);
        std::ostringstream OS;
        OS << " " << Pass << "=" << std::hex << fnv1a(ir::printFunction(F));
        Line += OS.str();
      };
      CompileResult CR = C.compile(CO);
      EXPECT_TRUE(CR.Ok) << Prefix << ": " << CR.Errors;
      for (const std::string &Name : Order)
        Out += Prefix + " " + Name + ":" + PerFunction[Name] + "\n";
      Out += Prefix + " stats:" + counters(CR.Stats, "opt.") +
             counters(CR.Stats, "analysis.verify.") +
             " ir_verify_errors=" + std::to_string(CR.IRVerifyErrors.size()) +
             "\n";
    }

    // The self-healing ladder under the seeded corruption sweep, then
    // under verifier timeouts with and without a deadline that vetoes
    // every pass first.
    std::vector<std::pair<std::string, uint64_t>> Cases;
    for (uint64_t Seed = 1; Seed <= 12; ++Seed)
      Cases.push_back({std::to_string(Seed) + ":opt.pass.corrupt@p0.3", 0});
    Cases.push_back(
        {"7:opt.pass.corrupt@p0.3,analysis.verify.timeout@p0.05", 0});
    Cases.push_back({"5:analysis.verify.timeout@p0.5", 1});
    for (const auto &[Spec, DeadlineNs] : Cases) {
      support::FaultInjector Faults;
      std::string Error;
      EXPECT_TRUE(support::FaultInjector::parse(Spec, Faults, Error)) << Error;
      support::TraceBuffer Trace(1 << 16);
      CompileOptions CO;
      CO.Mode = CompileMode::O2Safe;
      CO.Trace = &Trace;
      SelfHealOptions SH;
      SH.Faults = &Faults;
      SH.PassDeadlineNs = DeadlineNs;
      SelfHealReport Report;
      CompileResult CR = compileSelfHealing(C, CO, SH, Report);
      uint64_t Final = 0;
      for (const ir::Function &F : CR.Module.Functions)
        Final = Final * 31 + fnv1a(ir::printFunction(F));
      // The event order, without the phase spans (a Debug build adds a
      // verify phase). Of the values only a pass span's counter delta is
      // deterministic; the others are wall times.
      std::string Events;
      for (const support::TraceEvent &E : Trace.snapshot()) {
        std::string Cat = E.Cat;
        if (Cat != "phase")
          Events += Cat + "." + E.Name + "(" + E.Detail + "," +
                    (Cat == "pass" ? std::to_string(E.Value) : "") + ")";
      }
      std::ostringstream OS;
      OS << W->Name << " selfheal " << Spec << " deadline=" << DeadlineNs
         << ": ok=" << Report.Ok << " rung=" << optRungName(Report.Rung)
         << " attempts=" << Report.Attempts << " final=" << std::hex << Final
         << " trace=" << fnv1a(Events) << std::dec
         << counters(CR.Stats, "robust.") << counters(CR.Stats, "opt.total.")
         << "\n";
      for (const auto &RB : Report.Rollbacks)
        OS << "  rollback " << RB.Pass << " " << RB.Function << " "
           << RB.Reason << "\n";
      for (const std::string &Q : Report.Quarantined)
        OS << "  quarantine " << Q << "\n";
      Out += OS.str();
    }
  }
  return Out;
}

/// One line per diagnostic: the formatted text and the source offset.
std::string renderDiags(const char *Label,
                        const std::vector<analysis::SafetyDiag> &Diags) {
  std::string Out;
  for (const analysis::SafetyDiag &D : Diags)
    Out += std::string("  ") + Label + " " + analysis::formatSafetyDiag(D) +
           " @" +
           (D.SrcOffset == ~0u ? std::string("?")
                               : std::to_string(D.SrcOffset)) +
           "\n";
  return Out;
}

/// Every mutant of analysis::enumerateMutations over workload \p W in
/// \p Mode, verified twice: final (layers 1 and 2 on the mutated
/// function), and each-pass, where a pass mutator applies the mutant at
/// the first pass whose output equals the function's final IR. A mutant
/// the structural IR verifier rejects (a hoisted kill ahead of a read) is
/// verified final only: a build with assertions checks every compiled
/// module against that verifier.
/// Since insert_kills is the last pass, that checkpoint is the only one
/// before (final); so each function's mutants after the first pass are
/// swept each-pass as well, and every later pass that leaves the unsafe
/// IR alone reports it again.
std::string sweepSafetyDiags(const workloads::Workload &W, CompileMode Mode,
                             VerifyMemo &Memo) {
  std::string Out;
  Compilation C(W.Name, W.Source);
  std::string Prefix = std::string(W.Name) + " " + compileModeName(Mode);
  CompileOptions CO;
  CO.Mode = Mode;
  CompileResult Clean = C.compile(CO);
  EXPECT_TRUE(Clean.Ok) << Prefix << ": " << Clean.Errors;
  for (const analysis::Mutation &Mu :
       analysis::enumerateMutations(Clean.Module)) {
    Out += Prefix + " " + Mu.Description + "\n";
    const ir::Function &Target = Clean.Module.Functions[Mu.FunctionIndex];
    ir::Function Mutant = Target;
    EXPECT_TRUE(analysis::applyMutation(Mutant, Mu)) << Mu.Description;
    std::vector<analysis::SafetyDiag> Final;
    analysis::verifyFunctionSafety(Mutant, {}, Final);
    Out += renderDiags("final", Final);
    std::vector<std::string> IRErrors;
    if (!ir::verifyFunction(Mutant, IRErrors)) {
      Out += "  each-pass: not compiled, ill-formed IR\n";
      continue;
    }

    bool Applied = false;
    CompileOptions EO = CO;
    EO.Verify = SafetyVerify::EachPass;
    EO.Memo = &Memo;
    EO.PassMutator = [&](const char *, ir::Function &F) {
      if (!Applied && F == Target)
        Applied = analysis::applyMutation(F, Mu);
    };
    CompileResult CR = C.compile(EO);
    EXPECT_TRUE(Applied) << Prefix << ": " << Mu.Description;
    Out += renderDiags("each-pass", CR.SafetyDiags);
  }

  // The functions as the first pass leaves them, and their mutants.
  std::vector<ir::Function> Entry;
  CO.PassMutator = [&](const char *, ir::Function &F) {
    if (Entry.empty() || Entry.back().Name != F.Name)
      Entry.push_back(F);
  };
  C.compile(CO);
  for (const ir::Function &Target : Entry) {
    for (const analysis::Mutation &Mu :
         analysis::enumerateFunctionMutations(Target)) {
      Out += Prefix + " entry " + Mu.Description + "\n";
      bool Seen = false;
      CompileOptions EO = CO;
      EO.Verify = SafetyVerify::EachPass;
      EO.Memo = &Memo;
      EO.PassMutator = [&](const char *, ir::Function &F) {
        if (!Seen && F.Name == Target.Name) {
          Seen = true;
          EXPECT_TRUE(analysis::applyMutation(F, Mu)) << Mu.Description;
        }
      };
      CompileResult CR = C.compile(EO);
      Out += renderDiags("each-pass", CR.SafetyDiags);
    }
  }
  return Out;
}

/// The sweep over the paper workloads in the safe modes. The (workload,
/// mode) slices are independent: four threads take them in turn, and
/// their outputs are joined in suite order. The each-pass compiles
/// share one verification memo: a mutant changes one function, so the
/// other functions' checkpoints replay verdicts an earlier compile
/// recorded, as a daemon's would.
std::string runSafetyDiagSweep() {
  std::vector<std::pair<const workloads::Workload *, CompileMode>> Slices;
  for (const workloads::Workload *W : workloads::benchmarkSuite())
    for (CompileMode Mode : {CompileMode::O2Safe, CompileMode::O2SafePost})
      Slices.emplace_back(W, Mode);
  std::vector<std::string> Outs(Slices.size());
  VerifyMemo Memo;
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < 4; ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Slices.size();)
        Outs[I] = sweepSafetyDiags(*Slices[I].first, Slices[I].second, Memo);
    });
  for (std::thread &T : Pool)
    T.join();
  std::string Out;
  for (const std::string &O : Outs)
    Out += O;
  return Out;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In) << "missing " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The annotator's counters, in declaration order.
std::string describe(const annotate::AnnotatorStats &S) {
  std::ostringstream OS;
  OS << "keep_lives=" << S.KeepLives << " incdec=" << S.IncDecExpansions
     << " compound=" << S.CompoundAssignExpansions
     << " temps=" << S.TempsIntroduced << " skip_copies=" << S.SkippedCopies
     << " skip_calls=" << S.SkippedCallResults
     << " skip_nonheap=" << S.SkippedNonHeap
     << " skip_atcalls=" << S.SkippedAtCallsOnly
     << " slow_bases=" << S.SlowBaseSubstitutions
     << " unhandled=" << S.UnhandledComplexLValues;
  return OS.str();
}

/// Every source-check warning once, each under a different statement
/// kind, so the golden pins the order the checks walk the body in.
constexpr const char *HazardsSource = R"(int scanf(char *, ...);
long fread(void *, long, long, void *);
void *memcpy(void *, void *, long);
struct cell { struct cell *next; long v; };
struct cell *hazards(struct cell *c, long n) {
  struct cell *cells[4];
  long buf[4];
  int t = (int)c;
  for (t = (int)c->next; n; n--) scanf("%p", &c);
  if (n) fread(cells, 8, 4, 0); else memcpy(buf, cells, 8);
  while (n) c = c - 1;
  do n = (long)(cells + 5); while (n);
  switch (n) { case 1: scanf("%p", &c); default: c = c->next - 2; }
  return c->next - 1;
}
)";

/// The preprocessor's output over the paper workloads, the sample input
/// and a source that trips every source check: per mode and annotator
/// configuration, the rendered source and its edit list (hashed), the
/// annotator statistics, and the source checks' warnings with their
/// offsets.
std::string runAnnotateSweep() {
  std::vector<std::pair<std::string, std::string>> Inputs;
  for (const workloads::Workload *W : workloads::benchmarkSuite())
    Inputs.push_back({W->Name, W->Source});
  Inputs.push_back({"sample_input.c",
                    readFile(GCSAFE_EXAMPLES_DIR "/sample_input.c")});
  Inputs.push_back({"hazards.c", HazardsSource});

  annotate::AnnotatorOptions Paper;
  annotate::AnnotatorOptions SlowBases;
  SlowBases.PreferSlowBases = true;
  const std::pair<const char *, annotate::AnnotatorOptions> Configs[] = {
      {"paper", Paper}, {"slow_bases", SlowBases}};
  const std::pair<const char *, annotate::AnnotationMode> AnnotModes[] = {
      {"gcsafe", annotate::AnnotationMode::GCSafe},
      {"checked", annotate::AnnotationMode::Checked}};

  std::string Out;
  for (const auto &[Name, Source] : Inputs) {
    Compilation C(Name, Source);
    EXPECT_TRUE(C.parse()) << Name << ": " << C.renderedDiagnostics();
    for (const auto &[ConfigName, Options] : Configs) {
      annotate::AnnotationMap Map = C.annotate(Options);
      for (const auto &[ModeName, Mode] : AnnotModes) {
        rewrite::EditList Edits;
        annotate::renderAnnotationEdits(C.buffer(), Map, Mode, Edits);
        std::string EditText;
        Edits.forEachSorted(
            [&](uint32_t Pos, uint32_t Len, const std::string &Text) {
              EditText += std::to_string(Pos) + "," + std::to_string(Len) +
                          "," + Text + "\n";
            });
        std::ostringstream OS;
        OS << Name << " " << ModeName << " " << ConfigName
           << ": source=" << std::hex
           << fnv1a(Edits.apply(C.buffer().text())) << std::dec
           << " edits=" << Edits.size() << "/" << std::hex << fnv1a(EditText)
           << std::dec << " "
           << describe(Map.stats()) << "\n";
        Out += OS.str();
      }
    }
    for (const Diagnostic &D : C.diags().diagnostics())
      if (D.Level == DiagLevel::Warning)
        Out += "  warning @" + std::to_string(D.Loc.Offset) + ": " +
               D.Message + "\n";
  }
  return Out;
}

/// Compares \p Actual line by line against tests/golden/\p Name, or
/// rewrites that golden under GCSAFE_UPDATE_GOLDEN=1. A nonzero
/// \p WantLines also pins the golden's length.
void expectGolden(const char *Name, const std::string &Actual,
                  size_t WantLines = 0) {
  const std::string Path = std::string(GCSAFE_GOLDEN_DIR "/") + Name;
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
  EXPECT_FALSE(std::getline(Got, GotLine)) << "sweep has extra lines";
  if (WantLines) {
    EXPECT_EQ(Lines, WantLines);
  }
}

} // namespace

TEST(VMEquivalence, EveryCounterMatchesTheGolden) {
  expectGolden("vm_equivalence.txt", runSweep(), 80);
}

TEST(VMEquivalence, PassPipelineMatchesTheGolden) {
  expectGolden("pass_pipeline.txt", runPipelineSweep());
}

TEST(VMEquivalence, SafetyDiagnosticsMatchTheGolden) {
  expectGolden("safety_diags.txt", runSafetyDiagSweep());
}

TEST(VMEquivalence, AnnotatedSourceMatchesTheGolden) {
  expectGolden("annotate.txt", runAnnotateSweep());
}
