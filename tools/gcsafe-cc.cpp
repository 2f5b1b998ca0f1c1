//===- tools/gcsafe-cc.cpp - The gcsafe command-line driver --------------===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
// The paper's preprocessor as a tool. Reads a C file (or stdin with "-"),
// and either prints annotated source or compiles and executes it on the
// simulated machine.
//
//   gcsafe-cc file.c                      # print GC-safe annotated source
//   gcsafe-cc --checked file.c            # print checked (debugging) source
//   gcsafe-cc --run --mode=safe file.c    # compile + execute
//   gcsafe-cc --dump-ir --mode=o2 file.c  # print the optimized IR
//
// Options:
//   --safe | --checked        annotation output mode (default --safe)
//   --run                     execute instead of printing source
//   --mode=o2|safe|safepost|debug|checked   compilation mode for
//                             --run/--dump-ir (default safe)
//   --machine=sparc2|sparc10|pentium90      cost model (default sparc10)
//   --gc-period=N             collect every N instructions
//   --gc-alloc-trigger=N      collect every N allocations
//   --no-opt1 .. --opt4       annotator optimization toggles
//   --slow-bases              optimization 3 heuristic
//   --stats                   print annotation and pass statistics
//   --dump-ir                 print the compiled module
//
//===----------------------------------------------------------------------===//

#include "cfront/ASTPrinter.h"
#include "driver/Pipeline.h"
#include "driver/SelfHeal.h"
#include "rewrite/EditList.h"
#include "ir/Verify.h"
#include "support/ExitCodes.h"
#include "support/FaultInject.h"
#include "support/Profile.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <unistd.h>

using namespace gcsafe;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gcsafe-cc [options] <file.c | ->\n"
      "  --safe | --checked         annotated-source output mode\n"
      "  --run                      compile and execute\n"
      "  --dump-ir                  print the compiled IR module\n"
      "  --dump-ast                 print the typed AST\n"
      "  --dump-edits               print the sorted insertion/deletion list\n"
      "  --mode=o2|safe|safepost|debug|checked\n"
      "  --machine=sparc2|sparc10|pentium90\n"
      "  --gc-period=N --gc-alloc-trigger=N --gc-call-period=N\n"
      "  --no-opt1 --no-opt2 --slow-bases --at-calls-only\n"
      "  --oom-policy=graceful|fail|abort   what allocation exhaustion does\n"
      "                             (default graceful: recovery ladder,\n"
      "                             then a structured run error)\n"
      "  --oom-retries=N            recovery retries after the emergency\n"
      "                             collection (default 3)\n"
      "  --max-heap-pages=N         hard cap on GC heap pages (0=unlimited)\n"
      "  --heap-audit               run a heap-integrity audit after every\n"
      "                             collection; violations are reported\n"
      "  --fail-inject=SEED:SPEC    arm deterministic failpoints, e.g.\n"
      "                             7:heap.segment_alloc@p0.05,*@n100\n"
      "                             (sites: heap.segment_alloc,\n"
      "                             heap.page_table_grow, gc.alloc_small,\n"
      "                             gc.alloc_large)\n"
      "  --self-heal                compile transactionally down the\n"
      "                             degradation ladder (docs/ROBUSTNESS.md\n"
      "                             §5): every pass is verifier-gated and a\n"
      "                             vetoed pass is rolled back and\n"
      "                             quarantined. A recovered-but-degraded\n"
      "                             run exits 5 instead of 0\n"
      "  --opt-rung=full|peephole|unoptimized\n"
      "                             ladder entry rung (default full)\n"
      "  --pass-deadline=MS         per-optimizer-pass wall budget; a pass\n"
      "                             exceeding it is rolled back (self-heal)\n"
      "  --gc-deadline=MS           per-collection mark+sweep budget; a\n"
      "                             collection exceeding it stops the VM\n"
      "                             with exit 6 (watchdog timeout)\n"
      "  --vm-deadline=MS           whole-run wall budget; exceeded = exit 6\n"
      "  --corrupt-kind=K           restrict the opt.pass.corrupt failpoint\n"
      "                             to one operator: delete_keep_live,\n"
      "                             drop_kill, hoist_kill or clobber_base\n"
      "  --verify-safety[=each-pass]  statically verify the KEEP_LIVE\n"
      "                             invariant (docs/ANALYSIS.md) on the\n"
      "                             optimized IR; with =each-pass, after\n"
      "                             lowering and after every optimizer pass\n"
      "                             so violations name the offending pass.\n"
      "                             Violations exit with status 3\n"
      "  --lint-json[=FILE]         gcsafe-lint-v1 JSON report of the\n"
      "                             safety diagnostics (implies\n"
      "                             --verify-safety; '-' = stdout)\n"
      "  --verify-ir=each-pass      run the structural IR verifier after\n"
      "                             every optimizer pass too\n"
      "  --stats                    human-readable statistics on stderr\n"
      "  --stats-json[=FILE]        gcsafe-run-report-v2 JSON (implies\n"
      "                             --run; without =FILE the report goes to\n"
      "                             stdout and the program's output is only\n"
      "                             inside the report)\n"
      "  --trace-json=FILE          gcsafe-flightrec-v1 event ring (phase,\n"
      "                             pass, GC and VM spans; '-' = stdout)\n"
      "  --trace-chrome=FILE        the same trace as Chrome trace_event\n"
      "                             JSON (open in Perfetto / about:tracing)\n"
      "  --trace-capacity=N         trace ring size in events (default\n"
      "                             4096); a dropped>0 warning on stderr\n"
      "                             means the ring was too small\n"
      "  --profile-json[=FILE]      gcsafe-profile-v1 JSON (implies --run):\n"
      "                             per-allocation-site heap counters with\n"
      "                             retention attribution, plus cycle\n"
      "                             samples when --profile-period is set\n"
      "  --profile-period=N         sample the executing function every N\n"
      "                             modeled cycles (0 = heap profile only)\n"
      "  --profile-folded=FILE      collapsed call stacks (flamegraph.pl\n"
      "                             input; implies --run)\n");
}

bool startsWith(const char *Arg, const char *Prefix, const char *&Rest) {
  size_t Len = std::strlen(Prefix);
  if (std::strncmp(Arg, Prefix, Len) != 0)
    return false;
  Rest = Arg + Len;
  return true;
}

/// Writes \p Text to \p Path, with "-" (or empty) meaning stdout.
bool writeReport(const std::string &Path, const std::string &Text) {
  if (Path.empty() || Path == "-") {
    std::fputs(Text.c_str(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "gcsafe-cc: cannot write '%s'\n", Path.c_str());
    return false;
  }
  Out << Text << "\n";
  return true;
}

} // namespace

int main(int argc, char **argv) {
  annotate::AnnotationMode OutputMode = annotate::AnnotationMode::GCSafe;
  driver::CompileMode Mode = driver::CompileMode::O2Safe;
  vm::VMOptions VO;
  annotate::AnnotatorOptions Annot;
  bool Run = false, DumpIR = false, DumpAST = false, DumpEdits = false,
       Stats = false;
  bool StatsJson = false, TraceJson = false, TraceChrome = false;
  bool ProfileJson = false, ProfileFolded = false;
  driver::SafetyVerify Verify = driver::SafetyVerify::None;
  bool LintJson = false, VerifyIREachPass = false;
  std::string LintJsonPath;
  std::string StatsJsonPath, TraceJsonPath, TraceChromePath, MachineName =
                                                                "sparc10";
  std::string ProfileJsonPath, ProfileFoldedPath;
  uint64_t ProfilePeriod = 0;
  size_t TraceCapacity = 4096;
  std::string InputPath;
  support::FaultInjector Faults;
  bool UseFaults = false;
  bool SelfHeal = false;
  driver::OptRung StartRung = driver::OptRung::Full;
  uint64_t PassDeadlineNs = 0, GcDeadlineNs = 0, VmDeadlineNs = 0;
  int CorruptKind = -1;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    const char *Rest = nullptr;
    if (!std::strcmp(Arg, "--safe")) {
      OutputMode = annotate::AnnotationMode::GCSafe;
    } else if (!std::strcmp(Arg, "--checked")) {
      OutputMode = annotate::AnnotationMode::Checked;
    } else if (!std::strcmp(Arg, "--run")) {
      Run = true;
    } else if (!std::strcmp(Arg, "--dump-ir")) {
      DumpIR = true;
    } else if (!std::strcmp(Arg, "--dump-ast")) {
      DumpAST = true;
    } else if (!std::strcmp(Arg, "--dump-edits")) {
      DumpEdits = true;
    } else if (!std::strcmp(Arg, "--stats")) {
      Stats = true;
    } else if (!std::strcmp(Arg, "--stats-json")) {
      StatsJson = true;
    } else if (startsWith(Arg, "--stats-json=", Rest)) {
      StatsJson = true;
      StatsJsonPath = Rest;
    } else if (!std::strcmp(Arg, "--trace-json")) {
      TraceJson = true;
    } else if (startsWith(Arg, "--trace-json=", Rest)) {
      TraceJson = true;
      TraceJsonPath = Rest;
    } else if (startsWith(Arg, "--trace-chrome=", Rest)) {
      TraceChrome = true;
      TraceChromePath = Rest;
    } else if (startsWith(Arg, "--trace-capacity=", Rest)) {
      TraceCapacity = std::strtoull(Rest, nullptr, 10);
      if (!TraceCapacity) {
        std::fprintf(stderr, "--trace-capacity must be positive\n");
        return support::ExitUsage;
      }
    } else if (!std::strcmp(Arg, "--profile-json")) {
      ProfileJson = true;
    } else if (startsWith(Arg, "--profile-json=", Rest)) {
      ProfileJson = true;
      ProfileJsonPath = Rest;
    } else if (startsWith(Arg, "--profile-period=", Rest)) {
      ProfilePeriod = std::strtoull(Rest, nullptr, 10);
    } else if (startsWith(Arg, "--profile-folded=", Rest)) {
      ProfileFolded = true;
      ProfileFoldedPath = Rest;
    } else if (!std::strcmp(Arg, "--verify-safety")) {
      Verify = driver::SafetyVerify::Final;
    } else if (startsWith(Arg, "--verify-safety=", Rest)) {
      if (!std::strcmp(Rest, "each-pass"))
        Verify = driver::SafetyVerify::EachPass;
      else if (!std::strcmp(Rest, "final"))
        Verify = driver::SafetyVerify::Final;
      else {
        std::fprintf(stderr, "unknown --verify-safety mode '%s'\n", Rest);
        return support::ExitUsage;
      }
    } else if (!std::strcmp(Arg, "--lint-json")) {
      LintJson = true;
    } else if (startsWith(Arg, "--lint-json=", Rest)) {
      LintJson = true;
      LintJsonPath = Rest;
    } else if (startsWith(Arg, "--verify-ir=", Rest)) {
      if (!std::strcmp(Rest, "each-pass"))
        VerifyIREachPass = true;
      else {
        std::fprintf(stderr, "unknown --verify-ir mode '%s'\n", Rest);
        return support::ExitUsage;
      }
    } else if (!std::strcmp(Arg, "--no-opt1")) {
      Annot.SkipCopies = false;
    } else if (!std::strcmp(Arg, "--no-opt2")) {
      Annot.SpecializeIncDec = false;
    } else if (!std::strcmp(Arg, "--slow-bases")) {
      Annot.PreferSlowBases = true;
    } else if (!std::strcmp(Arg, "--at-calls-only")) {
      Annot.Trigger = annotate::GcTrigger::AtCallsOnly;
    } else if (startsWith(Arg, "--mode=", Rest)) {
      std::string M = Rest;
      if (M == "o2")
        Mode = driver::CompileMode::O2;
      else if (M == "safe")
        Mode = driver::CompileMode::O2Safe;
      else if (M == "safepost")
        Mode = driver::CompileMode::O2SafePost;
      else if (M == "debug")
        Mode = driver::CompileMode::Debug;
      else if (M == "checked")
        Mode = driver::CompileMode::DebugChecked;
      else {
        std::fprintf(stderr, "unknown mode '%s'\n", Rest);
        return support::ExitUsage;
      }
    } else if (startsWith(Arg, "--machine=", Rest)) {
      std::string M = Rest;
      MachineName = M;
      if (M == "sparc2")
        VO.Model = vm::sparc2();
      else if (M == "sparc10")
        VO.Model = vm::sparc10();
      else if (M == "pentium90")
        VO.Model = vm::pentium90();
      else {
        std::fprintf(stderr, "unknown machine '%s'\n", Rest);
        return support::ExitUsage;
      }
    } else if (startsWith(Arg, "--gc-period=", Rest)) {
      VO.GcInstructionPeriod = std::strtoull(Rest, nullptr, 10);
    } else if (startsWith(Arg, "--gc-alloc-trigger=", Rest)) {
      VO.GcAllocTrigger = std::strtoull(Rest, nullptr, 10);
    } else if (startsWith(Arg, "--gc-call-period=", Rest)) {
      VO.GcCallPeriod = std::strtoull(Rest, nullptr, 10);
    } else if (startsWith(Arg, "--oom-policy=", Rest)) {
      std::string P = Rest;
      if (P == "graceful")
        VO.GcOomPolicy = gc::OomPolicy::Graceful;
      else if (P == "fail")
        VO.GcOomPolicy = gc::OomPolicy::Fail;
      else if (P == "abort")
        VO.GcOomPolicy = gc::OomPolicy::Abort;
      else {
        std::fprintf(stderr, "unknown OOM policy '%s'\n", Rest);
        return support::ExitUsage;
      }
    } else if (startsWith(Arg, "--oom-retries=", Rest)) {
      VO.GcOomRetries =
          static_cast<unsigned>(std::strtoul(Rest, nullptr, 10));
    } else if (startsWith(Arg, "--max-heap-pages=", Rest)) {
      VO.GcMaxHeapPages = std::strtoull(Rest, nullptr, 10);
    } else if (!std::strcmp(Arg, "--heap-audit")) {
      VO.GcAuditEachCollection = true;
    } else if (!std::strcmp(Arg, "--self-heal")) {
      SelfHeal = true;
    } else if (startsWith(Arg, "--opt-rung=", Rest)) {
      SelfHeal = true;
      if (!driver::parseOptRung(Rest, StartRung)) {
        std::fprintf(stderr, "unknown --opt-rung '%s'\n", Rest);
        return support::ExitUsage;
      }
    } else if (startsWith(Arg, "--pass-deadline=", Rest)) {
      SelfHeal = true;
      PassDeadlineNs = std::strtoull(Rest, nullptr, 10) * 1000000ull;
    } else if (startsWith(Arg, "--gc-deadline=", Rest)) {
      GcDeadlineNs = std::strtoull(Rest, nullptr, 10) * 1000000ull;
    } else if (startsWith(Arg, "--vm-deadline=", Rest)) {
      VmDeadlineNs = std::strtoull(Rest, nullptr, 10) * 1000000ull;
    } else if (startsWith(Arg, "--corrupt-kind=", Rest)) {
      std::string K = Rest;
      if (K == "delete_keep_live")
        CorruptKind = 0;
      else if (K == "drop_kill")
        CorruptKind = 1;
      else if (K == "hoist_kill")
        CorruptKind = 2;
      else if (K == "clobber_base")
        CorruptKind = 3;
      else {
        std::fprintf(stderr, "unknown --corrupt-kind '%s'\n", Rest);
        return support::ExitUsage;
      }
    } else if (startsWith(Arg, "--fail-inject=", Rest)) {
      std::string Error;
      if (!support::FaultInjector::parse(Rest, Faults, Error)) {
        std::fprintf(stderr, "bad --fail-inject spec: %s\n", Error.c_str());
        return support::ExitUsage;
      }
      UseFaults = true;
    } else if (!std::strcmp(Arg, "--help") || !std::strcmp(Arg, "-h")) {
      usage();
      return support::ExitSuccess;
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      std::fprintf(stderr, "unknown option '%s'\n", Arg);
      usage();
      return support::ExitUsage;
    } else {
      InputPath = Arg;
    }
  }

  if (InputPath.empty()) {
    usage();
    return support::ExitUsage;
  }

  // --stats-json and the profile outputs report a full run (compile +
  // execute); --trace-json/--trace-chrome alone still need the middle end
  // to produce phase/pass events.
  if (StatsJson || ProfileJson || ProfileFolded)
    Run = true;
  // A lint report is the verifier's output; asking for one turns it on.
  if (LintJson && Verify == driver::SafetyVerify::None)
    Verify = driver::SafetyVerify::Final;
  support::TraceBuffer Trace(TraceCapacity);
  support::TraceBuffer *TraceSink =
      (TraceJson || TraceChrome) ? &Trace : nullptr;
  VO.Trace = TraceSink;
  VO.VmDeadlineNs = VmDeadlineNs;
  VO.GcDeadlineNs = GcDeadlineNs;
  if (UseFaults)
    VO.Faults = &Faults;
  support::Profiler Prof;
  Prof.SamplePeriodCycles = ProfilePeriod;
  if (ProfileJson || ProfileFolded || ProfilePeriod)
    VO.Profile = &Prof;
  // Writes the requested trace exports. The ring silently overwrites its
  // oldest events; surface that whenever a trace is actually written out.
  auto WriteTraces = [&]() {
    if (Trace.dropped())
      std::fprintf(stderr,
                   "gcsafe-cc: warning: trace ring dropped %llu event(s) "
                   "(capacity %zu); raise --trace-capacity\n",
                   static_cast<unsigned long long>(Trace.dropped()),
                   Trace.capacity());
    if (TraceJson) {
      if (TraceJsonPath.empty() || TraceJsonPath == "-") {
        std::fflush(stdout);
        Trace.dumpTo(STDOUT_FILENO, "export", "", "", 0);
      } else if (!Trace.dumpToFile(TraceJsonPath, "export", "", "", 0)) {
        std::fprintf(stderr, "gcsafe-cc: cannot write '%s'\n",
                     TraceJsonPath.c_str());
        return false;
      }
    }
    return !TraceChrome ||
           writeReport(TraceChromePath,
                       support::traceToChromeJson(Trace).dump());
  };

  std::string Source;
  if (InputPath == "-") {
    std::stringstream SS;
    SS << std::cin.rdbuf();
    Source = SS.str();
  } else {
    std::ifstream In(InputPath);
    if (!In) {
      std::fprintf(stderr, "gcsafe-cc: cannot open '%s'\n",
                   InputPath.c_str());
      return support::ExitError;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  }

  driver::Compilation Comp(InputPath == "-" ? "<stdin>" : InputPath,
                           std::move(Source));
  if (!Comp.parse()) {
    std::fputs(Comp.renderedDiagnostics().c_str(), stderr);
    return support::ExitError;
  }
  // Surface warnings (e.g. the nonpointer-to-pointer warning) even on
  // success.
  if (Comp.diags().warningCount())
    std::fputs(Comp.renderedDiagnostics().c_str(), stderr);

  if (DumpAST) {
    std::fputs(cfront::printTranslationUnit(Comp.tu()).c_str(), stdout);
    if (!Run && !DumpIR)
      return support::ExitSuccess;
  }

  if (DumpEdits) {
    // The paper's "list of insertions and deletions, sorted by character
    // position in the original source string".
    auto Map = Comp.annotate(Annot);
    rewrite::EditList Edits;
    annotate::renderAnnotationEdits(Comp.buffer(), Map, OutputMode, Edits);
    Edits.forEachSorted([&](uint32_t Pos, uint32_t DeleteLen,
                            const std::string &Text) {
      LineColumn LC = Comp.buffer().lineColumn(SourceLocation(Pos));
      std::printf("%u:%u", LC.Line, LC.Column);
      if (DeleteLen)
        std::printf(" delete %u", DeleteLen);
      if (!Text.empty())
        std::printf(" insert \"%s\"", Text.c_str());
      std::printf("\n");
    });
    if (!Run && !DumpIR)
      return support::ExitSuccess;
  }

  if (!Run && !DumpIR && !TraceJson && !TraceChrome &&
      Verify == driver::SafetyVerify::None && !VerifyIREachPass) {
    std::string Out = Comp.annotatedSource(OutputMode, Annot);
    std::fputs(Out.c_str(), stdout);
    if (Stats) {
      auto Map = Comp.annotate(Annot);
      const auto &S = Map.stats();
      std::fprintf(stderr,
                   "annotations: %u keep_lives, %u incdec, %u compound, "
                   "%u temps; skipped: %u copies, %u call results, "
                   "%u non-heap\n",
                   S.KeepLives, S.IncDecExpansions,
                   S.CompoundAssignExpansions, S.TempsIntroduced,
                   S.SkippedCopies, S.SkippedCallResults, S.SkippedNonHeap);
    }
    return support::ExitSuccess;
  }

  driver::CompileOptions CO;
  CO.Mode = Mode;
  CO.Annot = Annot;
  CO.Trace = TraceSink;
  CO.Verify = Verify;
  CO.VerifyIREachPass = VerifyIREachPass;
  driver::CompileResult CR;
  driver::SelfHealReport Heal;
  if (SelfHeal) {
    driver::SelfHealOptions SH;
    SH.StartRung = StartRung;
    SH.PassDeadlineNs = PassDeadlineNs;
    SH.Faults = UseFaults ? &Faults : nullptr;
    SH.CorruptKind = CorruptKind;
    CR = driver::compileSelfHealing(Comp, CO, SH, Heal);
    for (const std::string &Line : Heal.Log)
      std::fprintf(stderr, "gcsafe-cc: self-heal: %s\n", Line.c_str());
    if (Heal.Degraded)
      std::fprintf(stderr,
                   "gcsafe-cc: self-heal: committed at rung '%s' after %u "
                   "attempt(s), %zu rollback(s), %zu quarantined pass(es)\n",
                   driver::optRungName(Heal.Rung), Heal.Attempts,
                   Heal.Rollbacks.size(), Heal.Quarantined.size());
    if (CR.Ok && !Heal.Ok) {
      // Every rung failed final verification — unsafe code with nowhere
      // left to descend.
      for (const analysis::SafetyDiag &D : CR.SafetyDiags)
        std::fprintf(stderr, "safety: %s\n",
                     analysis::formatSafetyDiag(D).c_str());
      return support::ExitSafetyViolation;
    }
  } else {
    CR = Comp.compile(CO);
  }
  if (!CR.Ok) {
    std::fputs(CR.Errors.c_str(), stderr);
    return support::ExitError;
  }
  std::vector<std::string> VerifyErrors;
  if (!ir::verifyModule(CR.Module, VerifyErrors)) {
    for (const std::string &E : VerifyErrors)
      std::fprintf(stderr, "IR verifier: %s\n", E.c_str());
    return support::ExitError;
  }
  if (!CR.IRVerifyErrors.empty()) {
    for (const std::string &E : CR.IRVerifyErrors)
      std::fprintf(stderr, "IR verifier: %s\n", E.c_str());
    return support::ExitError;
  }
  if (Verify != driver::SafetyVerify::None) {
    for (const analysis::SafetyDiag &D : CR.SafetyDiags)
      std::fprintf(stderr, "safety: %s\n",
                   analysis::formatSafetyDiag(D).c_str());
    if (LintJson) {
      support::Json Report = driver::buildLintReport(
          InputPath == "-" ? "<stdin>" : InputPath, Mode,
          Verify == driver::SafetyVerify::EachPass, CR, &Comp.buffer());
      if (!writeReport(LintJsonPath, Report.dump()))
        return support::ExitError;
    }
    // Exit code 3 is the stable "safety verification failed" status —
    // distinct from 1 (compile/runtime error) and 2 (usage).
    if (!CR.SafetyOk)
      return support::ExitSafetyViolation;
  }

  if (DumpIR)
    std::fputs(ir::printModule(CR.Module).c_str(), stdout);

  if (Stats)
    std::fprintf(stderr,
                 "code size: %u units; opt: folded=%u cse=%u reassoc=%u "
                 "sr=%u hoisted=%u fused=%u kills=%u\n",
                 CR.CodeSizeUnits, CR.OptStats.Folded, CR.OptStats.CSEd,
                 CR.OptStats.Reassociated, CR.OptStats.StrengthReduced,
                 CR.OptStats.Hoisted, CR.OptStats.Fused,
                 CR.OptStats.KillsInserted);

  if (!Run) {
    if (StatsJson) {
      driver::CompileResult &CC = CR;
      support::Json Report = driver::buildRunReport(
          InputPath == "-" ? "<stdin>" : InputPath, Mode, MachineName, CC,
          nullptr);
      if (!writeReport(StatsJsonPath, Report.dump()))
        return support::ExitError;
    }
    if (TraceSink && !WriteTraces())
      return support::ExitError;
    return SelfHeal && Heal.Degraded ? support::ExitDegradedSuccess
                                     : support::ExitSuccess;
  }

  vm::VM Machine(CR.Module, VO);
  vm::RunResult R = Machine.run();
  // With the report on stdout, the program's output lives inside it; echo
  // only when the report goes elsewhere.
  bool ReportOnStdout =
      (StatsJson && (StatsJsonPath.empty() || StatsJsonPath == "-")) ||
      (TraceJson && (TraceJsonPath.empty() || TraceJsonPath == "-")) ||
      (ProfileJson && (ProfileJsonPath.empty() || ProfileJsonPath == "-"));
  if (!ReportOnStdout)
    std::fputs(R.Output.c_str(), stdout);
  if (StatsJson) {
    support::Json Report = driver::buildRunReport(
        InputPath == "-" ? "<stdin>" : InputPath, Mode, MachineName, CR, &R);
    if (!writeReport(StatsJsonPath, Report.dump()))
      return support::ExitError;
  }
  if (ProfileJson) {
    support::Json Report =
        Prof.toJson(InputPath == "-" ? "<stdin>" : InputPath,
                    driver::compileModeName(Mode), MachineName);
    if (!writeReport(ProfileJsonPath, Report.dump()))
      return support::ExitError;
  }
  if (ProfileFolded &&
      !writeReport(ProfileFoldedPath, Prof.Cycles.foldedOutput()))
    return support::ExitError;
  if (TraceSink && !WriteTraces())
    return support::ExitError;
  if (R.Gc.AuditViolations)
    std::fprintf(stderr,
                 "gcsafe-cc: heap audit found %llu violation(s) over %llu "
                 "audit(s)\n",
                 static_cast<unsigned long long>(R.Gc.AuditViolations),
                 static_cast<unsigned long long>(R.Gc.AuditsRun));
  if (UseFaults && Stats)
    std::fprintf(stderr,
                 "fault injection: %llu hits, %llu fires; recovery: %llu "
                 "emergency collections, %llu retries, %llu alloc failures\n",
                 static_cast<unsigned long long>(Faults.totalHits()),
                 static_cast<unsigned long long>(Faults.totalFires()),
                 static_cast<unsigned long long>(R.Gc.EmergencyCollections),
                 static_cast<unsigned long long>(R.Gc.OomRetriesPerformed),
                 static_cast<unsigned long long>(R.Gc.AllocFailures));
  if (R.WatchdogTimeout) {
    std::fprintf(stderr, "gcsafe-cc: %s\n", R.Error.c_str());
    return support::ExitWatchdogTimeout;
  }
  if (!R.Ok) {
    std::fprintf(stderr, "gcsafe-cc: runtime error: %s\n", R.Error.c_str());
    return support::ExitError;
  }
  if (R.Gc.AuditViolations)
    return support::ExitError;
  if (Stats || R.CheckViolations || R.FreedAccesses)
    std::fprintf(stderr,
                 "[%s on %s] cycles=%llu instructions=%llu collections=%llu "
                 "checks=%llu violations=%llu freed-accesses=%llu exit=%ld\n",
                 driver::compileModeName(Mode), VO.Model.Name.c_str(),
                 static_cast<unsigned long long>(R.Cycles),
                 static_cast<unsigned long long>(R.InstructionsExecuted),
                 static_cast<unsigned long long>(R.Collections),
                 static_cast<unsigned long long>(R.ChecksPerformed),
                 static_cast<unsigned long long>(R.CheckViolations),
                 static_cast<unsigned long long>(R.FreedAccesses),
                 R.ExitCode);
  // A degraded-but-correct run reports ExitDegradedSuccess in place of 0;
  // a nonzero program exit always wins (the program's status is the
  // contract the caller cares about first).
  if (R.ExitCode == 0 && SelfHeal && Heal.Degraded)
    return support::ExitDegradedSuccess;
  return static_cast<int>(R.ExitCode & 0xFF);
}
