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
// The options are listed by --help and in docs/CLI.md. Request flags go to
// driver::parseRequestFlag; this file keeps the output and host-VM flags,
// the source-only outputs and output routing. Compile to exit code is
// driver::RequestContext::execute, as in gcsafe-serve and gcsafe-batch.
//
//===----------------------------------------------------------------------===//

#include "cfront/ASTPrinter.h"
#include "driver/Request.h"
#include "rewrite/EditList.h"
#include "support/ExitCodes.h"
#include "support/FaultInject.h"
#include "support/Profile.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
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

/// Matches "--NAME" and "--NAME=FILE"; \p Path becomes "" or FILE.
bool outputFlag(const char *Arg, const char *Name,
                std::optional<std::string> &Path) {
  const char *File = "";
  if (std::strcmp(Arg, Name) && !driver::flagValue(Arg, Name, File))
    return false;
  Path = File;
  return true;
}

bool toStdout(const std::optional<std::string> &Path) {
  return Path && (Path->empty() || *Path == "-");
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
  driver::RequestOptions Req;
  vm::VMOptions Host;
  bool DumpIR = false, DumpAST = false, DumpEdits = false, Stats = false;
  // Requested reports and where they go ("" or "-" is stdout).
  std::optional<std::string> StatsJson, TraceJson, TraceChrome, ProfileJson,
      ProfileFolded, LintJson;
  uint64_t ProfilePeriod = 0;
  size_t TraceCapacity = 4096;
  std::string InputPath;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    const char *Rest = nullptr;
    std::string Error;
    if (driver::parseRequestFlag(Arg, Req, Error)) {
      // A fail-inject spec is checked here too, so a bad one is a usage
      // error before any input is read; the request context parses its
      // own injector from the text.
      support::FaultInjector Probe;
      if (Error.empty() && driver::flagValue(Arg, "--fail-inject", Rest) &&
          !support::FaultInjector::parse(Rest, Probe, Error))
        Error = "bad --fail-inject spec: " + Error;
      if (!Error.empty()) {
        std::fprintf(stderr, "%s\n", Error.c_str());
        return support::ExitUsage;
      }
    } else if (!std::strcmp(Arg, "--safe")) {
      OutputMode = annotate::AnnotationMode::GCSafe;
    } else if (!std::strcmp(Arg, "--checked")) {
      OutputMode = annotate::AnnotationMode::Checked;
    } else if (!std::strcmp(Arg, "--dump-ir")) {
      DumpIR = true;
    } else if (!std::strcmp(Arg, "--dump-ast")) {
      DumpAST = true;
    } else if (!std::strcmp(Arg, "--dump-edits")) {
      DumpEdits = true;
    } else if (!std::strcmp(Arg, "--stats")) {
      Stats = true;
    } else if (outputFlag(Arg, "--stats-json", StatsJson) ||
               outputFlag(Arg, "--trace-json", TraceJson) ||
               outputFlag(Arg, "--profile-json", ProfileJson) ||
               outputFlag(Arg, "--lint-json", LintJson)) {
      // outputFlag recorded the destination.
    } else if (driver::flagValue(Arg, "--trace-chrome", Rest)) {
      TraceChrome = Rest;
    } else if (driver::flagValue(Arg, "--trace-capacity", Rest)) {
      TraceCapacity = std::strtoull(Rest, nullptr, 10);
      if (!TraceCapacity) {
        std::fprintf(stderr, "--trace-capacity must be positive\n");
        return support::ExitUsage;
      }
    } else if (driver::flagValue(Arg, "--profile-period", Rest)) {
      ProfilePeriod = std::strtoull(Rest, nullptr, 10);
    } else if (driver::flagValue(Arg, "--profile-folded", Rest)) {
      ProfileFolded = Rest;
    } else if (driver::flagValue(Arg, "--oom-policy", Rest)) {
      std::string P = Rest;
      if (P == "graceful")
        Host.GcOomPolicy = gc::OomPolicy::Graceful;
      else if (P == "fail")
        Host.GcOomPolicy = gc::OomPolicy::Fail;
      else if (P == "abort")
        Host.GcOomPolicy = gc::OomPolicy::Abort;
      else {
        std::fprintf(stderr, "unknown OOM policy '%s'\n", Rest);
        return support::ExitUsage;
      }
    } else if (driver::flagValue(Arg, "--oom-retries", Rest)) {
      Host.GcOomRetries =
          static_cast<unsigned>(std::strtoul(Rest, nullptr, 10));
    } else if (driver::flagValue(Arg, "--max-heap-pages", Rest)) {
      Host.GcMaxHeapPages = std::strtoull(Rest, nullptr, 10);
    } else if (!std::strcmp(Arg, "--heap-audit")) {
      Host.GcAuditEachCollection = true;
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
    Req.Run = true;
  // A lint report is the verifier's output; asking for one turns it on.
  if (LintJson && Req.Verify == driver::SafetyVerify::None)
    Req.Verify = driver::SafetyVerify::Final;
  support::TraceBuffer Trace(TraceCapacity);
  support::TraceBuffer *TraceSink =
      (TraceJson || TraceChrome) ? &Trace : nullptr;
  support::Profiler Prof;
  Prof.SamplePeriodCycles = ProfilePeriod;
  if (ProfileJson || ProfileFolded || ProfilePeriod)
    Host.Profile = &Prof;
  // Writes the requested trace exports. The ring silently overwrites its
  // oldest events; surface that whenever a trace is actually written out.
  auto WriteTraces = [&]() {
    if (Trace.dropped())
      std::fprintf(stderr,
                   "gcsafe-cc: warning: trace ring dropped %llu event(s) "
                   "(capacity %zu); raise --trace-capacity\n",
                   static_cast<unsigned long long>(Trace.dropped()),
                   Trace.capacity());
    if (toStdout(TraceJson)) {
      std::fflush(stdout);
      Trace.dumpTo(STDOUT_FILENO, "export", "", "", 0);
    } else if (TraceJson &&
               !Trace.dumpToFile(*TraceJson, "export", "", "", 0)) {
      std::fprintf(stderr, "gcsafe-cc: cannot write '%s'\n",
                   TraceJson->c_str());
      return false;
    }
    return !TraceChrome ||
           writeReport(*TraceChrome, support::traceToChromeJson(Trace).dump());
  };

  {
    std::stringstream SS;
    if (InputPath == "-") {
      SS << std::cin.rdbuf();
    } else {
      std::ifstream In(InputPath);
      if (!In) {
        std::fprintf(stderr, "gcsafe-cc: cannot open '%s'\n",
                     InputPath.c_str());
        return support::ExitError;
      }
      SS << In.rdbuf();
    }
    Req.Source = SS.str();
  }
  Req.Name = InputPath == "-" ? "<stdin>" : InputPath;
  const bool SourceOnly = !Req.Run && !DumpIR && !TraceSink &&
                          Req.Verify == driver::SafetyVerify::None &&
                          !Req.VerifyIREachPass;
  driver::RequestContext Ctx(std::move(Req), TraceSink, Host);
  const driver::RequestOptions &Opts = Ctx.options();
  driver::Compilation &Comp = Ctx.compilation();
  if (!Comp.parse()) {
    std::fputs(Comp.renderedDiagnostics().c_str(), stderr);
    return support::ExitError;
  }
  // Surface warnings (e.g. the nonpointer-to-pointer warning) even on
  // success.
  if (Comp.diags().warningCount())
    std::fputs(Comp.renderedDiagnostics().c_str(), stderr);

  if (DumpAST)
    std::fputs(cfront::printTranslationUnit(Comp.tu()).c_str(), stdout);
  if (DumpEdits) {
    // The paper's "list of insertions and deletions, sorted by character
    // position in the original source string".
    auto Map = Comp.annotate(Opts.Annot);
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
  }
  if ((DumpAST || DumpEdits) && !Opts.Run && !DumpIR)
    return support::ExitSuccess;

  if (SourceOnly) {
    std::string Out = Comp.annotatedSource(OutputMode, Opts.Annot);
    std::fputs(Out.c_str(), stdout);
    if (Stats) {
      auto Map = Comp.annotate(Opts.Annot);
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

  driver::RequestOutcome Out = Ctx.execute();
  const driver::CompileResult &CR = Out.Compile;
  if (Opts.SelfHeal) {
    const driver::SelfHealReport &Heal = Ctx.healReport();
    for (const std::string &Line : Heal.Log)
      std::fprintf(stderr, "gcsafe-cc: self-heal: %s\n", Line.c_str());
    if (Heal.Degraded)
      std::fprintf(stderr,
                   "gcsafe-cc: self-heal: committed at rung '%s' after %u "
                   "attempt(s), %zu rollback(s), %zu quarantined pass(es)\n",
                   driver::optRungName(Heal.Rung), Heal.Attempts,
                   Heal.Rollbacks.size(), Heal.Quarantined.size());
  }
  auto PrintSafetyDiags = [&] {
    for (const analysis::SafetyDiag &D : CR.SafetyDiags)
      std::fprintf(stderr, "safety: %s\n",
                   analysis::formatSafetyDiag(D).c_str());
  };
  if (!Out.HasReport) {
    // The compile itself failed: every self-heal rung failed final
    // verification (3), or a compile or IR-verifier error (1).
    if (Out.ExitCode == support::ExitSafetyViolation)
      PrintSafetyDiags();
    else
      std::fputs(Out.Error.c_str(), stderr);
    return Out.ExitCode;
  }
  if (Out.HasLint) {
    PrintSafetyDiags();
    if (LintJson && !writeReport(*LintJson, Out.Lint.dump()))
      return support::ExitError;
    if (!CR.SafetyOk)
      return Out.ExitCode;
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

  if (!Out.Run) {
    if (TraceSink && !WriteTraces())
      return support::ExitError;
    return Out.ExitCode;
  }

  const vm::RunResult &R = *Out.Run;
  // With the report on stdout, the program's output lives inside it; echo
  // only when the report goes elsewhere.
  if (!toStdout(StatsJson) && !toStdout(TraceJson) && !toStdout(ProfileJson))
    std::fputs(R.Output.c_str(), stdout);
  if (StatsJson && !writeReport(*StatsJson, Out.Report.dump()))
    return support::ExitError;
  if (ProfileJson) {
    support::Json Report = Prof.toJson(
        Opts.Name, driver::compileModeName(Opts.Mode), Opts.MachineName);
    if (!writeReport(*ProfileJson, Report.dump()))
      return support::ExitError;
  }
  if (ProfileFolded &&
      !writeReport(*ProfileFolded, Prof.Cycles.foldedOutput()))
    return support::ExitError;
  if (TraceSink && !WriteTraces())
    return support::ExitError;
  if (R.Gc.AuditViolations)
    std::fprintf(stderr, "gcsafe-cc: %s\n",
                 driver::heapAuditSummary(R.Gc).c_str());
  if (!Opts.FailInjectSpec.empty() && Stats)
    std::fprintf(stderr,
                 "fault injection: %llu hits, %llu fires; recovery: %llu "
                 "emergency collections, %llu retries, %llu alloc failures\n",
                 static_cast<unsigned long long>(Ctx.faults().totalHits()),
                 static_cast<unsigned long long>(Ctx.faults().totalFires()),
                 static_cast<unsigned long long>(R.Gc.EmergencyCollections),
                 static_cast<unsigned long long>(R.Gc.OomRetriesPerformed),
                 static_cast<unsigned long long>(R.Gc.AllocFailures));
  if (!Out.Ok) {
    // A heap-audit failure was summarized just above.
    if (!R.Ok)
      std::fprintf(stderr, "gcsafe-cc: %s\n", Out.Error.c_str());
    return Out.ExitCode;
  }
  vm::MachineModel Machine; // the flag table validated the name
  vm::machineModelByName(Opts.MachineName, Machine);
  if (Stats || R.CheckViolations || R.FreedAccesses)
    std::fprintf(stderr,
                 "[%s on %s] cycles=%llu instructions=%llu collections=%llu "
                 "checks=%llu violations=%llu freed-accesses=%llu exit=%ld\n",
                 driver::compileModeName(Opts.Mode), Machine.Name.c_str(),
                 static_cast<unsigned long long>(R.Cycles),
                 static_cast<unsigned long long>(R.InstructionsExecuted),
                 static_cast<unsigned long long>(R.Gc.Collections),
                 static_cast<unsigned long long>(R.ChecksPerformed),
                 static_cast<unsigned long long>(R.CheckViolations),
                 static_cast<unsigned long long>(R.FreedAccesses),
                 R.ExitCode);
  return Out.ExitCode;
}
