//===- tools/safety_mutate.cpp - Verifier mutation self-test -------------===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
// The static safety verifier's adversarial self-test (docs/ANALYSIS.md):
// compiles a C file, asserts the verifier passes the clean module, then
// enumerates every KEEP_LIVE/kill corruption Mutate.h defines and asserts
// the verifier flags each one.
//
//   safety_mutate [--mode=o2|safe|safepost|debug|checked|all] [-v] file.c
//
// Exit status: 0 all mutants caught and clean module verified;
//              1 tool error (bad usage, unreadable input, compile failure);
//              3 the *clean* module produced safety diagnostics;
//              4 at least one mutant escaped the verifier.
//
//===----------------------------------------------------------------------===//

#include "analysis/Mutate.h"
#include "analysis/SafetyVerifier.h"
#include "driver/Request.h"
#include "support/ExitCodes.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace gcsafe;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: safety_mutate [--mode=o2|safe|safepost|debug|checked|"
               "all] [-v] <file.c>\n");
}

/// Runs the clean-verify + mutate-and-verify cycle for one mode.
/// Returns ExitSuccess / ExitSafetyViolation / ExitMutantEscape per the
/// support/ExitCodes.h contract (never ExitError; compile failures are the
/// caller's).
int runMode(driver::Compilation &Comp, driver::CompileMode Mode,
            bool Verbose) {
  driver::CompileOptions CO;
  CO.Mode = Mode;
  driver::CompileResult CR = Comp.compile(CO);
  if (!CR.Ok) {
    std::fprintf(stderr, "safety_mutate: compile failed in mode %s:\n%s",
                 driver::compileModeName(Mode), CR.Errors.c_str());
    return support::ExitError;
  }

  analysis::SafetyVerifyOptions VO; // final check, kill audit on
  std::vector<analysis::SafetyDiag> CleanDiags;
  if (!analysis::verifyModuleSafety(CR.Module, VO, CleanDiags)) {
    for (const analysis::SafetyDiag &D : CleanDiags)
      std::fprintf(stderr, "safety_mutate: clean module [%s]: %s\n",
                   driver::compileModeName(Mode),
                   analysis::formatSafetyDiag(D).c_str());
    return support::ExitSafetyViolation;
  }

  std::vector<analysis::Mutation> Mutations =
      analysis::enumerateMutations(CR.Module);
  unsigned Escaped = 0;
  for (const analysis::Mutation &Mu : Mutations) {
    ir::Module Mutant = CR.Module;
    if (!analysis::applyMutation(Mutant, Mu)) {
      std::fprintf(stderr, "safety_mutate: stale mutation site: %s\n",
                   Mu.Description.c_str());
      return support::ExitError;
    }
    std::vector<analysis::SafetyDiag> Diags;
    analysis::verifyModuleSafety(Mutant, VO, Diags);
    if (Diags.empty()) {
      ++Escaped;
      std::fprintf(stderr, "safety_mutate: ESCAPED [%s] %s: %s\n",
                   driver::compileModeName(Mode),
                   analysis::mutationKindName(Mu.Kind),
                   Mu.Description.c_str());
    } else if (Verbose) {
      std::fprintf(stderr, "safety_mutate: caught [%s] %s: %s\n",
                   driver::compileModeName(Mode),
                   analysis::mutationKindName(Mu.Kind),
                   analysis::formatSafetyDiag(Diags.front()).c_str());
    }
  }

  std::printf("[%s] clean verified; %zu mutant(s), %u escaped\n",
              driver::compileModeName(Mode), Mutations.size(), Escaped);
  return Escaped ? support::ExitMutantEscape : support::ExitSuccess;
}

} // namespace

int main(int argc, char **argv) {
  std::string ModeArg = "all";
  std::string InputPath;
  bool Verbose = false;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (!std::strncmp(Arg, "--mode=", 7)) {
      ModeArg = Arg + 7;
    } else if (!std::strcmp(Arg, "-v") || !std::strcmp(Arg, "--verbose")) {
      Verbose = true;
    } else if (!std::strcmp(Arg, "--help") || !std::strcmp(Arg, "-h")) {
      usage();
      return support::ExitSuccess;
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
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

  std::vector<driver::CompileMode> Modes;
  driver::CompileMode One;
  if (ModeArg == "all") {
    Modes = {driver::CompileMode::O2, driver::CompileMode::O2Safe,
             driver::CompileMode::O2SafePost, driver::CompileMode::Debug,
             driver::CompileMode::DebugChecked};
  } else if (driver::parseCompileModeName(ModeArg, One)) {
    Modes = {One};
  } else {
    std::fprintf(stderr, "safety_mutate: unknown mode '%s'\n",
                 ModeArg.c_str());
    return support::ExitUsage;
  }

  std::ifstream In(InputPath);
  if (!In) {
    std::fprintf(stderr, "safety_mutate: cannot open '%s'\n",
                 InputPath.c_str());
    return support::ExitError;
  }
  std::stringstream SS;
  SS << In.rdbuf();

  driver::Compilation Comp(InputPath, SS.str());
  if (!Comp.parse()) {
    std::fputs(Comp.renderedDiagnostics().c_str(), stderr);
    return support::ExitError;
  }

  int Worst = support::ExitSuccess;
  for (driver::CompileMode Mode : Modes) {
    int RC = runMode(Comp, Mode, Verbose);
    if (RC == support::ExitError)
      return support::ExitError;
    if (RC > Worst)
      Worst = RC;
  }
  return Worst;
}
