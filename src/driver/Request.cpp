//===- driver/Request.cpp -------------------------------------*- C++ -*-===//

#include "driver/Request.h"

#include "ir/Verify.h"
#include "support/ExitCodes.h"
#include "vm/VM.h"

using namespace gcsafe;
using namespace gcsafe::driver;

namespace gcsafe::driver {
/// The 32-hex hash of src/, generated at build time (BuildFingerprint.cmake).
const char *buildContentHash();
} // namespace gcsafe::driver

const std::string &gcsafe::driver::keyFingerprint() {
  // "gcsafe-key-v2" names the key format itself: the raw source plus
  // serve::canonicalFlagString. Bump it on any key-format change; the
  // build hash covers every behavior change.
  static const std::string FP =
      std::string("gcsafe-key-v2;build=") + buildContentHash();
  return FP;
}

bool gcsafe::driver::parseCompileModeName(const std::string &Text,
                                          CompileMode &Out) {
  if (Text == "o2")
    Out = CompileMode::O2;
  else if (Text == "safe")
    Out = CompileMode::O2Safe;
  else if (Text == "safepost")
    Out = CompileMode::O2SafePost;
  else if (Text == "debug")
    Out = CompileMode::Debug;
  else if (Text == "checked")
    Out = CompileMode::DebugChecked;
  else
    return false;
  return true;
}

const char *gcsafe::driver::compileModeToken(CompileMode Mode) {
  switch (Mode) {
  case CompileMode::O2: return "o2";
  case CompileMode::O2Safe: return "safe";
  case CompileMode::O2SafePost: return "safepost";
  case CompileMode::Debug: return "debug";
  case CompileMode::DebugChecked: return "checked";
  }
  return "?";
}

bool gcsafe::driver::knownMachineName(const std::string &Name) {
  return Name == "sparc2" || Name == "sparc10" || Name == "pentium90";
}

RequestContext::RequestContext(RequestOptions O, support::TraceBuffer *Trace)
    : Opts(std::move(O)), Comp(Opts.Name, Opts.Source), Trace(Trace) {
  if (!Opts.FailInjectSpec.empty()) {
    if (support::FaultInjector::parse(Opts.FailInjectSpec, Faults,
                                      FaultParseError))
      UseFaults = true;
    else if (FaultParseError.empty())
      FaultParseError = "unparseable spec";
  }
}

RequestContext::~RequestContext() = default;

bool RequestContext::parse(std::string &Error) {
  if (Comp.parse())
    return true;
  Error = Comp.renderedDiagnostics();
  return false;
}

RequestOutcome RequestContext::execute() {
  RequestOutcome Out;

  if (!FaultParseError.empty()) {
    Out.ExitCode = support::ExitUsage;
    Out.Error = "bad fail-inject spec: " + FaultParseError;
    return Out;
  }
  vm::VMOptions VO;
  if (Opts.MachineName == "sparc2")
    VO.Model = vm::sparc2();
  else if (Opts.MachineName == "sparc10" || Opts.MachineName.empty())
    VO.Model = vm::sparc10();
  else if (Opts.MachineName == "pentium90")
    VO.Model = vm::pentium90();
  else {
    Out.ExitCode = support::ExitUsage;
    Out.Error = "unknown machine '" + Opts.MachineName + "'";
    return Out;
  }

  std::string ParseError;
  if (!parse(ParseError)) {
    Out.ExitCode = support::ExitError;
    Out.Error = ParseError;
    return Out;
  }

  CompileOptions CO;
  CO.Mode = Opts.Mode;
  CO.Annot = Opts.Annot;
  CO.Trace = Trace;
  CO.Verify = Opts.Verify;
  CO.VerifyIREachPass = Opts.VerifyIREachPass;
  CO.Memo = Opts.Memo;

  CompileResult CR;
  if (Opts.SelfHeal) {
    SelfHealOptions SH;
    SH.StartRung = Opts.StartRung;
    SH.PassDeadlineNs = Opts.PassDeadlineNs;
    SH.Faults = UseFaults ? &Faults : nullptr;
    SH.CorruptKind = Opts.CorruptKind;
    CR = compileSelfHealing(Comp, CO, SH, Heal);
    Out.Degraded = Heal.Degraded;
    Out.Rung = optRungName(Heal.Rung);
    Out.Quarantined = Heal.Quarantined;
    if (CR.Ok && !Heal.Ok) {
      // Every rung failed final verification — unsafe code with nowhere
      // left to descend (the gcsafe-cc exit-3 path).
      Out.ExitCode = support::ExitSafetyViolation;
      for (const analysis::SafetyDiag &D : CR.SafetyDiags)
        Out.Error += analysis::formatSafetyDiag(D) + "\n";
      return Out;
    }
  } else {
    CR = Comp.compile(CO);
  }
  if (!CR.Ok) {
    Out.ExitCode = support::ExitError;
    Out.Error = CR.Errors;
    return Out;
  }
  std::vector<std::string> VerifyErrors;
  if (!ir::verifyModule(CR.Module, VerifyErrors)) {
    Out.ExitCode = support::ExitError;
    for (const std::string &E : VerifyErrors)
      Out.Error += "IR verifier: " + E + "\n";
    return Out;
  }
  if (!CR.IRVerifyErrors.empty()) {
    Out.ExitCode = support::ExitError;
    for (const std::string &E : CR.IRVerifyErrors)
      Out.Error += "IR verifier: " + E + "\n";
    return Out;
  }
  if (Opts.Verify != SafetyVerify::None) {
    Out.Lint = buildLintReport(Opts.Name, Opts.Mode,
                               Opts.Verify == SafetyVerify::EachPass, CR,
                               &Comp.buffer());
    Out.HasLint = true;
    if (!CR.SafetyOk) {
      Out.ExitCode = support::ExitSafetyViolation;
      for (const analysis::SafetyDiag &D : CR.SafetyDiags)
        Out.Error += analysis::formatSafetyDiag(D) + "\n";
      Out.Report =
          buildRunReport(Opts.Name, Opts.Mode, Opts.MachineName, CR, nullptr);
      Out.HasReport = true;
      return Out;
    }
  }

  if (!Opts.Run) {
    Out.Report =
        buildRunReport(Opts.Name, Opts.Mode, Opts.MachineName, CR, nullptr);
    Out.HasReport = true;
    Out.Ok = true;
    Out.ExitCode = Out.Degraded ? support::ExitDegradedSuccess
                                : support::ExitSuccess;
    return Out;
  }

  VO.GcInstructionPeriod = Opts.GcInstructionPeriod;
  VO.GcAllocTrigger = Opts.GcAllocTrigger;
  VO.GcCallPeriod = Opts.GcCallPeriod;
  VO.GcDeadlineNs = Opts.GcDeadlineNs;
  VO.VmDeadlineNs = Opts.VmDeadlineNs;
  VO.Trace = Trace;
  if (UseFaults)
    VO.Faults = &Faults;
  vm::VM Machine(CR.Module, VO);
  vm::RunResult R = Machine.run();
  Out.Report = buildRunReport(Opts.Name, Opts.Mode, Opts.MachineName, CR, &R);
  Out.HasReport = true;
  if (R.WatchdogTimeout) {
    Out.ExitCode = support::ExitWatchdogTimeout;
    Out.Error = R.Error;
    return Out;
  }
  if (!R.Ok) {
    Out.ExitCode = support::ExitError;
    Out.Error = "runtime error: " + R.Error;
    return Out;
  }
  Out.Ok = true;
  // A degraded-but-correct run reports ExitDegradedSuccess in place of 0;
  // a nonzero program exit always wins.
  Out.ExitCode = (R.ExitCode == 0 && Out.Degraded)
                     ? support::ExitDegradedSuccess
                     : static_cast<int>(R.ExitCode & 0xFF);
  return Out;
}
