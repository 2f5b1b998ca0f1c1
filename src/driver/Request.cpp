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
  for (CompileMode M : {CompileMode::O2, CompileMode::O2Safe,
                        CompileMode::O2SafePost, CompileMode::Debug,
                        CompileMode::DebugChecked})
    if (Text == compileModeToken(M)) {
      Out = M;
      return true;
    }
  return false;
}

std::string gcsafe::driver::heapAuditSummary(const gc::CollectorStats &Gc) {
  return "heap audit found " + std::to_string(Gc.AuditViolations) +
         " violation(s) over " + std::to_string(Gc.AuditsRun) + " audit(s)";
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

RequestContext::RequestContext(RequestOptions O, support::TraceBuffer *Trace,
                               vm::VMOptions Host)
    : Opts(std::move(O)), Host(std::move(Host)), Comp(Opts.Name, Opts.Source),
      Trace(Trace) {
  if (!Opts.FailInjectSpec.empty()) {
    if (support::FaultInjector::parse(Opts.FailInjectSpec, Faults,
                                      FaultParseError))
      UseFaults = true;
    else if (FaultParseError.empty())
      FaultParseError = "unparseable spec";
  }
}

RequestContext::~RequestContext() = default;

RequestOutcome RequestContext::execute() {
  RequestOutcome Out;
  auto Fail = [&Out](int ExitCode, std::string Error) {
    Out.ExitCode = ExitCode;
    Out.Error = std::move(Error);
    return std::move(Out);
  };
  auto SafetyText = [](const CompileResult &CR) {
    std::string Text;
    for (const analysis::SafetyDiag &D : CR.SafetyDiags)
      Text += analysis::formatSafetyDiag(D) + "\n";
    return Text;
  };

  if (!FaultParseError.empty())
    return Fail(support::ExitUsage, "bad fail-inject spec: " + FaultParseError);
  vm::VMOptions VO = Host;
  if (Opts.MachineName.empty())
    VO.Model = vm::sparc10();
  else if (!vm::machineModelByName(Opts.MachineName, VO.Model))
    return Fail(support::ExitUsage,
                "unknown machine '" + Opts.MachineName + "'");

  if (!Comp.parse())
    return Fail(support::ExitError, Comp.renderedDiagnostics());

  CompileOptions CO;
  CO.Mode = Opts.Mode;
  CO.Annot = Opts.Annot;
  CO.Trace = Trace;
  CO.Verify = Opts.Verify;
  CO.VerifyIREachPass = Opts.VerifyIREachPass;
  CO.Memo = Opts.Memo;

  CompileResult &CR = Out.Compile;
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
    // Every rung failed final verification — unsafe code with nowhere
    // left to descend.
    if (CR.Ok && !Heal.Ok)
      return Fail(support::ExitSafetyViolation, SafetyText(CR));
  } else {
    CR = Comp.compile(CO);
  }
  if (!CR.Ok)
    return Fail(support::ExitError, CR.Errors);
  // The final module's structural check, else the each-pass one's.
  std::vector<std::string> IRErrors;
  if (ir::verifyModule(CR.Module, IRErrors))
    IRErrors = CR.IRVerifyErrors;
  if (!IRErrors.empty()) {
    std::string Text;
    for (const std::string &E : IRErrors)
      Text += "IR verifier: " + E + "\n";
    return Fail(support::ExitError, Text);
  }
  if (Opts.Verify != SafetyVerify::None) {
    Out.Lint = buildLintReport(Opts.Name, Opts.Mode,
                               Opts.Verify == SafetyVerify::EachPass, CR,
                               &Comp.buffer());
    Out.HasLint = true;
  }
  // A safety violation (possible only with Verify on) and a compile-only
  // request end here, with a report of the compile alone.
  if (!Opts.Run || !CR.SafetyOk) {
    Out.Report =
        buildRunReport(Opts.Name, Opts.Mode, Opts.MachineName, CR, nullptr);
    Out.HasReport = true;
    if (!CR.SafetyOk)
      return Fail(support::ExitSafetyViolation, SafetyText(CR));
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
  VO.Faults = UseFaults ? &Faults : nullptr;
  vm::VM Machine(CR.Module, VO);
  const vm::RunResult &R = Out.Run.emplace(Machine.run());
  Out.Report = buildRunReport(Opts.Name, Opts.Mode, Opts.MachineName, CR, &R);
  Out.HasReport = true;
  if (R.WatchdogTimeout)
    return Fail(support::ExitWatchdogTimeout, R.Error);
  if (!R.Ok)
    return Fail(support::ExitError, "runtime error: " + R.Error);
  if (R.Gc.AuditViolations)
    return Fail(support::ExitError, heapAuditSummary(R.Gc));
  Out.Ok = true;
  // A degraded-but-correct run reports ExitDegradedSuccess in place of 0;
  // a nonzero program exit always wins.
  Out.ExitCode = (R.ExitCode == 0 && Out.Degraded)
                     ? support::ExitDegradedSuccess
                     : static_cast<int>(R.ExitCode & 0xFF);
  return Out;
}
