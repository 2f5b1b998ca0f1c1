//===- driver/Request.cpp -------------------------------------*- C++ -*-===//

#include "driver/Request.h"

#include "analysis/Mutate.h"
#include "ir/Verify.h"
#include "support/ExitCodes.h"
#include "vm/VM.h"

#include <cstdlib>
#include <cstring>

using namespace gcsafe;
using namespace gcsafe::driver;

namespace {

using Opts = RequestOptions;
using F = RequestField;
using Text = const char *;

void bit(std::string &Out, bool B) { Out += B ? '1' : '0'; }

/// Rows in canonical-flag-string order; the tokens and that order are the
/// key format keyFingerprint() versions.
const RequestField Fields[] = {
    {"--mode", "mode", "mode", F::Name,
     [](Opts &O, Text T, bool) { return parseCompileModeName(T, O.Mode); },
     [](const Opts &O, std::string &Out) { Out += compileModeToken(O.Mode); },
     nullptr, true},
    {"--machine", "machine", "machine", F::Name,
     [](Opts &O, Text T, bool) {
       vm::MachineModel M;
       if (!vm::machineModelByName(T, M))
         return false;
       O.MachineName = T;
       return true;
     },
     [](const Opts &O, std::string &Out) { Out += O.MachineName; }},
    {"--run", "run", "run", F::Switch,
     [](Opts &O, Text, bool) { return O.Run = true; },
     [](const Opts &O, std::string &Out) { bit(Out, O.Run); }, nullptr, true},
    // The default, "none", has a protocol spelling only: gcsafe-cc omits
    // the flag.
    {"--verify-safety", "verify", "verify", F::Name,
     [](Opts &O, Text T, bool Json) {
       std::string_view V = T;
       O.Verify = V == "final"       ? SafetyVerify::Final
                  : V == "each-pass" ? SafetyVerify::EachPass
                                     : SafetyVerify::None;
       return O.Verify != SafetyVerify::None || (Json && V == "none");
     },
     [](const Opts &O, std::string &Out) {
       Out += std::to_string(static_cast<int>(O.Verify));
     },
     nullptr, false, false, "final"},
    {"--verify-ir=each-pass", "verify_ir", "verify_ir", F::Switch,
     [](Opts &O, Text, bool) { return O.VerifyIREachPass = true; },
     [](const Opts &O, std::string &Out) { bit(Out, O.VerifyIREachPass); }},
    {"--self-heal", "self_heal", "self_heal", F::Switch,
     [](Opts &O, Text, bool) { return O.SelfHeal = true; },
     [](const Opts &O, std::string &Out) { bit(Out, O.SelfHeal); }},
    {"--opt-rung", "opt_rung", "rung", F::Name,
     [](Opts &O, Text T, bool) { return parseOptRung(T, O.StartRung); },
     [](const Opts &O, std::string &Out) { Out += optRungName(O.StartRung); },
     nullptr, false, true},
    {"--pass-deadline", "pass_deadline_ms", "pass_deadline", F::Millis,
     nullptr, nullptr, &Opts::PassDeadlineNs, true, true},
    // Parsed per request by RequestContext: a bad spec is its error.
    {"--fail-inject", "fail_inject", "fail_inject", F::Name,
     [](Opts &O, Text T, bool) {
       O.FailInjectSpec = T;
       return true;
     },
     [](const Opts &O, std::string &Out) { Out += O.FailInjectSpec; },
     nullptr, true},
    {"--corrupt-kind", "corrupt_kind", "corrupt_kind", F::Name,
     [](Opts &O, Text T, bool) {
       analysis::MutationKind K;
       if (!analysis::parseMutationKindName(T, K))
         return false;
       O.CorruptKind = static_cast<int>(K);
       return true;
     },
     [](const Opts &O, std::string &Out) {
       Out += std::to_string(O.CorruptKind);
     }},
    {"--gc-period", "gc_period", "gc_period", F::Count, nullptr, nullptr,
     &Opts::GcInstructionPeriod, true},
    {"--gc-alloc-trigger", "gc_alloc_trigger", "gc_alloc_trigger", F::Count,
     nullptr, nullptr, &Opts::GcAllocTrigger, true},
    {"--gc-call-period", "gc_call_period", "gc_call_period", F::Count,
     nullptr, nullptr, &Opts::GcCallPeriod},
    {"--gc-deadline", "gc_deadline_ms", "gc_deadline", F::Millis, nullptr,
     nullptr, &Opts::GcDeadlineNs, true},
    {"--vm-deadline", "vm_deadline_ms", "vm_deadline", F::Millis, nullptr,
     nullptr, &Opts::VmDeadlineNs, true},
    {nullptr, "deadline_ms", "deadline", F::Millis, nullptr, nullptr,
     &Opts::DeadlineNs},
    {"--no-opt1", "no_opt1", "no_opt1", F::Switch,
     [](Opts &O, Text, bool) {
       O.Annot.SkipCopies = false;
       return true;
     },
     [](const Opts &O, std::string &Out) { bit(Out, !O.Annot.SkipCopies); }},
    {"--no-opt2", "no_opt2", "no_opt2", F::Switch,
     [](Opts &O, Text, bool) {
       O.Annot.SpecializeIncDec = false;
       return true;
     },
     [](const Opts &O, std::string &Out) {
       bit(Out, !O.Annot.SpecializeIncDec);
     }},
    {"--slow-bases", "slow_bases", "slow_bases", F::Switch,
     [](Opts &O, Text, bool) { return O.Annot.PreferSlowBases = true; },
     [](const Opts &O, std::string &Out) {
       bit(Out, O.Annot.PreferSlowBases);
     }},
    {"--at-calls-only", "at_calls_only", "at_calls_only", F::Switch,
     [](Opts &O, Text, bool) {
       O.Annot.Trigger = annotate::GcTrigger::AtCallsOnly;
       return true;
     },
     [](const Opts &O, std::string &Out) {
       bit(Out, O.Annot.Trigger == annotate::GcTrigger::AtCallsOnly);
     }},
};

/// Sets \p Row's field from either surface: \p T for a Switch or Name row,
/// \p N for a Count or Millis row. False on an unknown value.
bool apply(const RequestField &Row, Opts &O, Text T, uint64_t N, bool Json) {
  if (Row.Num)
    O.*Row.Num = Row.K == F::Millis ? N * 1000000ull : N;
  else if (!Row.Parse(O, T, Json))
    return false;
  if (Row.Heals)
    O.SelfHeal = true;
  return true;
}

} // namespace

std::span<const RequestField> gcsafe::driver::requestFields() {
  return Fields;
}

bool gcsafe::driver::flagValue(const char *Arg, const char *Name,
                               const char *&Value) {
  size_t Len = std::strlen(Name);
  if (std::strncmp(Arg, Name, Len) || Arg[Len] != '=')
    return false;
  Value = Arg + Len + 1;
  return true;
}

bool gcsafe::driver::parseRequestFlag(const char *Arg, RequestOptions &O,
                                      std::string &Error, bool Batch) {
  for (const RequestField &Row : Fields) {
    Text T = nullptr;
    if (!Row.Flag || (Batch && !Row.Batch) ||
        (std::strcmp(Arg, Row.Flag) && !flagValue(Arg, Row.Flag, T)))
      continue;
    if (!T && Row.K != F::Switch)
      T = Row.Bare;
    // A Switch takes no value and the other kinds need one: either mistake
    // is an unknown option.
    if (Row.K == F::Switch ? T != nullptr : T == nullptr)
      return false;
    if (!apply(Row, O, T, T ? std::strtoull(T, nullptr, 10) : 0, false))
      Error = "unknown " + std::string(Row.Flag) + " '" + T + "'";
    return true;
  }
  return false;
}

bool gcsafe::driver::parseRequestFields(const support::Json &J,
                                        RequestOptions &O,
                                        std::string &Error) {
  for (const RequestField &Row : Fields) {
    const support::Json *V = J.get(Row.Key);
    if (!V || !(Row.Num ? V->isNumber()
                : Row.K == F::Switch ? V->isBool() && V->asBool()
                                     : V->isString()))
      continue;
    Text T = V->isString() ? V->asString().c_str() : nullptr;
    if (!apply(Row, O, T, Row.Num ? uint64_t(V->asInt()) : 0, true)) {
      Error = "unknown " + std::string(Row.Key) + " '" + T + "'";
      return false;
    }
  }
  return true;
}

std::string gcsafe::driver::canonicalFlagString(const RequestOptions &O) {
  std::string Out;
  for (const RequestField &Row : Fields) {
    if (!Out.empty())
      Out += ';';
    Out += Row.Token;
    Out += '=';
    if (Row.Num)
      Out += std::to_string(O.*Row.Num);
    else
      Row.Print(O, Out);
  }
  return Out;
}

namespace gcsafe::driver {
/// The 32-hex hash of src/, generated at build time (BuildFingerprint.cmake).
const char *buildContentHash();
} // namespace gcsafe::driver

const std::string &gcsafe::driver::keyFingerprint() {
  // "gcsafe-key-v3" names the key format itself: the raw source plus
  // serve::canonicalFlagString, digested by support::ContentHasher. Bump
  // it on any change to either; the build hash covers every behavior
  // change.
  static const std::string FP =
      std::string("gcsafe-key-v3;build=") + buildContentHash();
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
  if (!vm::machineModelByName(Opts.MachineName, VO.Model))
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
