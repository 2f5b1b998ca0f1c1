//===- driver/SelfHeal.cpp ------------------------------------*- C++ -*-===//

#include "driver/SelfHeal.h"

#include "support/FaultInject.h"

#include <sstream>

using namespace gcsafe;
using namespace gcsafe::driver;

const char *gcsafe::driver::optRungName(OptRung R) {
  switch (R) {
  case OptRung::Full: return "full";
  case OptRung::Quarantined: return "quarantined";
  case OptRung::PeepholeOnly: return "peephole";
  case OptRung::Unoptimized: return "unoptimized";
  }
  return "?";
}

bool gcsafe::driver::parseOptRung(const std::string &Text, OptRung &Out) {
  for (OptRung R :
       {OptRung::Full, OptRung::PeepholeOnly, OptRung::Unoptimized})
    if (Text == optRungName(R)) {
      Out = R;
      return true;
    }
  return false;
}

OptRung gcsafe::driver::lowerRung(OptRung R) {
  switch (R) {
  case OptRung::Full:
  case OptRung::Quarantined:
    return OptRung::PeepholeOnly;
  case OptRung::PeepholeOnly:
  case OptRung::Unoptimized:
    return OptRung::Unoptimized;
  }
  return OptRung::Unoptimized;
}

namespace {

opt::OptLevel rungLevel(OptRung R) {
  switch (R) {
  case OptRung::Full:
  case OptRung::Quarantined:
    return opt::OptLevel::O2;
  case OptRung::PeepholeOnly:
    return opt::OptLevel::Peephole;
  case OptRung::Unoptimized:
    return opt::OptLevel::O0;
  }
  return opt::OptLevel::O0;
}

} // namespace

CompileResult
gcsafe::driver::compileSelfHealing(Compilation &C, const CompileOptions &Base,
                                   const SelfHealOptions &Options,
                                   SelfHealReport &Report) {
  PassTransactions Txn;
  Txn.PassDeadlineNs = Options.PassDeadlineNs;
  Txn.Faults = Options.Faults;
  Txn.CorruptKind = Options.CorruptKind;

  size_t VerifyTimeoutSite = 0;
  if (Options.Faults)
    VerifyTimeoutSite = Options.Faults->siteId("analysis.verify.timeout");

  OptRung Rung = Options.StartRung == OptRung::Quarantined
                     ? OptRung::Full
                     : Options.StartRung;
  CompileResult CR;
  for (;;) {
    ++Report.Attempts;
    CompileOptions O = Base;
    O.Txn = &Txn;
    O.MaxOptLevel = rungLevel(Rung);
    CR = C.compile(O);

    bool AtFloor = Rung == OptRung::Unoptimized;
    bool Committed = false;
    std::string Why;
    if (!CR.Ok) {
      Why = "compile_failed";
    } else if (Options.Faults &&
               Options.Faults->shouldFail(VerifyTimeoutSite)) {
      // Final per-rung verification "timed out". At the floor there is
      // nowhere left to descend and an unoptimized, transactionally
      // compiled module is the conservative result — accept it as a
      // degraded success rather than fail the compilation outright.
      Why = "verify_timeout";
      Committed = AtFloor;
    } else if (CR.SafetyOk) {
      Committed = true;
    } else {
      Why = "verify_failed:" + CR.SafetyDiags.front().Kind;
    }

    if (Committed || AtFloor) {
      Report.Ok = Committed;
      Report.Rung = Rung == OptRung::Full && !Txn.Quarantine.empty()
                        ? OptRung::Quarantined
                        : Rung;
      break;
    }

    OptRung Next = lowerRung(Rung);
    std::ostringstream OS;
    OS << "descend: " << optRungName(Rung) << " -> " << optRungName(Next)
       << " (" << Why << ")";
    Report.Log.push_back(OS.str());
    if (Base.Trace)
      Base.Trace->emit("robust", "ladder.descend",
                       static_cast<uint64_t>(Next),
                       static_cast<uint64_t>(Rung), OS.str());
    Rung = Next;
  }

  Report.Rollbacks = Txn.Rollbacks;
  Report.Quarantined.assign(Txn.Quarantine.begin(), Txn.Quarantine.end());
  for (const PassRollback &R : Txn.Rollbacks)
    Report.Log.push_back("rollback: " + R.Pass + " in " + R.Function + ": " +
                         R.Reason);
  Report.Degraded =
      !Txn.Rollbacks.empty() || Report.Rung != OptRung::Full || !Report.Ok;

  CR.Stats.set("robust.ladder.attempts", Report.Attempts);
  CR.Stats.set("robust.ladder.rung", static_cast<uint64_t>(Report.Rung));
  CR.Stats.setString("robust.ladder.rung_name", optRungName(Report.Rung));
  CR.Stats.set("robust.rollbacks_total", Txn.Rollbacks.size());
  CR.Stats.set("robust.degraded", Report.Degraded ? 1 : 0);
  if (Base.Trace)
    Base.Trace->emit("robust", "ladder.commit",
                     static_cast<uint64_t>(Report.Rung), Report.Attempts,
                     std::string(optRungName(Report.Rung)) +
                         (Report.Ok ? "" : " (failed)"));
  return CR;
}
