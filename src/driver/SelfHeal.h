//===- driver/SelfHeal.h - Degradation-ladder compilation ------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The self-healing compilation ladder (docs/ROBUSTNESS.md §5). A
/// compilation request enters at the top rung and descends one rung at a
/// time until the module passes final GC-safety verification:
///
///   Full         — the mode's normal pipeline, transactionally: every
///                  pass is snapshotted, commit-gated by the safety
///                  verifier + IR verifier + KEEP_LIVE continuity, and
///                  rolled back + quarantined on veto;
///   Quarantined  — not an attempt of its own: the reported rung when the
///                  Full attempt committed but one or more passes were
///                  quarantined along the way;
///   PeepholeOnly — copy coalescing and simplification only;
///   Unoptimized  — no optimization (kills still inserted). The ladder's
///                  guaranteed floor: a verifier *timeout* here is
///                  accepted (degraded success), a verifier *failure* is
///                  not.
///
/// Every descent, rollback and quarantine surfaces as "robust.*" stats
/// keys and cat="robust" trace events so a run report shows exactly how a
/// result was obtained.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_DRIVER_SELFHEAL_H
#define GCSAFE_DRIVER_SELFHEAL_H

#include "driver/Pipeline.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gcsafe {
namespace driver {

/// Rungs of the degradation ladder, best first. Numeric values are stable
/// (gcsafe-run-report-v2 "robust.ladder.rung").
enum class OptRung : uint8_t {
  Full = 0,
  Quarantined = 1,
  PeepholeOnly = 2,
  Unoptimized = 3,
};

const char *optRungName(OptRung R);

/// Parses a --opt-rung= value ("full", "peephole", "unoptimized") into an
/// entry rung. "quarantined" is not enterable (it is an outcome, not an
/// attempt) and is rejected. Returns false on unknown names.
bool parseOptRung(const std::string &Text, OptRung &Out);

struct SelfHealOptions {
  /// Rung the ladder starts at (a batch retry re-enters one rung lower).
  OptRung StartRung = OptRung::Full;
  /// Forwarded to PassTransactions::PassDeadlineNs.
  uint64_t PassDeadlineNs = 0;
  /// Forwarded to PassTransactions::Faults ("opt.pass.corrupt",
  /// "analysis.verify.timeout"); also consulted for the final per-rung
  /// verification's timeout failpoint.
  support::FaultInjector *Faults = nullptr;
  /// Forwarded to PassTransactions::CorruptKind.
  int CorruptKind = -1;
};

struct SelfHealReport {
  bool Ok = false;
  /// True when the result was obtained through any recovery action:
  /// a rollback happened, a pass is quarantined, or the ladder descended.
  bool Degraded = false;
  /// The rung the committed result was produced at.
  OptRung Rung = OptRung::Full;
  unsigned Attempts = 0;
  std::vector<opt::PassRollback> Rollbacks;
  std::vector<std::string> Quarantined;
  /// Human-readable event lines ("rollback: ...", "descend: ...").
  std::vector<std::string> Log;
};

/// Compiles \p C down the ladder. \p Base supplies the mode, annotator
/// options and trace sink; its Txn/MaxOptLevel fields are overwritten per
/// attempt. The returned CompileResult is the committed attempt's (or the
/// last attempt's, when every rung failed) and carries the
/// "robust.ladder.*" stats keys.
CompileResult compileSelfHealing(Compilation &C, const CompileOptions &Base,
                                 const SelfHealOptions &Options,
                                 SelfHealReport &Report);

} // namespace driver
} // namespace gcsafe

#endif // GCSAFE_DRIVER_SELFHEAL_H
