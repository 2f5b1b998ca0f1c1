//===- driver/Request.h - One compile request, end to end ------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The re-entrant request surface of the driver (docs/SERVING.md). A
/// RequestContext owns every piece of state one compilation touches — the
/// Compilation, the fault injector, the self-heal ladder and its
/// quarantine set — so any number of requests can run concurrently in one
/// process without sharing anything but an (optional, thread-safe)
/// VerifyMemo and, when traced, the lock-free event ring. gcsafe-serve runs one context per request on its worker
/// pool; gcsafe-batch does the same, one forked sandbox per context.
///
/// The exit-code mapping is the gcsafe-cc contract (support/ExitCodes.h):
/// parse/compile/run errors are 1, safety violations 3, degraded success
/// 5, watchdog timeouts 6, and otherwise the guest program's own status.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_DRIVER_REQUEST_H
#define GCSAFE_DRIVER_REQUEST_H

#include "driver/Pipeline.h"
#include "driver/SelfHeal.h"
#include "support/FaultInject.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <memory>
#include <string>
#include <vector>

namespace gcsafe {
namespace driver {

/// Everything that parameterizes one compile request. The flag surface is
/// gcsafe-cc's, minus the output-routing options (a request's reports are
/// returned, not written to files).
struct RequestOptions {
  std::string Name = "<request>";
  /// Service-level trace identity (the serve protocol's request_id):
  /// client-supplied or generated at admission, echoed back on the
  /// response and stamped on every telemetry event the request produces.
  /// Deliberately NOT part of the cache key (serve::canonicalFlagString)
  /// — two requests differing only in id must share a cache entry.
  std::string RequestId;
  std::string Source;
  CompileMode Mode = CompileMode::O2Safe;
  annotate::AnnotatorOptions Annot;
  SafetyVerify Verify = SafetyVerify::None;
  bool VerifyIREachPass = false;
  /// Compile down the degradation ladder (docs/ROBUSTNESS.md §5,§7).
  bool SelfHeal = false;
  OptRung StartRung = OptRung::Full;
  uint64_t PassDeadlineNs = 0;
  /// "SEED:SPEC" failpoint spec (support/FaultInject.h), or empty. Parsed
  /// into a per-request injector — faults never leak across requests.
  std::string FailInjectSpec;
  int CorruptKind = -1;
  /// Execute the compiled module on the simulated machine.
  bool Run = false;
  std::string MachineName = "sparc10";
  uint64_t GcInstructionPeriod = 0;
  uint64_t GcAllocTrigger = 0;
  uint64_t GcCallPeriod = 0;
  uint64_t GcDeadlineNs = 0;
  uint64_t VmDeadlineNs = 0;
  /// Whole-request wall-clock budget (the serve protocol's deadline_ms).
  /// The service clamps the remaining budget into the pass/GC/VM watchdogs
  /// above and refuses to start (or to cache) a request past its deadline;
  /// 0 = no deadline. Relative to submission, not to execution start.
  uint64_t DeadlineNs = 0;
  /// Ring size for a harness that traces one request into its own ring
  /// (perfbench/TraceRun.cpp reads it; the driver and the service do not).
  size_t TraceCapacity = 4096;
  /// Shared cross-request verification memo (may be null).
  VerifyMemo *Memo = nullptr;
};

/// The result of one request: the stable exit code, the degradation
/// outcome, and the reports a client would otherwise get from gcsafe-cc's
/// --stats-json / --lint-json.
struct RequestOutcome {
  int ExitCode = 0;
  bool Ok = false;
  /// Self-heal only: result obtained through rollback/quarantine/descent.
  bool Degraded = false;
  /// Ladder rung the result committed at ("full" when SelfHeal is off).
  std::string Rung = "full";
  std::vector<std::string> Quarantined;
  std::string Error;
  /// gcsafe-run-report-v2 (always present on a compile that got that far).
  support::Json Report;
  bool HasReport = false;
  /// gcsafe-lint-v1 (present when Verify was requested).
  support::Json Lint;
  bool HasLint = false;
};

/// One request's private state. Not copyable; not shared across threads.
class RequestContext {
public:
  /// \p Trace, when non-null, receives the compile's and the run's
  /// events (the service's ring when it stitches traces); null traces
  /// nothing.
  explicit RequestContext(RequestOptions Opts,
                          support::TraceBuffer *Trace = nullptr);
  RequestContext(const RequestContext &) = delete;
  RequestContext &operator=(const RequestContext &) = delete;
  ~RequestContext();

  /// Frontend only; false on parse errors (Error holds the diagnostics).
  /// Idempotent — execute() reuses the parse.
  bool parse(std::string &Error);

  /// Middle end (+ VM when Opts.Run) with the gcsafe-cc exit-code
  /// contract. Safe to call without parse(); parse errors become an
  /// ExitError outcome.
  RequestOutcome execute();

  const RequestOptions &options() const { return Opts; }
  const SelfHealReport &healReport() const { return Heal; }

private:
  RequestOptions Opts;
  Compilation Comp;
  support::FaultInjector Faults;
  bool UseFaults = false;
  std::string FaultParseError;
  support::TraceBuffer *Trace;
  SelfHealReport Heal;
};

/// The build's cache-key fingerprint: the key-format version plus a
/// content hash of every file under src/ taken at build time, e.g.
/// "gcsafe-key-v2;build=<32hex>". Seeded into every ContentHasher that
/// computes a cache key (serve::CompileService) and stamped into every
/// serve::Store record, so a binary built from any other sources — a
/// changed annotator, pass, VM cost model, collector or report layout —
/// keys into a disjoint namespace and can never replay, or be replayed
/// from, a stale payload. Stable within one build, across processes and
/// machines.
const std::string &keyFingerprint();

/// Maps a --mode= value to a CompileMode ("o2", "safe", "safepost",
/// "debug", "checked"). False on unknown names.
bool parseCompileModeName(const std::string &Text, CompileMode &Out);
/// The inverse: the protocol/CLI token for \p Mode (not the display name
/// compileModeName returns).
const char *compileModeToken(CompileMode Mode);
/// True when \p Name is a known cost model (sparc2, sparc10, pentium90).
bool knownMachineName(const std::string &Name);

} // namespace driver
} // namespace gcsafe

#endif // GCSAFE_DRIVER_REQUEST_H
