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
/// gcsafe-cc is a client too: it keeps its own flags, the source-only
/// outputs and output routing, and takes everything from compile to exit
/// code from execute(). That makes this file the one copy of the exit-code
/// contract (support/ExitCodes.h): parse/compile/run errors and heap-audit
/// violations are 1, safety violations 3, degraded success 5, watchdog
/// timeouts 6, and otherwise the guest program's own status.
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
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gcsafe {
namespace driver {

/// Everything that parameterizes one compile request; each knob is a row
/// of requestFields(). Output routing is not here: a request's reports are
/// returned, not written to files.
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

/// One compile knob of RequestOptions as every surface spells it: the
/// gcsafe-cc and gcsafe-batch flags, the serve protocol's JSON keys and the
/// cache key all read requestFields(), so a knob added as a row is accepted
/// and keyed everywhere. Name, RequestId and Source label or carry a
/// request and are not rows.
struct RequestField {
  enum Kind : uint8_t {
    Switch, ///< --flag; JSON true
    Name,   ///< --flag=TEXT; JSON string
    Count,  ///< --flag=N; JSON number
    Millis, ///< --flag=MS; JSON number; stored in ns
  };
  const char *Flag;  ///< CLI spelling without "=VALUE"; null: protocol only
  const char *Key;   ///< the serve protocol's JSON key
  const char *Token; ///< the field's name in the canonical flag string
  Kind K;
  /// Switch/Name: sets the field from \p Text (null for a Switch) as
  /// surface \p Json spells it. False: unknown text.
  bool (*Parse)(RequestOptions &O, const char *Text, bool Json) = nullptr;
  /// Switch/Name: appends the field's canonical value.
  void (*Print)(const RequestOptions &O, std::string &Out) = nullptr;
  uint64_t RequestOptions::*Num = nullptr; ///< Count/Millis: the field
  bool Batch = false; ///< gcsafe-batch takes the flag too
  bool Heals = false; ///< setting the field turns on SelfHeal
  const char *Bare = nullptr; ///< Name: what a bare CLI flag means, if any
};

/// The rows, in canonical-flag-string order.
std::span<const RequestField> requestFields();

/// The gcsafe tools' one flag matcher: true when \p Arg is "NAME=VALUE"
/// for \p Name, with \p Value pointing at VALUE.
bool flagValue(const char *Arg, const char *Name, const char *&Value);

/// Applies \p Arg if it spells a request field (\p Batch: one gcsafe-batch
/// takes). False if it spells none; true with \p Error on an unknown value.
bool parseRequestFlag(const char *Arg, RequestOptions &O, std::string &Error,
                      bool Batch = false);

/// Applies every request field the JSON object \p J holds; a value of the
/// wrong JSON type is ignored. False, with \p Error, on an unknown value.
bool parseRequestFields(const support::Json &J, RequestOptions &O,
                        std::string &Error);

/// "mode=safe;machine=sparc10;...": every row's token and value in table
/// order, the flag half of the cache key (docs/SERVING.md §3).
std::string canonicalFlagString(const RequestOptions &O);

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
  /// The compile, once the frontend parsed, and the run, when the VM ran:
  /// what gcsafe-cc's --dump-ir, --stats and audit and fault summaries
  /// print from.
  CompileResult Compile;
  std::optional<vm::RunResult> Run;
};

/// One request's private state. Not copyable; not shared across threads.
class RequestContext {
public:
  /// \p Trace, when non-null, receives the compile's and the run's
  /// events (the service's ring when it stitches traces); null traces
  /// nothing. \p Host carries the VM settings the wire format does not
  /// (OOM policy and retries, heap-page cap, heap audit, profiler).
  /// execute() overwrites its Model, GC schedule (GcInstructionPeriod,
  /// GcAllocTrigger, GcCallPeriod), GcDeadlineNs, VmDeadlineNs, Trace and
  /// Faults from the request, so whatever the caller set there is ignored.
  explicit RequestContext(RequestOptions Opts,
                          support::TraceBuffer *Trace = nullptr,
                          vm::VMOptions Host = {});
  RequestContext(const RequestContext &) = delete;
  RequestContext &operator=(const RequestContext &) = delete;
  ~RequestContext();

  /// Middle end (+ VM when Opts.Run) with the gcsafe-cc exit-code
  /// contract. Parses first if nobody has; parse errors become an
  /// ExitError outcome.
  RequestOutcome execute();

  const RequestOptions &options() const { return Opts; }
  const SelfHealReport &healReport() const { return Heal; }
  /// The frontend: parse() it for the source-only outputs (annotated
  /// source, AST, edits) or to learn whether the source parses; execute()
  /// reuses that parse.
  Compilation &compilation() { return Comp; }
  const support::FaultInjector &faults() const { return Faults; }

private:
  RequestOptions Opts;
  vm::VMOptions Host;
  Compilation Comp;
  support::FaultInjector Faults;
  bool UseFaults = false;
  std::string FaultParseError;
  support::TraceBuffer *Trace;
  SelfHealReport Heal;
};

/// The build's cache-key fingerprint: the key-format version plus a
/// content hash of every file under src/ taken at build time, e.g.
/// "gcsafe-key-v3;build=<32hex>". Seeded into every ContentHasher that
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

/// "heap audit found N violation(s) over M audit(s)": execute()'s error
/// for a run whose heap audit failed, and gcsafe-cc's stderr line for it.
std::string heapAuditSummary(const gc::CollectorStats &Gc);

} // namespace driver
} // namespace gcsafe

#endif // GCSAFE_DRIVER_REQUEST_H
