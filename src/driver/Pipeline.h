//===- driver/Pipeline.h - End-to-end compilation pipelines ----*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Composes the frontend, annotator, lowering, optimizer and VM into the
/// compilation modes the paper measures:
///
///   O2           — optimized, *not* GC-safe (the baseline each table's
///                  slowdown percentages are relative to);
///   O2Safe       — "-O, safe": optimized with KEEP_LIVE annotations;
///   O2SafePost   — O2Safe plus the peephole postprocessor (the paper's
///                  "A Postprocessor" results);
///   Debug        — "-g": fully debuggable, all variables in memory,
///                  inherently GC-safe;
///   DebugChecked — "-g, checked": debuggable plus GC_same_obj /
///                  GC_pre_incr pointer-arithmetic checking.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_DRIVER_PIPELINE_H
#define GCSAFE_DRIVER_PIPELINE_H

#include "analysis/SafetyVerifier.h"
#include "annotate/Annotator.h"
#include "cfront/Parser.h"
#include "cfront/Sema.h"
#include "ir/IR.h"
#include "ir/Lower.h"
#include "opt/Passes.h"
#include "support/RankedMutex.h"
#include "support/Stats.h"
#include "support/Trace.h"
#include "vm/VM.h"

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

namespace gcsafe {
namespace support {
class FaultInjector;
} // namespace support

namespace driver {

enum class CompileMode {
  O2,
  O2Safe,
  O2SafePost,
  Debug,
  DebugChecked,
};

const char *compileModeName(CompileMode Mode);

/// When (and how often) the static GC-safety verifier runs during
/// compilation. See docs/ANALYSIS.md.
enum class SafetyVerify {
  None,     ///< Verifier off (default).
  Final,    ///< Once, on the fully optimized module.
  EachPass, ///< After lowering and after every optimizer pass — bisects
            ///< the offending pass when a violation appears.
};

/// Shared state of the self-healing transactional pipeline
/// (docs/ROBUSTNESS.md §5). One instance lives across the degradation
/// ladder's attempts, so a pass quarantined at one rung stays quarantined
/// at the next.
struct PassTransactions {
  /// Pass names vetoed by the commit gate; skipped from then on.
  std::set<std::string> Quarantine;
  /// Per-pass wall budget in ns (0 = none); exceeding it is a fault.
  uint64_t PassDeadlineNs = 0;
  /// Optional failpoints: "opt.pass.corrupt" applies one Mutate.h
  /// corruption operator to the function after a pass when it fires;
  /// "analysis.verify.timeout" makes the commit gate act as if the
  /// verifier timed out (conservative veto).
  support::FaultInjector *Faults = nullptr;
  /// Restrict injected corruption to one analysis::MutationKind
  /// (-1 = injector-drawn choice among all applicable operators).
  int CorruptKind = -1;
  /// Appended with one record per rollback, across all attempts.
  std::vector<opt::PassRollback> Rollbacks;
  /// Injected corruptions actually applied (a fire with no applicable
  /// mutation site applies nothing and is not counted).
  uint64_t CorruptionsApplied = 0;
};

/// Content-addressed memo of per-function safety-verifier results
/// (docs/SERVING.md). Keyed on a stable hash of the function's printed IR
/// plus the verification flags, so a function whose IR a pass left
/// untouched — the overwhelmingly common case under each-pass
/// verification — is never re-verified, within one compile or across
/// requests. Verification is a pure function of (IR, options), so a memo
/// shared across requests cannot leak per-request state; the recorded
/// diagnostics' pass attribution is rewritten to the querying pass on
/// replay. Thread-safe: one instance is shared by every worker of a
/// compile service (serve::CompileService).
class VerifyMemo {
public:
  /// True when a result for \p Key is recorded; appends the recorded
  /// diagnostics (re-attributed to \p Pass) to \p Out and returns the
  /// recorded verdict in \p OkOut.
  bool lookup(const std::string &Key, const char *Pass,
              std::vector<analysis::SafetyDiag> &Out, bool &OkOut);
  void insert(const std::string &Key, bool Ok,
              std::vector<analysis::SafetyDiag> Diags);

  uint64_t hits() const { return Hits.load(); }
  uint64_t misses() const { return Misses.load(); }
  size_t entries() const;

private:
  struct Entry {
    bool Ok = true;
    std::vector<analysis::SafetyDiag> Diags;
  };
  mutable support::RankedMutex Mu{support::LockRank::DriverVerifyMemo,
                                  "driver.verify_memo"};
  std::unordered_map<std::string, Entry> Map GCSAFE_GUARDED_BY(Mu);
  std::atomic<uint64_t> Hits{0}, Misses{0};
};

/// Runs the per-function safety verifier through \p Memo (when non-null):
/// a hit replays the recorded verdict and diagnostics, a miss verifies
/// and records. The memo key is the stable content hash of the printed
/// function IR plus the kill-placement flag.
bool verifyFunctionSafetyMemo(VerifyMemo *Memo, const ir::Function &F,
                              const analysis::SafetyVerifyOptions &Options,
                              std::vector<analysis::SafetyDiag> &Out);

struct CompileOptions {
  CompileMode Mode = CompileMode::O2;
  annotate::AnnotatorOptions Annot;
  /// Optional event sink: phase, pass and analysis spans are recorded here.
  support::TraceBuffer *Trace = nullptr;
  /// Static GC-safety verification (gcsafe-cc --verify-safety).
  SafetyVerify Verify = SafetyVerify::None;
  /// Run the structural IR verifier after every optimizer pass too
  /// (gcsafe-cc --verify-ir=each-pass); violations land in
  /// CompileResult::IRVerifyErrors with the pass name.
  bool VerifyIREachPass = false;
  /// Test hook forwarded to the optimizer: mutates the IR after the named
  /// pass, emulating a buggy optimization for verifier self-tests.
  std::function<void(const char *Pass, ir::Function &F)> PassMutator;
  /// Self-healing transaction context (driver/SelfHeal.h). When set,
  /// every optimizer pass runs transactionally: the safety verifier,
  /// structural IR verifier and KEEP_LIVE continuity check form the
  /// commit gate, and a vetoed pass is rolled back and quarantined.
  PassTransactions *Txn = nullptr;
  /// Degradation-ladder ceiling on the optimizer: the pipeline never runs
  /// above this level regardless of Mode.
  opt::OptLevel MaxOptLevel = opt::OptLevel::O2;
  /// Optional per-function verification memo (docs/SERVING.md). When set,
  /// every safety-verifier invocation — the each-pass checkpoints and the
  /// transactional commit gate — first consults the memo by content hash.
  VerifyMemo *Memo = nullptr;
};

struct CompileResult {
  bool Ok = false;
  std::string Errors;
  ir::Module Module;
  unsigned CodeSizeUnits = 0; ///< Processed code only (no runtime).
  annotate::AnnotatorStats AnnotStats;
  opt::PassStats OptStats;
  /// Phase wall times ("phase.parse_ns", "phase.annotate_ns",
  /// "phase.lower_ns", "phase.optimize_ns", "phase.verify_ns") plus the
  /// optimizer's per-pass counters ("opt.<pass>.*", "opt.total.*") and,
  /// when the safety verifier ran, "analysis.verify.*". See
  /// docs/OBSERVABILITY.md.
  support::Stats Stats;
  /// Static safety verifier results (empty/true unless Verify was set).
  std::vector<analysis::SafetyDiag> SafetyDiags;
  bool SafetyOk = true;
  /// Structural IR verifier violations from VerifyIREachPass.
  std::vector<std::string> IRVerifyErrors;
};

/// One source file's frontend state; reusable across modes (the AST is
/// parsed once, annotated and lowered per mode).
class Compilation {
public:
  Compilation(std::string Name, std::string Source);
  Compilation(const Compilation &) = delete;
  Compilation &operator=(const Compilation &) = delete;
  ~Compilation();

  /// Lex + parse + typecheck; returns false on errors.
  bool parse();

  const cfront::TranslationUnit &tu() const { return TU; }
  const SourceBuffer &buffer() const { return Buffer; }
  DiagnosticsEngine &diags() { return Diags; }
  std::string renderedDiagnostics() const { return Diags.render(Buffer); }

  /// Runs the annotator and renders the annotated C source (the paper's
  /// preprocessor output).
  std::string annotatedSource(annotate::AnnotationMode Mode,
                              const annotate::AnnotatorOptions &Options = {});

  /// Runs the annotator alone (for inspection/tests).
  annotate::AnnotationMap annotate(const annotate::AnnotatorOptions &Options = {});

  /// Full middle-end for one mode.
  CompileResult compile(const CompileOptions &Options);

private:
  SourceBuffer Buffer;
  DiagnosticsEngine Diags;
  Arena NodeArena;
  cfront::TypeContext Types;
  std::unique_ptr<cfront::Sema> Actions;
  cfront::TranslationUnit TU;
  bool Parsed = false;
  bool ParseOk = false;
  uint64_t ParseStartNs = 0;
  uint64_t ParseNs = 0; ///< Wall time of the (single) frontend pass.
  bool ParseTraced = false; ///< The parse span is in a ring already.
};

/// Convenience: parse, compile in \p Mode, run under \p VMOpts. On frontend
/// or middle-end failure returns a RunResult with Ok=false and the
/// diagnostics in Error.
vm::RunResult compileAndRun(const std::string &Name,
                            const std::string &Source, CompileMode Mode,
                            const vm::VMOptions &VMOpts = {},
                            const annotate::AnnotatorOptions &Annot = {});

/// The source-level checking path, end to end: annotate in Checked mode,
/// render the (plain ANSI C) preprocessor output, re-parse it with a fresh
/// frontend as if it were any user program, compile it debuggable, and run
/// it — the GC_same_obj / GC_pre_incr / GC_post_incr calls in the rendered
/// text drive the collector's checker at run time. This validates the
/// paper's claim that "it should be possible to make the output in
/// source-code-checking mode usable with any ANSI C compiler".
struct RoundTripResult {
  bool Ok = false;
  std::string Error;
  std::string RenderedSource;
  vm::RunResult Run;
};

RoundTripResult roundTripChecked(const std::string &Name,
                                 const std::string &Source,
                                 const vm::VMOptions &VMOpts = {},
                                 const annotate::AnnotatorOptions &Annot = {});

/// Serializes one compilation (and optionally its execution) into the
/// gcsafe-run-report-v2 JSON schema documented in docs/OBSERVABILITY.md:
/// per-pass optimizer counters, phase wall times, annotator statistics,
/// and — when \p Run is non-null — VM cycle attribution plus the
/// collector's cumulative counters (per-collection timing lives in the
/// trace's gc spans). This is the document behind gcsafe-cc --stats-json.
support::Json buildRunReport(const std::string &Input, CompileMode Mode,
                             const std::string &Machine,
                             const CompileResult &CR,
                             const vm::RunResult *Run);

/// Serializes the safety verifier's diagnostics into the gcsafe-lint-v1
/// JSON schema (docs/ANALYSIS.md) behind gcsafe-cc --lint-json. When
/// \p Buffer is non-null, diagnostics carrying a source offset gain a
/// 1-based "line"; unknown locations serialize as line 0.
support::Json buildLintReport(const std::string &Input, CompileMode Mode,
                              bool EachPass, const CompileResult &CR,
                              const SourceBuffer *Buffer);

} // namespace driver
} // namespace gcsafe

#endif // GCSAFE_DRIVER_PIPELINE_H
