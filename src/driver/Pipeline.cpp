//===- driver/Pipeline.cpp ------------------------------------*- C++ -*-===//

#include "driver/Pipeline.h"

#include "analysis/Mutate.h"
#include "annotate/SourceCheck.h"
#include "cfront/Lexer.h"
#include "ir/Verify.h"
#include "support/FaultInject.h"
#include "support/Hash.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace gcsafe;
using namespace gcsafe::driver;

const char *gcsafe::driver::compileModeName(CompileMode Mode) {
  switch (Mode) {
  case CompileMode::O2: return "-O2";
  case CompileMode::O2Safe: return "-O2 safe";
  case CompileMode::O2SafePost: return "-O2 safe+postproc";
  case CompileMode::Debug: return "-g";
  case CompileMode::DebugChecked: return "-g checked";
  }
  return "?";
}

namespace {

/// Appends \p Diags to \p Out attributed to \p Pass: a verdict is a
/// function of the IR alone, the pass attribution is the caller's
/// pipeline position.
void replayDiags(const std::vector<analysis::SafetyDiag> &Diags,
                 const char *Pass, std::vector<analysis::SafetyDiag> &Out) {
  for (const analysis::SafetyDiag &D : Diags) {
    Out.push_back(D);
    Out.back().Pass = Pass;
  }
}

/// The memo key of \p F: a content hash of every field the verifier
/// reads, plus the kill-placement flag.
std::string memoKey(const ir::Function &F, bool KillPlacement) {
  support::ContentHasher H;
  auto Add = [&H](const auto &...V) { (H.update(&V, sizeof(V)), ...); };
  auto AddValue = [&](const ir::Value &V) {
    Add(V.Kind);
    if (!V.isNone())
      V.isReg() ? Add(V.Reg) : Add(V.Imm); // an FImm's bits
  };
  H.update(F.Name);
  Add(KillPlacement, F.NumRegs, F.FrameSize, F.ReturnsValue,
      F.ParamRegs.size());
  for (uint32_t P : F.ParamRegs)
    Add(P);
  for (const ir::BasicBlock &B : F.Blocks) {
    H.update(B.Name);
    Add(B.Insts.size());
    for (const ir::Instruction &I : B.Insts) {
      // Fields most instructions leave at their defaults enter only when
      // set, after a mask of the set groups that keeps the key unambiguous.
      bool Aux = I.Aux != 0, Jump = I.Blk1 || I.Blk2,
           Call = I.Callee != -1 || I.BuiltinCallee != ir::Builtin::None ||
                  !I.Args.empty();
      Add(I.Op, I.Size, I.SignedLoad, uint8_t(Aux | Jump << 1 | Call << 2),
          I.Loc, I.Dst);
      if (Aux)
        Add(I.Aux);
      if (Jump)
        Add(I.Blk1, I.Blk2);
      if (Call)
        Add(I.Callee, I.BuiltinCallee, I.Args.size());
      for (const ir::Value *V : {&I.A, &I.B, &I.C})
        AddValue(*V);
      for (const ir::Value &V : I.Args)
        AddValue(V);
    }
  }
  return H.hex();
}

} // namespace

bool VerifyMemo::lookup(const std::string &Key, const char *Pass,
                        std::vector<analysis::SafetyDiag> &Out,
                        bool &OkOut) {
  support::RankedGuard Lock(Mu);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  OkOut = It->second.Ok;
  replayDiags(It->second.Diags, Pass, Out);
  return true;
}

void VerifyMemo::insert(const std::string &Key, bool Ok,
                        std::vector<analysis::SafetyDiag> Diags) {
  support::RankedGuard Lock(Mu);
  if (Map.size() >= MaxEntries)
    Map.clear();
  Map.emplace(Key, Entry{Ok, std::move(Diags)});
}

size_t VerifyMemo::entries() const {
  support::RankedGuard Lock(Mu);
  return Map.size();
}

bool gcsafe::driver::verifyFunctionSafetyMemo(
    VerifyMemo *Memo, const ir::Function &F,
    const analysis::SafetyVerifyOptions &Options,
    std::vector<analysis::SafetyDiag> &Out) {
  if (!Memo)
    return analysis::verifyFunctionSafety(F, Options, Out);
  std::string Key = memoKey(F, Options.CheckKillPlacement);
  bool Ok = true;
  if (Memo->lookup(Key, Options.Pass, Out, Ok))
    return Ok;
  std::vector<analysis::SafetyDiag> Fresh;
  Ok = analysis::verifyFunctionSafety(F, Options, Fresh);
  Memo->insert(Key, Ok, Fresh);
  for (analysis::SafetyDiag &D : Fresh)
    Out.push_back(std::move(D));
  return Ok;
}

namespace {

/// The one place an optimizer pass runs (docs/ROBUSTNESS.md §5). The
/// optimizer supplies the pass order (opt::pipeline); the runner owns
/// everything around each pass: quarantine, snapshot, timing and span,
/// the mutators, the commit gate, rollback or commit with the
/// "opt.*"/"robust.*" stats, and the each-pass checkpoint.
class PassRunner {
public:
  PassRunner(const CompileOptions &Options, CompileResult &Result)
      : Options(Options), Result(Result), Txn(Options.Txn),
        EachPass(Options.Verify == SafetyVerify::EachPass) {
    if (Txn && Txn->Faults) {
      CorruptSite = Txn->Faults->siteId("opt.pass.corrupt");
      VerifyTimeoutSite = Txn->Faults->siteId("analysis.verify.timeout");
    }
  }

  /// Safety verifier layers 1 (and 2 with \p KillPlacement) into
  /// Result.SafetyDiags, counted for "analysis.verify.*".
  void checkSafety(const ir::Function &F, const char *Pass,
                   bool KillPlacement) {
    uint64_t StartNs = support::monotonicNowNs();
    size_t Before = Result.SafetyDiags.size();
    verify(F, Pass, KillPlacement, Result.SafetyDiags);
    uint64_t ElapsedNs = support::monotonicNowNs() - StartNs;
    SafetyNs += ElapsedNs;
    ++SafetyRuns;
    if (Options.Trace && Result.SafetyDiags.size() != Before)
      Options.Trace->span("analysis", Pass, StartNs, ElapsedNs,
                          unsigned(Result.SafetyDiags.size() - Before), 0,
                          F.Name);
  }

  /// Runs \p Steps over every function of the module, then records the
  /// "opt.total.*" stats.
  void optimize(std::span<const opt::PassStep> Steps) {
    uint64_t StartNs = support::monotonicNowNs();
    opt::PassStats &Total = Result.OptStats;
    for (ir::Function &F : Result.Module.Functions) {
      opt::removeUnreachableBlocks(F);
      // The (entry) checkpoint: the KEEP_LIVE baseline.
      if (Txn || EachPass)
        Continuity.record(F);
      for (const opt::PassStep &Step : Steps)
        run(Step, F, Total);
    }
    Result.Stats.add("opt.total.ns", support::monotonicNowNs() - StartNs);
    Result.Stats.add("opt.total.functions", Result.Module.Functions.size());
    for (const auto &E : Total.entries())
      Result.Stats.add(std::string("opt.total.") + E.first, E.second);
  }

  uint64_t SafetyNs = 0;
  unsigned SafetyRuns = 0;

private:
  /// The one entry point of the safety verifier: an IR equal to the one
  /// this function was last verified on (with the same kill-placement
  /// flag) replays that verdict, attributed to \p Pass; any other goes
  /// through the memo and is kept for the next call.
  bool verify(const ir::Function &F, const char *Pass, bool KillPlacement,
              std::vector<analysis::SafetyDiag> &Out) {
    Verdict &V = LastVerified[KillPlacement][F.Name];
    if (V.IR != F) {
      analysis::SafetyVerifyOptions VO;
      VO.Pass = Pass;
      VO.CheckKillPlacement = KillPlacement;
      V.Diags.clear();
      V.Ok = verifyFunctionSafetyMemo(Options.Memo, F, VO, V.Diags);
      V.IR = F;
    }
    replayDiags(V.Diags, Pass, Out);
    return V.Ok;
  }

  void run(const opt::PassStep &Step, ir::Function &F, opt::PassStats &Total) {
    const char *Name = Step.Name;
    // 1. A quarantined pass is skipped.
    if (Txn && Txn->Quarantine.count(Name)) {
      Result.Stats.add("robust.quarantine_skips");
      return;
    }
    // 2. The snapshot a veto rolls back to.
    ir::Function Snapshot;
    if (Txn)
      Snapshot = F;
    // 3. The timed run; a changing invocation records its span as it
    // closes, so a rollback below follows it as its own event.
    opt::PassStats Delta;
    uint64_t StartNs = support::monotonicNowNs();
    Step.Run(F, Delta);
    uint64_t ElapsedNs = support::monotonicNowNs() - StartNs;
    if (Options.Trace && Delta.total())
      Options.Trace->span("pass", Name, StartNs, ElapsedNs, Delta.total(), 0,
                          F.Name);
    // 4. The test mutator emulating a buggy pass, then the corruption
    // failpoint.
    if (Options.PassMutator)
      Options.PassMutator(Name, F);
    if (Txn && Txn->Faults && Txn->Faults->shouldFail(CorruptSite))
      corrupt(Name, F);
    // 5. The commit gate.
    std::string Reason = Txn ? gate(Name, F, ElapsedNs) : std::string();
    // 6. Rollback or commit.
    if (!Reason.empty()) {
      F = std::move(Snapshot);
      Continuity.record(F);
      Txn->Quarantine.insert(Name);
      Txn->Rollbacks.push_back({Name, F.Name, Reason, ElapsedNs});
      Result.Stats.add("robust.rollbacks");
      Result.Stats.add(std::string("robust.rollback.") + Name);
      if (Options.Trace)
        Options.Trace->emit("robust", "pass.rollback", ElapsedNs, 0,
                            std::string(Name) + " in " + F.Name + ": " +
                                Reason);
    } else {
      Total.accumulate(Delta);
      std::string Prefix = std::string("opt.") + Name + ".";
      Result.Stats.add(Prefix + "runs");
      Result.Stats.add(Prefix + "ns", ElapsedNs);
      for (const auto &E : Delta.entries())
        if (E.second)
          Result.Stats.add(Prefix + E.first, E.second);
    }
    // 7. The each-pass checkpoint sees the committed state, so a
    // violation is attributed to the pass that just ran. A state the gate
    // committed has just passed layer 1 (and more) on this exact IR, so
    // its checkpoint counts the run and finds nothing without verifying
    // again; a rolled-back state is verified. Under a gate, continuity
    // needs no second check: the gate vetoed any drop and a rollback
    // restored the baseline.
    if (EachPass) {
      if (Txn && Reason.empty())
        ++SafetyRuns;
      else
        checkSafety(F, Name, /*KillPlacement=*/false);
      if (!Txn)
        Continuity.check(F, Name, Result.SafetyDiags);
    }
    if (Options.VerifyIREachPass)
      ir::verifyFunction(F, Result.IRVerifyErrors, Name);
  }

  /// Applies one Mutate.h corruption operator, drawn by the injector.
  void corrupt(const char *Pass, ir::Function &F) {
    std::vector<analysis::Mutation> Ms =
        analysis::enumerateFunctionMutations(F);
    if (Txn->CorruptKind >= 0)
      std::erase_if(Ms, [&](const analysis::Mutation &Mu) {
        return static_cast<int>(Mu.Kind) != Txn->CorruptKind;
      });
    if (Ms.empty())
      return;
    const analysis::Mutation &Mu = Ms[Txn->Faults->draw() % Ms.size()];
    if (!analysis::applyMutation(F, Mu))
      return;
    ++Txn->CorruptionsApplied;
    Result.Stats.add("robust.fault.pass_corrupt");
    if (Options.Trace)
      Options.Trace->emit("robust", "fault.pass_corrupt", 0,
                          static_cast<unsigned>(Mu.Kind),
                          std::string(Pass) + ": " + Mu.Description);
  }

  /// The veto reason for \p F after \p Pass, or empty to commit. A blown
  /// deadline vetoes before the verifier-timeout failpoint is drawn.
  std::string gate(const char *Pass, const ir::Function &F,
                   uint64_t ElapsedNs) {
    if (Txn->PassDeadlineNs && ElapsedNs > Txn->PassDeadlineNs)
      return "deadline";
    if (Txn->Faults && Txn->Faults->shouldFail(VerifyTimeoutSite))
      return "verify_timeout";
    std::vector<analysis::SafetyDiag> Diags;
    if (!verify(F, Pass, std::strcmp(Pass, "insert_kills") == 0, Diags))
      return "verify_failed:" + Diags.front().Kind;
    std::vector<std::string> IRErrors;
    if (!ir::verifyFunction(F, IRErrors, Pass))
      return "ir_verify_failed";
    // A KEEP_LIVE that vanished while its derived value still has uses
    // is invisible to the point checks (the kill audit diffs only
    // recomputed-vs-actual kills); the pass-to-pass continuity snapshot
    // is what catches a deleted annotation. A veto re-records the
    // restored function.
    Continuity.check(F, Pass, Diags);
    if (!Diags.empty())
      return "verify_failed:" + Diags.front().Kind;
    return "";
  }

  const CompileOptions &Options;
  CompileResult &Result;
  PassTransactions *Txn;
  const bool EachPass;
  size_t CorruptSite = 0, VerifyTimeoutSite = 0;
  /// Per-function KEEP_LIVE snapshots of the last committed state.
  analysis::KeepLiveContinuity Continuity;
  struct Verdict {
    ir::Function IR; ///< Empty (no name) until the first verify.
    bool Ok = true;
    std::vector<analysis::SafetyDiag> Diags;
  };
  /// Per kill-placement flag, each function's last verified IR.
  std::unordered_map<std::string, Verdict> LastVerified[2];
};

} // namespace

Compilation::Compilation(std::string Name, std::string Source)
    : Buffer(std::move(Name), std::move(Source)) {
  Actions = std::make_unique<cfront::Sema>(Types, Diags, NodeArena);
}

Compilation::~Compilation() = default;

bool Compilation::parse() {
  if (Parsed)
    return ParseOk;
  Parsed = true;
  ParseStartNs = support::monotonicNowNs();
  Actions->declareRuntimeBuiltins(TU);
  cfront::Lexer Lex(Buffer, Diags);
  cfront::Parser P(Lex.lexAll(), *Actions);
  P.parseTranslationUnit(TU);
  ParseOk = !Diags.hasErrors();
  if (ParseOk)
    annotate::runSourceChecks(TU, Diags); // hidden-pointer hazard warnings
  ParseNs = support::monotonicNowNs() - ParseStartNs;
  return ParseOk;
}

annotate::AnnotationMap
Compilation::annotate(const annotate::AnnotatorOptions &Options) {
  parse();
  return annotate::annotateTranslationUnit(TU, Options);
}

std::string
Compilation::annotatedSource(annotate::AnnotationMode Mode,
                             const annotate::AnnotatorOptions &Options) {
  annotate::AnnotationMap Map = annotate(Options);
  return annotate::renderAnnotatedSource(Buffer, Map, Mode);
}

CompileResult Compilation::compile(const CompileOptions &Options) {
  CompileResult Result;
  auto Phase = [&](const char *Name, uint64_t StartNs) {
    uint64_t Ns = support::monotonicNowNs() - StartNs;
    Result.Stats.add(std::string("phase.") + Name + "_ns", Ns);
    if (Options.Trace)
      Options.Trace->span("phase", Name, StartNs, Ns);
  };

  if (!parse()) {
    Result.Errors = renderedDiagnostics();
    return Result;
  }
  Result.Stats.add("phase.parse_ns", ParseNs);
  if (Options.Trace && !ParseTraced) { // A later compile reuses the parse.
    ParseTraced = true;
    Options.Trace->span("phase", "parse", ParseStartNs, ParseNs);
  }

  annotate::AnnotationMap Map;
  bool NeedsAnnotations = Options.Mode == CompileMode::O2Safe ||
                          Options.Mode == CompileMode::O2SafePost ||
                          Options.Mode == CompileMode::DebugChecked;
  if (NeedsAnnotations) {
    uint64_t StartNs = support::monotonicNowNs();
    Map = annotate::annotateTranslationUnit(TU, Options.Annot);
    Result.AnnotStats = Map.stats();
    Phase("annotate", StartNs);
  }

  ir::LowerOptions LO;
  switch (Options.Mode) {
  case CompileMode::O2:
    break;
  case CompileMode::O2Safe:
  case CompileMode::O2SafePost:
    LO.SafetyMode = ir::LowerOptions::Safety::KeepLive;
    LO.Annotations = &Map;
    break;
  case CompileMode::Debug:
    LO.AllVarsInMemory = true;
    break;
  case CompileMode::DebugChecked:
    LO.AllVarsInMemory = true;
    LO.SafetyMode = ir::LowerOptions::Safety::Checked;
    LO.Annotations = &Map;
    break;
  }

  uint64_t LowerStartNs = support::monotonicNowNs();
  Result.Module = ir::lowerTranslationUnit(TU, LO, Diags);
  Phase("lower", LowerStartNs);
  if (Diags.hasErrors()) {
    Result.Errors = renderedDiagnostics();
    return Result;
  }

  // Static GC-safety verification (docs/ANALYSIS.md). Layer 1 runs on
  // whatever IR exists at each checkpoint; the kill-placement audit
  // (layer 2) only once kills have been inserted, i.e. on the final
  // module.
  bool WantSafety = Options.Verify != SafetyVerify::None;
  PassRunner Runner(Options, Result);
  if (WantSafety)
    for (const ir::Function &F : Result.Module.Functions)
      Runner.checkSafety(F, "(lower)", /*KillPlacement=*/false);

  opt::OptLevel ModeLevel = (Options.Mode == CompileMode::Debug ||
                             Options.Mode == CompileMode::DebugChecked)
                                ? opt::OptLevel::O0
                                : opt::OptLevel::O2;
  opt::OptLevel Level = std::min(ModeLevel, Options.MaxOptLevel);
  bool Postprocess = Options.Mode == CompileMode::O2SafePost &&
                     Level == opt::OptLevel::O2;
  uint64_t OptStartNs = support::monotonicNowNs();
  Runner.optimize(opt::pipeline(Level, Postprocess));
  Phase("optimize", OptStartNs);
  if (Options.Txn) {
    Result.Stats.set("robust.quarantined", Options.Txn->Quarantine.size());
    for (const std::string &Q : Options.Txn->Quarantine)
      if (Options.Trace)
        Options.Trace->emit("robust", "pass.quarantine", 0, 0, Q);
  }

  // Under transactions the (final) verdict is the self-healing ladder's
  // commit test; it replays the commit gate's verdicts where the IR is
  // unchanged since the gate saw it.
  if (WantSafety || Options.Txn) {
    // A transactionally quarantined insert_kills leaves registers unkilled
    // — pure false retention, which the placement audit would flag on
    // every register; skip layer 2 in that (already-degraded) case.
    bool KillAudit =
        !Options.Txn || !Options.Txn->Quarantine.count("insert_kills");
    for (const ir::Function &F : Result.Module.Functions)
      Runner.checkSafety(F, "(final)", KillAudit);
    Result.SafetyOk = Result.SafetyDiags.empty();
    Result.Stats.add("analysis.verify.runs", Runner.SafetyRuns);
    Result.Stats.add("analysis.verify.diags", Result.SafetyDiags.size());
    Result.Stats.add("analysis.verify.ns", Runner.SafetyNs);
  }

#ifndef NDEBUG
  {
    uint64_t VerifyStartNs = support::monotonicNowNs();
    std::vector<std::string> VerifyErrors;
    bool Verified = ir::verifyModule(Result.Module, VerifyErrors);
    Phase("verify", VerifyStartNs);
    assert(Verified && "optimized module failed IR verification");
    (void)Verified;
  }
#endif

  for (const ir::Function &F : Result.Module.Functions)
    if (F.Name != "__globals_init")
      Result.CodeSizeUnits += ir::functionSizeUnits(F);

  Result.Ok = true;
  return Result;
}

support::Json gcsafe::driver::buildRunReport(const std::string &Input,
                                             CompileMode Mode,
                                             const std::string &Machine,
                                             const CompileResult &CR,
                                             const vm::RunResult *Run) {
  using support::Json;
  Json Root = Json::object();
  Root["schema"] = Json::string("gcsafe-run-report-v2");
  Root["input"] = Json::string(Input);
  Root["mode"] = Json::string(compileModeName(Mode));
  Root["machine"] = Json::string(Machine);

  Json Compile = Json::object();
  Compile["ok"] = Json::boolean(CR.Ok);
  Compile["code_size_units"] = Json::integer(uint64_t(CR.CodeSizeUnits));

  Json StatsTree = CR.Stats.toJson();
  if (const Json *Phases = StatsTree.get("phase"))
    Compile["phases_ns"] = *Phases;
  else
    Compile["phases_ns"] = Json::object();

  const annotate::AnnotatorStats &A = CR.AnnotStats;
  Json Annot = Json::object();
  Annot["keep_lives"] = Json::integer(uint64_t(A.KeepLives));
  Annot["incdec_expansions"] = Json::integer(uint64_t(A.IncDecExpansions));
  Annot["compound_assign_expansions"] =
      Json::integer(uint64_t(A.CompoundAssignExpansions));
  Annot["temps_introduced"] = Json::integer(uint64_t(A.TempsIntroduced));
  Annot["skipped_copies"] = Json::integer(uint64_t(A.SkippedCopies));
  Annot["skipped_call_results"] =
      Json::integer(uint64_t(A.SkippedCallResults));
  Annot["skipped_non_heap"] = Json::integer(uint64_t(A.SkippedNonHeap));
  Annot["skipped_at_calls_only"] =
      Json::integer(uint64_t(A.SkippedAtCallsOnly));
  Annot["slow_base_substitutions"] =
      Json::integer(uint64_t(A.SlowBaseSubstitutions));
  Annot["unhandled_complex_lvalues"] =
      Json::integer(uint64_t(A.UnhandledComplexLValues));
  Compile["annotator"] = std::move(Annot);

  if (const Json *Opt = StatsTree.get("opt"))
    Compile["passes"] = *Opt;
  else
    Compile["passes"] = Json::object();
  // Present only when the self-healing pipeline ran (gcsafe-cc
  // --self-heal): rollback/quarantine counters and the ladder outcome.
  if (const Json *Robust = StatsTree.get("robust"))
    Compile["robust"] = *Robust;
  Root["compile"] = std::move(Compile);

  if (Run) {
    const vm::RunResult &R = *Run;
    Json RJ = Json::object();
    RJ["ok"] = Json::boolean(R.Ok);
    RJ["exit_code"] = Json::integer(int64_t(R.ExitCode));
    if (R.WatchdogTimeout)
      RJ["watchdog_timeout"] = Json::boolean(true);
    if (!R.Error.empty())
      RJ["error"] = Json::string(R.Error);
    RJ["output"] = Json::string(R.Output);
    RJ["instructions"] = Json::integer(R.InstructionsExecuted);
    RJ["cycles"] = Json::integer(R.Cycles);
    RJ["vm_ns"] = Json::integer(R.RunNs);

    Json Attr = Json::object();
    Attr["user"] = Json::integer(R.userCycles());
    Attr["keep_live"] = Json::integer(R.KeepLiveCycles);
    Attr["checks"] = Json::integer(R.CheckCycles);
    Attr["allocator"] = Json::integer(R.AllocatorCycles);
    Attr["spill"] = Json::integer(R.SpillCycles);
    RJ["cycle_attribution"] = std::move(Attr);
    RJ["keep_lives_executed"] = Json::integer(R.KeepLiveExecuted);
    RJ["kills_executed"] = Json::integer(R.KillsExecuted);

    Json Checks = Json::object();
    Checks["performed"] = Json::integer(R.ChecksPerformed);
    Checks["violations"] = Json::integer(R.CheckViolations);
    Checks["freed_accesses"] = Json::integer(R.FreedAccesses);
    RJ["checks"] = std::move(Checks);

    const gc::CollectorStats &G = R.Gc;
    Json GJ = Json::object();
    GJ["collections"] = Json::integer(uint64_t(G.Collections));
    GJ["alloc_count"] = Json::integer(uint64_t(G.AllocationCount));
    GJ["alloc_bytes"] = Json::integer(uint64_t(G.BytesRequested));
    GJ["heap_pages"] = Json::integer(uint64_t(G.HeapPages));
    GJ["live_bytes_after_last_gc"] =
        Json::integer(uint64_t(G.LiveBytesAfterLastGC));
    GJ["freed_objects_last_gc"] =
        Json::integer(uint64_t(G.FreedObjectsLastGC));
    GJ["mark_ns"] = Json::integer(G.MarkNs);
    GJ["sweep_ns"] = Json::integer(G.SweepNs);
    GJ["words_scanned"] = Json::integer(G.WordsScanned);
    GJ["pointer_hits"] = Json::integer(G.PointerHits);
    GJ["marked_objects"] = Json::integer(G.MarkedObjects);
    GJ["interior_pointer_hits"] = Json::integer(G.InteriorPointerHits);
    GJ["false_retention_candidates"] =
        Json::integer(G.FalseRetentionCandidates);

    Json Oom = Json::object();
    Oom["emergency_collections"] = Json::integer(G.EmergencyCollections);
    Oom["retries"] = Json::integer(G.OomRetriesPerformed);
    Oom["callback_invocations"] = Json::integer(G.OomCallbackInvocations);
    Oom["alloc_failures"] = Json::integer(G.AllocFailures);
    Oom["faults_injected"] = Json::integer(G.FaultsInjected);
    Oom["segment_backoffs"] = Json::integer(G.SegmentBackoffs);
    GJ["oom"] = std::move(Oom);

    Json Audit = Json::object();
    Audit["runs"] = Json::integer(G.AuditsRun);
    Audit["violations"] = Json::integer(G.AuditViolations);
    GJ["audit"] = std::move(Audit);
    GJ["deadline_exceeded"] = Json::integer(G.GcDeadlineExceeded);
    RJ["gc"] = std::move(GJ);

    Root["run"] = std::move(RJ);
  }
  return Root;
}

support::Json gcsafe::driver::buildLintReport(const std::string &Input,
                                              CompileMode Mode,
                                              bool EachPass,
                                              const CompileResult &CR,
                                              const SourceBuffer *Buffer) {
  using support::Json;
  Json Root = Json::object();
  Root["schema"] = Json::string("gcsafe-lint-v1");
  Root["input"] = Json::string(Input);
  Root["mode"] = Json::string(compileModeName(Mode));
  Root["verify"] = Json::string(EachPass ? "each-pass" : "final");
  Root["clean"] = Json::boolean(CR.SafetyDiags.empty());

  Json Diags = Json::array();
  for (const analysis::SafetyDiag &D : CR.SafetyDiags) {
    Json J = Json::object();
    J["function"] = Json::string(D.Function);
    J["block"] = Json::integer(uint64_t(D.Block));
    J["index"] = Json::integer(uint64_t(D.Index));
    uint64_t Line = 0;
    if (Buffer && D.SrcOffset != ~0u && D.SrcOffset <= Buffer->size())
      Line = Buffer->lineColumn(SourceLocation(D.SrcOffset)).Line;
    J["line"] = Json::integer(Line);
    J["pass"] = Json::string(D.Pass);
    J["kind"] = Json::string(D.Kind);
    J["derived"] = Json::integer(
        D.Derived == ir::NoReg ? int64_t(-1) : int64_t(D.Derived));
    J["base"] =
        Json::integer(D.Base == ir::NoReg ? int64_t(-1) : int64_t(D.Base));
    J["message"] = Json::string(D.Message);
    Diags.push(std::move(J));
  }
  Root["diagnostics"] = std::move(Diags);
  return Root;
}

RoundTripResult gcsafe::driver::roundTripChecked(
    const std::string &Name, const std::string &Source,
    const vm::VMOptions &VMOpts, const annotate::AnnotatorOptions &Annot) {
  RoundTripResult Result;

  Compilation First(Name, Source);
  if (!First.parse()) {
    Result.Error = "original source failed to parse:\n" +
                   First.renderedDiagnostics();
    return Result;
  }
  Result.RenderedSource =
      First.annotatedSource(annotate::AnnotationMode::Checked, Annot);

  Compilation Second(Name + ".checked.c", Result.RenderedSource);
  CompileOptions CO;
  CO.Mode = CompileMode::Debug; // plain -g; the checks are source calls now
  CompileResult CR = Second.compile(CO);
  if (!CR.Ok) {
    Result.Error = "rendered checked source failed to compile:\n" +
                   CR.Errors + "\n--- rendered source ---\n" +
                   Result.RenderedSource;
    return Result;
  }
  vm::VM Machine(CR.Module, VMOpts);
  Result.Run = Machine.run();
  Result.Ok = Result.Run.Ok;
  if (!Result.Ok)
    Result.Error = Result.Run.Error;
  return Result;
}

vm::RunResult gcsafe::driver::compileAndRun(
    const std::string &Name, const std::string &Source, CompileMode Mode,
    const vm::VMOptions &VMOpts, const annotate::AnnotatorOptions &Annot) {
  Compilation C(Name, Source);
  CompileOptions CO;
  CO.Mode = Mode;
  CO.Annot = Annot;
  CompileResult CR = C.compile(CO);
  if (!CR.Ok) {
    vm::RunResult R;
    R.Ok = false;
    R.Error = "compilation failed:\n" + CR.Errors;
    return R;
  }
  vm::VM Machine(CR.Module, VMOpts);
  return Machine.run();
}
