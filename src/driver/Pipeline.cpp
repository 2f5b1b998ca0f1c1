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
  for (analysis::SafetyDiag D : It->second.Diags) {
    // The verdict is a function of the IR alone; the pass attribution is
    // the caller's pipeline position, so rewrite it on replay.
    D.Pass = Pass;
    Out.push_back(std::move(D));
  }
  return true;
}

void VerifyMemo::insert(const std::string &Key, bool Ok,
                        std::vector<analysis::SafetyDiag> Diags) {
  support::RankedGuard Lock(Mu);
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
  std::string Key = support::contentHash(ir::printFunction(F));
  if (Options.CheckKillPlacement)
    Key += "+kp";
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

Compilation::Compilation(std::string Name, std::string Source)
    : Buffer(std::move(Name), std::move(Source)) {
  Actions = std::make_unique<cfront::Sema>(Types, Diags, NodeArena);
}

Compilation::~Compilation() = default;

bool Compilation::parse() {
  if (Parsed)
    return ParseOk;
  Parsed = true;
  uint64_t StartNs = support::monotonicNowNs();
  Actions->declareRuntimeBuiltins(TU);
  cfront::Lexer Lex(Buffer, Diags);
  cfront::Parser P(Lex.lexAll(), *Actions);
  P.parseTranslationUnit(TU);
  ParseOk = !Diags.hasErrors();
  if (ParseOk)
    annotate::runSourceChecks(TU, Diags); // hidden-pointer hazard warnings
  ParseNs = support::monotonicNowNs() - StartNs;
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
  auto Phase = [&](const char *Name, uint64_t Ns) {
    Result.Stats.add(std::string("phase.") + Name + "_ns", Ns);
    if (Options.Trace)
      Options.Trace->emit("phase", Name, Ns);
  };

  if (!parse()) {
    Result.Errors = renderedDiagnostics();
    return Result;
  }
  Phase("parse", ParseNs);

  annotate::AnnotationMap Map;
  bool NeedsAnnotations = Options.Mode == CompileMode::O2Safe ||
                          Options.Mode == CompileMode::O2SafePost ||
                          Options.Mode == CompileMode::DebugChecked;
  if (NeedsAnnotations) {
    uint64_t StartNs = support::monotonicNowNs();
    Map = annotate::annotateTranslationUnit(TU, Options.Annot);
    Result.AnnotStats = Map.stats();
    Phase("annotate", support::monotonicNowNs() - StartNs);
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
  Phase("lower", support::monotonicNowNs() - LowerStartNs);
  if (Diags.hasErrors()) {
    Result.Errors = renderedDiagnostics();
    return Result;
  }

  // Static GC-safety verification (docs/ANALYSIS.md). Layer 1 runs on
  // whatever IR exists at each checkpoint; the kill-placement audit
  // (layer 2) only once kills have been inserted, i.e. on the final
  // module.
  bool WantSafety = Options.Verify != SafetyVerify::None;
  uint64_t SafetyNs = 0;
  unsigned SafetyRuns = 0;
  auto CheckSafety = [&](const ir::Function &F, const char *Pass,
                         bool KillPlacement) {
    uint64_t StartNs = support::monotonicNowNs();
    analysis::SafetyVerifyOptions VO;
    VO.Pass = Pass;
    VO.CheckKillPlacement = KillPlacement;
    size_t Before = Result.SafetyDiags.size();
    verifyFunctionSafetyMemo(Options.Memo, F, VO, Result.SafetyDiags);
    uint64_t ElapsedNs = support::monotonicNowNs() - StartNs;
    SafetyNs += ElapsedNs;
    ++SafetyRuns;
    if (Options.Trace && Result.SafetyDiags.size() != Before)
      Options.Trace->emit("analysis", Pass, ElapsedNs,
                          unsigned(Result.SafetyDiags.size() - Before),
                          F.Name);
  };

  if (WantSafety)
    for (const ir::Function &F : Result.Module.Functions)
      CheckSafety(F, "(lower)", /*KillPlacement=*/false);

  opt::OptPipelineOptions PO;
  opt::OptLevel ModeLevel = (Options.Mode == CompileMode::Debug ||
                             Options.Mode == CompileMode::DebugChecked)
                                ? opt::OptLevel::O0
                                : opt::OptLevel::O2;
  PO.Level = std::min(ModeLevel, Options.MaxOptLevel);
  PO.Postprocess = Options.Mode == CompileMode::O2SafePost &&
                   PO.Level == opt::OptLevel::O2;
  PO.Stats = &Result.Stats;
  PO.Trace = Options.Trace;
  PO.PassMutator = Options.PassMutator;
  analysis::KeepLiveContinuity Continuity;
  bool EachPass = Options.Verify == SafetyVerify::EachPass;
  if (EachPass || Options.VerifyIREachPass)
    PO.PassCheck = [&](const char *Pass, const ir::Function &F) {
      if (std::strcmp(Pass, "(entry)") == 0) {
        if (EachPass)
          Continuity.record(F);
        return;
      }
      if (EachPass) {
        CheckSafety(F, Pass, /*KillPlacement=*/false);
        Continuity.check(F, Pass, Result.SafetyDiags);
      }
      if (Options.VerifyIREachPass)
        ir::verifyFunction(F, Result.IRVerifyErrors, Pass);
    };

  // Self-healing transactions (docs/ROBUSTNESS.md §5): the safety
  // verifier, structural IR verifier and KEEP_LIVE continuity check form
  // the commit gate for every pass; failpoints can corrupt a pass result
  // or simulate a verifier timeout.
  analysis::KeepLiveContinuity TxnContinuity;
  size_t CorruptSite = 0, VerifyTimeoutSite = 0;
  if (Options.Txn) {
    PassTransactions &Txn = *Options.Txn;
    if (Txn.Faults) {
      CorruptSite = Txn.Faults->siteId("opt.pass.corrupt");
      VerifyTimeoutSite = Txn.Faults->siteId("analysis.verify.timeout");
      auto UserMutator = PO.PassMutator;
      PO.PassMutator = [&Txn, &Result, UserMutator, CorruptSite,
                        &Options](const char *Pass, ir::Function &F) {
        if (UserMutator)
          UserMutator(Pass, F);
        if (!Txn.Faults->shouldFail(CorruptSite))
          return;
        std::vector<analysis::Mutation> Ms =
            analysis::enumerateFunctionMutations(F);
        if (Txn.CorruptKind >= 0) {
          Ms.erase(std::remove_if(Ms.begin(), Ms.end(),
                                  [&](const analysis::Mutation &Mu) {
                                    return static_cast<int>(Mu.Kind) !=
                                           Txn.CorruptKind;
                                  }),
                   Ms.end());
        }
        if (Ms.empty())
          return;
        const analysis::Mutation &Mu = Ms[Txn.Faults->draw() % Ms.size()];
        if (!analysis::applyMutation(F, Mu))
          return;
        ++Txn.CorruptionsApplied;
        Result.Stats.add("robust.fault.pass_corrupt");
        if (Options.Trace)
          Options.Trace->emit("robust", "fault.pass_corrupt", 0,
                              static_cast<unsigned>(Mu.Kind),
                              std::string(Pass) + ": " + Mu.Description);
      };
    }
    auto PrevCheck = PO.PassCheck;
    PO.PassCheck = [&TxnContinuity, PrevCheck](const char *Pass,
                                               const ir::Function &F) {
      // The transactional continuity baseline must track committed states
      // only; PassCheck runs after the commit/rollback decision.
      if (std::strcmp(Pass, "(entry)") == 0)
        TxnContinuity.record(F);
      if (PrevCheck)
        PrevCheck(Pass, F);
    };
    PO.Quarantine = &Txn.Quarantine;
    PO.PassDeadlineNs = Txn.PassDeadlineNs;
    PO.Rollbacks = &Txn.Rollbacks;
    PO.CommitGate = [&Txn, &TxnContinuity, VerifyTimeoutSite, &Options](
                        const char *Pass, const ir::Function &F,
                        std::string &Reason) {
      if (Txn.Faults && Txn.Faults->shouldFail(VerifyTimeoutSite)) {
        Reason = "verify_timeout";
        return false;
      }
      analysis::SafetyVerifyOptions VO;
      VO.Pass = Pass;
      VO.CheckKillPlacement = std::strcmp(Pass, "insert_kills") == 0;
      std::vector<analysis::SafetyDiag> Diags;
      if (!verifyFunctionSafetyMemo(Options.Memo, F, VO, Diags)) {
        Reason = "verify_failed:" + Diags.front().Kind;
        return false;
      }
      std::vector<std::string> IRErrors;
      if (!ir::verifyFunction(F, IRErrors, Pass)) {
        Reason = "ir_verify_failed";
        return false;
      }
      // A KEEP_LIVE that vanished while its derived value still has uses
      // is invisible to the point checks (the kill audit diffs only
      // recomputed-vs-actual kills); the pass-to-pass continuity snapshot
      // is what catches a deleted annotation. Check against a copy so a
      // veto leaves the baseline at the pre-pass (rolled-back) state.
      analysis::KeepLiveContinuity Candidate = TxnContinuity;
      Candidate.check(F, Pass, Diags);
      if (!Diags.empty()) {
        Reason = "verify_failed:" + Diags.front().Kind;
        return false;
      }
      TxnContinuity = std::move(Candidate);
      return true;
    };
  }
  uint64_t OptStartNs = support::monotonicNowNs();
  Result.OptStats = opt::optimizeModule(Result.Module, PO);
  Phase("optimize", support::monotonicNowNs() - OptStartNs);
  if (Options.Txn) {
    Result.Stats.set("robust.quarantined", Options.Txn->Quarantine.size());
    for (const std::string &Q : Options.Txn->Quarantine)
      if (Options.Trace)
        Options.Trace->emit("robust", "pass.quarantine", 0, 0, Q);
  }

  if (WantSafety) {
    // A transactionally quarantined insert_kills leaves registers unkilled
    // — pure false retention, which the placement audit would flag on
    // every register; skip layer 2 in that (already-degraded) case.
    bool KillAudit =
        !Options.Txn || !Options.Txn->Quarantine.count("insert_kills");
    for (const ir::Function &F : Result.Module.Functions)
      CheckSafety(F, "(final)", KillAudit);
    Result.SafetyOk = Result.SafetyDiags.empty();
    Result.Stats.add("analysis.verify.runs", SafetyRuns);
    Result.Stats.add("analysis.verify.diags", Result.SafetyDiags.size());
    Result.Stats.add("analysis.verify.ns", SafetyNs);
  }

#ifndef NDEBUG
  {
    uint64_t VerifyStartNs = support::monotonicNowNs();
    std::vector<std::string> VerifyErrors;
    bool Verified = ir::verifyModule(Result.Module, VerifyErrors);
    Phase("verify", support::monotonicNowNs() - VerifyStartNs);
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

namespace {

support::Json collectionEventToJson(const gc::CollectionEvent &E) {
  using support::Json;
  Json J = Json::object();
  J["index"] = Json::integer(E.Index);
  J["mark_ns"] = Json::integer(E.MarkNs);
  J["sweep_ns"] = Json::integer(E.SweepNs);
  J["pages_scanned"] = Json::integer(E.PagesScanned);
  J["words_scanned"] = Json::integer(E.WordsScanned);
  J["pointer_hits"] = Json::integer(E.PointerHits);
  J["marked_objects"] = Json::integer(E.MarkedObjects);
  J["freed_objects"] = Json::integer(E.FreedObjects);
  J["live_bytes"] = Json::integer(E.LiveBytes);
  J["interior_hits"] = Json::integer(E.InteriorHits);
  J["false_retention_candidates"] =
      Json::integer(E.FalseRetentionCandidates);
  return J;
}

} // namespace

support::Json gcsafe::driver::buildRunReport(const std::string &Input,
                                             CompileMode Mode,
                                             const std::string &Machine,
                                             const CompileResult &CR,
                                             const vm::RunResult *Run) {
  using support::Json;
  Json Root = Json::object();
  Root["schema"] = Json::string("gcsafe-run-report-v1");
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

    Json Events = Json::array();
    for (const gc::CollectionEvent &E : G.Events)
      Events.push(collectionEventToJson(E));
    GJ["events"] = std::move(Events);
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
