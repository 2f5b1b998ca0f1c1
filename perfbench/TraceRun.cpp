//===- perfbench/TraceRun.cpp - Per-layer spans, in-process ---------------===//
//
// Handles each generated request the way gcsafe-serve's worker does, but
// as a sequence of calls into each layer's public functions, and records a
// span around every call: serve (request parse, cache key, lookup, replay,
// insert, respond), cfront, annotate, rewrite, driver (compile, execute,
// report), ir (verify), vm. Inside driver::Compilation::compile and
// vm::VM::run the benchmark cannot place spans, so their children are
// derived from the numbers those calls already return: the phase and pass
// wall times in CompileResult::Stats (annotate, lower, optimize, verify)
// and the mark/sweep times in RunResult::Gc. Derived spans are laid out
// back to back from their parent's start and flagged as derived.
//
// Every request is handled twice, by a traced and an untraced copy of the
// service state (cache + verify memo), in alternating order; the
// wall-time difference is trace.overhead_ratio. Spans stay in memory and
// are written out once, at the end.
//
//===----------------------------------------------------------------------===//

#include "Runs.h"

#include "driver/Pipeline.h"
#include "driver/Request.h"
#include "ir/Lower.h"
#include "ir/Verify.h"
#include "serve/Protocol.h"
#include "support/ExitCodes.h"
#include "support/Hash.h"
#include "vm/VM.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace gcsafe;
using support::Json;

namespace perfbench {

namespace {

struct Span {
  const char *Name;
  uint64_t StartNs, EndNs;
  int32_t Parent; ///< Index into the span list, -1 for a request root.
  uint32_t Request;
  bool Derived;
};

/// Span recorder. A disabled tracer reads no clock and records nothing.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}

  void beginRequest(uint32_t R) {
    Request = R;
    Cur = -1;
  }
  int open(const char *Name) {
    if (!On)
      return -1;
    Spans.push_back({Name, support::monotonicNowNs(), 0, Cur, Request, false});
    Cur = static_cast<int>(Spans.size() - 1);
    return Cur;
  }
  void close(int Id) {
    if (Id < 0)
      return;
    Spans[Id].EndNs = support::monotonicNowNs();
    Cur = Spans[Id].Parent;
  }
  /// A child of \p Parent known only by its duration; placed at \p At.
  void derived(const char *Name, int Parent, uint64_t &At, uint64_t Ns) {
    if (Parent < 0 || !Ns)
      return;
    Spans.push_back({Name, At, At + Ns, Parent, Request, true});
    At += Ns;
  }
  uint64_t startOf(int Id) const { return Id < 0 ? 0 : Spans[Id].StartNs; }

  std::vector<Span> Spans;

private:
  bool On;
  int Cur = -1;
  uint32_t Request = 0;
};

class Scope {
public:
  Scope(Tracer &T, const char *Name) : T(T), Id(T.open(Name)) {}
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  ~Scope() { T.close(Id); }

private:
  Tracer &T;
  int Id;
};

/// The cross-request state of one compile service.
struct ServiceState {
  serve::ContentCache Cache{CacheMaxEntries};
  driver::VerifyMemo Memo;
};

/// What one request did, beyond its timing.
struct Counts {
  bool Hit = false;
  uint64_t PayloadBytes = 0;
  uint64_t KeepLives = 0, Rewrites = 0, InstructionsAfter = 0;
  bool Ran = false;
  vm::RunResult Run; ///< Valid when Ran.
};

bool annotated(driver::CompileMode M) {
  return M == driver::CompileMode::O2Safe ||
         M == driver::CompileMode::O2SafePost ||
         M == driver::CompileMode::DebugChecked;
}

uint64_t statNs(const support::Stats &S, const std::string &Path) {
  return S.has(Path) ? S.get(Path) : 0;
}

/// The children of a driver.compile span, from the times it returned.
/// Verification that ran inside optimizeModule (each-pass checkpoints) is
/// the optimize phase's time not spent in passes; the rest of the
/// verifier's time ran before and after it.
void deriveCompileSpans(Tracer &T, int Compile,
                        const driver::CompileResult &CR) {
  const support::Stats &S = CR.Stats;
  uint64_t PassNs = 0;
  for (const support::Stats::Entry &E : S.entries())
    if (E.Path.rfind("opt.", 0) == 0 && E.Path != "opt.total.ns" &&
        E.Path.size() > 3 && E.Path.compare(E.Path.size() - 3, 3, ".ns") == 0)
      PassNs += E.Count;
  uint64_t OptNs = statNs(S, "phase.optimize_ns");
  uint64_t VerifyNs = statNs(S, "analysis.verify.ns");
  uint64_t Inside = std::min(VerifyNs, OptNs > PassNs ? OptNs - PassNs : 0);
  uint64_t At = T.startOf(Compile);
  T.derived("annotate.annotate", Compile, At, statNs(S, "phase.annotate_ns"));
  T.derived("ir.lower", Compile, At, statNs(S, "phase.lower_ns"));
  T.derived("analysis.verify", Compile, At, VerifyNs - Inside);
  uint64_t OptStart = At;
  T.derived("opt.optimize", Compile, At, OptNs);
  if (OptNs && Compile >= 0)
    T.derived("analysis.verify", static_cast<int>(T.Spans.size() - 1),
              OptStart, Inside);
}

void deriveGcSpans(Tracer &T, int Run, const gc::CollectorStats &G) {
  uint64_t At = T.startOf(Run);
  T.derived("gc.mark", Run, At, G.MarkNs);
  T.derived("gc.sweep", Run, At, G.SweepNs);
}

/// driver::RequestContext::execute, one layer call at a time.
serve::ServeResult execute(driver::Compilation &Comp,
                           const driver::RequestOptions &O, ServiceState &St,
                           Tracer &T, Counts &C) {
  serve::ServeResult R;
  support::TraceBuffer Ring(O.TraceCapacity ? O.TraceCapacity : 4096);
  driver::CompileOptions CO;
  CO.Mode = O.Mode;
  CO.Annot = O.Annot;
  CO.Trace = &Ring;
  CO.Verify = O.Verify;
  CO.VerifyIREachPass = O.VerifyIREachPass;
  CO.Memo = &St.Memo;
  int Compile = T.open("driver.compile");
  driver::CompileResult CR = Comp.compile(CO);
  T.close(Compile);
  deriveCompileSpans(T, Compile, CR);
  if (!CR.Ok) {
    R.ExitCode = support::ExitError;
    R.Error = CR.Errors;
    return R;
  }
  C.KeepLives = CR.AnnotStats.KeepLives;
  C.Rewrites = CR.OptStats.total();
  for (const ir::Function &F : CR.Module.Functions)
    for (const ir::BasicBlock &B : F.Blocks)
      C.InstructionsAfter += B.Insts.size();
  {
    Scope V(T, "ir.verify");
    std::vector<std::string> Errors;
    if (!ir::verifyModule(CR.Module, Errors)) {
      R.ExitCode = support::ExitError;
      R.Error = "IR verifier failed";
      return R;
    }
  }
  if (O.Verify != driver::SafetyVerify::None) {
    Scope Rep(T, "driver.report");
    R.Lint = driver::buildLintReport(
        O.Name, O.Mode, O.Verify == driver::SafetyVerify::EachPass, CR,
        &Comp.buffer());
    R.HasLint = true;
    if (!CR.SafetyOk) {
      R.ExitCode = support::ExitSafetyViolation;
      return R;
    }
  }
  if (!O.Run) {
    Scope Rep(T, "driver.report");
    R.Report = driver::buildRunReport(O.Name, O.Mode, O.MachineName, CR,
                                      nullptr);
    R.HasReport = R.Ok = true;
    return R;
  }
  vm::VMOptions VO;
  VO.Model = O.MachineName == "sparc2"      ? vm::sparc2()
             : O.MachineName == "pentium90" ? vm::pentium90()
                                            : vm::sparc10();
  VO.GcInstructionPeriod = O.GcInstructionPeriod;
  VO.GcAllocTrigger = O.GcAllocTrigger;
  VO.GcCallPeriod = O.GcCallPeriod;
  VO.Trace = &Ring;
  int Run = T.open("vm.run");
  {
    vm::VM Machine(CR.Module, VO);
    C.Run = Machine.run();
  }
  T.close(Run);
  deriveGcSpans(T, Run, C.Run.Gc);
  C.Ran = true;
  {
    Scope Rep(T, "driver.report");
    R.Report = driver::buildRunReport(O.Name, O.Mode, O.MachineName, CR,
                                      &C.Run);
  }
  R.HasReport = true;
  R.Ok = C.Run.Ok;
  R.ExitCode = C.Run.Ok ? static_cast<int>(C.Run.ExitCode & 0xFF)
                        : support::ExitError;
  if (!C.Run.Ok)
    R.Error = "runtime error: " + C.Run.Error;
  return R;
}

/// One request through the serve path; returns the response line.
std::string handle(const std::string &Line, ServiceState &St, Tracer &T,
                   Counts &C) {
  int Root = T.open("request");
  serve::ServeRequest Req;
  std::string Error;
  bool Parsed;
  {
    Scope S(T, "serve.parse_request");
    Parsed = serve::parseRequestLine(Line, Req, Error);
  }
  if (!Parsed) {
    T.close(Root);
    return serve::buildErrorResponse(Req.Id, Error).dump(0);
  }
  const driver::RequestOptions &O = Req.Compile;
  driver::Compilation Comp(O.Name, O.Source);
  std::string Key;
  bool FrontendOk;
  {
    Scope K(T, "serve.key");
    {
      Scope P(T, "cfront.parse");
      FrontendOk = Comp.parse();
    }
    std::string Text = O.Source;
    if (FrontendOk && annotated(O.Mode)) {
      annotate::AnnotationMap Map;
      {
        Scope A(T, "annotate.annotate");
        Map = annotate::annotateTranslationUnit(Comp.tu(), O.Annot);
      }
      Scope Rd(T, "rewrite.render");
      Text = annotate::renderAnnotatedSource(
          Comp.buffer(), Map,
          O.Mode == driver::CompileMode::DebugChecked
              ? annotate::AnnotationMode::Checked
              : annotate::AnnotationMode::GCSafe);
    }
    support::ContentHasher H(driver::keyFingerprint());
    H.update(Text);
    H.update(serve::canonicalFlagString(O));
    Key = H.hex();
  }
  serve::ServeResult R;
  std::string Payload;
  {
    Scope L(T, "serve.cache_lookup");
    C.Hit = St.Cache.lookup(Key, Payload);
  }
  if (C.Hit) {
    Scope Rp(T, "serve.replay");
    Json J;
    if (Json::parse(Payload, J, Error))
      serve::serveResultFromJson(J, R);
    R.Cached = true;
  } else {
    {
      Scope X(T, "driver.execute");
      R = execute(Comp, O, St, T, C);
    }
    Scope I(T, "serve.cache_insert");
    St.Cache.insert(Key, serve::serveResultToJson(R).dump(0));
  }
  R.CacheKey = Key;
  R.RequestId = O.RequestId;
  std::string Response;
  {
    Scope Rs(T, "serve.respond");
    Response = serve::buildCompileResponse(Req.Id, R).dump(0);
  }
  T.close(Root);
  C.PayloadBytes = Response.size();
  return Response;
}

/// Instructions straight out of lowering, before the optimizer, for one
/// request's source and mode (measured outside every span).
uint64_t loweredInstructions(const std::string &Line) {
  serve::ServeRequest Req;
  std::string Error;
  if (!serve::parseRequestLine(Line, Req, Error))
    return 0;
  const driver::RequestOptions &O = Req.Compile;
  driver::Compilation Comp(O.Name, O.Source);
  if (!Comp.parse())
    return 0;
  annotate::AnnotationMap Map = Comp.annotate(O.Annot);
  ir::LowerOptions LO;
  if (O.Mode == driver::CompileMode::O2Safe ||
      O.Mode == driver::CompileMode::O2SafePost) {
    LO.SafetyMode = ir::LowerOptions::Safety::KeepLive;
    LO.Annotations = &Map;
  } else if (O.Mode == driver::CompileMode::Debug) {
    LO.AllVarsInMemory = true;
  } else if (O.Mode == driver::CompileMode::DebugChecked) {
    LO.AllVarsInMemory = true;
    LO.SafetyMode = ir::LowerOptions::Safety::Checked;
    LO.Annotations = &Map;
  }
  ir::Module M = ir::lowerTranslationUnit(Comp.tu(), LO, Comp.diags());
  uint64_t N = 0;
  for (const ir::Function &F : M.Functions)
    for (const ir::BasicBlock &B : F.Blocks)
      N += B.Insts.size();
  return N;
}

std::string layerOf(const char *Name) {
  std::string S(Name);
  return S.substr(0, S.find('.'));
}

bool writeSpans(const std::string &Path, const std::vector<Span> &Spans,
                size_t Limit) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t N = std::min(Limit, Spans.size());
  std::fprintf(F,
               "{\"schema\":\"gcsafe-perfbench-spans-v1\",\"dropped\":%zu,"
               "\"fields\":[\"request\",\"parent\",\"name\",\"start_ns\","
               "\"end_ns\",\"derived\"],\"spans\":[\n",
               Spans.size() - N);
  for (size_t I = 0; I < N; ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "[%u,%d,\"%s\",%llu,%llu,%d]%s\n", S.Request, S.Parent,
                 S.Name, static_cast<unsigned long long>(S.StartNs),
                 static_cast<unsigned long long>(S.EndNs), S.Derived ? 1 : 0,
                 I + 1 < N ? "," : "");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

} // namespace

Json traceRun(const Generator &Gen, const Oracle &Expected,
              const TraceOptions &Opts) {
  ServiceState TracedState, PlainState;
  Tracer Traced(true), Plain(false);
  const bool ExpectCached = Gen.spec().ExpectCached;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;
  auto Check = [&](const std::string &Response, const Combo &C, bool Cached,
                   uint64_t Index) {
    Json J;
    std::string Why;
    if (!Json::parse(Response, J, Why) ||
        !(Why = Expected.check(J, C, Cached)).empty()) {
      ++Failed;
      if (Problems.size() < 5)
        Problems.push_back("request " + std::to_string(Index) + ": " + Why);
    }
  };

  // The daemon run's warm-up round, for both service copies, untraced.
  for (uint64_t I = 0; I < Gen.spec().Combos.size(); ++I) {
    Request R = Gen.make(Stream::Setup, I);
    Tracer Off(false);
    for (ServiceState *St : {&TracedState, &PlainState}) {
      Counts C;
      Check(handle(R.Line, *St, Off, C), *R.C, false, I);
    }
  }
  uint64_t Memo0Hits = TracedState.Memo.hits();
  uint64_t Memo0Misses = TracedState.Memo.misses();

  std::map<std::string, uint64_t> SelfNs, InclNs;
  std::map<std::string, uint64_t> LoweredByCombo;
  std::vector<double> Pauses;
  uint64_t N = 0, Hits = 0, PayloadBytes = 0, KeepLives = 0, Rewrites = 0,
           InstsAfter = 0, InstsLowered = 0, Instructions = 0, Cycles = 0,
           Collections = 0, Checks = 0, Allocs = 0;
  uint64_t TracedWallNs = 0, PlainWallNs = 0;
  uint64_t StartNs = support::monotonicNowNs();
  uint64_t EndNs = StartNs + static_cast<uint64_t>(Opts.Seconds * 1e9);
  while (support::monotonicNowNs() < EndNs) {
    Request R = Gen.make(Stream::Timed, N);
    for (int Pass = 0; Pass < 2; ++Pass) {
      // Alternate which copy goes first, so neither always runs warm.
      bool IsTraced = (Pass == 0) == (N % 2 == 0);
      Counts C;
      size_t First = Traced.Spans.size();
      Traced.beginRequest(static_cast<uint32_t>(N));
      uint64_t T0 = support::monotonicNowNs();
      std::string Response =
          IsTraced ? handle(R.Line, TracedState, Traced, C)
                   : handle(R.Line, PlainState, Plain, C);
      uint64_t Wall = support::monotonicNowNs() - T0;
      Check(Response, *R.C, ExpectCached, N);
      if (!IsTraced) {
        PlainWallNs += Wall;
        continue;
      }
      TracedWallNs += Wall;
      // Self time: a span's duration minus what its children cover.
      std::vector<uint64_t> ChildNs(Traced.Spans.size() - First, 0);
      for (size_t I = First; I < Traced.Spans.size(); ++I) {
        const Span &S = Traced.Spans[I];
        if (S.Parent >= static_cast<int32_t>(First))
          ChildNs[S.Parent - First] += S.EndNs - S.StartNs;
      }
      for (size_t I = First; I < Traced.Spans.size(); ++I) {
        const Span &S = Traced.Spans[I];
        uint64_t Dur = S.EndNs - S.StartNs;
        InclNs[S.Name] += Dur;
        if (S.Parent >= 0) // the request root is the benchmark, not a layer
          SelfNs[layerOf(S.Name)] +=
              Dur > ChildNs[I - First] ? Dur - ChildNs[I - First] : 0;
      }
      Hits += C.Hit;
      PayloadBytes += C.PayloadBytes;
      KeepLives += C.KeepLives;
      Rewrites += C.Rewrites;
      InstsAfter += C.InstructionsAfter;
      if (!C.Hit) {
        auto [It, New] = LoweredByCombo.try_emplace(R.C->key(), 0);
        if (New)
          It->second = loweredInstructions(R.Line);
        InstsLowered += It->second;
      }
      if (C.Ran) {
        const vm::RunResult &Run = C.Run;
        Instructions += Run.InstructionsExecuted;
        Cycles += Run.Cycles;
        Collections += Run.Gc.Collections;
        Checks += Run.ChecksPerformed;
        Allocs += Run.Gc.AllocationCount;
        for (const gc::CollectionEvent &E : Run.Gc.Events)
          Pauses.push_back(double(E.MarkNs + E.SweepNs) / 1e3);
      }
    }
    ++N;
  }

  uint64_t MemoHits = TracedState.Memo.hits() - Memo0Hits;
  uint64_t MemoLookups = MemoHits + TracedState.Memo.misses() - Memo0Misses;
  double Per = N ? 1.0 / double(N) : 0;
  auto Us = [&](const char *Name) { return double(InclNs[Name]) * Per / 1e3; };
  Json M = Json::object();
  auto Set = [&](const char *Name, double V) { M[Name] = Json::number(V); };
  Set("vm.run_us", Us("vm.run"));
  Set("vm.instructions", double(Instructions) * Per);
  Set("vm.ns_per_instruction",
      Instructions ? double(SelfNs["vm"]) / double(Instructions) : 0);
  Set("vm.modeled_cycles", double(Cycles) * Per);
  Set("gc.collections", double(Collections) * Per);
  Set("gc.mark_us", Us("gc.mark"));
  Set("gc.sweep_us", Us("gc.sweep"));
  std::sort(Pauses.begin(), Pauses.end());
  Set("gc.pause_p90_us", percentile(Pauses, 90));
  Set("gc.checks", double(Checks) * Per);
  Set("gc.alloc_count", double(Allocs) * Per);
  Set("serve.parse_request_us", Us("serve.parse_request"));
  Set("serve.key_us", Us("serve.key"));
  Set("serve.cache_lookup_us", Us("serve.cache_lookup"));
  Set("serve.replay_us", Us("serve.replay"));
  Set("serve.cache_insert_us", Us("serve.cache_insert"));
  Set("serve.respond_us", Us("serve.respond"));
  Set("serve.payload_bytes", double(PayloadBytes) * Per);
  Set("serve.cache_hit_ratio", double(Hits) * Per);
  Set("serve.queue_wait_p50_us", Opts.QueueWaitP50Us);
  Set("cfront.parse_us", Us("cfront.parse"));
  Set("annotate.annotate_us", Us("annotate.annotate"));
  Set("annotate.keep_live_sites", double(KeepLives) * Per);
  Set("rewrite.render_us", Us("rewrite.render"));
  Set("ir.lower_us", Us("ir.lower"));
  Set("ir.verify_us", Us("ir.verify"));
  Set("ir.instructions", double(InstsLowered) * Per);
  Set("opt.optimize_us", Us("opt.optimize"));
  Set("opt.instructions_after", double(InstsAfter) * Per);
  Set("opt.rewrites", double(Rewrites) * Per);
  Set("analysis.verify_us", Us("analysis.verify"));
  Set("analysis.memo_hit_ratio",
      MemoLookups ? double(MemoHits) / double(MemoLookups) : 0);
  Set("driver.compile_us", Us("driver.compile"));
  Set("driver.execute_us", Us("driver.execute"));
  Set("driver.report_us", Us("driver.report"));
  double CoveredUs = 0;
  for (const char *L : {"cfront", "annotate", "rewrite", "ir", "opt",
                        "analysis", "vm", "gc", "serve", "driver"}) {
    double SelfUs = double(SelfNs[L]) * Per / 1e3;
    CoveredUs += SelfUs;
    M[std::string(L) + ".self_us"] = Json::number(SelfUs);
  }
  Set("trace.coverage_ratio", Opts.UntracedLatencyMs > 0
                                  ? CoveredUs / (Opts.UntracedLatencyMs * 1e3)
                                  : 0);
  Set("trace.overhead_ratio",
      PlainWallNs ? double(TracedWallNs) / double(PlainWallNs) - 1 : 0);
  Set("trace.requests", double(N));
  Set("trace.spans", double(Traced.Spans.size()));

  if (!Opts.SpanFile.empty() && !writeSpans(Opts.SpanFile, Traced.Spans,
                                            200000))
    Problems.push_back("cannot write " + Opts.SpanFile);
  Json Out = Json::object();
  Out["attempted"] = Json::integer(N);
  Out["failed"] = Json::integer(Failed);
  Json P = Json::array();
  for (const std::string &S : Problems)
    P.push(Json::string(S));
  Out["problems"] = std::move(P);
  Out["correct"] = Json::boolean(Failed == 0 && Problems.empty() && N > 0);
  Out["metrics"] = std::move(M);
  return Out;
}

} // namespace perfbench
