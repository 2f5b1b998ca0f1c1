//===- serve/Protocol.cpp -------------------------------------*- C++ -*-===//

#include "serve/Protocol.h"

#include <cassert>

using namespace gcsafe;
using namespace gcsafe::serve;
using support::Json;

namespace {

const char *SchemaName = "gcsafe-serve-v1";

bool getString(const Json &J, const char *Key, std::string &Out) {
  const Json *V = J.get(Key);
  if (!V || !V->isString())
    return false;
  Out = V->asString();
  return true;
}

uint64_t getUInt(const Json &J, const char *Key, uint64_t Default = 0) {
  const Json *V = J.get(Key);
  return V && V->isNumber() ? static_cast<uint64_t>(V->asInt()) : Default;
}

bool getBool(const Json &J, const char *Key, bool Default = false) {
  const Json *V = J.get(Key);
  return V && V->isBool() ? V->asBool() : Default;
}

bool parseCorruptKind(const std::string &K, int &Out) {
  if (K == "delete_keep_live")
    Out = 0;
  else if (K == "drop_kill")
    Out = 1;
  else if (K == "hoist_kill")
    Out = 2;
  else if (K == "clobber_base")
    Out = 3;
  else
    return false;
  return true;
}

} // namespace

bool gcsafe::serve::parseRequestLine(const std::string &Line,
                                     ServeRequest &Out, std::string &Error) {
  Json J;
  if (!Json::parse(Line, J, Error))
    return false;
  if (!J.isObject()) {
    Error = "request is not a JSON object";
    return false;
  }
  if (const Json *Schema = J.get("schema"))
    if (Schema->isString() && Schema->asString() != SchemaName) {
      Error = "unknown schema '" + Schema->asString() + "'";
      return false;
    }
  if (const Json *Id = J.get("id"))
    Out.Id = Id->isString() ? Id->asString() : Id->dump(0);

  std::string Op = "compile";
  getString(J, "op", Op);
  if (Op == "stats") {
    Out.Op = ServeOp::Stats;
    return true;
  }
  if (Op == "metrics") {
    Out.Op = ServeOp::Metrics;
    return true;
  }
  if (Op == "ping") {
    Out.Op = ServeOp::Ping;
    return true;
  }
  if (Op == "health") {
    Out.Op = ServeOp::Health;
    return true;
  }
  if (Op == "drain") {
    Out.Op = ServeOp::Drain;
    return true;
  }
  if (Op == "shutdown") {
    Out.Op = ServeOp::Shutdown;
    return true;
  }
  if (Op != "compile") {
    Error = "unknown op '" + Op + "'";
    return false;
  }

  Out.Op = ServeOp::Compile;
  driver::RequestOptions &R = Out.Compile;
  if (!getString(J, "source", R.Source)) {
    Error = "compile request without a \"source\" string";
    return false;
  }
  getString(J, "name", R.Name);
  // The trace identity (docs/OBSERVABILITY.md §8). Optional; the service
  // generates one when absent, and the response always echoes it.
  getString(J, "request_id", R.RequestId);

  std::string Mode;
  if (getString(J, "mode", Mode) && !driver::parseCompileModeName(Mode, R.Mode)) {
    Error = "unknown mode '" + Mode + "'";
    return false;
  }
  std::string Machine;
  if (getString(J, "machine", Machine)) {
    if (!driver::knownMachineName(Machine)) {
      Error = "unknown machine '" + Machine + "'";
      return false;
    }
    R.MachineName = Machine;
  }

  R.Run = getBool(J, "run");
  std::string Verify;
  if (getString(J, "verify", Verify)) {
    if (Verify == "final")
      R.Verify = driver::SafetyVerify::Final;
    else if (Verify == "each-pass")
      R.Verify = driver::SafetyVerify::EachPass;
    else if (Verify == "none")
      R.Verify = driver::SafetyVerify::None;
    else {
      Error = "unknown verify mode '" + Verify + "'";
      return false;
    }
  }
  R.VerifyIREachPass = getBool(J, "verify_ir");
  R.SelfHeal = getBool(J, "self_heal");
  std::string Rung;
  if (getString(J, "opt_rung", Rung)) {
    R.SelfHeal = true;
    if (!driver::parseOptRung(Rung, R.StartRung)) {
      Error = "unknown opt_rung '" + Rung + "'";
      return false;
    }
  }
  if (uint64_t Ms = getUInt(J, "pass_deadline_ms")) {
    R.SelfHeal = true;
    R.PassDeadlineNs = Ms * 1000000ull;
  }
  R.GcDeadlineNs = getUInt(J, "gc_deadline_ms") * 1000000ull;
  R.VmDeadlineNs = getUInt(J, "vm_deadline_ms") * 1000000ull;
  R.DeadlineNs = getUInt(J, "deadline_ms") * 1000000ull;
  getString(J, "fail_inject", R.FailInjectSpec);
  std::string Corrupt;
  if (getString(J, "corrupt_kind", Corrupt) &&
      !parseCorruptKind(Corrupt, R.CorruptKind)) {
    Error = "unknown corrupt_kind '" + Corrupt + "'";
    return false;
  }
  R.GcInstructionPeriod = getUInt(J, "gc_period");
  R.GcAllocTrigger = getUInt(J, "gc_alloc_trigger");
  R.GcCallPeriod = getUInt(J, "gc_call_period");
  if (getBool(J, "no_opt1"))
    R.Annot.SkipCopies = false;
  if (getBool(J, "no_opt2"))
    R.Annot.SpecializeIncDec = false;
  if (getBool(J, "slow_bases"))
    R.Annot.PreferSlowBases = true;
  if (getBool(J, "at_calls_only"))
    R.Annot.Trigger = annotate::GcTrigger::AtCallsOnly;
  Out.UseCache = getBool(J, "cache", true);
  return true;
}

namespace {

Json responseHead(const std::string &Id, const char *Op, bool Ok) {
  Json J = Json::object();
  J["schema"] = Json::string(SchemaName);
  J["id"] = Json::string(Id);
  J["op"] = Json::string(Op);
  J["ok"] = Json::boolean(Ok);
  return J;
}

/// The bytes buildCompileResponse(...).dump(0) puts before "exit_code":
/// everything a cache entry does not hold.
std::string compileResponseHead(const std::string &Id, const ServeResult &R) {
  std::string H = "{\"schema\":\"";
  H += SchemaName;
  H += "\",\"id\":\"";
  H += support::jsonEscape(Id);
  H += "\",\"op\":\"compile\",\"ok\":";
  H += R.Ok ? "true" : "false";
  if (!R.RequestId.empty()) {
    H += ",\"request_id\":\"";
    H += support::jsonEscape(R.RequestId);
    H += '"';
  }
  H += ",\"cached\":";
  H += R.Cached ? "true," : "false,";
  return H;
}

} // namespace

std::string gcsafe::serve::renderCompileResponse(const std::string &Id,
                                                 const ServeResult &R) {
  if (!R.Rendered)
    return buildCompileResponse(Id, R).dump(0);
  std::string Line = compileResponseHead(Id, R);
  Line += R.Rendered->Bytes;
  return Line;
}

CacheEntryPtr gcsafe::serve::renderCacheEntry(const ServeResult &R) {
  std::string Line = buildCompileResponse("", R).dump(0);
  std::string Head = compileResponseHead("", R);
  assert(Line.compare(0, Head.size(), Head) == 0);
  auto E = std::make_shared<CacheEntry>();
  E->Bytes = Line.substr(Head.size());
  E->Ok = R.Ok;
  E->ExitCode = R.ExitCode;
  E->Degraded = R.Degraded;
  return E;
}

void gcsafe::serve::expandCached(ServeResult &R) {
  if (!R.Cached || !R.Rendered)
    return;
  Json J;
  std::string Error;
  ServeResult Full;
  // The bytes are the tail of a JSON object this process rendered, so
  // the parse cannot fail short of memory corruption.
  if (!Json::parse("{" + R.Rendered->Bytes, J, Error))
    return;
  J["ok"] = Json::boolean(R.Ok);
  serveResultFromJson(J, Full);
  R.Rung = std::move(Full.Rung);
  R.Quarantined = std::move(Full.Quarantined);
  R.Status = std::move(Full.Status);
  R.Error = std::move(Full.Error);
  R.Report = std::move(Full.Report);
  R.HasReport = Full.HasReport;
  R.Lint = std::move(Full.Lint);
  R.HasLint = Full.HasLint;
}

Json gcsafe::serve::buildCompileResponse(const std::string &Id,
                                         const ServeResult &Result) {
  ServeResult Hit;
  if (Result.Cached && Result.Rendered) {
    Hit = Result;
    expandCached(Hit);
  }
  const ServeResult &R = Hit.Rendered ? Hit : Result;
  Json J = responseHead(Id, "compile", R.Ok);
  if (!R.RequestId.empty())
    J["request_id"] = Json::string(R.RequestId);
  J["cached"] = Json::boolean(R.Cached);
  J["exit_code"] = Json::integer(int64_t(R.ExitCode));
  J["degraded"] = Json::boolean(R.Degraded);
  J["rung"] = Json::string(R.Rung);
  Json Q = Json::array();
  for (const std::string &P : R.Quarantined)
    Q.push(Json::string(P));
  J["quarantined"] = std::move(Q);
  J["cache_key"] = Json::string(R.CacheKey);
  if (!R.Status.empty())
    J["status"] = Json::string(R.Status);
  if (!R.Error.empty())
    J["error"] = Json::string(R.Error);
  if (R.HasReport)
    J["report"] = R.Report;
  if (R.HasLint)
    J["lint"] = R.Lint;
  return J;
}

Json gcsafe::serve::buildStatsResponse(const std::string &Id,
                                       const support::Stats &S) {
  Json J = responseHead(Id, "stats", true);
  Json Tree = S.toJson();
  if (const Json *Serve = Tree.get("serve"))
    J["serve"] = *Serve;
  else
    J["serve"] = Json::object();
  return J;
}

Json gcsafe::serve::buildMetricsResponse(const std::string &Id,
                                         const support::Json &Metrics) {
  Json J = responseHead(Id, "metrics", true);
  J["metrics"] = Metrics;
  return J;
}

Json gcsafe::serve::buildAckResponse(const std::string &Id, const char *Op) {
  return responseHead(Id, Op, true);
}

Json gcsafe::serve::buildHealthResponse(const std::string &Id,
                                        const ServiceHealth &H,
                                        uint64_t Connections) {
  Json J = responseHead(Id, "health", true);
  J["ready"] = Json::boolean(H.Ready);
  J["workers"] = Json::integer(uint64_t(H.Workers));
  J["queue_depth"] = Json::integer(uint64_t(H.QueueDepth));
  J["queue_max"] = Json::integer(uint64_t(H.QueueMax));
  J["draining"] = Json::boolean(H.Draining);
  J["isolate"] = Json::boolean(H.Isolate);
  J["connections"] = Json::integer(Connections);
  return J;
}

Json gcsafe::serve::buildErrorResponse(const std::string &Id,
                                       const std::string &Error) {
  Json J = responseHead(Id, "error", false);
  J["error"] = Json::string(Error);
  return J;
}
