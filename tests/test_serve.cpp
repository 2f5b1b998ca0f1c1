//===- tests/test_serve.cpp - Compile-service correctness ----------------===//
//
// The serving architecture's cache-correctness contract (docs/SERVING.md):
// a warm response is byte-identical to its cold twin — a hit splices its
// own head onto the cold response's rendered bytes — any outcome-relevant
// flag or mode change misses the cache, so does any source byte (the key
// hashes the raw source, comments included), a source that fails to
// parse is never cached, and nothing a degraded request quarantines leaks
// into the next request. Plus the worker pool, the shared verification
// memo, and the gcsafe-serve-v1 protocol round trip.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"
#include "serve/Service.h"
#include "support/ExitCodes.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace gcsafe;
using namespace gcsafe::serve;

namespace {

// Enough pointer traffic to give the annotator, the optimizer, and the
// corruption operators something to chew on.
const char *kListSource = R"(
struct node {
  struct node *next;
  long value;
};

long sum_list(struct node *head) {
  long s;
  s = 0;
  while (head) {
    s = s + head->value;
    head = head->next;
  }
  return s;
}

int main(void) {
  struct node *head;
  struct node *n;
  long i;
  head = 0;
  for (i = 0; i < 40; i++) {
    n = (struct node *)gc_malloc(sizeof(struct node));
    n->value = i * 3;
    n->next = head;
    head = n;
  }
  print_int(sum_list(head));
  print_char(10);
  return 0;
}
)";

driver::RequestOptions listRequest() {
  driver::RequestOptions R;
  R.Name = "list";
  R.Source = kListSource;
  R.Mode = driver::CompileMode::O2SafePost;
  R.Run = true;
  return R;
}

/// Events of one category and name in the service's ring.
unsigned ringCount(const CompileService &Svc, const std::string &Cat,
                     const std::string &Name) {
  unsigned N = 0;
  for (const support::TraceEvent &E : Svc.ring().snapshot())
    N += Cat == E.Cat && Name == E.Name;
  return N;
}

/// The compiler's own events (phases, passes, collections, the VM run).
bool isCompilerEvent(const support::TraceEvent &E) {
  std::string Cat = E.Cat;
  return Cat == "phase" || Cat == "pass" || Cat == "gc" || Cat == "vm";
}

TEST(ServeCache, WarmIsByteIdenticalToCold) {
  CompileService Svc;
  ServeResult Cold = Svc.compile(listRequest());
  ASSERT_TRUE(Cold.Ok);
  EXPECT_FALSE(Cold.Cached);
  EXPECT_FALSE(Cold.CacheKey.empty());
  EXPECT_EQ(Cold.ExitCode, support::ExitSuccess);
  // Sandbox attempt records exist only under Isolate.
  EXPECT_TRUE(Cold.Attempts.empty());

  ServeResult Warm = Svc.compile(listRequest());
  EXPECT_TRUE(Warm.Cached);
  EXPECT_EQ(Warm.CacheKey, Cold.CacheKey);
  // The warm response is the cold payload replayed verbatim.
  EXPECT_EQ(serveResultToJson(Warm).dump(0), serveResultToJson(Cold).dump(0));

  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.cache.hits"), 1u);
  EXPECT_EQ(S.get("serve.cache.misses"), 1u);
  EXPECT_EQ(S.get("serve.cache.insertions"), 1u);
}

// Only outcome-relevant inputs key the cache: the trace-ring capacity
// changes nothing about the response, so it must not invalidate
// (docs/SERVING.md "Invalidation rules").
TEST(ServeCache, OutcomeIrrelevantKnobsStillHit) {
  CompileService Svc;
  ServeResult A = Svc.compile(listRequest());
  driver::RequestOptions R = listRequest();
  R.TraceCapacity = 64;
  ServeResult B = Svc.compile(R);
  EXPECT_EQ(B.CacheKey, A.CacheKey);
  EXPECT_TRUE(B.Cached);
}

// The request name is printed as the reports' "input", so a renamed but
// otherwise identical request misses and answers with its own name; the
// same name again still hits.
TEST(ServeCache, RenamedRequestMissesAndReportsItsOwnInput) {
  CompileService Svc;
  ServeResult A = Svc.compile(listRequest());
  driver::RequestOptions R = listRequest();
  R.Name = "renamed";
  ServeResult B = Svc.compile(R);
  EXPECT_NE(B.CacheKey, A.CacheKey);
  EXPECT_FALSE(B.Cached);
  ASSERT_TRUE(B.HasReport);
  EXPECT_EQ(B.Report.get("input")->asString(), "renamed");

  ServeResult C = Svc.compile(R);
  EXPECT_TRUE(C.Cached);
  EXPECT_EQ(C.CacheKey, B.CacheKey);
  expandCached(C);
  ASSERT_TRUE(C.HasReport);
  EXPECT_EQ(C.Report.get("input")->asString(), "renamed");
}

TEST(ServeCache, ModeChangeInvalidates) {
  CompileService Svc;
  ServeResult A = Svc.compile(listRequest());
  driver::RequestOptions R = listRequest();
  R.Mode = driver::CompileMode::O2Safe;
  ServeResult B = Svc.compile(R);
  EXPECT_NE(B.CacheKey, A.CacheKey);
  EXPECT_FALSE(B.Cached);
}

TEST(ServeCache, FlagChangeInvalidates) {
  CompileService Svc;
  ServeResult A = Svc.compile(listRequest());

  driver::RequestOptions Gc = listRequest();
  Gc.GcAllocTrigger = 5;
  ServeResult B = Svc.compile(Gc);
  EXPECT_NE(B.CacheKey, A.CacheKey);
  EXPECT_FALSE(B.Cached);

  driver::RequestOptions Machine = listRequest();
  Machine.MachineName = "pentium90";
  ServeResult C = Svc.compile(Machine);
  EXPECT_NE(C.CacheKey, A.CacheKey);
  EXPECT_NE(C.CacheKey, B.CacheKey);
  EXPECT_FALSE(C.Cached);

  // Same flags again: each variant now hits its own entry.
  EXPECT_TRUE(Svc.compile(Gc).Cached);
  EXPECT_TRUE(Svc.compile(Machine).Cached);
}

TEST(ServeCache, PerRequestOptOutBypasses) {
  CompileService Svc;
  ServeResult A = Svc.compile(listRequest(), /*UseCache=*/false);
  EXPECT_FALSE(A.Cached);
  ServeResult B = Svc.compile(listRequest(), /*UseCache=*/false);
  EXPECT_FALSE(B.Cached);
  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.cache.insertions"), 0u);
  EXPECT_EQ(S.get("serve.cache.entries"), 0u);
}

TEST(ServeCache, EvictionRespectsCap) {
  ServiceOptions SO;
  SO.Workers = 1;
  SO.CacheMaxEntries = 2;
  CompileService Svc(SO);
  for (uint64_t Trigger : {3u, 5u, 7u}) {
    driver::RequestOptions R = listRequest();
    R.GcAllocTrigger = Trigger;
    Svc.compile(R);
  }
  CacheStats C = Svc.cache().stats();
  EXPECT_EQ(C.Insertions, 3u);
  EXPECT_EQ(C.Evictions, 1u);
  EXPECT_EQ(C.Entries, 2u);

  // The oldest entry (trigger=3) was evicted; the newest two still hit.
  driver::RequestOptions R = listRequest();
  R.GcAllocTrigger = 3;
  EXPECT_FALSE(Svc.compile(R).Cached);
  R.GcAllocTrigger = 7;
  EXPECT_TRUE(Svc.compile(R).Cached);
}

// Concurrent identical misses are single-flighted (docs/SERVING.md §3):
// one leader compiles, every other in-flight twin replays its payload as
// a hit. Exactly one cold response and one insertion, deterministically —
// this is also what makes the pipelined --once transport's cold-then-warm
// sessions reproducible.
TEST(ServeCache, ConcurrentSameKeyMissesSingleFlight) {
  ServiceOptions SO;
  SO.Workers = 4;
  CompileService Svc(SO);
  std::vector<std::future<ServeResult>> Futures;
  for (int I = 0; I < 8; ++I)
    Futures.push_back(Svc.submit(listRequest()));
  unsigned Cold = 0, Warm = 0;
  for (std::future<ServeResult> &F : Futures) {
    ServeResult R = F.get();
    ASSERT_TRUE(R.Ok);
    Cold += R.Cached ? 0 : 1;
    Warm += R.Cached ? 1 : 0;
  }
  EXPECT_EQ(Cold, 1u);
  EXPECT_EQ(Warm, 7u);
  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.cache.insertions"), 1u);
}

TEST(ServeService, QuarantineDoesNotLeakBetweenRequests) {
  CompileService Svc;

  // Request 1: every optimization pass corrupted — the ladder must roll
  // back, quarantine, and deliver a degraded success.
  driver::RequestOptions Broken = listRequest();
  Broken.SelfHeal = true;
  Broken.FailInjectSpec = "7:opt.pass.corrupt@always";
  ServeResult A = Svc.compile(Broken);
  ASSERT_TRUE(A.Ok);
  EXPECT_TRUE(A.Degraded);
  EXPECT_EQ(A.ExitCode, support::ExitDegradedSuccess);
  EXPECT_FALSE(A.Quarantined.empty());

  // Request 2: same source, healthy flags — nothing request 1 degraded
  // may leak in. (Different flag string, so also a cache miss.)
  driver::RequestOptions Healthy = listRequest();
  Healthy.SelfHeal = true;
  ServeResult B = Svc.compile(Healthy);
  EXPECT_FALSE(B.Cached);
  ASSERT_TRUE(B.Ok);
  EXPECT_FALSE(B.Degraded);
  EXPECT_EQ(B.ExitCode, support::ExitSuccess);
  EXPECT_EQ(B.Rung, "full");
  EXPECT_TRUE(B.Quarantined.empty());
}

TEST(ServeService, ConcurrentSubmitsComplete) {
  ServiceOptions SO;
  SO.Workers = 4;
  CompileService Svc(SO);
  std::vector<std::future<ServeResult>> Futures;
  for (uint64_t I = 0; I < 12; ++I) {
    driver::RequestOptions R = listRequest();
    R.GcAllocTrigger = 2 + I % 3; // three distinct keys, hammered 4x each
    Futures.push_back(Svc.submit(R));
  }
  unsigned Ok = 0;
  for (std::future<ServeResult> &F : Futures)
    Ok += F.get().Ok ? 1 : 0;
  EXPECT_EQ(Ok, 12u);
  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.requests"), 12u);
  EXPECT_EQ(S.get("serve.responses.ok"), 12u);
  EXPECT_EQ(S.get("serve.cache.insertions"), 3u);
}

TEST(ServeService, VerifyMemoSharesAcrossRequests) {
  CompileService Svc;
  driver::RequestOptions R = listRequest();
  R.Verify = driver::SafetyVerify::EachPass;
  // Cache off so the second request re-verifies instead of replaying.
  ASSERT_TRUE(Svc.compile(R, /*UseCache=*/false).Ok);
  uint64_t HitsAfterFirst = Svc.verifyMemo().hits();
  ASSERT_TRUE(Svc.compile(R, /*UseCache=*/false).Ok);
  EXPECT_GT(Svc.verifyMemo().hits(), HitsAfterFirst);
  EXPECT_GT(Svc.verifyMemo().entries(), 0u);
}

TEST(ServeService, TraceRecordsCacheVerdicts) {
  CompileService Svc;
  Svc.compile(listRequest());
  Svc.compile(listRequest());
  EXPECT_EQ(ringCount(Svc, "serve", "request.begin"), 2u);
  EXPECT_EQ(ringCount(Svc, "serve", "cache.miss"), 1u);
  EXPECT_EQ(ringCount(Svc, "serve", "cache.hit"), 1u);
  EXPECT_EQ(ringCount(Svc, "serve", "request.end"), 2u);

  // Untraced, the cold compile recorded nothing of its own; stitched,
  // every compiler event lands in the service ring under its trace id.
  for (const support::TraceEvent &E : Svc.ring().snapshot())
    EXPECT_FALSE(isCompilerEvent(E)) << E.Cat << "." << E.Name;
  ServiceOptions SO;
  SO.StitchTraces = true;
  CompileService Stitched(SO);
  driver::RequestOptions R = listRequest();
  R.RequestId = "stitched";
  ASSERT_TRUE(Stitched.compile(R).Ok);
  unsigned Compiler = 0;
  for (const support::TraceEvent &E : Stitched.ring().snapshot()) {
    if (!isCompilerEvent(E))
      continue;
    ++Compiler;
    EXPECT_EQ(std::string(E.TraceId).rfind("stitched#", 0), 0u) << E.TraceId;
  }
  EXPECT_GT(Compiler, 0u);
}

TEST(ServeProtocol, CompileRequestRoundTrip) {
  ServeRequest Req;
  std::string Error;
  ASSERT_TRUE(parseRequestLine(
      R"({"schema":"gcsafe-serve-v1","id":"r1","op":"compile",)"
      R"("name":"t","source":"int main(void) { return 0; }",)"
      R"("mode":"safepost","machine":"pentium90","run":true,)"
      R"("verify":"each-pass","self_heal":true,"gc_alloc_trigger":5,)"
      R"("cache":false})",
      Req, Error))
      << Error;
  EXPECT_EQ(Req.Op, ServeOp::Compile);
  EXPECT_EQ(Req.Id, "r1");
  EXPECT_EQ(Req.Compile.Name, "t");
  EXPECT_EQ(Req.Compile.Mode, driver::CompileMode::O2SafePost);
  EXPECT_EQ(Req.Compile.MachineName, "pentium90");
  EXPECT_TRUE(Req.Compile.Run);
  EXPECT_EQ(Req.Compile.Verify, driver::SafetyVerify::EachPass);
  EXPECT_TRUE(Req.Compile.SelfHeal);
  EXPECT_EQ(Req.Compile.GcAllocTrigger, 5u);
  EXPECT_FALSE(Req.UseCache);
}

TEST(RequestFields, EveryRowIsKeyedAndBothSpellingsAgree) {
  // The key format (keyFingerprint() versions it): one token per row.
  const std::string Default = canonicalFlagString(driver::RequestOptions());
  EXPECT_EQ(Default,
            "mode=safe;machine=sparc10;run=0;verify=0;verify_ir=0;"
            "self_heal=0;rung=full;pass_deadline=0;fail_inject=;"
            "corrupt_kind=-1;gc_period=0;gc_alloc_trigger=0;"
            "gc_call_period=0;gc_deadline=0;vm_deadline=0;deadline=0;"
            "no_opt1=0;no_opt2=0;slow_bases=0;at_calls_only=0");
  // A non-default value for every Name row; Count and Millis rows take 7.
  const std::map<std::string, std::string> Names = {
      {"mode", "o2"},           {"machine", "sparc2"},
      {"verify", "each-pass"},  {"opt_rung", "peephole"},
      {"fail_inject", "7:opt.pass.corrupt@always"},
      {"corrupt_kind", "drop_kill"}};
  std::set<std::string> Keys;
  for (const driver::RequestField &Row : driver::requestFields()) {
    SCOPED_TRACE(Row.Key);
    std::string Text = "7", Value = "7";
    if (Row.K == driver::RequestField::Switch) {
      Value = "true";
    } else if (Row.K == driver::RequestField::Name) {
      auto It = Names.find(Row.Key);
      ASSERT_NE(It, Names.end()) << "add a sample value for the new row";
      Text = It->second;
      Value = "\"" + Text + "\"";
    }
    ServeRequest Req;
    std::string Error;
    ASSERT_TRUE(parseRequestLine(R"({"source":"","name":"n",")" +
                                     std::string(Row.Key) + "\":" + Value +
                                     "}",
                                 Req, Error))
        << Error;
    const std::string FromJson = canonicalFlagString(Req.Compile);
    EXPECT_NE(FromJson, Default);
    EXPECT_TRUE(Keys.insert(FromJson).second) << "another row keys the same";
    if (!Row.Flag)
      continue;
    std::string Arg = Row.Flag;
    if (Row.K != driver::RequestField::Switch)
      Arg += "=" + Text;
    driver::RequestOptions FromCli;
    ASSERT_TRUE(driver::parseRequestFlag(Arg.c_str(), FromCli, Error));
    EXPECT_EQ(Error, "");
    EXPECT_EQ(canonicalFlagString(FromCli), FromJson) << Arg;
  }
}

TEST(RequestFields, EachSurfaceKeepsItsSpellings) {
  driver::RequestOptions O;
  std::string Error;
  // Forms a flag does not take are unknown options, not bad values.
  for (const char *Arg : {"--mode", "--run=1", "--gc-period", "--verify-ir",
                          "--verify-ir=final", "--self-heal=1", "--safe"})
    EXPECT_FALSE(driver::parseRequestFlag(Arg, O, Error)) << Arg;
  // gcsafe-batch takes only its rows.
  EXPECT_FALSE(driver::parseRequestFlag("--machine=sparc2", O, Error, true));
  EXPECT_TRUE(driver::parseRequestFlag("--gc-alloc-trigger=3", O, Error, true));
  EXPECT_EQ(O.GcAllocTrigger, 3u);
  // A bare --verify-safety means final; "none" is the protocol's alone.
  EXPECT_TRUE(driver::parseRequestFlag("--verify-safety", O, Error));
  EXPECT_EQ(O.Verify, driver::SafetyVerify::Final);
  EXPECT_TRUE(driver::parseRequestFlag("--verify-safety=none", O, Error));
  EXPECT_EQ(Error, "unknown --verify-safety 'none'");
  ServeRequest Req;
  EXPECT_TRUE(parseRequestLine(R"({"source":"","verify":"none"})", Req,
                               Error));
  EXPECT_FALSE(parseRequestLine(R"({"source":"","opt_rung":"quarantined"})",
                                Req, Error));
  EXPECT_EQ(Error, "unknown opt_rung 'quarantined'");
  // Both spellings of an implying field turn on self-heal, also at 0.
  driver::RequestOptions Cli;
  EXPECT_TRUE(driver::parseRequestFlag("--pass-deadline=0", Cli, Error));
  EXPECT_TRUE(Cli.SelfHeal);
  ASSERT_TRUE(parseRequestLine(R"({"source":"","pass_deadline_ms":0})", Req,
                               Error));
  EXPECT_TRUE(Req.Compile.SelfHeal);
  // A value of the wrong JSON type is ignored, as before the table.
  ASSERT_TRUE(parseRequestLine(
      R"({"source":"","run":"yes","mode":3,"gc_period":"5"})", Req, Error));
  EXPECT_EQ(canonicalFlagString(Req.Compile),
            canonicalFlagString(driver::RequestOptions()));
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  ServeRequest Req;
  std::string Error;
  EXPECT_FALSE(parseRequestLine("not json", Req, Error));
  EXPECT_FALSE(parseRequestLine(R"({"op":"compile"})", Req, Error));
  EXPECT_FALSE(parseRequestLine(
      R"({"op":"compile","source":"int main(void){return 0;}",)"
      R"("mode":"o9"})",
      Req, Error));
  EXPECT_FALSE(parseRequestLine(R"({"op":"reboot"})", Req, Error));
  EXPECT_FALSE(
      parseRequestLine(R"({"schema":"gcsafe-serve-v2"})", Req, Error));
}

// A compile that never terminates on its own — only a watchdog or a
// deadline can end it.
const char *kSpinSource = R"(
int main(void) {
  long i;
  i = 0;
  while (1) { i = i + 1; }
  return 0;
}
)";

// Satellite regression (docs/SERVING.md §"Operating under load"): a
// submit racing the service teardown must fail fast with a typed result,
// never enqueue work the joined pool will not run.
TEST(ServeOverload, SubmitRejectedAfterStop) {
  CompileService Svc;
  Svc.stop();
  std::future<ServeResult> F = Svc.submit(listRequest());
  ASSERT_EQ(F.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ServeResult R = F.get();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Status, "shutdown");
  EXPECT_EQ(R.ExitCode, support::ExitOverloaded);
  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.queue.shed"), 1u);
  // Sheds are rejected at admission — they never count as requests.
  EXPECT_EQ(S.get("serve.requests"), 0u);
}

TEST(ServeOverload, DrainShedsNewWorkAndHealthReflectsIt) {
  CompileService Svc;
  ServiceHealth Before = Svc.health();
  EXPECT_TRUE(Before.Ready);
  EXPECT_FALSE(Before.Draining);

  Svc.drain();
  EXPECT_EQ(ringCount(Svc, "serve", "service.drain"), 1u);
  ServiceHealth After = Svc.health();
  EXPECT_FALSE(After.Ready);
  EXPECT_TRUE(After.Draining);

  ServeResult R = Svc.submit(listRequest()).get();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Status, "draining");
  EXPECT_EQ(R.ExitCode, support::ExitOverloaded);
  Svc.waitIdle(); // empty queue: must return immediately, not hang
}

TEST(ServeOverload, QueueFullFailpointShedsTyped) {
  support::FaultInjector FI;
  std::string Error;
  ASSERT_TRUE(
      support::FaultInjector::parse("7:serve.queue.full@n1", FI, Error))
      << Error;
  ServiceOptions SO;
  SO.Faults = &FI;
  CompileService Svc(SO);

  // First submit: the armed failpoint forces the queue-full path.
  ServeResult Shed = Svc.submit(listRequest()).get();
  EXPECT_FALSE(Shed.Ok);
  EXPECT_EQ(Shed.Status, "overloaded");
  EXPECT_EQ(Shed.ExitCode, support::ExitOverloaded);

  // Second submit: the failpoint has fired; admission is open again.
  ServeResult R = Svc.submit(listRequest()).get();
  EXPECT_TRUE(R.Ok);
  EXPECT_TRUE(R.Status.empty());

  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.queue.shed"), 1u);
  EXPECT_EQ(S.get("serve.requests"), 1u);
  EXPECT_EQ(ringCount(Svc, "serve", "queue.shed"), 1u);
}

TEST(ServeDeadline, ExpiredBeforeStartNeverPoisonsCache) {
  CompileService Svc;
  driver::RequestOptions R = listRequest();
  R.DeadlineNs = 1; // expires before compileAt can possibly start
  ServeResult Expired = Svc.compile(R);
  EXPECT_FALSE(Expired.Ok);
  EXPECT_EQ(Expired.Status, "deadline");
  EXPECT_EQ(Expired.ExitCode, support::ExitWatchdogTimeout);

  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.deadline.expired"), 1u);
  EXPECT_EQ(S.get("serve.cache.insertions"), 0u);

  // The same request with a sane budget must compile cold and cleanly —
  // the expiry left nothing behind.
  R.DeadlineNs = 60ull * 1000000000ull;
  ServeResult Fresh = Svc.compile(R);
  EXPECT_TRUE(Fresh.Ok);
  EXPECT_FALSE(Fresh.Cached);
  EXPECT_TRUE(Fresh.Status.empty());
}

TEST(ServeDeadline, CutsOffRunawayAndIsNotCached) {
  CompileService Svc;
  driver::RequestOptions R = listRequest();
  R.Source = kSpinSource;
  R.DeadlineNs = 200ull * 1000000ull; // 200ms against an infinite loop
  ServeResult A = Svc.compile(R);
  EXPECT_FALSE(A.Ok);
  EXPECT_EQ(A.Status, "deadline");
  EXPECT_EQ(A.ExitCode, support::ExitWatchdogTimeout);
  // Timing-dependent results of deadline requests are never cached:
  // the rerun must time out again, not replay a poisoned payload.
  EXPECT_EQ(Svc.statsSnapshot().get("serve.cache.insertions"), 0u);
  ServeResult B = Svc.compile(R);
  EXPECT_FALSE(B.Cached);
  EXPECT_EQ(B.Status, "deadline");
}

TEST(ServeDeadline, BudgetIsPartOfTheCacheKey) {
  CompileService Svc;
  ServeResult NoBudget = Svc.compile(listRequest());
  ASSERT_TRUE(NoBudget.Ok);

  driver::RequestOptions R = listRequest();
  R.DeadlineNs = 60ull * 1000000000ull;
  ServeResult Budgeted = Svc.compile(R);
  ASSERT_TRUE(Budgeted.Ok);
  // A deadline-carrying *success* is content-determined and cacheable,
  // but under its own key: the budget is part of the request identity.
  EXPECT_FALSE(Budgeted.Cached);
  EXPECT_NE(Budgeted.CacheKey, NoBudget.CacheKey);
  EXPECT_TRUE(Svc.compile(R).Cached);
}

TEST(ServeIsolate, CrashIsAttributedToTheRequest) {
  support::FaultInjector FI;
  std::string Error;
  ASSERT_TRUE(
      support::FaultInjector::parse("7:serve.worker.crash@always", FI, Error))
      << Error;
  ServiceOptions SO;
  SO.Isolate = true;
  SO.IsolateRetries = 0;
  SO.Faults = &FI;
  CompileService Svc(SO);

  ServeResult R = Svc.compile(listRequest());
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Status, "crashed");
  EXPECT_EQ(R.ExitCode, support::ExitWorkerCrash);
  EXPECT_NE(R.Error.find("signal"), std::string::npos) << R.Error;
  ASSERT_EQ(R.Attempts.size(), 1u);
  EXPECT_EQ(R.Attempts[0].Outcome, "signal");
  EXPECT_EQ(R.Attempts[0].Signal, SIGSEGV);
  EXPECT_EQ(R.Attempts[0].Rung, "full");

  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.isolate.crashes"), 1u);
  EXPECT_EQ(S.get("serve.isolate.retries"), 0u);
  // Crashes are never cached; the daemon survived by construction.
  EXPECT_EQ(S.get("serve.cache.insertions"), 0u);
}

TEST(ServeIsolate, CrashRetriesOneRungLowerAndRecovers) {
  support::FaultInjector FI;
  std::string Error;
  ASSERT_TRUE(
      support::FaultInjector::parse("7:serve.worker.crash@n1", FI, Error))
      << Error;
  ServiceOptions SO;
  SO.Isolate = true;
  SO.IsolateRetries = 1;
  SO.Faults = &FI;
  CompileService Svc(SO);

  // Attempt 1 crashes (the @n1 trigger), attempt 2 runs one rung lower
  // and lands as a degraded success — the batch driver's recovery
  // policy, now inside the service.
  ServeResult R = Svc.compile(listRequest());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Degraded);
  EXPECT_EQ(R.ExitCode, support::ExitDegradedSuccess);
  EXPECT_NE(R.Rung, "full");
  ASSERT_EQ(R.Attempts.size(), 2u);
  EXPECT_EQ(R.Attempts[0].Rung, "full");
  EXPECT_EQ(R.Attempts[0].Outcome, "signal");
  EXPECT_EQ(R.Attempts[1].Rung, "peephole");
  EXPECT_EQ(R.Attempts[1].Outcome, "degraded");

  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.isolate.crashes"), 1u);
  EXPECT_EQ(S.get("serve.isolate.retries"), 1u);
  EXPECT_EQ(S.get("serve.isolate.requests"), 2u);
}

TEST(ServeIsolate, WarmIsByteIdenticalToColdUnderIsolation) {
  ServiceOptions SO;
  SO.Isolate = true;
  CompileService Svc(SO);
  ServeResult Cold = Svc.compile(listRequest());
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_FALSE(Cold.Cached);
  ASSERT_EQ(Cold.Attempts.size(), 1u);
  EXPECT_EQ(Cold.Attempts[0].Outcome, "ok");

  ServeResult Warm = Svc.compile(listRequest());
  EXPECT_TRUE(Warm.Cached);
  // A hit runs no sandbox, and the cold attempt record never reached
  // the cached bytes: rendering the cold result without it matches.
  EXPECT_TRUE(Warm.Attempts.empty());
  ServeResult Bare = Cold;
  Bare.Attempts.clear();
  EXPECT_EQ(Warm.Rendered->Bytes, renderCacheEntry(Bare)->Bytes);
  // The sandboxed cold path must serialize exactly what the in-process
  // path would have: the byte-identity contract survives --isolate.
  EXPECT_EQ(serveResultToJson(Warm).dump(0), serveResultToJson(Cold).dump(0));

  support::Stats S = Svc.statsSnapshot();
  EXPECT_EQ(S.get("serve.isolate.requests"), 1u); // the warm hit never forks
  EXPECT_EQ(S.get("serve.isolate.crashes"), 0u);
}

TEST(ServeProtocol, HealthAndDrainOpsParse) {
  ServeRequest Req;
  std::string Error;
  ASSERT_TRUE(parseRequestLine(R"({"op":"health","id":"h1"})", Req, Error))
      << Error;
  EXPECT_EQ(Req.Op, ServeOp::Health);
  EXPECT_EQ(Req.Id, "h1");
  ASSERT_TRUE(parseRequestLine(R"({"op":"drain","id":"d1"})", Req, Error))
      << Error;
  EXPECT_EQ(Req.Op, ServeOp::Drain);
}

TEST(ServeProtocol, DeadlineMsParsesToNanoseconds) {
  ServeRequest Req;
  std::string Error;
  ASSERT_TRUE(parseRequestLine(
      R"({"op":"compile","source":"int main(void){return 0;}",)"
      R"("deadline_ms":250})",
      Req, Error))
      << Error;
  EXPECT_EQ(Req.Compile.DeadlineNs, 250ull * 1000000ull);
}

TEST(ServeProtocol, HealthResponseCarriesTheSnapshot) {
  ServiceHealth H;
  H.Ready = true;
  H.Workers = 4;
  H.QueueDepth = 3;
  H.QueueMax = 256;
  H.Isolate = true;
  support::Json J = buildHealthResponse("h1", H, /*Connections=*/2);
  std::string Line = J.dump(0);
  EXPECT_NE(Line.find("\"op\":\"health\""), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"ready\":true"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"workers\":4"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"queue_depth\":3"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"queue_max\":256"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"connections\":2"), std::string::npos) << Line;
}

TEST(ServeProtocol, StatusRoundTripsAndStaysOffNormalResults) {
  ServeResult Typed;
  Typed.Ok = false;
  Typed.ExitCode = support::ExitOverloaded;
  Typed.Status = "overloaded";
  Typed.Error = "queue full";
  ServeResult Back;
  ASSERT_TRUE(serveResultFromJson(serveResultToJson(Typed), Back));
  EXPECT_EQ(Back.Status, "overloaded");
  EXPECT_EQ(Back.ExitCode, support::ExitOverloaded);

  // A normal result serializes with no status field at all.
  ServeResult Normal;
  Normal.Ok = true;
  EXPECT_EQ(serveResultToJson(Normal).dump(0).find("\"status\""),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Request telemetry (docs/OBSERVABILITY.md §8): trace propagation,
// latency histograms, and the crash dump of the event ring.
//===----------------------------------------------------------------------===//

TEST(ServeTelemetry, RequestIdEchoesAndIsGeneratedWhenAbsent) {
  CompileService Svc;
  driver::RequestOptions R = listRequest();
  R.RequestId = "client-7";
  ServeResult A = Svc.compile(R);
  EXPECT_EQ(A.RequestId, "client-7");

  // No client id: the service mints one, so every response is traceable.
  ServeResult B = Svc.compile(listRequest());
  EXPECT_FALSE(B.RequestId.empty());
  EXPECT_EQ(B.RequestId.rfind("r-", 0), 0u) << B.RequestId;
}

TEST(ServeTelemetry, RequestIdIsNotPartOfTheCacheKey) {
  CompileService Svc;
  driver::RequestOptions R = listRequest();
  R.RequestId = "first";
  ServeResult Cold = Svc.compile(R);
  ASSERT_TRUE(Cold.Ok);
  R.RequestId = "second";
  ServeResult Warm = Svc.compile(R);
  // Same compile under a different trace identity still hits, and each
  // response carries its own id — never the cached twin's.
  EXPECT_TRUE(Warm.Cached);
  EXPECT_EQ(Warm.CacheKey, Cold.CacheKey);
  EXPECT_EQ(Cold.RequestId, "first");
  EXPECT_EQ(Warm.RequestId, "second");
}

TEST(ServeTelemetry, DuplicateClientIdsAreUniquifiedInTraces) {
  CompileService Svc;
  driver::RequestOptions R = listRequest();
  R.RequestId = "dup";
  ServeResult A = Svc.compile(R);
  ServeResult B = Svc.compile(R);
  // The response echoes the raw client id both times...
  EXPECT_EQ(A.RequestId, "dup");
  EXPECT_EQ(B.RequestId, "dup");
  // ...but the ring keys each request by a unique "<id>#<seq>"
  // trace id, so duplicate client ids never merge two span trees.
  std::vector<std::string> Begins;
  for (const support::TraceEvent &E : Svc.ring().snapshot())
    if (std::string(E.Name) == "request.begin")
      Begins.push_back(E.TraceId);
  ASSERT_EQ(Begins.size(), 2u);
  EXPECT_NE(Begins[0], Begins[1]);
  EXPECT_EQ(Begins[0].rfind("dup#", 0), 0u) << Begins[0];
  EXPECT_EQ(Begins[1].rfind("dup#", 0), 0u) << Begins[1];
}

TEST(ServeTelemetry, MetricsSnapshotCountsEveryStage) {
  // In-process on the calling thread, then through the pool, where the
  // warm request is answered at admission.
  for (bool Pool : {false, true}) {
    SCOPED_TRACE(Pool ? "submit" : "compile");
    CompileService Svc;
    auto Run = [&] {
      return Pool ? Svc.submit(listRequest()).get()
                  : Svc.compile(listRequest());
    };
    Run(); // cold: compile runs
    Run(); // warm: cache hit, no compile
    support::Json M = Svc.metricsSnapshot();
    EXPECT_EQ(M.get("schema")->asString(), "gcsafe-metrics-v1");
    EXPECT_GT(M.get("uptime_ns")->asInt(), 0);
    EXPECT_EQ(M.get("requests")->asInt(), 2);
    const support::Json *Stages = M.get("stages");
    ASSERT_TRUE(Stages);
    auto Count = [&](const char *Stage) {
      return Stages->get(Stage)->get("count")->asInt();
    };
    // Every request is accounted for end-to-end; only the cold one
    // compiled; both recorded a queue wait and probed the cache once;
    // nothing was isolated.
    EXPECT_EQ(Count("e2e"), 2);
    EXPECT_EQ(Count("queue_wait"), 2);
    EXPECT_EQ(Count("cache_lookup"), 2);
    EXPECT_EQ(Count("compile"), 1);
    EXPECT_EQ(Count("isolate"), 0);
    support::Stats S = Svc.statsSnapshot();
    EXPECT_EQ(S.get("serve.cache.hits"), 1u);
    EXPECT_EQ(S.get("serve.cache.misses"), 1u);
    const support::Json *Queue = M.get("queue");
    ASSERT_TRUE(Queue);
    EXPECT_EQ(Queue->get("depth")->asInt(), 0);
    EXPECT_EQ(Queue->get("shed")->asInt(), 0);
  }
}

/// Checks one Chrome trace_event document — thread-name metadata first,
/// then payload events with nondecreasing timestamps, ph/pid/tid on
/// every event, a nonnegative dur on every "X" — and returns the payload
/// events' phases.
std::multiset<std::string> chromePhases(const support::Json &Doc) {
  std::multiset<std::string> Phases;
  const support::Json *Events = Doc.get("traceEvents");
  EXPECT_NE(Events, nullptr);
  if (!Events)
    return Phases;
  double LastTs = 0;
  for (size_t I = 0; I < Events->size(); ++I) {
    const support::Json &E = Events->at(I);
    EXPECT_TRUE(E.has("ph") && E.has("pid") && E.has("tid")) << I;
    std::string Ph = E.get("ph")->asString();
    if (Ph == "M") {
      EXPECT_TRUE(Phases.empty()) << "metadata after payload";
      EXPECT_EQ(E.get("name")->asString(), "thread_name");
      continue;
    }
    EXPECT_GE(E.get("ts")->asDouble(), LastTs) << I;
    LastTs = E.get("ts")->asDouble();
    if (Ph == "X") {
      EXPECT_GE(E.get("dur")->asDouble(), 0.0) << I;
    }
    Phases.insert(Ph);
  }
  return Phases;
}

// One exporter for both producers: a driver compile+run traced into its
// own ring, and a stitched serve request in the service's ring.
TEST(ServeTelemetry, ChromeExportCoversDriverRunAndServeRequest) {
  support::TraceBuffer Trace(4096);
  driver::Compilation C("list", kListSource);
  driver::CompileOptions CO;
  CO.Mode = driver::CompileMode::O2Safe;
  CO.Trace = &Trace;
  driver::CompileResult CR = C.compile(CO);
  ASSERT_TRUE(CR.Ok);
  vm::VMOptions VO;
  VO.GcAllocTrigger = 16;
  VO.Trace = &Trace;
  vm::VM Machine(CR.Module, VO);
  ASSERT_TRUE(Machine.run().Ok);
  std::multiset<std::string> Driver =
      chromePhases(support::traceToChromeJson(Trace));
  EXPECT_GT(Driver.count("X"), 3u); // phase/pass/collection/run spans

  ServiceOptions SO;
  SO.StitchTraces = true;
  CompileService Svc(SO);
  driver::RequestOptions R = listRequest();
  R.RequestId = "chrome";
  ASSERT_TRUE(Svc.compile(R).Ok);
  support::Json Doc = support::traceToChromeJson(Svc.ring());
  std::multiset<std::string> Serve = chromePhases(Doc);
  EXPECT_EQ(Serve.count("b"), 1u);
  EXPECT_EQ(Serve.count("e"), 1u);
  EXPECT_GT(Serve.count("X"), Driver.count("X") / 2); // stages + compiler
  EXPECT_GT(Serve.count("i"), 0u);                     // cache.miss
  const support::Json *Events = Doc.get("traceEvents");
  for (size_t I = 0; I < Events->size(); ++I) {
    if (Events->at(I).get("ph")->asString() == "b") {
      EXPECT_EQ(Events->at(I).get("id")->asString().rfind("chrome#", 0), 0u);
    }
  }
}

TEST(ServeTelemetry, CrashDumpNamesTheVictim) {
  support::FaultInjector FI;
  std::string Error;
  ASSERT_TRUE(
      support::FaultInjector::parse("7:serve.worker.crash@always", FI, Error))
      << Error;
  ServiceOptions SO;
  SO.Isolate = true;
  SO.IsolateRetries = 0;
  SO.Faults = &FI;
  SO.FlightDir = ::testing::TempDir();
  CompileService Svc(SO);

  driver::RequestOptions R = listRequest();
  R.RequestId = "victim-42";
  ServeResult Res = Svc.compile(R);
  EXPECT_EQ(Res.Status, "crashed");
  EXPECT_EQ(Res.RequestId, "victim-42");

  // The crash left a ring dump attributing the victim.
  std::string Path = SO.FlightDir + "/flightrec-victim-42.json";
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << Path;
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Dump = Buf.str();
  EXPECT_NE(Dump.find("\"schema\":\"gcsafe-flightrec-v1\""),
            std::string::npos);
  EXPECT_NE(Dump.find("\"request_id\":\"victim-42\""), std::string::npos);
  EXPECT_NE(Dump.find("\"reason\":\"crash\""), std::string::npos);
  support::Json J;
  ASSERT_TRUE(support::Json::parse(Dump, J, Error)) << Error;
  EXPECT_GT(J.get("events")->size(), 0u);
}

TEST(ServeProtocol, MetricsOpParsesAndResponseEmbedsSnapshot) {
  ServeRequest Req;
  std::string Error;
  ASSERT_TRUE(parseRequestLine(R"({"op":"metrics","id":"m1"})", Req, Error))
      << Error;
  EXPECT_EQ(Req.Op, ServeOp::Metrics);
  EXPECT_EQ(Req.Id, "m1");

  CompileService Svc;
  Svc.compile(listRequest());
  support::Json Resp = buildMetricsResponse("m1", Svc.metricsSnapshot());
  EXPECT_EQ(Resp.get("op")->asString(), "metrics");
  EXPECT_TRUE(Resp.get("ok")->asBool());
  EXPECT_EQ(Resp.get("metrics")->get("schema")->asString(),
            "gcsafe-metrics-v1");
}

TEST(ServeProtocol, RequestIdParsesAndEchoesInCompileResponse) {
  ServeRequest Req;
  std::string Error;
  ASSERT_TRUE(parseRequestLine(
      R"({"op":"compile","id":"c1","request_id":"rid-9",)"
      R"("source":"int main(void) { return 0; }"})",
      Req, Error))
      << Error;
  EXPECT_EQ(Req.Compile.RequestId, "rid-9");

  ServeResult R;
  R.Ok = true;
  R.RequestId = "rid-9";
  support::Json Resp = buildCompileResponse("c1", R);
  EXPECT_EQ(Resp.get("request_id")->asString(), "rid-9");

  // And absent ids stay absent on the wire.
  R.RequestId.clear();
  EXPECT_FALSE(buildCompileResponse("c1", R).has("request_id"));
}

TEST(ServeProtocol, ServeResultJsonRoundTrip) {
  ServeResult R;
  R.Ok = true;
  R.ExitCode = support::ExitDegradedSuccess;
  R.Degraded = true;
  R.Rung = "peephole";
  R.Quarantined = {"opt2.redundant_check_elim"};
  R.Error = "one pass quarantined";
  ServeResult Back;
  ASSERT_TRUE(serveResultFromJson(serveResultToJson(R), Back));
  EXPECT_EQ(Back.Ok, R.Ok);
  EXPECT_EQ(Back.ExitCode, R.ExitCode);
  EXPECT_EQ(Back.Degraded, R.Degraded);
  EXPECT_EQ(Back.Rung, R.Rung);
  EXPECT_EQ(Back.Quarantined, R.Quarantined);
  EXPECT_EQ(Back.Error, R.Error);
  EXPECT_EQ(serveResultToJson(Back).dump(0), serveResultToJson(R).dump(0));
}

// The durable cache across a service restart (docs/SERVING.md
// §"Durability & restart"): a second service over the same --store-dir
// starts with a clean scrub, replays the first service's cold compile
// from disk byte-identically, and reports the hit as a cache hit.
TEST(ServeStore, RestartReplaysFromDiskByteIdentically) {
  std::string Template = ::testing::TempDir() + "serve_store_XXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  ASSERT_NE(::mkdtemp(Buf.data()), nullptr);
  std::string Dir(Buf.data());

  std::string ColdPayload;
  std::string ColdKey;
  {
    ServiceOptions SO;
    SO.StoreDir = Dir;
    CompileService Svc(SO);
    ASSERT_TRUE(Svc.store());
    ServeResult Cold = Svc.compile(listRequest());
    ASSERT_TRUE(Cold.Ok);
    EXPECT_FALSE(Cold.Cached);
    ColdPayload = serveResultToJson(Cold).dump(0);
    ColdKey = Cold.CacheKey;
    EXPECT_EQ(Svc.store()->stats().Writes, 1u);
  }

  ServiceOptions SO;
  SO.StoreDir = Dir;
  CompileService Svc(SO);
  ASSERT_TRUE(Svc.store());
  // The startup scrub validated the persisted entry.
  const support::Json &Report = Svc.scrubReport();
  EXPECT_EQ(Report.get("schema")->asString(), "gcsafe-store-v1");
  EXPECT_EQ(Report.get("scanned")->asInt(), 1);
  EXPECT_EQ(Report.get("valid")->asInt(), 1);
  EXPECT_EQ(Report.get("quarantined")->asInt(), 0);

  // The memory cache is empty — this hit can only come from disk.
  ServeResult Warm = Svc.compile(listRequest());
  ASSERT_TRUE(Warm.Ok);
  EXPECT_TRUE(Warm.Cached);
  EXPECT_EQ(Warm.CacheKey, ColdKey);
  EXPECT_EQ(serveResultToJson(Warm).dump(0), ColdPayload);
  EXPECT_GE(Svc.store()->stats().Hits, 1u);
  // The store's events land in the service's one event ring.
  EXPECT_EQ(ringCount(Svc, "store", "store.scrub"), 1u);
  EXPECT_GE(ringCount(Svc, "store", "store.hit"), 1u);
  support::Stats S = Svc.statsSnapshot();
  EXPECT_GE(S.get("serve.store.hits"), 1u);
  EXPECT_EQ(S.get("serve.store.quarantined"), 0u);
}

//===----------------------------------------------------------------------===//
// The hit path (docs/SERVING.md §3): keyed on the request as received,
// answered by splicing the request's head onto the rendered cold bytes.
//===----------------------------------------------------------------------===//

/// The line a hit must produce: the cold result rendered field by field
/// by buildCompileResponse, with only the head's cached and request_id
/// changed.
std::string expectedWarmLine(const std::string &Id, ServeResult Cold,
                             const std::string &Rid) {
  Cold.Cached = true;
  Cold.RequestId = Rid;
  Cold.Rendered.reset(); // from the fields, not from the entry
  return buildCompileResponse(Id, Cold).dump(0);
}

/// Compiles \p Req cold then warm and holds the warm line to the cold
/// result's bytes under ids that need escaping and an absent request_id.
void expectSpliceIsExact(const driver::RequestOptions &Req,
                         const std::string &Shape) {
  CompileService Svc;
  ServeResult Cold = Svc.compile(Req);
  ASSERT_FALSE(Cold.Cached) << Shape;
  ASSERT_FALSE(Cold.CacheKey.empty()) << Shape;
  ServeResult Warm = Svc.compile(Req);
  ASSERT_TRUE(Warm.Cached) << Shape;
  ASSERT_TRUE(Warm.Rendered) << Shape;
  EXPECT_EQ(Warm.Ok, Cold.Ok) << Shape;
  EXPECT_EQ(Warm.ExitCode, Cold.ExitCode) << Shape;
  EXPECT_EQ(Warm.Degraded, Cold.Degraded) << Shape;

  const std::pair<std::string, std::string> Heads[] = {
      {"plain", "rid-1"},
      {"q\"uote\\back\nline\x01", "r\"id\t\\x"},
      {"no-request-id", ""},
  };
  for (const auto &[Id, Rid] : Heads) {
    ServeResult W = Warm;
    W.RequestId = Rid;
    EXPECT_EQ(renderCompileResponse(Id, W), expectedWarmLine(Id, Cold, Rid))
        << Shape << " id=" << Id;
    // The slow path a Json-tree caller takes agrees byte for byte.
    EXPECT_EQ(buildCompileResponse(Id, W).dump(0),
              expectedWarmLine(Id, Cold, Rid))
        << Shape << " id=" << Id;
  }
  // The cold line is spliced from the same entry.
  ServeResult Fields = Cold;
  Fields.Rendered.reset();
  EXPECT_EQ(renderCompileResponse("c", Cold),
            buildCompileResponse("c", Fields).dump(0))
      << Shape;
  // In-process readers get the hit's outcome parsed on demand.
  expandCached(Warm);
  EXPECT_EQ(Warm.Rung, Cold.Rung) << Shape;
  EXPECT_EQ(Warm.Quarantined, Cold.Quarantined) << Shape;
  EXPECT_EQ(Warm.Error, Cold.Error) << Shape;
  EXPECT_EQ(Warm.HasReport, Cold.HasReport) << Shape;
  EXPECT_EQ(Warm.HasLint, Cold.HasLint) << Shape;
  EXPECT_EQ(serveResultToJson(Warm).dump(0), serveResultToJson(Cold).dump(0))
      << Shape;
}

TEST(ServeHitPath, SpliceIsByteExactForEveryOutcomeShape) {
  expectSpliceIsExact(listRequest(), "run report");

  driver::RequestOptions Lint = listRequest();
  Lint.Run = false;
  Lint.Verify = driver::SafetyVerify::Final;
  expectSpliceIsExact(Lint, "lint report");

  driver::RequestOptions Degraded = listRequest();
  Degraded.SelfHeal = true;
  Degraded.FailInjectSpec = "7:opt.pass.corrupt@always";
  {
    CompileService Probe;
    ServeResult R = Probe.compile(Degraded);
    ASSERT_TRUE(R.Degraded);
    ASSERT_FALSE(R.Quarantined.empty());
  }
  expectSpliceIsExact(Degraded, "degraded with a quarantined list");

  // The spec parser echoes the bad entry, so the cached error text holds
  // a quote, a backslash and a newline.
  driver::RequestOptions Escapes = listRequest();
  Escapes.FailInjectSpec = "say \"hi\"\\\nthere";
  {
    CompileService Probe;
    ServeResult R = Probe.compile(Escapes);
    ASSERT_FALSE(R.Ok);
    ASSERT_NE(R.Error.find('"'), std::string::npos) << R.Error;
    ASSERT_NE(R.Error.find('\\'), std::string::npos) << R.Error;
    ASSERT_NE(R.Error.find('\n'), std::string::npos) << R.Error;
  }
  expectSpliceIsExact(Escapes, "error text needing escapes");
}

// A source that fails to parse answers with an empty key and inserts
// nothing, however often it is asked — also when identical requests queue
// up behind one another's single-flight leases, and also when only the
// sandbox parses it (Isolate).
TEST(ServeHitPath, ParseFailureIsNeverCached) {
  for (bool Isolate : {false, true}) {
    SCOPED_TRACE(Isolate ? "isolate" : "in-process");
    ServiceOptions SO;
    SO.Workers = 4;
    SO.Isolate = Isolate;
    CompileService Svc(SO);
    driver::RequestOptions R = listRequest();
    R.Source = "int main(void) { return 0;";
    for (int I = 0; I < 2; ++I) {
      ServeResult Res = Svc.compile(R);
      EXPECT_FALSE(Res.Ok);
      EXPECT_EQ(Res.ExitCode, support::ExitError);
      EXPECT_FALSE(Res.Cached);
      EXPECT_TRUE(Res.CacheKey.empty());
      EXPECT_NE(renderCompileResponse("p", Res).find("\"cache_key\":\"\""),
                std::string::npos);
    }
    std::vector<std::future<ServeResult>> Futures;
    for (int I = 0; I < 4; ++I)
      Futures.push_back(Svc.submit(R));
    for (std::future<ServeResult> &F : Futures) {
      ServeResult Res = F.get();
      EXPECT_FALSE(Res.Cached);
      EXPECT_TRUE(Res.CacheKey.empty());
    }
    CacheStats C = Svc.cache().stats();
    EXPECT_EQ(C.Insertions, 0u);
    EXPECT_EQ(C.Entries, 0u);
  }
}

// The key is the source as received: a comment-only change compiles to
// the same thing but is a different key, so it misses (docs/SERVING.md
// "Invalidation rules").
TEST(ServeHitPath, CommentOnlyChangeMisses) {
  CompileService Svc;
  ServeResult A = Svc.compile(listRequest());
  driver::RequestOptions R = listRequest();
  R.Source += "/* a comment: same program, different key */\n";
  ServeResult B = Svc.compile(R);
  EXPECT_FALSE(B.Cached);
  EXPECT_NE(B.CacheKey, A.CacheKey);
  EXPECT_TRUE(Svc.compile(R).Cached);
}

// Leadership is taken at admission, so twins submitted back to back
// resolve cold-then-warm every time, never inverted.
TEST(ServeHitPath, PipelinedColdThenWarmIsDeterministic) {
  for (int Run = 0; Run < 20; ++Run) {
    ServiceOptions SO;
    SO.Workers = 4;
    CompileService Svc(SO);
    std::future<ServeResult> Cold = Svc.submit(listRequest());
    std::future<ServeResult> Warm = Svc.submit(listRequest());
    EXPECT_FALSE(Cold.get().Cached) << "run " << Run;
    EXPECT_TRUE(Warm.get().Cached) << "run " << Run;
  }
}

// Keeps its one list live while collecting after every allocation
// (GcAllocTrigger=1): a cold compile-and-run that holds a worker for tens
// of milliseconds.
const char *kBusySource = R"(
struct node {
  struct node *next;
  long value;
};

int main(void) {
  struct node *head;
  struct node *n;
  long i;
  head = 0;
  for (i = 0; i < 4000; i++) {
    n = (struct node *)gc_malloc(sizeof(struct node));
    n->value = i;
    n->next = head;
    head = n;
  }
  print_int(head->value);
  print_char(10);
  return 0;
}
)";

// A memory hit is answered at admission, on the submitting thread: with
// the only worker held by a slow cold request (the overload_shed set-up
// of bench/bench_serve.cpp), a primed hit's future is ready the moment
// submit() returns, and its line is its cold twin's bytes.
TEST(ServeHitPath, HitIsAnsweredWhileEveryWorkerIsBusy) {
  ServiceOptions SO;
  SO.Workers = 1;
  CompileService Svc(SO);
  driver::RequestOptions Twin = listRequest();
  Twin.RequestId = "cold";
  ServeResult Cold = Svc.submit(Twin).get();
  ASSERT_TRUE(Cold.Ok);
  ASSERT_FALSE(Cold.Cached);

  driver::RequestOptions Busy = listRequest();
  Busy.Name = "busy";
  Busy.Source = kBusySource;
  Busy.GcAllocTrigger = 1;
  std::future<ServeResult> Running = Svc.submit(Busy);
  while (Svc.health().QueueDepth != 0) // the worker has taken it
    std::this_thread::yield();

  Twin.RequestId = "warm";
  std::future<ServeResult> F = Svc.submit(Twin);
  ASSERT_EQ(F.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  // The set-up held: the worker is still on the cold request.
  EXPECT_EQ(Running.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  ServeResult Warm = F.get();
  EXPECT_TRUE(Warm.Cached);
  EXPECT_EQ(renderCompileResponse("w", Warm),
            expectedWarmLine("w", Cold, "warm"));
  EXPECT_TRUE(Running.get().Ok);
}

// A store hit is rendered once when promoted into memory; the replayed
// line is the cold response's bytes.
TEST(ServeStore, RestartReplaysTheColdLineBytes) {
  std::string Template = ::testing::TempDir() + "serve_line_XXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  ASSERT_NE(::mkdtemp(Buf.data()), nullptr);
  ServiceOptions SO;
  SO.StoreDir = Buf.data();

  ServeResult Cold;
  {
    CompileService Svc(SO);
    Cold = Svc.compile(listRequest());
    ASSERT_TRUE(Cold.Ok);
  }
  CompileService Svc(SO);
  driver::RequestOptions R = listRequest();
  R.RequestId = "after-restart";
  ServeResult Warm = Svc.compile(R);
  ASSERT_TRUE(Warm.Cached);
  EXPECT_GE(Svc.store()->stats().Hits, 1u);
  EXPECT_EQ(renderCompileResponse("w", Warm),
            expectedWarmLine("w", Cold, "after-restart"));
  // The promoted entry serves the next hit from memory, same bytes.
  ServeResult Again = Svc.compile(R);
  EXPECT_EQ(renderCompileResponse("w", Again),
            renderCompileResponse("w", Warm));
}

} // namespace
