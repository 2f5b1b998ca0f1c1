//===- tools/gcsafe-batch.cpp - Crash-isolated batch compilation ---------===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
// Compiles (and optionally runs) N inputs so one crashing, hanging or
// unsafe input cannot take down the batch (docs/ROBUSTNESS.md §6). The
// batch is a thin client of the isolated compile service
// (serve::CompileService with Isolate): every input is one self-healing
// request, each cache-missing compile runs in a forked sandbox under a
// SIGKILL wall timeout, and a crashed sandbox retries one degradation-
// ladder rung lower. The service's per-sandbox attempt records become a
// gcsafe-batch-v1 triage summary attributing every failure.
//
//   gcsafe-batch --run --timeout=3000 --retries=2 tests/corpus/*.c
//
// Exit status (support/ExitCodes.h): 0 when every input compiled cleanly,
// 5 when the worst outcome was a degraded success, 1 when any input
// failed outright (unless --allow-failures), 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "driver/Isolate.h"
#include "serve/Protocol.h"
#include "support/ExitCodes.h"
#include "support/FaultInject.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

using namespace gcsafe;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gcsafe-batch [options] <file.c>...\n"
      "  --jobs=N            concurrent compile workers (default 4)\n"
      "  --timeout=MS        per-sandbox wall timeout enforced with\n"
      "                      SIGKILL; a timeout is final (default 30000,\n"
      "                      0=none)\n"
      "  --retries=N         retries per input after a sandbox crash; each\n"
      "                      retry enters the degradation ladder one rung\n"
      "                      lower (default 2)\n"
      "  --mode=o2|safe|safepost|debug|checked   compile mode (default\n"
      "                      safe)\n"
      "  --run               execute each program in the VM too\n"
      "  --gc-period=N --gc-alloc-trigger=N      forwarded to the VM\n"
      "  --pass-deadline=MS --gc-deadline=MS --vm-deadline=MS\n"
      "                      forwarded request deadlines\n"
      "  --fail-inject=SEED:SPEC   armed in the service (serve.* sites,\n"
      "                      e.g. serve.worker.crash) and in every request\n"
      "                      (fresh, deterministic per sandbox)\n"
      "  --summary=FILE      write the gcsafe-batch-v1 JSON summary\n"
      "                      ('-' = stdout)\n"
      "  --allow-failures    exit 0 even when inputs failed (the summary\n"
      "                      still records them)\n"
      "Every input goes through one isolated compile service\n"
      "(docs/SERVING.md); identical inputs share one compile.\n");
}

struct InputState {
  std::string Path;
  std::vector<serve::SandboxAttempt> Attempts;
  std::string Detail; ///< Human text for the final attempt.
  std::string Status; ///< "ok" / "degraded" / "failed".
};

/// One line of triage for the final attempt.
std::string resultDetail(const serve::ServeResult &R) {
  std::ostringstream D;
  D << "rung=" << R.Rung << " quarantined=" << R.Quarantined.size();
  if (R.Cached)
    D << " cached";
  if (!R.Error.empty()) {
    std::string E = R.Error.substr(0, R.Error.find('\n'));
    if (E.size() > 400)
      E.resize(400);
    D << " — " << E;
  }
  return D.str();
}

} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = 4;
  uint64_t TimeoutMs = 30000;
  unsigned Retries = 2;
  std::string SummaryPath;
  bool AllowFailures = false;
  support::FaultInjector ServiceFaults;
  driver::RequestOptions Base;
  Base.SelfHeal = true;
  std::vector<InputState> Inputs;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    const char *Rest = nullptr;
    std::string Error;
    if (driver::parseRequestFlag(Arg, Base, Error, /*Batch=*/true)) {
      // The service and the requests draw disjoint sites from one spec.
      if (Error.empty() && driver::flagValue(Arg, "--fail-inject", Rest) &&
          !support::FaultInjector::parse(Rest, ServiceFaults, Error))
        Error = "bad --fail-inject spec: " + Error;
      if (!Error.empty()) {
        std::fprintf(stderr, "%s\n", Error.c_str());
        return support::ExitUsage;
      }
    } else if (driver::flagValue(Arg, "--jobs", Rest)) {
      Jobs = static_cast<unsigned>(std::strtoul(Rest, nullptr, 10));
      if (!Jobs) {
        std::fprintf(stderr, "--jobs must be positive\n");
        return support::ExitUsage;
      }
    } else if (driver::flagValue(Arg, "--timeout", Rest)) {
      TimeoutMs = std::strtoull(Rest, nullptr, 10);
    } else if (driver::flagValue(Arg, "--retries", Rest)) {
      Retries = static_cast<unsigned>(std::strtoul(Rest, nullptr, 10));
    } else if (driver::flagValue(Arg, "--summary", Rest)) {
      SummaryPath = Rest;
    } else if (!std::strcmp(Arg, "--allow-failures")) {
      AllowFailures = true;
    } else if (!std::strcmp(Arg, "--help") || !std::strcmp(Arg, "-h")) {
      usage();
      return support::ExitSuccess;
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      std::fprintf(stderr, "unknown option '%s'\n", Arg);
      usage();
      return support::ExitUsage;
    } else {
      InputState S;
      S.Path = Arg;
      Inputs.push_back(std::move(S));
    }
  }
  if (Inputs.empty()) {
    usage();
    return support::ExitUsage;
  }

  serve::ServiceOptions SO;
  SO.Workers = Jobs;
  SO.Isolate = true;
  SO.IsolateTimeoutMs = TimeoutMs;
  SO.IsolateRetries = Retries;
  SO.QueueMax = 0; // a batch is admitted whole
  if (!Base.FailInjectSpec.empty())
    SO.Faults = &ServiceFaults;
  serve::CompileService Svc(SO);

  std::vector<std::future<serve::ServeResult>> Futures(Inputs.size());
  for (size_t I = 0; I < Inputs.size(); ++I) {
    std::ifstream In(Inputs[I].Path);
    if (!In)
      continue;
    std::stringstream SS;
    SS << In.rdbuf();
    driver::RequestOptions R = Base;
    R.Name = Inputs[I].Path;
    R.Source = SS.str();
    Futures[I] = Svc.submit(std::move(R));
  }

  uint64_t Timeouts = 0, Signals = 0, TotalAttempts = 0;
  unsigned Ok = 0, Degraded = 0, Failed = 0;
  const char *StartRung = driver::optRungName(Base.StartRung);
  for (size_t I = 0; I < Inputs.size(); ++I) {
    InputState &S = Inputs[I];
    serve::SandboxAttempt Synth;
    Synth.Rung = StartRung;
    if (!Futures[I].valid()) {
      Synth.Outcome = "error";
      Synth.ExitCode = support::ExitError;
      S.Attempts.push_back(std::move(Synth));
      S.Detail = "cannot open input";
    } else {
      serve::ServeResult R = Futures[I].get();
      serve::expandCached(R); // a hit's rung/quarantine/error
      S.Attempts = std::move(R.Attempts);
      // A cache hit or a shed ran no sandbox: it is one attempt.
      if (S.Attempts.empty()) {
        Synth.Outcome = driver::outcomeForExit(R.ExitCode);
        Synth.ExitCode = R.ExitCode;
        S.Attempts.push_back(std::move(Synth));
      }
      S.Detail = resultDetail(R);
    }
    for (size_t J = 0; J < S.Attempts.size(); ++J) {
      const serve::SandboxAttempt &A = S.Attempts[J];
      Timeouts += A.Outcome == "timeout";
      Signals += A.Outcome == "signal";
      bool Last = J + 1 == S.Attempts.size();
      std::fprintf(stderr,
                   "gcsafe-batch: [%s] attempt %zu at rung %s: %s%s%s\n",
                   S.Path.c_str(), J + 1, A.Rung.c_str(), A.Outcome.c_str(),
                   Last ? " — " : "", Last ? S.Detail.c_str() : "");
    }
    TotalAttempts += S.Attempts.size();
    const std::string &Out = S.Attempts.back().Outcome;
    S.Status = Out == "ok" ? "ok" : Out == "degraded" ? "degraded" : "failed";
    Ok += S.Status == "ok";
    Degraded += S.Status == "degraded";
    Failed += S.Status == "failed";
  }
  std::fprintf(stderr,
               "gcsafe-batch: %zu input(s): %u ok, %u degraded, %u failed; "
               "%llu attempt(s), %llu timeout(s), %llu signal(s)\n",
               Inputs.size(), Ok, Degraded, Failed,
               static_cast<unsigned long long>(TotalAttempts),
               static_cast<unsigned long long>(Timeouts),
               static_cast<unsigned long long>(Signals));

  if (!SummaryPath.empty()) {
    using support::Json;
    Json Root = Json::object();
    Root["schema"] = Json::string("gcsafe-batch-v1");
    Root["mode"] = Json::string(driver::compileModeName(Base.Mode));
    Root["jobs"] = Json::integer(uint64_t(Jobs));
    Root["timeout_ms"] = Json::integer(TimeoutMs);
    Root["retries"] = Json::integer(uint64_t(Retries));
    Json InputsJ = Json::array();
    for (const InputState &S : Inputs) {
      Json E = Json::object();
      E["input"] = Json::string(S.Path);
      E["status"] = Json::string(S.Status);
      Json Attempts = Json::array();
      for (const serve::SandboxAttempt &A : S.Attempts) {
        Json AJ = Json::object();
        AJ["rung"] = Json::string(A.Rung);
        AJ["outcome"] = Json::string(A.Outcome);
        AJ["exit_code"] = Json::integer(int64_t(A.ExitCode));
        AJ["signal"] = Json::integer(int64_t(A.Signal));
        AJ["duration_ms"] = Json::integer(A.DurationMs);
        if (&A == &S.Attempts.back())
          AJ["detail"] = Json::string(S.Detail);
        Attempts.push(std::move(AJ));
      }
      E["attempts"] = std::move(Attempts);
      InputsJ.push(std::move(E));
    }
    Root["inputs"] = std::move(InputsJ);
    // The serve.* stats tree: workers, request/response counters, cache,
    // isolate and verify-memo counters.
    Json Tree = Svc.statsSnapshot().toJson();
    const Json *Serve = Tree.get("serve");
    Root["service"] = Serve ? *Serve : Json::object();
    Json Totals = Json::object();
    Totals["inputs"] = Json::integer(uint64_t(Inputs.size()));
    Totals["ok"] = Json::integer(uint64_t(Ok));
    Totals["degraded"] = Json::integer(uint64_t(Degraded));
    Totals["failed"] = Json::integer(uint64_t(Failed));
    Totals["attempts"] = Json::integer(TotalAttempts);
    Totals["retries"] = Json::integer(TotalAttempts - Inputs.size());
    Totals["timeouts"] = Json::integer(Timeouts);
    Totals["signals"] = Json::integer(Signals);
    Root["totals"] = std::move(Totals);

    std::string Text = Root.dump();
    if (SummaryPath == "-") {
      std::fputs(Text.c_str(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::ofstream Out(SummaryPath);
      if (!Out) {
        std::fprintf(stderr, "gcsafe-batch: cannot write '%s'\n",
                     SummaryPath.c_str());
        return support::ExitError;
      }
      Out << Text << "\n";
    }
  }

  if (Failed && !AllowFailures)
    return support::ExitError;
  if (Degraded && !AllowFailures)
    return support::ExitDegradedSuccess;
  return support::ExitSuccess;
}
