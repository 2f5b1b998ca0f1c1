//===- tools/gcsafe-batch.cpp - Crash-isolated batch compilation ---------===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
// Compiles (and optionally runs) N inputs through fork-isolated workers so
// one crashing, hanging or unsafe input cannot take down the batch
// (docs/ROBUSTNESS.md §6). Each worker is a fresh process running the
// self-healing pipeline; the parent enforces a per-attempt wall timeout
// (SIGKILL), retries failed attempts with exponential backoff — each retry
// entering the degradation ladder one rung lower — and writes a
// gcsafe-batch-v1 triage summary attributing every failure.
//
//   gcsafe-batch --run --timeout=3000 --retries=2 tests/corpus/*.c
//
// Exit status (support/ExitCodes.h): 0 when every input compiled cleanly,
// 5 when the worst outcome was a degraded success, 1 when any input
// failed outright (unless --allow-failures), 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "analysis/SafetyVerifier.h"
#include "driver/Isolate.h"
#include "driver/Pipeline.h"
#include "driver/SelfHeal.h"
#include "serve/Protocol.h"
#include "support/ExitCodes.h"
#include "support/FaultInject.h"
#include "support/Stats.h"
#include "vm/VM.h"

#include <future>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace gcsafe;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gcsafe-batch [options] <file.c>...\n"
      "  --jobs=N            concurrent workers (default 4)\n"
      "  --timeout=MS        per-attempt wall timeout enforced by the\n"
      "                      parent with SIGKILL (default 30000, 0=none)\n"
      "  --retries=N         retries per input after a timeout, crash or\n"
      "                      safety failure; each retry enters the\n"
      "                      degradation ladder one rung lower (default 2)\n"
      "  --backoff-ms=MS     base retry backoff, doubled per retry\n"
      "                      (default 50)\n"
      "  --mode=o2|safe|safepost|debug|checked   compile mode (default\n"
      "                      safe)\n"
      "  --run               execute each program in the VM too\n"
      "  --gc-period=N --gc-alloc-trigger=N      forwarded to the VM\n"
      "  --pass-deadline=MS --gc-deadline=MS --vm-deadline=MS\n"
      "                      forwarded worker deadlines\n"
      "  --fail-inject=SEED:SPEC   armed in every worker (fresh,\n"
      "                      deterministic per process)\n"
      "  --summary=FILE      write the gcsafe-batch-v1 JSON summary\n"
      "                      ('-' = stdout)\n"
      "  --allow-failures    exit 0 even when inputs failed (the summary\n"
      "                      still records them)\n"
      "  --kill-input=SUBSTR test hook: the worker whose input path\n"
      "                      contains SUBSTR raises SIGKILL on its first\n"
      "                      attempt, exercising the crash-retry path\n"
      "                      (fork mode only)\n"
      "  --service           submit inputs through an in-process\n"
      "                      serve::CompileService thread pool instead of\n"
      "                      forking one process per attempt\n"
      "                      (docs/SERVING.md). Self-heal ladder and\n"
      "                      quarantine state stay per-request; repeated\n"
      "                      identical inputs hit the content-addressed\n"
      "                      cache. No SIGKILL crash isolation: --timeout,\n"
      "                      --retries and --kill-input do not apply\n");
}

bool startsWith(const char *Arg, const char *Prefix, const char *&Rest) {
  size_t Len = std::strlen(Prefix);
  if (std::strncmp(Arg, Prefix, Len) != 0)
    return false;
  Rest = Arg + Len;
  return true;
}

struct BatchOptions {
  unsigned Jobs = 4;
  uint64_t TimeoutMs = 30000;
  unsigned Retries = 2;
  uint64_t BackoffMs = 50;
  driver::CompileMode Mode = driver::CompileMode::O2Safe;
  bool Run = false;
  uint64_t GcPeriod = 0;
  uint64_t GcAllocTrigger = 0;
  uint64_t PassDeadlineNs = 0, GcDeadlineNs = 0, VmDeadlineNs = 0;
  std::string FailInjectSpec;
  std::string SummaryPath;
  bool AllowFailures = false;
  std::string KillInputSubstr;
  bool Service = false;
};

const char *modeName(driver::CompileMode M) {
  return driver::compileModeName(M);
}

/// The worker body, run in the forked child. Returns the process exit
/// code; a one-line human detail is written to \p DetailFd first.
int runWorker(const std::string &Path, driver::OptRung Rung,
              unsigned AttemptIdx, const BatchOptions &O, int DetailFd) {
  auto Detail = [&](const std::string &Text) {
    if (!Text.empty()) {
      ssize_t W = write(DetailFd, Text.data(), Text.size());
      (void)W;
    }
  };

  // Test hook: simulate a worker crash (a compiler bug segfaulting, an
  // OOM kill) on the first attempt so the retry path is exercised.
  if (!O.KillInputSubstr.empty() && AttemptIdx == 0 &&
      Path.find(O.KillInputSubstr) != std::string::npos)
    raise(SIGKILL);

  std::ifstream In(Path);
  if (!In) {
    Detail("cannot open input");
    return support::ExitError;
  }
  std::stringstream SS;
  SS << In.rdbuf();

  driver::Compilation Comp(Path, SS.str());
  if (!Comp.parse()) {
    Detail("parse failed");
    return support::ExitError;
  }

  support::FaultInjector Faults;
  bool UseFaults = false;
  if (!O.FailInjectSpec.empty()) {
    std::string Error;
    if (!support::FaultInjector::parse(O.FailInjectSpec, Faults, Error)) {
      Detail("bad --fail-inject spec: " + Error);
      return support::ExitUsage;
    }
    UseFaults = true;
  }

  driver::CompileOptions CO;
  CO.Mode = O.Mode;
  driver::SelfHealOptions SH;
  SH.StartRung = Rung;
  SH.PassDeadlineNs = O.PassDeadlineNs;
  SH.Faults = UseFaults ? &Faults : nullptr;
  driver::SelfHealReport Heal;
  driver::CompileResult CR = driver::compileSelfHealing(Comp, CO, SH, Heal);
  if (!CR.Ok) {
    Detail("compile failed");
    return support::ExitError;
  }
  if (!Heal.Ok) {
    Detail("unsafe at every rung: " +
           (CR.SafetyDiags.empty()
                ? std::string("(no diagnostic)")
                : analysis::formatSafetyDiag(CR.SafetyDiags.front())));
    return support::ExitSafetyViolation;
  }

  std::ostringstream D;
  D << "rung=" << driver::optRungName(Heal.Rung)
    << " rollbacks=" << Heal.Rollbacks.size()
    << " quarantined=" << Heal.Quarantined.size();

  if (O.Run) {
    vm::VMOptions VO;
    VO.GcInstructionPeriod = O.GcPeriod;
    VO.GcAllocTrigger = O.GcAllocTrigger;
    VO.VmDeadlineNs = O.VmDeadlineNs;
    VO.GcDeadlineNs = O.GcDeadlineNs;
    if (UseFaults)
      VO.Faults = &Faults;
    vm::VM Machine(CR.Module, VO);
    vm::RunResult R = Machine.run();
    if (R.WatchdogTimeout) {
      Detail(R.Error);
      return support::ExitWatchdogTimeout;
    }
    if (!R.Ok) {
      Detail("runtime error: " + R.Error);
      return support::ExitError;
    }
    if (R.ExitCode != 0) {
      D << " exit=" << R.ExitCode;
      Detail(D.str());
      return static_cast<int>(R.ExitCode & 0xFF);
    }
  }

  Detail(D.str());
  return Heal.Degraded ? support::ExitDegradedSuccess : support::ExitSuccess;
}

struct AttemptRecord {
  std::string Rung;
  std::string Outcome;
  int ExitCode = 0;
  int Signal = 0;
  uint64_t DurationMs = 0;
  std::string Detail;
};

struct InputState {
  std::string Path;
  driver::OptRung Rung = driver::OptRung::Full;
  unsigned AttemptIdx = 0;
  uint64_t NotBeforeNs = 0;
  std::vector<AttemptRecord> Attempts;
  std::string Status; ///< Empty until final: "ok" / "degraded" / "failed".
};

struct RunningWorker {
  pid_t Pid = -1;
  size_t Input = 0;
  uint64_t StartNs = 0;
  uint64_t DeadlineNs = 0; ///< 0 = no timeout.
  int DetailFd = -1;
  bool TimedOut = false;
};

// The ladder step, the exit-code triage and the wait-status
// classification live in driver/Isolate.h now, shared with
// gcsafe-serve --isolate.

/// Folds one reaped wait status into an attempt record, keeping a detail
/// line the worker wrote over the classifier's default.
void classify(int Status, bool TimedOut, AttemptRecord &A) {
  driver::WaitClassification C = driver::classifyWaitStatus(Status, TimedOut);
  A.Outcome = C.Outcome;
  A.ExitCode = C.ExitCode;
  A.Signal = C.Signal;
  if (A.Detail.empty())
    A.Detail = C.DefaultDetail;
}

std::string readDetail(int Fd) {
  std::string Out;
  char Buf[512];
  for (;;) {
    ssize_t N = read(Fd, Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Out.append(Buf, static_cast<size_t>(N));
  }
  // One line only; workers write exactly one, but be defensive.
  size_t NL = Out.find('\n');
  if (NL != std::string::npos)
    Out.resize(NL);
  if (Out.size() > 400)
    Out.resize(400);
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  BatchOptions O;
  std::vector<InputState> Inputs;

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    const char *Rest = nullptr;
    if (startsWith(Arg, "--jobs=", Rest)) {
      O.Jobs = static_cast<unsigned>(std::strtoul(Rest, nullptr, 10));
      if (!O.Jobs) {
        std::fprintf(stderr, "--jobs must be positive\n");
        return support::ExitUsage;
      }
    } else if (startsWith(Arg, "--timeout=", Rest)) {
      O.TimeoutMs = std::strtoull(Rest, nullptr, 10);
    } else if (startsWith(Arg, "--retries=", Rest)) {
      O.Retries = static_cast<unsigned>(std::strtoul(Rest, nullptr, 10));
    } else if (startsWith(Arg, "--backoff-ms=", Rest)) {
      O.BackoffMs = std::strtoull(Rest, nullptr, 10);
    } else if (startsWith(Arg, "--mode=", Rest)) {
      std::string M = Rest;
      if (M == "o2")
        O.Mode = driver::CompileMode::O2;
      else if (M == "safe")
        O.Mode = driver::CompileMode::O2Safe;
      else if (M == "safepost")
        O.Mode = driver::CompileMode::O2SafePost;
      else if (M == "debug")
        O.Mode = driver::CompileMode::Debug;
      else if (M == "checked")
        O.Mode = driver::CompileMode::DebugChecked;
      else {
        std::fprintf(stderr, "unknown mode '%s'\n", Rest);
        return support::ExitUsage;
      }
    } else if (!std::strcmp(Arg, "--run")) {
      O.Run = true;
    } else if (startsWith(Arg, "--gc-period=", Rest)) {
      O.GcPeriod = std::strtoull(Rest, nullptr, 10);
    } else if (startsWith(Arg, "--gc-alloc-trigger=", Rest)) {
      O.GcAllocTrigger = std::strtoull(Rest, nullptr, 10);
    } else if (startsWith(Arg, "--pass-deadline=", Rest)) {
      O.PassDeadlineNs = std::strtoull(Rest, nullptr, 10) * 1000000ull;
    } else if (startsWith(Arg, "--gc-deadline=", Rest)) {
      O.GcDeadlineNs = std::strtoull(Rest, nullptr, 10) * 1000000ull;
    } else if (startsWith(Arg, "--vm-deadline=", Rest)) {
      O.VmDeadlineNs = std::strtoull(Rest, nullptr, 10) * 1000000ull;
    } else if (startsWith(Arg, "--fail-inject=", Rest)) {
      // Validate up front; workers re-parse their own fresh copy.
      support::FaultInjector Probe;
      std::string Error;
      if (!support::FaultInjector::parse(Rest, Probe, Error)) {
        std::fprintf(stderr, "bad --fail-inject spec: %s\n", Error.c_str());
        return support::ExitUsage;
      }
      O.FailInjectSpec = Rest;
    } else if (startsWith(Arg, "--summary=", Rest)) {
      O.SummaryPath = Rest;
    } else if (!std::strcmp(Arg, "--allow-failures")) {
      O.AllowFailures = true;
    } else if (startsWith(Arg, "--kill-input=", Rest)) {
      O.KillInputSubstr = Rest;
    } else if (!std::strcmp(Arg, "--service")) {
      O.Service = true;
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
  if (O.Service && !O.KillInputSubstr.empty()) {
    std::fprintf(stderr,
                 "--kill-input needs fork isolation; it cannot be combined "
                 "with --service\n");
    return support::ExitUsage;
  }

  std::vector<RunningWorker> Running;
  size_t Done = 0;
  uint64_t Timeouts = 0, Signals = 0, TotalAttempts = 0;
  support::Json ServiceJ; // null unless --service ran

  if (O.Service) {
    // In-process mode (docs/SERVING.md): one CompileService, one request
    // per input through the worker pool. Each request owns its fault
    // injector, ladder and quarantine set, so a degraded input cannot
    // poison the next — the property tests/test_serve.cpp proves.
    serve::ServiceOptions SO;
    SO.Workers = O.Jobs;
    serve::CompileService Svc(SO);
    std::vector<std::future<serve::ServeResult>> Futures(Inputs.size());
    std::vector<std::string> ReadErrors(Inputs.size());
    std::vector<uint64_t> StartNs(Inputs.size());
    for (size_t I = 0; I < Inputs.size(); ++I) {
      std::ifstream In(Inputs[I].Path);
      if (!In) {
        ReadErrors[I] = "cannot open input";
        continue;
      }
      std::stringstream SS;
      SS << In.rdbuf();
      driver::RequestOptions R;
      R.Name = Inputs[I].Path;
      R.Source = SS.str();
      R.Mode = O.Mode;
      R.SelfHeal = true;
      R.PassDeadlineNs = O.PassDeadlineNs;
      R.FailInjectSpec = O.FailInjectSpec;
      R.Run = O.Run;
      R.GcInstructionPeriod = O.GcPeriod;
      R.GcAllocTrigger = O.GcAllocTrigger;
      R.GcDeadlineNs = O.GcDeadlineNs;
      R.VmDeadlineNs = O.VmDeadlineNs;
      StartNs[I] = support::monotonicNowNs();
      Futures[I] = Svc.submit(std::move(R));
    }
    for (size_t I = 0; I < Inputs.size(); ++I) {
      InputState &S = Inputs[I];
      AttemptRecord A;
      A.Rung = driver::optRungName(S.Rung);
      if (!ReadErrors[I].empty()) {
        A.Outcome = "error";
        A.ExitCode = support::ExitError;
        A.Detail = ReadErrors[I];
      } else {
        serve::ServeResult R = Futures[I].get();
        serve::expandCached(R); // a hit's rung/quarantine/error
        A.DurationMs =
            (support::monotonicNowNs() - StartNs[I]) / 1000000ull;
        A.ExitCode = R.ExitCode;
        A.Outcome = driver::outcomeForExit(R.ExitCode);
        A.Rung = R.Rung;
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
        A.Detail = D.str();
      }
      ++TotalAttempts;
      if (A.Outcome == "timeout")
        ++Timeouts;
      std::fprintf(stderr, "gcsafe-batch: [%s] service request: %s%s%s\n",
                   S.Path.c_str(), A.Outcome.c_str(),
                   A.Detail.empty() ? "" : " — ", A.Detail.c_str());
      S.Status = A.Outcome == "ok"         ? "ok"
                 : A.Outcome == "degraded" ? "degraded"
                                           : "failed";
      S.Attempts.push_back(std::move(A));
      ++Done;
    }
    support::Json Tree = Svc.statsSnapshot().toJson();
    if (const support::Json *Serve = Tree.get("serve"))
      ServiceJ = *Serve;
    else
      ServiceJ = support::Json::object();
  }

  auto Spawn = [&](size_t Idx) -> bool {
    InputState &S = Inputs[Idx];
    int Pipe[2];
    if (pipe(Pipe) != 0) {
      std::fprintf(stderr, "gcsafe-batch: pipe: %s\n", std::strerror(errno));
      return false;
    }
    pid_t Pid = fork();
    if (Pid < 0) {
      std::fprintf(stderr, "gcsafe-batch: fork: %s\n", std::strerror(errno));
      close(Pipe[0]);
      close(Pipe[1]);
      return false;
    }
    if (Pid == 0) {
      close(Pipe[0]);
      int Code = runWorker(S.Path, S.Rung, S.AttemptIdx, O, Pipe[1]);
      close(Pipe[1]);
      _exit(Code);
    }
    close(Pipe[1]);
    int Flags = fcntl(Pipe[0], F_GETFL, 0);
    fcntl(Pipe[0], F_SETFL, Flags | O_NONBLOCK);
    RunningWorker W;
    W.Pid = Pid;
    W.Input = Idx;
    W.StartNs = support::monotonicNowNs();
    W.DeadlineNs =
        O.TimeoutMs ? W.StartNs + O.TimeoutMs * 1000000ull : 0;
    W.DetailFd = Pipe[0];
    Running.push_back(W);
    return true;
  };

  auto Reap = [&](size_t RIdx, int Status) {
    RunningWorker W = Running[RIdx];
    Running.erase(Running.begin() + RIdx);
    InputState &S = Inputs[W.Input];
    AttemptRecord A;
    A.Rung = driver::optRungName(S.Rung);
    A.DurationMs = (support::monotonicNowNs() - W.StartNs) / 1000000ull;
    A.Detail = readDetail(W.DetailFd);
    close(W.DetailFd);
    classify(Status, W.TimedOut, A);
    ++TotalAttempts;
    if (A.Outcome == "timeout")
      ++Timeouts;
    if (A.Outcome == "signal")
      ++Signals;

    bool Retryable = A.Outcome == "timeout" || A.Outcome == "signal" ||
                     A.Outcome == "safety";
    std::fprintf(stderr, "gcsafe-batch: [%s] attempt %u at rung %s: %s%s%s\n",
                 S.Path.c_str(), S.AttemptIdx + 1, A.Rung.c_str(),
                 A.Outcome.c_str(), A.Detail.empty() ? "" : " — ",
                 A.Detail.c_str());
    S.Attempts.push_back(std::move(A));

    if (Retryable && S.AttemptIdx < O.Retries) {
      // Back off exponentially and re-enter the ladder one rung lower: a
      // crash or hang at full optimization often clears at a simpler one.
      uint64_t Backoff = O.BackoffMs << S.AttemptIdx;
      S.NotBeforeNs = support::monotonicNowNs() + Backoff * 1000000ull;
      S.Rung = driver::lowerRung(S.Rung);
      ++S.AttemptIdx;
      return;
    }
    const std::string &Out = S.Attempts.back().Outcome;
    S.Status = Out == "ok" ? "ok" : Out == "degraded" ? "degraded" : "failed";
    ++Done;
  };

  while (Done < Inputs.size()) {
    uint64_t Now = support::monotonicNowNs();
    // Launch eligible inputs into free worker slots.
    for (size_t I = 0; I < Inputs.size() && Running.size() < O.Jobs; ++I) {
      InputState &S = Inputs[I];
      if (!S.Status.empty() || S.NotBeforeNs > Now)
        continue;
      bool IsRunning = false;
      for (const RunningWorker &W : Running)
        if (W.Input == I)
          IsRunning = true;
      if (IsRunning)
        continue;
      if (!Spawn(I)) {
        S.Status = "failed";
        AttemptRecord A;
        A.Rung = driver::optRungName(S.Rung);
        A.Outcome = "error";
        A.ExitCode = -1;
        A.Detail = "spawn failed";
        S.Attempts.push_back(std::move(A));
        ++TotalAttempts;
        ++Done;
      }
    }

    // Reap any finished worker.
    int Status = 0;
    pid_t P = waitpid(-1, &Status, WNOHANG);
    if (P > 0) {
      for (size_t R = 0; R < Running.size(); ++R)
        if (Running[R].Pid == P) {
          Reap(R, Status);
          break;
        }
      continue; // There may be more to reap; skip the sleep.
    }

    // Enforce attempt timeouts.
    Now = support::monotonicNowNs();
    for (RunningWorker &W : Running)
      if (W.DeadlineNs && Now > W.DeadlineNs && !W.TimedOut) {
        W.TimedOut = true;
        kill(W.Pid, SIGKILL);
      }

    usleep(5000);
  }

  unsigned Ok = 0, Degraded = 0, Failed = 0;
  for (const InputState &S : Inputs) {
    if (S.Status == "ok")
      ++Ok;
    else if (S.Status == "degraded")
      ++Degraded;
    else
      ++Failed;
  }
  std::fprintf(stderr,
               "gcsafe-batch: %zu input(s): %u ok, %u degraded, %u failed; "
               "%llu attempt(s), %llu timeout(s), %llu signal(s)\n",
               Inputs.size(), Ok, Degraded, Failed,
               static_cast<unsigned long long>(TotalAttempts),
               static_cast<unsigned long long>(Timeouts),
               static_cast<unsigned long long>(Signals));

  if (!O.SummaryPath.empty()) {
    using support::Json;
    Json Root = Json::object();
    Root["schema"] = Json::string("gcsafe-batch-v1");
    Root["mode"] = Json::string(modeName(O.Mode));
    Root["jobs"] = Json::integer(uint64_t(O.Jobs));
    Root["timeout_ms"] = Json::integer(O.TimeoutMs);
    Root["retries"] = Json::integer(uint64_t(O.Retries));
    Json InputsJ = Json::array();
    for (const InputState &S : Inputs) {
      Json E = Json::object();
      E["input"] = Json::string(S.Path);
      E["status"] = Json::string(S.Status);
      Json Attempts = Json::array();
      for (const AttemptRecord &A : S.Attempts) {
        Json AJ = Json::object();
        AJ["rung"] = Json::string(A.Rung);
        AJ["outcome"] = Json::string(A.Outcome);
        AJ["exit_code"] = Json::integer(int64_t(A.ExitCode));
        AJ["signal"] = Json::integer(int64_t(A.Signal));
        AJ["duration_ms"] = Json::integer(A.DurationMs);
        if (!A.Detail.empty())
          AJ["detail"] = Json::string(A.Detail);
        Attempts.push(std::move(AJ));
      }
      E["attempts"] = std::move(Attempts);
      InputsJ.push(std::move(E));
    }
    Root["inputs"] = std::move(InputsJ);
    // Present only under --service: the serve.* stats tree (workers,
    // request/response counters, cache and verify-memo hit rates).
    if (!ServiceJ.isNull())
      Root["service"] = ServiceJ;
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
    if (O.SummaryPath == "-") {
      std::fputs(Text.c_str(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::ofstream Out(O.SummaryPath);
      if (!Out) {
        std::fprintf(stderr, "gcsafe-batch: cannot write '%s'\n",
                     O.SummaryPath.c_str());
        return support::ExitError;
      }
      Out << Text << "\n";
    }
  }

  if (Failed && !O.AllowFailures)
    return support::ExitError;
  if (Degraded && !O.AllowFailures)
    return support::ExitDegradedSuccess;
  return support::ExitSuccess;
}
