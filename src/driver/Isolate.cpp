//===- driver/Isolate.cpp -------------------------------------*- C++ -*-===//

#include "driver/Isolate.h"

#include "support/ExitCodes.h"
#include "support/Stats.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace gcsafe;
using namespace gcsafe::driver;

const char *gcsafe::driver::outcomeForExit(int ExitCode) {
  switch (ExitCode) {
  case support::ExitSuccess: return "ok";
  case support::ExitDegradedSuccess: return "degraded";
  case support::ExitUsage: return "usage";
  case support::ExitSafetyViolation:
  case support::ExitMutantEscape: return "safety";
  case support::ExitWatchdogTimeout: return "timeout";
  case support::ExitOverloaded: return "overloaded";
  case support::ExitWorkerCrash: return "crashed";
  default: return "error";
  }
}

SandboxOutcome
gcsafe::driver::runInSandbox(const std::function<int(int PayloadFd)> &Child,
                             uint64_t TimeoutMs) {
  SandboxOutcome Out;
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return Out;

  uint64_t StartNs = support::monotonicNowNs();
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Pipe[0]);
    close(Pipe[1]);
    return Out;
  }
  if (Pid == 0) {
    close(Pipe[0]);
    int Code = Child(Pipe[1]);
    close(Pipe[1]);
    _exit(Code);
  }

  close(Pipe[1]);
  int Flags = fcntl(Pipe[0], F_GETFL, 0);
  fcntl(Pipe[0], F_SETFL, Flags | O_NONBLOCK);

  uint64_t DeadlineNs = TimeoutMs ? StartNs + TimeoutMs * 1000000ull : 0;
  bool TimedOut = false;
  int Status = 0;
  char Buf[4096];
  for (;;) {
    // Drain the pipe while the child runs so a payload larger than the
    // pipe buffer cannot wedge the child in write().
    for (;;) {
      ssize_t N = read(Pipe[0], Buf, sizeof(Buf));
      if (N <= 0)
        break;
      Out.Payload.append(Buf, static_cast<size_t>(N));
    }
    pid_t P = waitpid(Pid, &Status, WNOHANG);
    if (P == Pid)
      break;
    if (P < 0 && errno != EINTR) { // unreachable short of a kernel bug
      kill(Pid, SIGKILL);
      waitpid(Pid, &Status, 0);
      break;
    }
    if (DeadlineNs && !TimedOut && support::monotonicNowNs() > DeadlineNs) {
      TimedOut = true;
      kill(Pid, SIGKILL);
    }
    usleep(2000);
  }
  // The child is gone; collect whatever is still buffered.
  for (;;) {
    ssize_t N = read(Pipe[0], Buf, sizeof(Buf));
    if (N <= 0)
      break;
    Out.Payload.append(Buf, static_cast<size_t>(N));
  }
  close(Pipe[0]);

  Out.DurationMs = (support::monotonicNowNs() - StartNs) / 1000000ull;
  if (TimedOut) {
    Out.St = SandboxOutcome::Status::TimedOut;
    Out.Signal = SIGKILL;
  } else if (WIFSIGNALED(Status)) {
    Out.St = SandboxOutcome::Status::Signaled;
    Out.Signal = WTERMSIG(Status);
  } else {
    Out.St = SandboxOutcome::Status::Exited;
    Out.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }
  return Out;
}
