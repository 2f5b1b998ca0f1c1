//===- driver/Isolate.h - Fork-isolated execution helpers ------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-isolation primitives behind serve::CompileService's Isolate
/// mode, the one isolation and retry path that gcsafe-serve --isolate and
/// gcsafe-batch both use: run a callback in a child process under a
/// parent-enforced SIGKILL deadline, step the degradation ladder for a
/// crash retry, and name a child's exit code (docs/ROBUSTNESS.md §6, §8).
///
/// The contract that makes one SIGSEGV cost one request instead of the
/// process: the child takes everything it needs by value, writes its
/// result to the pipe fd it is handed, and exits. It must never touch a
/// mutex, thread or shared structure of the parent — a fork from a
/// multithreaded process only reproduces the calling thread, so any lock
/// another thread held at fork time is held forever in the child.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_DRIVER_ISOLATE_H
#define GCSAFE_DRIVER_ISOLATE_H

#include "driver/SelfHeal.h"

#include <cstdint>
#include <functional>
#include <string>

namespace gcsafe {
namespace driver {

/// What happened to one forked sandbox attempt.
struct SandboxOutcome {
  enum class Status {
    Exited,    ///< The child exited; ExitCode holds its status.
    Signaled,  ///< The child died on a signal; Signal holds which.
    TimedOut,  ///< The parent SIGKILLed the child at the deadline.
    SpawnError ///< pipe()/fork() failed; nothing ran.
  };
  Status St = Status::SpawnError;
  int ExitCode = 0;
  int Signal = 0;
  uint64_t DurationMs = 0;
  std::string Payload; ///< Everything the child wrote to its payload fd.
};

/// Runs \p Child in a forked process under a wall-clock timeout enforced
/// by the parent (SIGKILL past the deadline; \p TimeoutMs 0 = none). The
/// callback's return value becomes the child's exit status; whatever it
/// writes to the fd it is handed comes back in Payload. The parent drains
/// the pipe while the child runs, so payloads larger than the pipe buffer
/// cannot deadlock. Payload is returned even for Signaled/TimedOut
/// children (it is whatever arrived before death — usually truncated).
SandboxOutcome runInSandbox(const std::function<int(int PayloadFd)> &Child,
                            uint64_t TimeoutMs);

/// Maps a worker exit code (support/ExitCodes.h) to a triage outcome
/// token: "ok", "degraded", "usage", "safety", "timeout", "overloaded",
/// "crashed", or "error".
const char *outcomeForExit(int ExitCode);

} // namespace driver
} // namespace gcsafe

#endif // GCSAFE_DRIVER_ISOLATE_H
