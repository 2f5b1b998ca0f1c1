//===- examples/unsafe_optimizer_demo.cpp - Premature collection ---------===//
//
// Demonstrates the paper's opening example end to end. The kernel sums a
// heap buffer through a displaced index:
//
//   for (i = 1000; i < n + 1000; i++) { s += p[i - 1000]; ... }
//
// The optimizer rewrites p + (i - 1000) into q = p - 1000 (hoisted out of
// the loop) + i, after which no register holds a recognizable pointer to
// the buffer. With an asynchronously triggered collector the buffer is
// freed and poisoned mid-loop — "such code is not GC-safe". The KEEP_LIVE
// annotation (safe mode) pins the base and fixes it, with the optimizer
// fully enabled.
//
// Build & run:  ./build/examples/unsafe_optimizer_demo
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace gcsafe;

static void show(const char *Label, driver::CompileMode Mode,
                 bool Adversarial) {
  const auto &W = workloads::displacedIndex();
  vm::VMOptions VO;
  if (Adversarial) {
    VO.GcAllocTrigger = 5; // collect every 5 allocations
  }
  auto R = driver::compileAndRun(W.Name, W.Source, Mode, VO);
  std::printf("%-34s output=%-12s collections=%-4llu freed-object "
              "accesses=%llu\n",
              Label, R.Ok ? R.Output.substr(0, 9).c_str() : R.Error.c_str(),
              static_cast<unsigned long long>(R.Gc.Collections),
              static_cast<unsigned long long>(R.FreedAccesses));
}

int main() {
  std::printf("=== the p[i-1000] kernel (paper's opening example) ===\n\n");

  show("-O2, no collection pressure", driver::CompileMode::O2, false);
  show("-O2, adversarial collector", driver::CompileMode::O2, true);
  show("-O2 safe, adversarial collector", driver::CompileMode::O2Safe, true);
  show("-g, adversarial collector", driver::CompileMode::Debug, true);

  std::printf("\nThe unannotated -O2 build reads freed, poisoned memory "
              "(wrong sum and/or\nfreed-object accesses); the KEEP_LIVE "
              "build runs the same optimizer and\nstays correct.\n\n");

  // Show what the optimizer did, with and without KEEP_LIVE.
  for (auto [Mode, Label] :
       {std::pair{driver::CompileMode::O2, "-O2 (disguised pointer!)"},
        std::pair{driver::CompileMode::O2Safe, "-O2 safe (KEEP_LIVE)"}}) {
    driver::Compilation C("kernel.c", workloads::displacedIndex().Source);
    driver::CompileOptions CO;
    CO.Mode = Mode;
    auto CR = C.compile(CO);
    if (!CR.Ok)
      continue;
    std::printf("=== IR of work() under %s ===\n", Label);
    for (const ir::Function &F : CR.Module.Functions)
      if (F.Name == "work")
        std::printf("%s\n", ir::printFunction(F).c_str());
  }
  return 0;
}
