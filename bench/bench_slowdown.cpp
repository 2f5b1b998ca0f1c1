//===- bench/bench_slowdown.cpp - Paper Tables 1-3 -----------------------===//
//
// Regenerates the paper's three slowdown tables, one per machine model,
// for (-O safe, -g, -g checked) against the -O baseline:
//
//   Table 1, SPARCstation 2:
//   cordtest     9%         54%       514%
//   cfrac        17%        <needs modifications>  -
//   gawk         8%         25%       <fails>
//   gs           0%         33%       205%
//
//   Table 2, SPARCstation 10:
//   cordtest     9%         56%       529%
//   cfrac        8%         -         -
//   gawk         8%         48%       -
//   gs           5%         37%       366%
//
//   Table 3, Pentium 90:
//   cordtest     12%        28%       510%
//   cfrac        11%        -         -
//   gawk         9%         41%       -
//   gs           6%         17%       279%
//
// Our cfrac and gawk analogs run in every mode (the paper's '-' entries
// were artifacts of gcc inlining and real gawk bugs), so every cell is
// measured; paper cells are shown where the paper reports a number. The
// paper uses the Pentium's smaller register file to argue that the
// safe-mode overhead is NOT register pressure; compare the '-O safe'
// column across the three machine models.
//
// Each table is written to its own BENCH_slowdown_<machine>.json, and the
// timed benchmarks are registered as <machine>/<workload>/<mode>.
// --machine=<sparc2|sparc10|pentium90> limits both to one machine model.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>

using namespace gcsafe;
using namespace gcsafe::bench;
using namespace gcsafe::workloads;

namespace {

struct MachineTable {
  const char *Name;
  vm::MachineModel Model;
  SlowdownPaperRow Rows[4];
};

void BM_WorkloadMode(benchmark::State &State, const vm::MachineModel &Model,
                     const workloads::Workload *W, driver::CompileMode Mode) {
  driver::Compilation C(W->Name, W->Source);
  driver::CompileOptions CO;
  CO.Mode = Mode;
  driver::CompileResult CR = C.compile(CO);
  uint64_t Cycles = 0;
  for (auto _ : State) {
    vm::VMOptions VO;
    VO.Model = Model;
    vm::VM Machine(CR.Module, VO);
    auto R = Machine.run();
    Cycles = R.Cycles;
    benchmark::DoNotOptimize(R.Output.data());
  }
  State.counters["model_cycles"] =
      benchmark::Counter(static_cast<double>(Cycles));
}

} // namespace

int main(int argc, char **argv) {
  static const MachineTable Tables[] = {
      {"sparc2",
       vm::sparc2(),
       {{&cordtest(), paper(9), paper(54), paper(514)},
        {&cfrac(), paper(17), paperNA("inl."), paperNA()},
        {&gawk(), paper(8), paper(25), paperNA("fails")},
        {&gs(), paper(0), paper(33), paper(205)}}},
      {"sparc10",
       vm::sparc10(),
       {{&cordtest(), paper(9), paper(56), paper(529)},
        {&cfrac(), paper(8), paperNA(), paperNA()},
        {&gawk(), paper(8), paper(48), paperNA()},
        {&gs(), paper(5), paper(37), paper(366)}}},
      {"pentium90",
       vm::pentium90(),
       {{&cordtest(), paper(12), paper(28), paper(510)},
        {&cfrac(), paper(11), paperNA(), paperNA()},
        {&gawk(), paper(9), paper(41), paperNA()},
        {&gs(), paper(6), paper(17), paper(279)}}},
  };

  // Strip --machine=<name> before google-benchmark sees the arguments.
  const char *Only = nullptr;
  int Out = 1;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--machine=", 10) == 0)
      Only = argv[I] + 10;
    else
      argv[Out++] = argv[I];
  }
  argc = Out;
  auto Selected = [Only](const MachineTable &T) {
    return !Only || std::strcmp(Only, T.Name) == 0;
  };
  if (Only && std::none_of(std::begin(Tables), std::end(Tables), Selected)) {
    std::fprintf(stderr, "bench_slowdown: unknown machine '%s' "
                         "(sparc2, sparc10, pentium90)\n", Only);
    return 2;
  }

  for (const MachineTable &T : Tables) {
    if (!Selected(T))
      continue;
    BenchReport Report(std::string("slowdown_") + T.Name);
    printSlowdownTable(T.Model, T.Rows, 4, &Report);
    Report.write();
  }

  for (const MachineTable &T : Tables) {
    if (!Selected(T))
      continue;
    for (const Workload *W : benchmarkSuite())
      for (auto [Mode, Name] :
           {std::pair{driver::CompileMode::O2, "O2"},
            std::pair{driver::CompileMode::O2Safe, "O2safe"},
            std::pair{driver::CompileMode::Debug, "g"},
            std::pair{driver::CompileMode::DebugChecked, "gchecked"}})
        benchmark::RegisterBenchmark(
            (std::string(T.Name) + "/" + W->Name + "/" + Name).c_str(),
            [&T, W, Mode = Mode](benchmark::State &S) {
              BM_WorkloadMode(S, T.Model, W, Mode);
            })
            ->Iterations(2);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
