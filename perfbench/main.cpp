//===- perfbench/main.cpp - The benchmark's native half -------------------===//
//
// perfbench-tool SUBCOMMAND [--flag=value ...], driven by perfbench/run.py:
//
//   gen    --workload=W --seed=N --count=K [--stream=S]
//          print K generated requests, one "<combo>\t<request line>" each
//   serve  --workload=W --seed=N --seconds=T --daemon=BIN --expected=FILE
//          --workdir=DIR [--setups=K]
//          end-to-end run against a gcsafe-serve daemon (JSON summary)
//   trace  --workload=W --seed=N --seconds=T --expected=FILE --spans=FILE
//          [--untraced-latency-ms=X] [--queue-wait-p50-us=Y]
//          in-process traced run (JSON summary with per-layer metrics)
//   record --out=FILE
//          write the expected results of every combo of every workload
//
//===----------------------------------------------------------------------===//

#include "Runs.h"

#include "serve/Protocol.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include <unistd.h>

using gcsafe::support::Json;
using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr, "usage: perfbench-tool gen|serve|trace|record "
                       "[--flag=value ...] (see perfbench/README.md)\n");
  return 2;
}

int record(const std::string &Out) {
  gcsafe::serve::ServiceOptions SO;
  SO.Workers = 1;
  gcsafe::serve::CompileService Svc(SO);
  Json Entries = Json::object();
  std::set<std::string> Seen;
  int Status = 0;
  for (const std::string &Name : workloadNames()) {
    WorkloadSpec W;
    findWorkload(Name, W);
    for (const Combo &C : W.Combos) {
      if (!Seen.insert(C.key()).second)
        continue;
      gcsafe::serve::ServeRequest Req;
      std::string Error;
      if (!gcsafe::serve::parseRequestLine(baseRequestLine(C), Req, Error)) {
        std::fprintf(stderr, "%s: %s\n", C.key().c_str(), Error.c_str());
        return 1;
      }
      Json Response = gcsafe::serve::buildCompileResponse(
          "", Svc.compile(Req.Compile, /*UseCache=*/false));
      Json Entry;
      std::string Why = Oracle::entryFor(Response, C, Entry);
      if (!Why.empty()) {
        std::fprintf(stderr, "%s: %s\n", C.key().c_str(), Why.c_str());
        Status = 1;
      }
      Entries[C.key()] = std::move(Entry);
    }
  }
  Json Doc = Json::object();
  Doc["schema"] = Json::string("gcsafe-perfbench-expected-v1");
  Doc["entries"] = std::move(Entries);
  std::FILE *F = std::fopen(Out.c_str(), "w");
  if (!F)
    return 1;
  std::string Text = Doc.dump(1) + "\n";
  std::fwrite(Text.data(), 1, Text.size(), F);
  return std::fclose(F) == 0 ? Status : 1;
}

} // namespace

int main(int argc, char **argv) {
  // A daemon that hangs up mid-write must fail the request, not the tool.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2)
    return usage();
  std::string Cmd = argv[1];
  std::map<std::string, std::string> Flags;
  for (int I = 2; I < argc; ++I) {
    std::string A = argv[I];
    size_t Eq = A.find('=');
    if (A.rfind("--", 0) != 0 || Eq == std::string::npos)
      return usage();
    Flags[A.substr(2, Eq - 2)] = A.substr(Eq + 1);
  }
  auto Num = [&](const char *K, double Default) {
    auto It = Flags.find(K);
    return It == Flags.end() ? Default : std::strtod(It->second.c_str(), nullptr);
  };

  if (Cmd == "record")
    return Flags.count("out") ? record(Flags["out"]) : usage();

  WorkloadSpec Spec;
  if (!findWorkload(Flags["workload"], Spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", Flags["workload"].c_str());
    return 2;
  }
  Generator Gen(Spec, static_cast<uint64_t>(Num("seed", 1)));

  if (Cmd == "gen") {
    uint64_t S = static_cast<uint64_t>(Num("stream", Stream::Timed));
    uint64_t Count = static_cast<uint64_t>(Num("count", 1));
    for (uint64_t I = 0; I < Count; ++I) {
      Request R = Gen.make(S, I);
      std::printf("%s\t%s\n", R.C->key().c_str(), R.Line.c_str());
    }
    return 0;
  }

  Oracle Expected;
  std::string Error;
  if (!Expected.load(Flags["expected"], Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 2;
  }
  Json Summary;
  if (Cmd == "serve") {
    ServeOptions Opts;
    Opts.DaemonBin = Flags["daemon"];
    Opts.Seconds = Num("seconds", 10);
    Opts.Setups = static_cast<unsigned>(Num("setups", 7));
    // Socket paths stay short (sun_path) because they are relative to
    // the private work directory.
    if (chdir(Flags["workdir"].c_str()) != 0) {
      std::perror("perfbench-tool: workdir");
      return 2;
    }
    Summary = serveRun(Gen, Expected, Opts);
  } else if (Cmd == "trace") {
    TraceOptions Opts;
    Opts.Seconds = Num("seconds", 5);
    Opts.UntracedLatencyMs = Num("untraced-latency-ms", 0);
    Opts.QueueWaitP50Us = Num("queue-wait-p50-us", 0);
    Opts.SpanFile = Flags["spans"];
    Summary = traceRun(Gen, Expected, Opts);
  } else {
    return usage();
  }
  std::printf("%s\n", Summary.dump(0).c_str());
  return 0;
}
