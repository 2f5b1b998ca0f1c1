//===- perfbench/ServeRun.cpp - Drive gcsafe-serve like a client ----------===//
//
// One run launches the daemon Setups times. Each launch is timed from
// fork to the end of its warm-up round (readiness via the health op, then
// every combo of the workload once, which also primes the cache on
// warm_hits); all but the last are retired again. The last one serves the
// timed window: Connections client threads, each sending its next request
// only after the previous response arrived (closed loop). Every response
// is checked against the oracle; the daemon's own stats op confirms the
// cache verdicts; the run ends with the drain op and requires exit 0.
//
//===----------------------------------------------------------------------===//

#include "Runs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using gcsafe::support::Json;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One client connection: newline-delimited lines over a unix socket.
class Conn {
public:
  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn() { close(); }

  /// Retries until the daemon listens or \p TimeoutS passes.
  bool connect(const std::string &Path, double TimeoutS) {
    Clock::time_point T0 = Clock::now();
    do {
      Fd = socket(AF_UNIX, SOCK_STREAM, 0);
      if (Fd < 0)
        return false;
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
          0) {
        timeval Tv{60, 0}; // a wedged daemon fails the run, never hangs it
        setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
        setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof(Tv));
        return true;
      }
      close();
      usleep(1000);
    } while (secondsSince(T0) < TimeoutS);
    return false;
  }

  bool send(const std::string &Line) {
    std::string Text = Line + "\n";
    size_t Off = 0;
    while (Off < Text.size()) {
      ssize_t W = ::write(Fd, Text.data() + Off, Text.size() - Off);
      if (W <= 0)
        return false;
      Off += static_cast<size_t>(W);
    }
    return true;
  }

  bool recvLine(std::string &Out) {
    size_t NL;
    while ((NL = Buf.find('\n')) == std::string::npos) {
      char Chunk[65536];
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
    Out.assign(Buf, 0, NL);
    Buf.erase(0, NL + 1);
    return true;
  }

  /// One request, one parsed response.
  bool call(const std::string &Line, Json &Out) {
    std::string Text, Error;
    return send(Line) && recvLine(Text) && Json::parse(Text, Out, Error);
  }

  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    Buf.clear();
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// A gcsafe-serve child process. The destructor kills and reaps a daemon
/// that was not retired, so no run leaves one behind.
class Daemon {
public:
  Daemon(const std::string &Bin, const std::string &Socket,
         const std::string &Log, unsigned Workers) {
    std::string SocketArg = "--socket=" + Socket;
    std::string WorkersArg = "--workers=" + std::to_string(Workers);
    std::string CacheArg = "--cache-max=" + std::to_string(CacheMaxEntries);
    Pid = fork();
    if (Pid == 0) {
      int Fd = open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (Fd >= 0) {
        dup2(Fd, 1);
        dup2(Fd, 2);
      }
      execl(Bin.c_str(), Bin.c_str(), SocketArg.c_str(), WorkersArg.c_str(),
            CacheArg.c_str(), static_cast<char *>(nullptr));
      _exit(127);
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() {
    if (Pid > 0) {
      kill(Pid, SIGKILL);
      waitpid(Pid, nullptr, 0);
    }
  }

  pid_t pid() const { return Pid; }

  /// Sends drain on a fresh connection and waits for the daemon to exit.
  /// Empty on a clean exit 0, else what went wrong.
  std::string retire(const std::string &Socket) {
    if (Pid <= 0)
      return "daemon did not start";
    Conn C;
    Json Ack;
    std::string Problem;
    if (!C.connect(Socket, 5) || !C.call("{\"op\":\"drain\"}", Ack) ||
        !Ack.get("ok") || !Ack.get("ok")->asBool())
      Problem = "drain op failed";
    C.close();
    Clock::time_point T0 = Clock::now();
    int Status = 0;
    for (;;) {
      pid_t R = waitpid(Pid, &Status, WNOHANG);
      if (R == Pid)
        break;
      if (secondsSince(T0) > 20) {
        kill(Pid, SIGKILL);
        waitpid(Pid, nullptr, 0);
        Pid = -1;
        return "daemon still running 20 s after drain (killed)";
      }
      usleep(2000);
    }
    Pid = -1;
    if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
      return "daemon exit status " + std::to_string(Status);
    return Problem;
  }

private:
  pid_t Pid = -1;
};

/// User+system CPU seconds of \p Pid so far (from /proc/<pid>/stat).
double cpuSeconds(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  size_t Paren = Text.rfind(')');
  if (Paren == std::string::npos)
    return 0;
  std::istringstream SS(Text.substr(Paren + 1));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  // After the command name: field 3 (state) ... 14 (utime), 15 (stime).
  for (int I = 3; I <= 15 && SS >> Field; ++I) {
    if (I == 14)
      UTime = std::stoull(Field);
    if (I == 15)
      STime = std::stoull(Field);
  }
  return double(UTime + STime) / double(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of \p Pid in MiB.
double peakRssMb(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

struct LoadResult {
  /// Latencies of correct responses to the complete blocks of the stream
  /// (see runLoad), sorted.
  std::vector<double> LatencyMs;
  uint64_t Ok = 0; ///< All correct responses.
  uint64_t Attempted = 0, Failed = 0, DuplicateKeys = 0;
  std::vector<std::string> Failures; ///< First few reasons.
  double WindowS = 0;
};

/// Closed loop over \p Conns: one thread per connection, sharing one
/// request counter. Runs until \p Count requests were taken (Count > 0)
/// or \p Seconds passed. Latency percentiles use only the stream's
/// complete blocks: each holds every combo once, so the mix behind the
/// percentiles is the same in every run however far the last block got.
LoadResult runLoad(const Generator &Gen, const Oracle &Expected,
                   std::vector<std::unique_ptr<Conn>> &Conns, uint64_t S,
                   uint64_t Count, double Seconds, bool ExpectCached) {
  std::atomic<uint64_t> Next{0};
  std::mutex Mu;
  LoadResult Total;
  std::vector<std::pair<uint64_t, double>> Samples;
  std::set<std::string> Keys;
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Seconds));
  auto Client = [&](Conn &C) {
    LoadResult Mine;
    std::vector<std::pair<uint64_t, double>> MySamples;
    std::vector<std::string> MyKeys;
    Clock::time_point LastEnd = Start;
    for (;;) {
      if (!Count && Clock::now() >= Deadline)
        break;
      uint64_t I = Next.fetch_add(1);
      if (Count && I >= Count)
        break;
      Request R = Gen.make(S, I);
      ++Mine.Attempted;
      Clock::time_point T0 = Clock::now();
      std::string Text;
      bool Io = C.send(R.Line) && C.recvLine(Text);
      LastEnd = Clock::now();
      std::string Why;
      Json Resp;
      if (!Io)
        Why = "connection lost";
      else if (std::string E; !Json::parse(Text, Resp, E))
        Why = "unparseable response: " + E;
      else
        Why = Expected.check(Resp, *R.C, ExpectCached);
      if (Why.empty()) {
        MySamples.emplace_back(
            I, std::chrono::duration<double, std::milli>(LastEnd - T0).count());
        if (!ExpectCached)
          if (const Json *K = Resp.get("cache_key"))
            MyKeys.push_back(K->asString());
      } else {
        ++Mine.Failed;
        if (Mine.Failures.size() < 3)
          Mine.Failures.push_back("request " + std::to_string(I) + ": " + Why);
      }
      if (!Io)
        break;
    }
    std::lock_guard<std::mutex> Lock(Mu);
    Samples.insert(Samples.end(), MySamples.begin(), MySamples.end());
    Total.Attempted += Mine.Attempted;
    Total.Failed += Mine.Failed;
    for (std::string &F : Mine.Failures)
      if (Total.Failures.size() < 5)
        Total.Failures.push_back(std::move(F));
    for (std::string &K : MyKeys)
      if (!Keys.insert(std::move(K)).second)
        ++Total.DuplicateKeys;
    Total.WindowS = std::max(
        Total.WindowS, std::chrono::duration<double>(LastEnd - Start).count());
  };
  std::vector<std::thread> Threads;
  for (auto &C : Conns)
    Threads.emplace_back(Client, std::ref(*C));
  for (std::thread &T : Threads)
    T.join();
  uint64_t Block = Gen.spec().Combos.size();
  uint64_t Complete = Total.Attempted - Total.Attempted % Block;
  for (const auto &[I, Ms] : Samples)
    if (I < Complete || !Complete)
      Total.LatencyMs.push_back(Ms);
  Total.Ok = Samples.size();
  std::sort(Total.LatencyMs.begin(), Total.LatencyMs.end());
  return Total;
}

/// The mean of the samples within 2.5% of the sample count of rank
/// P/100 * (N-1). A workload mixes combos whose latencies form separate
/// clusters, and a plain order statistic often falls in the gap between
/// two of them, where it jumps between their edges from run to run.
double smoothedPercentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t N = Sorted.size();
  size_t Rank = static_cast<size_t>(P / 100.0 * double(N - 1) + 0.5);
  size_t W = N / 40;
  size_t Lo = Rank > W ? Rank - W : 0, Hi = std::min(N - 1, Rank + W);
  double Sum = 0;
  for (size_t I = Lo; I <= Hi; ++I)
    Sum += Sorted[I];
  return Sum / double(Hi - Lo + 1);
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return percentile(V, 50);
}

uint64_t statCount(const Json &Stats, std::initializer_list<const char *> K) {
  const Json *J = lookup(Stats, K);
  return J ? static_cast<uint64_t>(J->asInt()) : 0;
}

} // namespace

double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Rank = P / 100.0 * double(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * (Rank - double(Lo));
}

Json serveRun(const Generator &Gen, const Oracle &Expected,
              const ServeOptions &Opts) {
  std::vector<std::string> Problems;
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> Live;
  std::vector<std::unique_ptr<Conn>> Conns;
  std::string Socket;
  uint64_t Warmup = Gen.spec().Combos.size();

  for (unsigned K = 0; K < Opts.Setups && Problems.empty(); ++K) {
    Socket = "d" + std::to_string(K) + ".sock";
    Clock::time_point T0 = Clock::now();
    auto D = std::make_unique<Daemon>(
        Opts.DaemonBin, Socket, "daemon" + std::to_string(K) + ".log",
        Opts.Workers);
    Conns.clear();
    for (unsigned I = 0; I < Opts.Connections; ++I) {
      Conns.push_back(std::make_unique<Conn>());
      if (!Conns.back()->connect(Socket, 10)) {
        Problems.push_back("cannot connect to the daemon");
        break;
      }
    }
    if (!Problems.empty())
      break;
    Json Health;
    if (!Conns[0]->call("{\"op\":\"health\"}", Health) ||
        !lookup(Health, {"ready"}) || !lookup(Health, {"ready"})->asBool()) {
      Problems.push_back("daemon not ready");
      break;
    }
    // The warm-up round: one request per combo, never a cache hit.
    LoadResult W =
        runLoad(Gen, Expected, Conns, Stream::Setup, Warmup, 0, false);
    SetupS.push_back(secondsSince(T0));
    if (W.Failed) {
      Problems.push_back("warm-up: " + W.Failures.front());
      break;
    }
    if (K + 1 < Opts.Setups) {
      Conns.clear();
      std::string Why = D->retire(Socket);
      if (!Why.empty())
        Problems.push_back("set-up daemon: " + Why);
    } else {
      Live = std::move(D);
    }
  }

  Json Out = Json::object();
  LoadResult L;
  double CpuS = 0, RssMb = 0;
  Json Stats, Metrics;
  if (Problems.empty() && Live) {
    double Cpu0 = cpuSeconds(Live->pid());
    L = runLoad(Gen, Expected, Conns, Stream::Timed, 0, Opts.Seconds,
                Gen.spec().ExpectCached);
    CpuS = cpuSeconds(Live->pid()) - Cpu0;
    Conns.clear();
    Conn C;
    if (!C.connect(Socket, 5) || !C.call("{\"op\":\"stats\"}", Stats) ||
        !C.call("{\"op\":\"metrics\"}", Metrics))
      Problems.push_back("stats/metrics ops failed");
    C.close();
    RssMb = peakRssMb(Live->pid());
    std::string Why = Live->retire(Socket);
    if (!Why.empty())
      Problems.push_back(Why);

    // The daemon's own counters must agree with the client's verdicts:
    // every timed request a hit on warm_hits, no hit at all elsewhere.
    uint64_t Hits = statCount(Stats, {"serve", "cache", "hits"});
    uint64_t Expect = Gen.spec().ExpectCached ? L.Attempted : 0;
    if (Hits != Expect)
      Problems.push_back("serve.cache.hits = " + std::to_string(Hits) +
                         ", expected " + std::to_string(Expect));
    if (L.DuplicateKeys)
      Problems.push_back(std::to_string(L.DuplicateKeys) +
                         " repeated cache keys on a cold workload");
    Out["cache_hits"] = Json::integer(Hits);
    Out["verify_memo_hits"] =
        Json::integer(statCount(Stats, {"serve", "verify_memo", "hits"}));
    Out["verify_memo_misses"] =
        Json::integer(statCount(Stats, {"serve", "verify_memo", "misses"}));
    const Json *QW = lookup(Metrics, {"metrics", "stages", "queue_wait",
                                      "p50_ns"});
    Out["queue_wait_p50_us"] = Json::number(QW ? QW->asDouble() / 1e3 : 0);
  }

  Out["attempted"] = Json::integer(L.Attempted);
  Out["failed"] = Json::integer(L.Failed);
  Out["latency_samples"] = Json::integer(L.LatencyMs.size());
  Out["latency_p50_ms"] = Json::number(smoothedPercentile(L.LatencyMs, 50));
  Out["latency_p90_ms"] = Json::number(smoothedPercentile(L.LatencyMs, 90));
  Out["throughput_rps"] =
      Json::number(L.WindowS > 0 ? double(L.Ok) / L.WindowS : 0);
  Out["cpu_ms_per_req"] =
      Json::number(L.Attempted ? CpuS * 1e3 / double(L.Attempted) : 0);
  Out["peak_rss_mb"] = Json::number(RssMb);
  Out["setup_s"] = Json::number(median(SetupS));
  Json Samples = Json::array();
  for (double S : SetupS)
    Samples.push(Json::number(S));
  Out["setup_samples_s"] = std::move(Samples);
  Json Fails = Json::array();
  for (const std::string &F : L.Failures)
    Fails.push(Json::string(F));
  for (const std::string &P : Problems)
    Fails.push(Json::string(P));
  Out["problems"] = std::move(Fails);
  Out["correct"] =
      Json::boolean(Problems.empty() && L.Failed == 0 && L.Ok > 0);
  return Out;
}

} // namespace perfbench
