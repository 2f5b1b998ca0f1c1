//===- serve/Store.cpp - Crash-safe on-disk response store ----------------===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "serve/Store.h"

#include "support/Hash.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace gcsafe {
namespace serve {

namespace {

/// gcsafe-store-v1 record envelope. The header is six newline-terminated
/// text lines so a hexdump of a quarantined record is self-explanatory;
/// the payload follows as raw bytes, exactly `len` of them.
const char StoreMagic[] = "GCSTORE";
const char StoreVersion[] = "1";

/// mkdir -p. True when \p Path exists as a directory afterwards.
bool makeDirs(const std::string &Path) {
  if (Path.empty())
    return false;
  std::string Partial;
  size_t I = 0;
  while (I < Path.size()) {
    size_t Slash = Path.find('/', I + 1);
    Partial = Path.substr(0, Slash == std::string::npos ? Path.size() : Slash);
    if (!Partial.empty() && Partial != "/" &&
        ::mkdir(Partial.c_str(), 0755) != 0 && errno != EEXIST)
      return false;
    if (Slash == std::string::npos)
      break;
    I = Slash;
  }
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

bool writeAll(int Fd, const char *Data, size_t Len) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::write(Fd, Data + Off, Len - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Reads the whole file. Returns 0 on success, else the errno. ENOENT is
/// the caller's "clean miss" case.
int readWholeFile(const std::string &Path, std::string &Out) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return errno;
  Out.clear();
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      int E = errno;
      ::close(Fd);
      return E;
    }
    if (N == 0)
      break;
    Out.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  return 0;
}

/// Pops one '\n'-terminated line from \p Raw starting at \p Pos. False
/// when the data ends before a newline (a truncated header).
bool takeLine(const std::string &Raw, size_t &Pos, std::string &Line) {
  size_t Nl = Raw.find('\n', Pos);
  if (Nl == std::string::npos)
    return false;
  Line = Raw.substr(Pos, Nl - Pos);
  Pos = Nl + 1;
  return true;
}

/// "field=value" accessor; false unless \p Line starts with "<Field>=".
bool fieldValue(const std::string &Line, const char *Field,
                std::string &Value) {
  size_t N = std::strlen(Field);
  if (Line.size() < N + 1 || Line.compare(0, N, Field) != 0 ||
      Line[N] != '=')
    return false;
  Value = Line.substr(N + 1);
  return true;
}

std::string buildRecord(const std::string &Key, const std::string &Fingerprint,
                        const std::string &Payload) {
  std::string R;
  R.reserve(Payload.size() + 160);
  R += StoreMagic;
  R += "\nv=";
  R += StoreVersion;
  R += "\nkey=" + Key;
  R += "\nfp=" + Fingerprint;
  R += "\nlen=" + std::to_string(Payload.size());
  R += "\nsum=" + support::contentHash(Payload);
  R += "\n";
  R += Payload;
  return R;
}

} // namespace

Store::Store(Options O) : Opts(std::move(O)) {
  Root = Opts.Dir + "/gcsafe-store-v1";
  Ready = makeDirs(Root + "/entries") && makeDirs(Root + "/quarantine") &&
          makeDirs(Root + "/tmp");
  if (!Ready) {
    std::fprintf(stderr,
                 "gcsafe-store: cannot create layout under %s (%s); "
                 "running memory-only\n",
                 Root.c_str(), std::strerror(errno));
    support::RankedGuard Lock(Mu);
    Counters.Degraded = true;
    return;
  }
  // A crash can strand staged files in tmp/; they were never renamed into
  // entries/, so removing them loses nothing.
  if (DIR *D = ::opendir((Root + "/tmp").c_str())) {
    while (struct dirent *E = ::readdir(D)) {
      if (E->d_name[0] == '.')
        continue;
      ::unlink((Root + "/tmp/" + E->d_name).c_str());
    }
    ::closedir(D);
  }
}

bool Store::degraded() const {
  support::RankedGuard Lock(Mu);
  return Counters.Degraded;
}

StoreStats Store::stats() const {
  support::RankedGuard Lock(Mu);
  return Counters;
}

bool Store::inject(const char *Site) const {
  return Opts.Inject && Opts.Inject(Site);
}

void Store::emit(const char *Stage, uint64_t Value) const {
  if (Opts.Event)
    Opts.Event(Stage, Value);
}

void Store::ioError(const char *Op, const std::string &Detail) {
  bool DegradedNow = false;
  uint64_t Consecutive = 0;
  {
    support::RankedGuard Lock(Mu);
    ++Counters.IoErrors;
    Consecutive = ++ConsecutiveIoErrors;
    if (!Counters.Degraded && ConsecutiveIoErrors >= IoErrorLimit) {
      Counters.Degraded = true;
      DegradedNow = true;
    }
  }
  emit("store.io_error", Consecutive);
  if (DegradedNow) {
    std::fprintf(stderr,
                 "gcsafe-store: degraded to memory-only mode after %llu "
                 "consecutive io errors (last: %s %s)\n",
                 static_cast<unsigned long long>(Consecutive), Op,
                 Detail.c_str());
    emit("store.degraded", Consecutive);
  }
}

void Store::ioSuccess() {
  support::RankedGuard Lock(Mu);
  ConsecutiveIoErrors = 0;
}

bool Store::validateRecord(const std::string &Raw, const std::string &Key,
                           std::string &PayloadOut,
                           std::string &Reason) const {
  if (Raw.empty()) {
    Reason = "zero_length";
    return false;
  }
  size_t Pos = 0;
  std::string Line, Value;
  // Magic first, so foreign files fail with the most specific reason. A
  // newline-less prefix of the magic is a truncation; anything else is
  // foreign bytes.
  if (!takeLine(Raw, Pos, Line)) {
    Reason = Raw.size() < sizeof(StoreMagic) - 1 &&
                     std::strncmp(Raw.c_str(), StoreMagic, Raw.size()) == 0
                 ? "truncated_header"
                 : "bad_magic";
    return false;
  }
  if (Line != StoreMagic) {
    Reason = "bad_magic";
    return false;
  }
  if (!takeLine(Raw, Pos, Line)) {
    Reason = "truncated_header";
    return false;
  }
  if (!fieldValue(Line, "v", Value)) {
    Reason = "bad_header";
    return false;
  }
  if (Value != StoreVersion) {
    Reason = "bad_version";
    return false;
  }
  if (!takeLine(Raw, Pos, Line)) {
    Reason = "truncated_header";
    return false;
  }
  if (!fieldValue(Line, "key", Value)) {
    Reason = "bad_header";
    return false;
  }
  if (Value != Key) {
    Reason = "bad_key";
    return false;
  }
  if (!takeLine(Raw, Pos, Line)) {
    Reason = "truncated_header";
    return false;
  }
  if (!fieldValue(Line, "fp", Value)) {
    Reason = "bad_header";
    return false;
  }
  if (Value != Opts.Fingerprint) {
    Reason = "bad_fingerprint";
    return false;
  }
  if (!takeLine(Raw, Pos, Line)) {
    Reason = "truncated_header";
    return false;
  }
  if (!fieldValue(Line, "len", Value) || Value.empty() ||
      Value.find_first_not_of("0123456789") != std::string::npos) {
    Reason = "bad_header";
    return false;
  }
  uint64_t Len = 0;
  for (char C : Value) {
    if (Len > (UINT64_MAX - 9) / 10) {
      Reason = "bad_header";
      return false;
    }
    Len = Len * 10 + static_cast<uint64_t>(C - '0');
  }
  if (!takeLine(Raw, Pos, Line)) {
    Reason = "truncated_header";
    return false;
  }
  std::string Sum;
  if (!fieldValue(Line, "sum", Sum)) {
    Reason = "bad_header";
    return false;
  }
  uint64_t Avail = Raw.size() - Pos;
  if (Avail < Len) {
    Reason = "truncated_payload";
    return false;
  }
  if (Avail > Len) {
    Reason = "trailing_garbage";
    return false;
  }
  std::string Payload = Raw.substr(Pos);
  if (support::contentHash(Payload) != Sum) {
    Reason = "bad_checksum";
    return false;
  }
  PayloadOut = std::move(Payload);
  Reason.clear();
  return true;
}

void Store::quarantine(const std::string &File, const std::string &Reason) {
  std::string From = Root + "/entries/" + File;
  std::string To = Root + "/quarantine/" + File + "." + Reason;
  if (::rename(From.c_str(), To.c_str()) != 0) {
    // The entry stays where it is; every future read re-fails validation,
    // so a stuck quarantine never risks a bad replay.
    ioError("quarantine", File + ": " + std::strerror(errno));
    return;
  }
  {
    support::RankedGuard Lock(Mu);
    ++Counters.Quarantined;
  }
  emit("store.quarantine", 0);
}

bool Store::readAndValidate(const std::string &File, const std::string &Key,
                            std::string &PayloadOut, std::string &Reason) {
  std::string Path = Root + "/entries/" + File;
  std::string Raw;
  if (inject("store.read.eio")) {
    Reason = "io_error";
    ioError("read", File + ": injected EIO");
    return false;
  }
  int E = readWholeFile(Path, Raw);
  if (E != 0) {
    Reason = E == ENOENT ? "absent" : "io_error";
    if (E != ENOENT)
      ioError("read", File + ": " + std::strerror(E));
    return false;
  }
  // A flipped bit anywhere in the record must be caught; flipping the
  // last byte lands in the payload (or, for an empty payload, the header)
  // and either way the envelope check fails closed.
  if (!Raw.empty() && inject("store.read.corrupt"))
    Raw.back() = static_cast<char>(Raw.back() ^ 0x20);
  if (!validateRecord(Raw, Key, PayloadOut, Reason)) {
    quarantine(File, Reason);
    return false;
  }
  ioSuccess();
  return true;
}

bool Store::lookup(const std::string &Key, std::string &PayloadOut) {
  if (!Ready || degraded())
    return false;
  std::string Reason;
  bool Ok = readAndValidate(Key + ".entry", Key, PayloadOut, Reason);
  {
    support::RankedGuard Lock(Mu);
    if (Ok)
      ++Counters.Hits;
    else
      ++Counters.Misses;
  }
  if (Ok)
    emit("store.hit", PayloadOut.size());
  else
    emit("store.miss", 0);
  return Ok;
}

bool Store::insert(const std::string &Key, const std::string &Payload) {
  if (!Ready || degraded())
    return false;
  if (inject("store.write.enospc")) {
    ioError("write", Key + ": injected ENOSPC");
    return false;
  }
  std::string Record = buildRecord(Key, Opts.Fingerprint, Payload);
  // store.write.short models a disk that lies: the torn record reaches its
  // final name and only the read path's envelope check can catch it.
  if (inject("store.write.short"))
    Record.resize(Record.size() / 2);
  uint64_t Seq;
  {
    support::RankedGuard Lock(Mu);
    Seq = ++TmpSeq;
  }
  std::string Tmp = Root + "/tmp/" + Key + "." + std::to_string(Seq) + ".tmp";
  std::string Final = Root + "/entries/" + Key + ".entry";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    ioError("write", Tmp + ": " + std::strerror(errno));
    return false;
  }
  if (!writeAll(Fd, Record.data(), Record.size())) {
    int E = errno;
    ::close(Fd);
    ::unlink(Tmp.c_str());
    ioError("write", Tmp + ": " + std::strerror(E));
    return false;
  }
  if (::fsync(Fd) != 0) {
    int E = errno;
    ::close(Fd);
    ::unlink(Tmp.c_str());
    ioError("fsync", Tmp + ": " + std::strerror(E));
    return false;
  }
  ::close(Fd);
  if (::rename(Tmp.c_str(), Final.c_str()) != 0) {
    int E = errno;
    ::unlink(Tmp.c_str());
    ioError("rename", Final + ": " + std::strerror(E));
    return false;
  }
  // Durability of the rename itself: fsync the entries directory. Best
  // effort — a failure here can only cost freshness, never correctness.
  int DirFd = ::open((Root + "/entries").c_str(), O_RDONLY);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
  {
    support::RankedGuard Lock(Mu);
    ++Counters.Writes;
  }
  ioSuccess();
  emit("store.write", Payload.size());
  return true;
}

support::Json Store::scrub() {
  support::Json Report = support::Json::object();
  Report["schema"] = support::Json::string("gcsafe-store-v1");
  Report["fingerprint"] = support::Json::string(Opts.Fingerprint);
  support::Json Entries = support::Json::array();
  uint64_t Scanned = 0, Valid = 0, Quarantined = 0;
  std::vector<std::string> Files;
  if (Ready) {
    if (DIR *D = ::opendir((Root + "/entries").c_str())) {
      while (struct dirent *E = ::readdir(D)) {
        std::string Name = E->d_name;
        if (Name.size() > 6 && Name.compare(Name.size() - 6, 6, ".entry") == 0)
          Files.push_back(std::move(Name));
      }
      ::closedir(D);
    } else {
      ioError("scrub", Root + "/entries: " + std::strerror(errno));
    }
  }
  std::sort(Files.begin(), Files.end());
  for (const std::string &File : Files) {
    std::string Key = File.substr(0, File.size() - 6);
    std::string Payload, Reason;
    bool Ok = readAndValidate(File, Key, Payload, Reason);
    ++Scanned;
    support::Json Row = support::Json::object();
    Row["file"] = support::Json::string(File);
    if (Ok) {
      ++Valid;
      Row["status"] = support::Json::string("ok");
    } else {
      // "absent" can only mean the file vanished between readdir and
      // open (another scrubber's quarantine); report it as such.
      ++Quarantined;
      Row["status"] = support::Json::string("quarantined");
      Row["reason"] =
          support::Json::string(Reason.empty() ? "unknown" : Reason);
    }
    Entries.push(std::move(Row));
  }
  Report["scanned"] = support::Json::integer(Scanned);
  Report["valid"] = support::Json::integer(Valid);
  Report["quarantined"] = support::Json::integer(Quarantined);
  Report["entries"] = std::move(Entries);
  {
    support::RankedGuard Lock(Mu);
    Counters.Scrubbed += Scanned;
  }
  emit("store.scrub", Scanned);
  if (Ready) {
    // The report itself is written with the same atomic discipline.
    std::string Text = Report.dump(2);
    Text += "\n";
    std::string Tmp = Root + "/tmp/scrub.json.tmp";
    int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd >= 0 && writeAll(Fd, Text.data(), Text.size()) &&
        ::fsync(Fd) == 0) {
      ::close(Fd);
      if (::rename(Tmp.c_str(), scrubReportPath().c_str()) != 0) {
        ::unlink(Tmp.c_str());
        ioError("scrub", scrubReportPath() + ": " + std::strerror(errno));
      }
    } else {
      int E = errno;
      if (Fd >= 0) {
        ::close(Fd);
        ::unlink(Tmp.c_str());
      }
      ioError("scrub", Tmp + ": " + std::strerror(E));
    }
  }
  return Report;
}

} // namespace serve
} // namespace gcsafe
