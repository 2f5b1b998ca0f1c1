//===- serve/Store.h - Crash-safe on-disk response store -------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve::Store: the durable tier behind the in-memory ContentCache
/// (docs/SERVING.md §"Durability & restart"). A restart used to demote
/// the whole service to cold-compile latency; the store makes warm bytes
/// survive any crash, deploy, or kill -9 — without ever trusting a byte
/// it cannot prove valid, the paper's discipline extended to the storage
/// boundary.
///
/// Layout (versioned, so a future format bump cannot be misread):
///
///   <dir>/gcsafe-store-v1/entries/<key>.entry   one record per cache key
///   <dir>/gcsafe-store-v1/quarantine/           invalid records, renamed
///                                               aside — never deleted
///   <dir>/gcsafe-store-v1/tmp/                  write staging
///   <dir>/gcsafe-store-v1/scrub.json            last scrub report
///                                               (gcsafe-store-v1 JSON)
///
/// Each record is a self-validating envelope: a magic line, a format
/// version, the entry's cache key, the writer's build fingerprint
/// (driver::keyFingerprint — format version + build-time hash of src/,
/// also folded into the key itself), the payload length, and a
/// 128-bit content checksum over the serialized response. Writes go
/// temp-file + fsync + atomic rename, so a reader (or a crash) never
/// observes a half-written record under its final name.
///
/// Every read path re-validates the full envelope; scrub() runs it over
/// the whole directory at startup and quarantines — renames aside with
/// the failure reason in the new name, never silently deletes — anything
/// truncated, torn, bit-flipped, version-mismatched, or written by a
/// different build. All failures are non-fatal: persistent IO errors
/// flip the store into a degraded, memory-only mode (typed log +
/// serve.store.degraded gauge) instead of killing the service or
/// replaying a questionable payload.
///
/// Fault injection (docs/ROBUSTNESS.md): four IO failpoints are consulted
/// through the Inject callback on every read/write —
/// store.write.short (a torn write survives the rename), store.write.enospc
/// (the write fails like a full disk), store.read.eio (the read fails),
/// store.read.corrupt (a payload byte flips in flight).
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SERVE_STORE_H
#define GCSAFE_SERVE_STORE_H

#include "support/RankedMutex.h"
#include "support/Stats.h"

#include <cstdint>
#include <functional>
#include <string>

namespace gcsafe {
namespace serve {

/// Lifetime counters, the serve.store.* surface (docs/OBSERVABILITY.md).
struct StoreStats {
  uint64_t Hits = 0;        ///< Lookups replayed from a validated record.
  uint64_t Misses = 0;      ///< Lookups with no (usable) record.
  uint64_t Writes = 0;      ///< Records durably published.
  uint64_t Scrubbed = 0;    ///< Records examined by scrub passes.
  uint64_t Quarantined = 0; ///< Records renamed aside as invalid.
  uint64_t IoErrors = 0;    ///< Failed filesystem operations.
  bool Degraded = false;    ///< Memory-only mode (IO given up).
};

class Store {
public:
  struct Options {
    /// Root directory; the versioned layout is created beneath it.
    std::string Dir;
    /// The writer's build fingerprint (driver::keyFingerprint). A record
    /// carrying any other fingerprint is quarantined, never replayed.
    std::string Fingerprint;
    /// Failpoint consult for the four store.* sites; null = never fire.
    /// Called outside every Store lock (the callback may take its own).
    std::function<bool(const std::string &Site)> Inject;
    /// cat="store" event sink (stage, value); may be null. The stage is
    /// a string literal ("store.hit", ...), so the sink may keep it by
    /// pointer — the service records it in its event ring.
    std::function<void(const char *Stage, uint64_t Value)> Event;
  };
  /// Consecutive IO errors before degrading to memory-only mode.
  static constexpr unsigned IoErrorLimit = 3;

  explicit Store(Options O);
  Store(const Store &) = delete;
  Store &operator=(const Store &) = delete;

  /// False when the layout could not be created — the store then behaves
  /// as degraded from birth.
  bool ready() const { return Ready; }
  bool degraded() const GCSAFE_EXCLUDES(Mu);

  /// Validates every entries/*.entry record, quarantines invalid ones,
  /// writes scrub.json, and returns the gcsafe-store-v1 report.
  support::Json scrub() GCSAFE_EXCLUDES(Mu);

  /// Reads and fully validates the record for \p Key. True only when the
  /// envelope (magic, version, key, fingerprint, length, checksum) proves
  /// the payload intact; an invalid record is quarantined and reads as a
  /// miss. No-op (false) when degraded.
  bool lookup(const std::string &Key, std::string &PayloadOut)
      GCSAFE_EXCLUDES(Mu);

  /// Durably publishes \p Payload under \p Key: temp file, fsync, atomic
  /// rename. False (and counted) on failure; no-op when degraded.
  bool insert(const std::string &Key, const std::string &Payload)
      GCSAFE_EXCLUDES(Mu);

  StoreStats stats() const GCSAFE_EXCLUDES(Mu);

  /// Where scrub() writes its report.
  std::string scrubReportPath() const { return Root + "/scrub.json"; }
  std::string entriesDir() const { return Root + "/entries"; }
  std::string quarantineDir() const { return Root + "/quarantine"; }

private:
  /// One record validation verdict; Reason is a stable token
  /// (docs/SERVING.md lists them) when the record is invalid.
  bool validateRecord(const std::string &Raw, const std::string &Key,
                      std::string &PayloadOut, std::string &Reason) const;
  /// Reads entries/<file> and validates it as the record for \p Key.
  /// On corruption, renames the file into quarantine/ with the reason.
  bool readAndValidate(const std::string &File, const std::string &Key,
                       std::string &PayloadOut, std::string &Reason)
      GCSAFE_EXCLUDES(Mu);
  void quarantine(const std::string &File, const std::string &Reason)
      GCSAFE_EXCLUDES(Mu);
  bool inject(const char *Site) const;
  void emit(const char *Stage, uint64_t Value) const;
  /// Counts one IO error and degrades past the consecutive-error limit.
  void ioError(const char *Op, const std::string &Detail)
      GCSAFE_EXCLUDES(Mu);
  void ioSuccess() GCSAFE_EXCLUDES(Mu);

  Options Opts;
  std::string Root; ///< <dir>/gcsafe-store-v1
  bool Ready = false;

  /// Guards only the plain counters below; no IO, no callback, and no
  /// other lock is ever taken while holding it.
  mutable support::RankedMutex Mu{support::LockRank::ServeStore,
                                  "serve.store"};
  StoreStats Counters GCSAFE_GUARDED_BY(Mu);
  unsigned ConsecutiveIoErrors GCSAFE_GUARDED_BY(Mu) = 0;
  uint64_t TmpSeq GCSAFE_GUARDED_BY(Mu) = 0;
};

} // namespace serve
} // namespace gcsafe

#endif // GCSAFE_SERVE_STORE_H
