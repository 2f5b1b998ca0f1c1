//===- support/FaultInject.h - Deterministic failpoint registry -*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded, fully deterministic fault-injection registry in the spirit of
/// kernel failpoints / bdwgc's allocation-failure testing hooks. Producers
/// declare named *sites* ("heap.segment_alloc", "gc.alloc_small"); a test
/// or the CLI *arms* sites with a trigger — fire with probability p, fire
/// exactly on the Nth hit, or fire every Nth hit — and the instrumented
/// code asks shouldFail() at each site. Every decision is derived from one
/// xorshift64* stream seeded up front, so a failing run is reproducible
/// from its (seed, spec) pair alone.
///
/// Sites are identified by small integer handles obtained once via
/// siteId(); the hot-path query is an array index plus (at most) one PRNG
/// draw. A null FaultInjector* in a config struct means zero overhead —
/// producers guard with `if (FI && FI->shouldFail(Id))`.
///
/// The CLI surface (gcsafe-cc --fail-inject=SEED:SPEC) is parsed by
/// parse(); SPEC is a comma-separated list of site@trigger entries:
///
///   heap.segment_alloc@p0.05    fire with probability 0.05 per hit
///   gc.alloc_small@n100         fire on exactly the 100th hit
///   gc.alloc_large@every64      fire on every 64th hit
///   heap.page_table_grow@always fire on every hit
///
/// Beyond the collector's four sites, the self-healing pipeline
/// (docs/ROBUSTNESS.md §5) consults two compile-time sites:
///
///   opt.pass.corrupt        after an optimizer pass runs, apply one of
///                           the four Mutate.h corruption operators to the
///                           function — a deterministic stand-in for a
///                           buggy optimization, exercising the
///                           rollback/quarantine path end to end;
///   analysis.verify.timeout the transactional commit gate behaves as if
///                           the safety verifier timed out, forcing the
///                           conservative degradation-ladder descent.
///
/// The serving layer (docs/SERVING.md, docs/ROBUSTNESS.md §8) consults
/// more sites from a *service-wide* injector (gcsafe-serve --fail-inject;
/// guarded by a mutex, unlike the per-request injectors above):
///
///   serve.queue.full        admission control behaves as if the submit
///                           queue were at --queue-max: the request is
///                           shed with a typed "overloaded" response;
///   serve.worker.crash      an --isolate sandbox raises SIGSEGV before
///                           compiling, exercising crash attribution and
///                           the retry-one-rung-lower path;
///   serve.conn.stall        the daemon sleeps before writing a response,
///                           simulating a stalled connection against the
///                           socket write timeout.
///
/// The durable store (serve/Store.h) consults four IO failpoints through
/// the same service-wide injector, one per way a disk lies
/// (docs/ROBUSTNESS.md failpoint table):
///
///   store.write.short       the record is truncated mid-write but still
///                           reaches its final name — a torn write only
///                           the read path's envelope check can catch;
///   store.write.enospc      the write fails as if the disk were full
///                           (counts toward memory-only degradation);
///   store.read.eio          the read fails with an IO error: the entry
///                           reads as a miss and the error is counted;
///   store.read.corrupt      a payload byte flips between disk and
///                           validation, forcing the checksum to fail
///                           closed (quarantine + miss, never a replay).
///
/// An entry may append "xK" (e.g. "@p0.1x3") to cap total fires at K.
/// The site name "*" arms all sites, present and future.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SUPPORT_FAULTINJECT_H
#define GCSAFE_SUPPORT_FAULTINJECT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace gcsafe {
namespace support {

/// How an armed site decides to fire. At most one of Probability / NthHit /
/// Every is active per arm() call.
struct FaultSpec {
  std::string Site;       ///< Site name, or "*" for every site.
  double Probability = 0; ///< Fire with this per-hit probability.
  uint64_t NthHit = 0;    ///< Fire on exactly this hit (1-based).
  uint64_t Every = 0;     ///< Fire on every multiple of this hit count.
  uint64_t MaxFires = 0;  ///< Stop firing after this many fires (0 = no cap).
};

class FaultInjector {
public:
  FaultInjector() = default;
  explicit FaultInjector(uint64_t Seed) { setSeed(Seed); }

  /// Reseeds the PRNG stream and resets all hit/fire counters (armed
  /// triggers are kept).
  void setSeed(uint64_t Seed);
  uint64_t seed() const { return Seed; }

  /// Returns the stable handle for \p Name, creating the site if needed.
  /// Handles are dense indices; hold onto them, do not re-lookup per hit.
  size_t siteId(const std::string &Name);

  /// Arms a trigger. Unknown sites are created; "*" applies to all sites
  /// including ones registered later.
  void arm(const FaultSpec &Spec);

  /// One failpoint hit at \p Id. Returns true when the armed trigger says
  /// this hit fails. Unarmed sites always return false (and still count
  /// the hit).
  bool shouldFail(size_t Id);

  /// One draw from the injector's deterministic PRNG stream, for
  /// consumers that need a reproducible choice once a site fires (e.g.
  /// which corruption operator an opt.pass.corrupt firing applies).
  uint64_t draw() { return nextRand(); }

  /// Parses "SEED:SPEC" (or bare "SPEC", seed 0) into \p Out. On a
  /// malformed spec returns false and describes the problem in \p Error.
  static bool parse(const std::string &Text, FaultInjector &Out,
                    std::string &Error);

  /// Per-site counters, exposed for reports and assertions.
  struct SiteCounters {
    std::string Name;
    uint64_t Hits = 0;
    uint64_t Fires = 0;
    bool Armed = false;
  };
  std::vector<SiteCounters> counters() const;
  uint64_t totalFires() const;
  uint64_t totalHits() const;

private:
  struct Site {
    std::string Name;
    FaultSpec Trigger;    ///< Trigger.Site empty = unarmed.
    uint64_t Hits = 0;
    uint64_t Fires = 0;
    bool Armed = false;
  };

  uint64_t nextRand();
  bool triggerFires(Site &S);

  uint64_t Seed = 0;
  uint64_t State = 0x9E3779B97F4A7C15ull;
  std::vector<Site> Sites;
  /// Armed wildcard triggers; applied to every site on its first hit.
  std::vector<FaultSpec> Wildcards;
};

} // namespace support
} // namespace gcsafe

#endif // GCSAFE_SUPPORT_FAULTINJECT_H
