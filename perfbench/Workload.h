//===- perfbench/Workload.h - Seeded requests and their oracle -*- C++ -*-===//
//
// Part of the gcsafe benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four benchmark workloads, the seeded generator that turns one of
/// them into a stream of gcsafe-serve-v1 request lines, and the oracle that
/// checks every response against perfbench/expected.json.
///
/// A workload is a list of combos (program x mode x machine x GC trigger x
/// lint). Request i of a stream takes its combo from a seeded permutation
/// of the list, repeated block by block, so every seed sends the same mix.
/// Cold workloads then make the request unique: a seeded nonce comment
/// (the response cache cannot answer it) or a seeded suffix on every
/// program-defined function except main (neither the response cache nor
/// the cross-request verify memo has seen it). Neither changes what the
/// program computes, so one expected entry per combo checks every variant.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "support/Stats.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Combo {
  std::string Program; ///< cordtest, cfrac, gawk or gs.
  std::string Mode;    ///< Protocol token: safe, safepost or checked.
  std::string Machine; ///< sparc2, sparc10 or pentium90.
  uint64_t Trigger = 0; ///< gc_alloc_trigger (0 = default schedule).
  bool Lint = false;    ///< verify:"each-pass", run:false.

  /// "program/mode/machine/t<trigger>/run|lint": the expected.json key.
  std::string key() const;
};

enum class Variant {
  Fixed,  ///< Same source every time: the response cache answers.
  Nonce,  ///< A seeded unique comment line heads the source.
  Suffix, ///< Program-defined functions carry a seeded unique suffix.
};

struct WorkloadSpec {
  std::string Name;
  std::vector<Combo> Combos;
  Variant Var = Variant::Nonce;
  /// Every timed request must be a response-cache hit (else: none may).
  bool ExpectCached = false;
};

/// Names of all workloads, in BENCHMARK.json order.
std::vector<std::string> workloadNames();
/// False when \p Name is not a workload.
bool findWorkload(const std::string &Name, WorkloadSpec &Out);

/// Streams keep set-up requests apart from timed ones: a nonce or suffix
/// derives from (seed, stream, index), so no timed request repeats one
/// sent while setting up.
enum Stream : uint64_t { Timed = 0, Setup = 1 };

struct Request {
  std::string Line; ///< One gcsafe-serve-v1 compile request, no newline.
  const Combo *C = nullptr;
};

class Generator {
public:
  Generator(WorkloadSpec Spec, uint64_t Seed);

  const WorkloadSpec &spec() const { return Spec; }
  /// Request \p Index of \p S. Deterministic in (workload, seed, S, Index).
  Request make(uint64_t S, uint64_t Index) const;

private:
  const Combo &comboFor(uint64_t S, uint64_t Index) const;

  WorkloadSpec Spec;
  uint64_t Seed;
  std::map<std::string, std::string> Sources; ///< Program -> base source.
};

/// The untouched request for \p C (what expected.json was recorded from).
std::string baseRequestLine(const Combo &C);

/// Expected results per combo, recorded once from this build.
class Oracle {
public:
  bool load(const std::string &Path, std::string &Error);
  /// Empty when \p Response is a correct answer to a request of \p C,
  /// else a one-line reason.
  std::string check(const gcsafe::support::Json &Response, const Combo &C,
                    bool ExpectCached) const;
  /// The expected entry a correct \p Response of \p C implies; empty
  /// reason on success (used when recording).
  static std::string entryFor(const gcsafe::support::Json &Response,
                              const Combo &C, gcsafe::support::Json &Out);

private:
  gcsafe::support::Json Entries;
};

/// Follows \p Keys down nested objects; null when any is missing.
const gcsafe::support::Json *
lookup(const gcsafe::support::Json &J, std::initializer_list<const char *> Keys);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
