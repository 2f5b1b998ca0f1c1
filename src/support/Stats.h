//===- support/Stats.h - Counters, timers and JSON reports -----*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement substrate behind --stats-json, the GC event trace and
/// the BENCH_*.json reports. Two pieces:
///
///  * Json — a small ordered JSON document: enough builder surface to emit
///    every report schema in docs/OBSERVABILITY.md, plus a parser so tests
///    (and tools/check_bench_json.py's C++-side callers) can round-trip
///    emitted reports. Object keys keep insertion order so reports diff
///    cleanly across runs.
///
///  * Stats — a registry of hierarchically named counters and timers.
///    Names are dotted paths ("opt.local_cse.csed", "gc.mark_ns"); toJson()
///    nests them into objects by path segment. Passes, the collector, the
///    VM and the driver all report through one of these, so a whole run
///    serializes from a single registry.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SUPPORT_STATS_H
#define GCSAFE_SUPPORT_STATS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gcsafe {
namespace support {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

/// An ordered JSON value. Numbers are stored as int64 or double; object
/// member order is insertion order.
class Json {
public:
  enum class Kind : uint8_t { Null, Bool, Int, Double, String, Array, Object };

  Json() : K(Kind::Null) {}
  static Json null() { return Json(); }
  static Json boolean(bool B) {
    Json J;
    J.K = Kind::Bool;
    J.IntVal = B;
    return J;
  }
  static Json integer(int64_t V) {
    Json J;
    J.K = Kind::Int;
    J.IntVal = V;
    return J;
  }
  static Json integer(uint64_t V) {
    return integer(static_cast<int64_t>(V));
  }
  static Json number(double V) {
    Json J;
    J.K = Kind::Double;
    J.DoubleVal = V;
    return J;
  }
  static Json string(std::string S) {
    Json J;
    J.K = Kind::String;
    J.StrVal = std::move(S);
    return J;
  }
  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return IntVal != 0; }
  int64_t asInt() const {
    return K == Kind::Double ? static_cast<int64_t>(DoubleVal) : IntVal;
  }
  double asDouble() const {
    return K == Kind::Double ? DoubleVal : static_cast<double>(IntVal);
  }
  const std::string &asString() const { return StrVal; }

  /// Array element access/append.
  size_t size() const {
    return K == Kind::Array ? Elems.size()
                            : (K == Kind::Object ? Members.size() : 0);
  }
  const Json &at(size_t I) const { return Elems[I]; }
  void push(Json V) { Elems.push_back(std::move(V)); }

  /// Object member access. operator[] creates the member (in insertion
  /// order) if absent; get() returns null when absent.
  Json &operator[](const std::string &Key);
  const Json *get(const std::string &Key) const;
  bool has(const std::string &Key) const { return get(Key) != nullptr; }
  const std::vector<std::pair<std::string, Json>> &members() const {
    return Members;
  }

  /// Serializes; Indent <= 0 means compact one-line output.
  std::string dump(int Indent = 2) const;

  /// Minimal strict-enough parser for round-tripping our own reports.
  /// Returns false and sets \p Error (with an offset) on malformed input.
  static bool parse(const std::string &Text, Json &Out, std::string &Error);

private:
  void dumpTo(std::string &Out, int Indent, int Depth) const;

  Kind K;
  int64_t IntVal = 0;
  double DoubleVal = 0.0;
  std::string StrVal;
  std::vector<Json> Elems;
  std::vector<std::pair<std::string, Json>> Members;
};

/// Escapes \p S for inclusion in a JSON string literal (without the
/// surrounding quotes).
std::string jsonEscape(const std::string &S);

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

/// Hierarchical named counters and timers. Paths are dotted
/// ("gc.collections"); each leaf is an integer counter, a float gauge, or
/// a string label. Insertion order is preserved in the JSON output.
///
/// A plain value with a single owner: a CompileResult's registry, or the
/// fresh snapshot CompileService::statsSnapshot() builds. It takes no
/// lock; copies and moves are the defaulted member-wise ones.
class Stats {
public:
  /// Adds \p Delta to the counter at \p Path (creating it at zero).
  void add(const std::string &Path, uint64_t Delta = 1);
  /// Sets the counter at \p Path.
  void set(const std::string &Path, uint64_t Value);
  void setFloat(const std::string &Path, double Value);
  void setString(const std::string &Path, std::string Value);

  /// Reads a counter; 0 when absent.
  uint64_t get(const std::string &Path) const;
  bool has(const std::string &Path) const;

  /// Nests dotted paths into a JSON object tree.
  Json toJson() const;

  /// The flat view, in insertion order.
  struct Entry {
    std::string Path;
    enum class Kind : uint8_t { Counter, Gauge, Label } K = Kind::Counter;
    uint64_t Count = 0;
    double Gauge = 0.0;
    std::string Label;
  };
  const std::vector<Entry> &entries() const { return Entries; }

private:
  Entry &lookup(const std::string &Path);
  std::vector<Entry> Entries;
};

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

/// Fixed-bucket, log-spaced latency histogram (docs/OBSERVABILITY.md §8).
/// Bucket I counts samples in (Bounds[I-1], Bounds[I]]; one extra
/// overflow bucket holds everything above the last bound. Recording is
/// O(log buckets) with no allocation after construction. Not thread-safe
/// — owners serialize access (CompileService guards its histograms with
/// a mutex).
class Histogram {
public:
  /// Bounds double from \p FirstBound: the defaults span 1µs .. ~134s in
  /// nanoseconds, which covers queue waits through full compiles.
  explicit Histogram(uint64_t FirstBound = 1000, unsigned NumBounds = 28);

  void record(uint64_t Value);
  void clear();

  uint64_t count() const { return Count; }
  uint64_t sum() const { return Sum; }
  uint64_t min() const { return Count ? MinV : 0; }
  uint64_t max() const { return MaxV; }

  /// Upper bound of the bucket where the cumulative count first reaches
  /// \p Q (0 < Q <= 1) of the samples, clamped to the observed max so a
  /// percentile never exceeds max(). 0 when empty.
  uint64_t percentile(double Q) const;

  /// {count, sum_ns, min_ns, max_ns, p50_ns, p90_ns, p99_ns, buckets:
  /// [{le_ns, count}, ...]} — the final (overflow) bucket's le_ns is the
  /// string "inf", so sum-of-bucket-counts always equals count.
  Json toJson() const;

  const std::vector<uint64_t> &bounds() const { return Bounds; }
  uint64_t bucketCount(size_t I) const { return Counts[I]; }

private:
  std::vector<uint64_t> Bounds; ///< Strictly increasing upper bounds.
  std::vector<uint64_t> Counts; ///< Bounds.size() + 1; overflow last.
  uint64_t Count = 0, Sum = 0, MinV = 0, MaxV = 0;
};

/// Monotonic nanosecond clock used by every timer and trace event, so all
/// timestamps in one process share an epoch.
uint64_t monotonicNowNs();

} // namespace support
} // namespace gcsafe

#endif // GCSAFE_SUPPORT_STATS_H
