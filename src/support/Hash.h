//===- support/Hash.h - Stable content hashing -----------------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stable, process-independent content hash for content-addressed
/// caching (docs/SERVING.md). Two independent 64-bit FNV-1a streams over
/// the same bytes give a 128-bit digest rendered as 32 lowercase hex
/// characters; the digest of a given byte sequence is identical across
/// processes, platforms and runs, which is what makes it usable as a cache
/// key that survives daemon restarts and cross-machine comparison.
///
/// Not cryptographic. The threat model is accidental collision between
/// compile requests, not an adversary constructing one; at 128 bits the
/// accidental-collision probability is negligible for any realistic
/// request volume.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SUPPORT_HASH_H
#define GCSAFE_SUPPORT_HASH_H

#include <cstdint>
#include <string>

namespace gcsafe {
namespace support {

/// Incremental 128-bit content hasher (two FNV-1a-64 streams with distinct
/// offset bases). Feed bytes with update(); hex() renders the digest.
class ContentHasher {
public:
  ContentHasher() = default;

  /// Seeds the digest with a build fingerprint before any content bytes.
  /// Two hashers with different fingerprints can never agree on identical
  /// content, which is what makes a fingerprinted cache key upgrade-safe:
  /// a binary whose output could differ (new key format, any changed
  /// source file — see driver::keyFingerprint) computes keys in a
  /// disjoint namespace and can never replay a stale payload.
  explicit ContentHasher(const std::string &Fingerprint) {
    update(Fingerprint);
  }

  void update(const void *Data, size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I < Len; ++I) {
      A = (A ^ P[I]) * 0x100000001B3ull;
      B = (B ^ P[I]) * 0x100000001B3ull;
      B ^= B >> 29; // decorrelate the second stream
    }
  }
  void update(const std::string &S) {
    update(S.data(), S.size());
    // Length-delimit so update("ab") + update("c") differs from
    // update("a") + update("bc").
    uint64_t N = S.size();
    update(&N, sizeof(N));
  }

  std::string hex() const {
    static const char *Digits = "0123456789abcdef";
    std::string Out(32, '0');
    uint64_t V[2] = {A, B};
    for (int W = 0; W < 2; ++W)
      for (int I = 0; I < 16; ++I)
        Out[W * 16 + I] = Digits[(V[W] >> (60 - 4 * I)) & 0xF];
    return Out;
  }

private:
  uint64_t A = 0xCBF29CE484222325ull;
  uint64_t B = 0x84222325CBF29CE4ull;
};

/// One-shot convenience: the 32-hex-char digest of \p S.
inline std::string contentHash(const std::string &S) {
  ContentHasher H;
  H.update(S);
  return H.hex();
}

} // namespace support
} // namespace gcsafe

#endif // GCSAFE_SUPPORT_HASH_H
