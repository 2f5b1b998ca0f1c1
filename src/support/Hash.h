//===- support/Hash.h - Stable content hashing -----------------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stable, process-independent content hash for content-addressed
/// caching (docs/SERVING.md). The bytes are read as little-endian 8-byte
/// words, and every word enters two independent 64-bit
/// xorshift-multiply lanes; the digest is 128 bits rendered as 32
/// lowercase hex characters. It is a function of the byte sequence alone
/// — not of how update() calls split it, nor of the host's byte order —
/// so it is identical across processes, platforms and runs, which is what
/// makes it usable as a cache key that survives daemon restarts and
/// cross-machine comparison (tests/test_store.cpp pins known answers).
///
/// Not cryptographic. The threat model is accidental collision between
/// compile requests, not an adversary constructing one; at 128 bits the
/// accidental-collision probability is negligible for any realistic
/// request volume.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SUPPORT_HASH_H
#define GCSAFE_SUPPORT_HASH_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

namespace gcsafe {
namespace support {

/// Incremental 128-bit content hasher. Feed bytes with update(); hex()
/// renders the digest. Bytes short of a whole word carry over to the
/// next update() and are folded in, zero-padded, with the total length
/// when the digest is rendered.
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
    Total += Len;
    if (TailLen + Len < 8) {
      Tail |= partialWord(P, Len) << (8 * TailLen);
      TailLen += Len;
      return;
    }
    if (TailLen) {
      size_t Take = 8 - TailLen;
      mix(Tail | (partialWord(P, Take) << (8 * TailLen)));
      P += Take;
      Len -= Take;
    }
    for (; Len >= 8; P += 8, Len -= 8)
      mix(word(P));
    Tail = partialWord(P, Len);
    TailLen = Len;
  }
  void update(const std::string &S) {
    update(S.data(), S.size());
    // Length-delimit so update("ab") + update("c") differs from
    // update("a") + update("bc"); the delimiter is little-endian too.
    unsigned char N[8];
    for (int I = 0; I < 8; ++I)
      N[I] = static_cast<unsigned char>(uint64_t(S.size()) >> (8 * I));
    update(N, sizeof(N));
  }

  std::string hex() const {
    ContentHasher F = *this;
    F.mix(F.Tail);
    F.mix(F.Total);
    static const char *Digits = "0123456789abcdef";
    std::string Out(32, '0');
    uint64_t V[2] = {avalanche(F.A), avalanche(F.B)};
    for (int W = 0; W < 2; ++W)
      for (int I = 0; I < 16; ++I)
        Out[W * 16 + I] = Digits[(V[W] >> (60 - 4 * I)) & 0xF];
    return Out;
  }

private:
  /// Eight bytes at \p P as a little-endian word.
  static uint64_t word(const unsigned char *P) {
    uint64_t W;
    std::memcpy(&W, P, sizeof(W));
    if constexpr (std::endian::native == std::endian::big)
      W = __builtin_bswap64(W);
    return W;
  }
  /// The first \p N < 8 bytes at \p P as the low bytes of a
  /// little-endian word.
  static uint64_t partialWord(const unsigned char *P, size_t N) {
    uint64_t W = 0;
    for (size_t I = 0; I < N; ++I)
      W |= uint64_t(P[I]) << (8 * I);
    return W;
  }
  /// One word into both lanes. The xorshift before each multiply carries
  /// every high bit of the word down to where the multiply spreads it.
  void mix(uint64_t W) {
    uint64_t X = A ^ W, Y = B ^ W;
    A = (X ^ (X >> 32)) * 0x9E3779B97F4A7C15ull;
    B = (Y ^ (Y >> 29)) * 0xC2B2AE3D27D4EB4Full;
  }
  /// The final avalanche of one lane (MurmurHash3's fmix64).
  static uint64_t avalanche(uint64_t H) {
    H = (H ^ (H >> 33)) * 0xFF51AFD7ED558CCDull;
    H = (H ^ (H >> 33)) * 0xC4CEB9FE1A85EC53ull;
    return H ^ (H >> 33);
  }

  uint64_t A = 0xCBF29CE484222325ull;
  uint64_t B = 0x84222325CBF29CE4ull;
  uint64_t Tail = 0;   ///< Bytes short of a word, little-endian.
  size_t TailLen = 0;  ///< How many: always below 8.
  uint64_t Total = 0;  ///< Bytes fed so far.
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
