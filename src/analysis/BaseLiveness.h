//===- analysis/BaseLiveness.h - Derived-pointer base dataflow -*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verifier's own facts over one ir::Function (docs/ANALYSIS.md §1).
/// Its plain liveness is not computed here: the verifier reads the plain
/// instance of opt::Liveness (no KEEP_LIVE extension), which derives from
/// the IR alone. Nothing here consumes the extended instance or any other
/// fact the optimizer claims.
///
/// *Derived-pointer facts* — a forward analysis computing, per program
/// point, which registers hold KEEP_LIVE-derived pointers and the set of
/// base registers each one depends on. The lattice per register is a set
/// of bases (bottom = not derived); the join at block merges is set union
/// (a register that is derived-from-b along any inflowing path must be
/// treated as pinned to b). Transfer functions:
///
///   KeepLive d, a, b   facts(d) = {b} ∪ facts(b)    (chained KEEP_LIVEs)
///   Mov d, s           facts(d) = facts(s) \ {d}    (copies carry the
///                      derivation; the writeback `p = KEEP_LIVE(p+1, p)`
///                      of the specialized ++/-- expansion self-anchors,
///                      hence the \ {d})
///   any other def of d facts(d) = ⊥                 (fresh value)
///
/// The facts are bit vectors (Khedker, Sanyal and Karkare cast heap
/// reference liveness the same way): only a KeepLive or register-Mov
/// destination — a *candidate* — can carry a fact, so each program point
/// holds one row of register bits per candidate, the join ORs the rows,
/// and every transfer writes one whole row.
///
/// The distinction between a fact that the kill-insertion contract honors
/// (d is literally a KeepLive destination, so opt::Liveness::expandUse
/// extends its bases' live ranges) and one carried through copies matters
/// to the verifier's diagnostics; inKillContract() exposes it. The
/// contract closure is recomputed here from the KeepLives, independently of
/// opt::Liveness, because it is the optimizer's closure under check.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_ANALYSIS_BASELIVENESS_H
#define GCSAFE_ANALYSIS_BASELIVENESS_H

#include "ir/IR.h"
#include "opt/CFG.h"

#include <cstdint>
#include <vector>

namespace gcsafe {
namespace analysis {

/// The derived-pointer facts at one program point, one row per candidate:
/// row i (of BaseLiveness::candidates()[i]) holds the bases it is pinned
/// to, in the Words 64-bit words from Bits[i * Words].
struct BaseFacts {
  uint32_t Words = 0;
  std::vector<uint64_t> Bits;

  bool test(uint32_t Row, uint32_t Base) const {
    return (Bits[Row * Words + Base / 64] >> (Base % 64)) & 1;
  }
  void set(uint32_t Row, uint32_t Base) {
    Bits[Row * Words + Base / 64] |= uint64_t(1) << (Base % 64);
  }
  void clear(uint32_t Row, uint32_t Base) {
    Bits[Row * Words + Base / 64] &= ~(uint64_t(1) << (Base % 64));
  }
};

class BaseLiveness {
public:
  BaseLiveness(const ir::Function &F, const opt::CFGInfo &CFG);

  /// Derived-pointer facts at block entry.
  const BaseFacts &factsIn(uint32_t B) const { return FactsIn[B]; }

  /// Steps \p Facts forward across one instruction (the transfer function
  /// above). Exposed so the verifier can walk a block instruction by
  /// instruction from factsIn().
  void transfer(const ir::Instruction &I, BaseFacts &Facts) const;

  /// The candidate registers, ascending.
  const std::vector<uint32_t> &candidates() const { return Candidates; }

  /// True when \p Derived is pinned to \p Base in \p Facts.
  bool pinned(const BaseFacts &Facts, uint32_t Derived, uint32_t Base) const {
    return RowOf[Derived] != NoRow && Facts.test(RowOf[Derived], Base);
  }

  /// True when register \p Derived is a KeepLive destination whose
  /// transitive base closure (the one opt::Liveness::expandUse honors when
  /// kills are placed) contains \p Base. Facts carried only through copies
  /// are outside the kill-insertion contract.
  bool inKillContract(uint32_t Derived, uint32_t Base) const {
    return RowOf[Derived] != NoRow && ContractBases.test(RowOf[Derived], Base);
  }

private:
  static constexpr uint32_t NoRow = ~0u;
  std::vector<uint32_t> Candidates;
  std::vector<uint32_t> RowOf; ///< Register -> its row, or NoRow.
  std::vector<BaseFacts> FactsIn;
  /// Flow-insensitive KeepLive closure, per row: every register expandUse
  /// reaches from the candidate, minus itself. Empty for non-KL dests.
  BaseFacts ContractBases;
};

} // namespace analysis
} // namespace gcsafe

#endif // GCSAFE_ANALYSIS_BASELIVENESS_H
