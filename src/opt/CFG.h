//===- opt/CFG.h - CFG analyses for the optimizer --------------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow analyses over ir::Function: successors/predecessors,
/// reverse post-order and reachability (CFGInfo), natural loops (whose
/// dominator computation is internal to findLoops), def/use counting, and
/// the one backward liveness solver.
///
/// Liveness comes in two instances of the same solver, differing only in
/// how a use is counted. The extended instance implements the paper's
/// KEEP_LIVE condition (2): the base operand of a KeepLive "must be visible
/// to the collector at all points between the evaluation of the original
/// KEEP_LIVE and the final use" of its result, so every use of a KeepLive
/// destination is also a use of its base register (transitively through
/// chained KeepLives). It serves kill insertion and the VM's spill model.
/// The plain instance counts a use as itself only; the static safety
/// verifier (docs/ANALYSIS.md) reads it, because the extension is exactly
/// the property the verifier checks.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_OPT_CFG_H
#define GCSAFE_OPT_CFG_H

#include "ir/IR.h"

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace gcsafe {
namespace opt {

/// Successor block ids of a terminator.
void blockSuccessors(const ir::BasicBlock &B, std::vector<uint32_t> &Out);

/// Dense bitset over virtual registers.
class RegSet {
public:
  explicit RegSet(uint32_t NumRegs = 0) : Words((NumRegs + 63) / 64, 0) {}

  bool test(uint32_t R) const {
    return (Words[R / 64] >> (R % 64)) & 1;
  }
  void set(uint32_t R) { Words[R / 64] |= uint64_t(1) << (R % 64); }
  void clear(uint32_t R) { Words[R / 64] &= ~(uint64_t(1) << (R % 64)); }

  /// this |= RHS; returns true if anything changed.
  bool unionWith(const RegSet &RHS) {
    bool Changed = false;
    for (size_t I = 0; I < Words.size(); ++I) {
      uint64_t Old = Words[I];
      Words[I] |= RHS.Words[I];
      Changed = Changed || Words[I] != Old;
    }
    return Changed;
  }

  unsigned count() const;

  /// Calls \p Fn on each member in ascending order, emptying the set.
  template <typename Callable> void drain(Callable Fn) {
    for (size_t W = 0; W < Words.size(); ++W)
      for (uint64_t Bits = std::exchange(Words[W], 0); Bits; Bits &= Bits - 1)
        Fn(uint32_t(W * 64 + std::countr_zero(Bits)));
  }

private:
  std::vector<uint64_t> Words;
};

/// Per-function CFG information.
class CFGInfo {
public:
  explicit CFGInfo(const ir::Function &F);

  const std::vector<std::vector<uint32_t>> &successors() const {
    return Succs;
  }
  const std::vector<std::vector<uint32_t>> &predecessors() const {
    return Preds;
  }
  /// Reverse post-order over reachable blocks.
  const std::vector<uint32_t> &rpo() const { return RPO; }
  bool isReachable(uint32_t B) const { return Reachable[B]; }

private:
  std::vector<std::vector<uint32_t>> Succs, Preds;
  std::vector<uint32_t> RPO;
  std::vector<bool> Reachable;
};

/// A natural loop.
struct LoopInfo {
  uint32_t Header = 0;
  uint32_t Preheader = ~0u; ///< Unique out-of-loop predecessor, or ~0u.
  std::vector<uint32_t> Blocks; ///< Includes the header.

  bool contains(uint32_t B) const {
    for (uint32_t LB : Blocks)
      if (LB == B)
        return true;
    return false;
  }
};

/// Finds natural loops (one per back edge; loops sharing a header are
/// merged). Computes the dominators it needs to recognise back edges.
std::vector<LoopInfo> findLoops(const ir::Function &F, const CFGInfo &CFG);

/// Def and use counts per virtual register.
struct DefUseCounts {
  std::vector<uint32_t> Defs;
  std::vector<uint32_t> Uses;
};
DefUseCounts countDefsUses(const ir::Function &F);

/// Calls \p Fn for every register the instruction reads.
template <typename Callable>
void forEachUse(const ir::Instruction &I, Callable Fn) {
  if (I.Op == ir::Opcode::Kill)
    return; // kills are lifetime markers, not uses
  for (const ir::Value *V : {&I.A, &I.B, &I.C})
    if (V->isReg())
      Fn(V->Reg);
  for (const ir::Value &V : I.Args)
    if (V.isReg())
      Fn(V.Reg);
}

/// Per-function backward liveness (see the file comment for the two
/// instances).
class Liveness {
public:
  enum Uses { Plain, KeepLiveExtended };

  Liveness(const ir::Function &F, const CFGInfo &CFG, Uses Kind);

  const RegSet &liveIn(uint32_t B) const { return LiveIn[B]; }
  const RegSet &liveOut(uint32_t B) const { return LiveOut[B]; }

  /// Adds \p R to \p S, and in the extended instance every KEEP_LIVE base
  /// it transitively pins.
  void expandUse(uint32_t R, RegSet &S) const;

  /// Fills \p Out with the live set just after each instruction of block
  /// \p B (Out[i] = live after Insts[i]).
  void liveAfter(uint32_t B, std::vector<RegSet> &Out) const;

  /// Maximum number of simultaneously live registers at any point in block
  /// \p B (the VM's register-pressure cost model); walks the block.
  unsigned maxPressure(uint32_t B) const;

private:
  /// Steps \p Live backward across \p I.
  void step(const ir::Instruction &I, RegSet &Live) const;

  const ir::Function &F;
  std::vector<RegSet> LiveIn, LiveOut;
  /// KeepLive destination -> base registers. Not allocated in the plain
  /// instance, nor when F has no KeepLive: a use is then just set, with no
  /// chain to chase. Several KeepLives may write the same destination
  /// along different paths; treating the mapping as a set (rather than
  /// last-writer-wins) keeps the extension conservative — every base any
  /// of them pins stays live wherever the destination is live.
  std::vector<std::vector<uint32_t>> KLBases;
};

} // namespace opt
} // namespace gcsafe

#endif // GCSAFE_OPT_CFG_H
