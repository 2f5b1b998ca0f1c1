//===- analysis/BaseLiveness.cpp ------------------------------*- C++ -*-===//

#include "analysis/BaseLiveness.h"

#include <algorithm>

using namespace gcsafe;
using namespace gcsafe::analysis;
using namespace gcsafe::ir;
using namespace gcsafe::opt;

void BaseLiveness::transfer(const Instruction &I, BaseFacts &Facts) const {
  // A Kill is a lifetime marker (facts about dead registers are inert),
  // and only a candidate's row can change: every other register stays ⊥.
  if (I.Op == Opcode::Kill || I.Dst == NoReg || RowOf[I.Dst] == NoRow)
    return;
  // The row the new value copies: the base's facts for a KeepLive (plus
  // the base itself), the source's for a register Mov, none otherwise. A
  // KeepLive without a base, or self-anchored, is its own anchor.
  uint32_t From = NoReg;
  if (I.Op == Opcode::KeepLive && I.B.isReg() && I.B.Reg != I.Dst)
    From = I.B.Reg;
  else if (I.Op == Opcode::Mov && I.A.isReg())
    From = I.A.Reg;
  uint32_t Row = RowOf[I.Dst], W = Facts.Words;
  uint64_t *Bits = Facts.Bits.data();
  if (From == NoReg || RowOf[From] == NoRow)
    std::fill_n(Bits + Row * W, W, 0);
  else if (From != I.Dst)
    std::copy_n(Bits + RowOf[From] * W, W, Bits + Row * W);
  if (I.Op == Opcode::KeepLive && From != NoReg)
    Facts.set(Row, From); // chained KLs
  Facts.clear(Row, I.Dst); // the writeback of the ++/-- expansion self-anchors
}

BaseLiveness::BaseLiveness(const Function &F, const CFGInfo &CFG)
    : RowOf(F.NumRegs, NoRow) {
  // The candidates, and each KeepLive destination's direct bases.
  std::vector<std::vector<uint32_t>> Direct(F.NumRegs);
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Insts) {
      if (I.Dst == NoReg ||
          !(I.Op == Opcode::KeepLive || (I.Op == Opcode::Mov && I.A.isReg())))
        continue;
      RowOf[I.Dst] = 0;
      if (I.Op == Opcode::KeepLive && I.B.isReg() && I.B.Reg != I.Dst)
        Direct[I.Dst].push_back(I.B.Reg);
    }
  for (uint32_t R = 0; R < F.NumRegs; ++R)
    if (RowOf[R] != NoRow) {
      RowOf[R] = static_cast<uint32_t>(Candidates.size());
      Candidates.push_back(R);
    }

  // Forward derived-pointer facts to a fixpoint (rows only grow; the join
  // ORs every row at once).
  uint32_t Words = (F.NumRegs + 63) / 64;
  const BaseFacts Bottom{Words,
                         std::vector<uint64_t>(Candidates.size() * Words)};
  FactsIn.assign(F.Blocks.size(), Bottom);
  BaseFacts State = Bottom;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B : CFG.rpo()) {
      State.Bits = FactsIn[B].Bits;
      for (const Instruction &I : F.Blocks[B].Insts)
        transfer(I, State);
      for (uint32_t S : CFG.successors()[B])
        for (size_t W = 0; W < State.Bits.size(); ++W) {
          uint64_t &Into = FactsIn[S].Bits[W];
          Changed = Changed || (State.Bits[W] & ~Into) != 0;
          Into |= State.Bits[W];
        }
    }
  }

  // Flow-insensitive contract closure, mirroring opt::Liveness::expandUse.
  ContractBases = Bottom;
  for (uint32_t Row = 0; Row < Candidates.size(); ++Row) {
    std::vector<uint32_t> Work{Candidates[Row]};
    while (!Work.empty()) {
      uint32_t Cur = Work.back();
      Work.pop_back();
      for (uint32_t Base : Direct[Cur])
        if (!ContractBases.test(Row, Base)) {
          ContractBases.set(Row, Base);
          Work.push_back(Base);
        }
    }
    ContractBases.clear(Row, Candidates[Row]);
  }
}
