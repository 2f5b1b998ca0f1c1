//===- analysis/BaseLiveness.cpp ------------------------------*- C++ -*-===//

#include "analysis/BaseLiveness.h"

using namespace gcsafe;
using namespace gcsafe::analysis;
using namespace gcsafe::ir;
using namespace gcsafe::opt;

void BaseLiveness::transfer(const Instruction &I, BaseFacts &Facts) {
  if (I.Op == Opcode::Kill)
    return; // lifetime marker; facts about dead registers are inert

  if (I.Op == Opcode::KeepLive) {
    if (I.Dst == NoReg)
      return;
    if (!I.B.isReg() || I.B.Reg == I.Dst) {
      // No base, or the self-anchored specialized form: the destination is
      // its own anchor.
      Facts.erase(I.Dst);
      return;
    }
    std::set<uint32_t> Bases{I.B.Reg};
    auto It = Facts.find(I.B.Reg);
    if (It != Facts.end())
      Bases.insert(It->second.begin(), It->second.end()); // chained KLs
    Bases.erase(I.Dst);
    Facts[I.Dst] = std::move(Bases);
    return;
  }

  if (I.Dst == NoReg)
    return;

  if (I.Op == Opcode::Mov && I.A.isReg()) {
    auto It = Facts.find(I.A.Reg);
    if (It != Facts.end()) {
      std::set<uint32_t> Bases = It->second;
      Bases.erase(I.Dst); // writeback of the ++/-- expansion self-anchors
      if (!Bases.empty()) {
        Facts[I.Dst] = std::move(Bases);
        return;
      }
    }
  }
  Facts.erase(I.Dst); // any other definition produces a fresh value
}

namespace {

/// Pointwise union of \p From into \p Into; returns true on change.
bool mergeFacts(BaseFacts &Into, const BaseFacts &From) {
  bool Changed = false;
  for (const auto &[Reg, Bases] : From) {
    std::set<uint32_t> &Dst = Into[Reg];
    for (uint32_t B : Bases)
      Changed = Dst.insert(B).second || Changed;
  }
  return Changed;
}

} // namespace

BaseLiveness::BaseLiveness(const Function &F, const CFGInfo &CFG) {
  FactsIn.assign(F.Blocks.size(), {});

  // Forward derived-pointer facts to a fixpoint (sets only grow).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B : CFG.rpo()) {
      BaseFacts State = FactsIn[B];
      for (const Instruction &I : F.Blocks[B].Insts)
        transfer(I, State);
      for (uint32_t S : CFG.successors()[B])
        Changed = mergeFacts(FactsIn[S], State) || Changed;
    }
  }

  // Flow-insensitive contract closure, mirroring opt::Liveness::expandUse.
  ContractBases.assign(F.NumRegs, {});
  std::vector<std::vector<uint32_t>> Direct(F.NumRegs);
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Insts)
      if (I.Op == Opcode::KeepLive && I.Dst != NoReg && I.B.isReg() &&
          I.B.Reg != I.Dst)
        Direct[I.Dst].push_back(I.B.Reg);
  for (uint32_t R = 0; R < F.NumRegs; ++R) {
    if (Direct[R].empty())
      continue;
    std::set<uint32_t> Closure;
    std::vector<uint32_t> Work{R};
    while (!Work.empty()) {
      uint32_t Cur = Work.back();
      Work.pop_back();
      for (uint32_t Base : Direct[Cur])
        if (Closure.insert(Base).second)
          Work.push_back(Base);
    }
    Closure.erase(R);
    ContractBases[R] = std::move(Closure);
  }
}

bool BaseLiveness::inKillContract(uint32_t Derived, uint32_t Base) const {
  return Derived < ContractBases.size() &&
         ContractBases[Derived].count(Base) != 0;
}

unsigned BaseLiveness::derivedCount() const {
  std::set<uint32_t> Derived;
  for (const BaseFacts &Facts : FactsIn)
    for (const auto &[Reg, Bases] : Facts)
      Derived.insert(Reg);
  for (uint32_t R = 0; R < ContractBases.size(); ++R)
    if (!ContractBases[R].empty())
      Derived.insert(R);
  return static_cast<unsigned>(Derived.size());
}
