//===- analysis/SafetyVerifier.cpp ----------------------------*- C++ -*-===//

#include "analysis/SafetyVerifier.h"

#include "analysis/BaseLiveness.h"
#include "opt/CFG.h"
#include "opt/Passes.h"

#include <algorithm>
#include <optional>
#include <sstream>

using namespace gcsafe;
using namespace gcsafe::analysis;
using namespace gcsafe::ir;
using namespace gcsafe::opt;

namespace {

SafetyDiag makeDiag(const Function &F, uint32_t Block, uint32_t Index,
                    uint32_t SrcOffset, const char *Pass, const char *Kind,
                    uint32_t Derived, uint32_t Base, std::string Message) {
  SafetyDiag D;
  D.Function = F.Name;
  D.Block = Block;
  D.Index = Index;
  D.SrcOffset = SrcOffset;
  D.Pass = Pass;
  D.Kind = Kind;
  D.Derived = Derived;
  D.Base = Base;
  D.Message = std::move(Message);
  return D;
}

std::string regName(uint32_t R) {
  return R == NoReg ? std::string("r?") : "r" + std::to_string(R);
}

//===----------------------------------------------------------------------===//
// Layer 1: point checks
//===----------------------------------------------------------------------===//

void checkPoints(const Function &F, const SafetyVerifyOptions &Options,
                 std::vector<SafetyDiag> &Out) {
  CFGInfo CFG(F);
  Liveness Live(F, CFG, Liveness::Plain);
  BaseLiveness BL(F, CFG);

  const std::vector<uint32_t> &Derived = BL.candidates();
  std::vector<RegSet> LiveAfter;
  BaseFacts Facts;
  for (uint32_t BId = 0; BId < F.Blocks.size(); ++BId) {
    const BasicBlock &B = F.Blocks[BId];
    if (B.Insts.empty())
      continue;
    Live.liveAfter(BId, LiveAfter);
    Facts = BL.factsIn(BId);

    for (uint32_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
      const Instruction &I = B.Insts[Idx];
      // Flags as \p Kind each derived pointer live after I and pinned to
      // \p R (through the kill contract when \p Contract); true if any.
      auto PinnedLive = [&](uint32_t R, bool Contract, const char *Kind,
                            const char *Action) {
        bool Any = false;
        for (uint32_t Row = 0; Row < Derived.size(); ++Row) {
          uint32_t D = Derived[Row];
          if (D == R || !Facts.test(Row, R) || !LiveAfter[Idx].test(D) ||
              (Contract && !BL.inKillContract(D, R)))
            continue;
          Any = true;
          std::ostringstream OS;
          OS << Action << regName(R) << " while derived pointer "
             << regName(D) << " (KEEP_LIVE base " << regName(R)
             << ") is still live";
          Out.push_back(makeDiag(F, BId, Idx, I.Loc, Options.Pass, Kind, D,
                                 R, OS.str()));
        }
        return Any;
      };

      if (I.Op == Opcode::Kill) {
        if (I.A.isReg()) {
          uint32_t R = I.A.Reg;
          bool BaseDiag = PinnedLive(R, true, "base_killed", "kill of ");
          if (!BaseDiag && LiveAfter[Idx].test(R)) {
            std::ostringstream OS;
            OS << "kill of " << regName(R)
               << " while its value is still used later";
            Out.push_back(makeDiag(F, BId, Idx, I.Loc, Options.Pass,
                                   "kill_live_register", NoReg, R,
                                   OS.str()));
          }
        }
      } else if (I.Dst != NoReg) {
        uint32_t R = I.Dst;
        // Pointer rebase: a redefinition whose own operands carry the old
        // value of R (p = p + 1, or the writeback of the specialized
        // KEEP_LIVE(p + 1, p)) leaves the object anchored through the new
        // value; the paper's ++/-- expansion relies on this.
        bool Rebase = false;
        forEachUse(I, [&](uint32_t X) {
          if (X == R || BL.pinned(Facts, X, R))
            Rebase = true;
        });
        if (!Rebase)
          PinnedLive(R, false, "base_clobbered", "definition clobbers ");
      }

      BL.transfer(I, Facts);
    }
  }
}

//===----------------------------------------------------------------------===//
// Layer 2: kill-placement audit
//===----------------------------------------------------------------------===//

/// Kill placement of one block, keyed by the index of the preceding
/// non-kill instruction in the kill-free sequence (~0u for kills ahead of
/// the first instruction — entry parameter kills).
using KillSlots = std::map<uint32_t, std::vector<uint32_t>>;

void collectKillSlots(const BasicBlock &B, KillSlots &Slots,
                      std::vector<uint32_t> &NonKillIndices) {
  Slots.clear();
  NonKillIndices.clear();
  uint32_t Slot = ~0u;
  for (uint32_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
    const Instruction &I = B.Insts[Idx];
    if (I.Op == Opcode::Kill) {
      if (I.A.isReg())
        Slots[Slot].push_back(I.A.Reg);
    } else {
      Slot = static_cast<uint32_t>(NonKillIndices.size());
      NonKillIndices.push_back(Idx);
    }
  }
  for (auto &[S, Regs] : Slots)
    std::sort(Regs.begin(), Regs.end());
}

void checkKillPlacement(const Function &F, const SafetyVerifyOptions &Options,
                        std::vector<SafetyDiag> &Out) {
  // Re-derive the canonical placement: strip every Kill and let
  // insertKills recompute from the module's own KEEP_LIVE structure.
  Function Canonical = F;
  for (BasicBlock &B : Canonical.Blocks)
    B.Insts.erase(std::remove_if(B.Insts.begin(), B.Insts.end(),
                                 [](const Instruction &I) {
                                   return I.Op == Opcode::Kill;
                                 }),
                  B.Insts.end());
  PassStats Dummy;
  insertKills(Canonical, Dummy);

  KillSlots Actual, Expected;
  std::vector<uint32_t> ActualIdx, ExpectedIdx;
  for (uint32_t BId = 0; BId < F.Blocks.size(); ++BId) {
    collectKillSlots(F.Blocks[BId], Actual, ActualIdx);
    collectKillSlots(Canonical.Blocks[BId], Expected, ExpectedIdx);
    if (ActualIdx.size() != ExpectedIdx.size()) {
      Out.push_back(makeDiag(F, BId, 0, ~0u, Options.Pass, "structure",
                             NoReg, NoReg,
                             "kill audit cannot align block: non-kill "
                             "instruction counts differ"));
      continue;
    }

    // Position of a slot in the original instruction stream, for reports.
    auto SlotIndex = [&](uint32_t Slot) {
      return Slot == ~0u ? 0u : ActualIdx[Slot];
    };
    auto SlotLoc = [&](uint32_t Slot) -> uint32_t {
      return Slot == ~0u ? ~0u : F.Blocks[BId].Insts[ActualIdx[Slot]].Loc;
    };

    std::set<uint32_t> AllSlots;
    for (const auto &[S, Regs] : Actual)
      AllSlots.insert(S);
    for (const auto &[S, Regs] : Expected)
      AllSlots.insert(S);
    for (uint32_t S : AllSlots) {
      static const std::vector<uint32_t> Empty;
      auto AIt = Actual.find(S);
      auto EIt = Expected.find(S);
      const std::vector<uint32_t> &A = AIt == Actual.end() ? Empty
                                                          : AIt->second;
      const std::vector<uint32_t> &E = EIt == Expected.end() ? Empty
                                                             : EIt->second;
      for (uint32_t R : E)
        if (!std::count(A.begin(), A.end(), R)) {
          std::ostringstream OS;
          OS << "missing kill of " << regName(R)
             << " at its extended death point — the register outlives "
                "its last KEEP_LIVE-extended use (false retention)";
          Out.push_back(makeDiag(F, BId, SlotIndex(S), SlotLoc(S),
                                 Options.Pass, "kill_missing", NoReg, R,
                                 OS.str()));
        }
      for (uint32_t R : A)
        if (!std::count(E.begin(), E.end(), R)) {
          std::ostringstream OS;
          OS << "kill of " << regName(R)
             << " is not at the canonical death point computed from the "
                "module's KEEP_LIVE structure";
          Out.push_back(makeDiag(F, BId, SlotIndex(S), SlotLoc(S),
                                 Options.Pass, "kill_spurious", NoReg, R,
                                 OS.str()));
        }
    }
  }
}

/// The registers a KEEP_LIVE defines in \p F.
std::set<uint32_t> keepLiveDsts(const Function &F) {
  std::set<uint32_t> Dsts;
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Insts)
      if (I.Op == Opcode::KeepLive && I.Dst != NoReg)
        Dsts.insert(I.Dst);
  return Dsts;
}
} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

bool gcsafe::analysis::verifyFunctionSafety(const Function &F,
                                            const SafetyVerifyOptions &Options,
                                            std::vector<SafetyDiag> &Out) {
  size_t Before = Out.size();
  checkPoints(F, Options, Out);
  if (Options.CheckKillPlacement)
    checkKillPlacement(F, Options, Out);
  return Out.size() == Before;
}

bool gcsafe::analysis::verifyModuleSafety(const Module &M,
                                          const SafetyVerifyOptions &Options,
                                          std::vector<SafetyDiag> &Out) {
  bool Ok = true;
  for (const Function &F : M.Functions)
    Ok = verifyFunctionSafety(F, Options, Out) && Ok;
  return Ok;
}

void KeepLiveContinuity::record(const Function &F) {
  Snapshots[F.Name] = keepLiveDsts(F);
}

void KeepLiveContinuity::check(const Function &F, const char *Pass,
                               std::vector<SafetyDiag> &Out) {
  std::set<uint32_t> Current = keepLiveDsts(F);
  auto It = Snapshots.find(F.Name);
  if (It != Snapshots.end()) {
    // Use counts are needed only once a snapshotted KEEP_LIVE is missing.
    std::optional<DefUseCounts> DU;
    for (uint32_t Dst : It->second) {
      if (Current.count(Dst))
        continue;
      if (!DU)
        DU = countDefsUses(F);
      // Disappearing is legitimate only when the derived value itself is
      // gone: dead-code elimination of an unused destination, or the
      // peephole folding the KEEP_LIVE into a fused addressing mode (which
      // also consumes the only use).
      if (Dst >= DU->Uses.size() || DU->Uses[Dst] == 0)
        continue;
      std::ostringstream OS;
      OS << "KEEP_LIVE defining " << regName(Dst)
         << " disappeared during pass '" << Pass << "' although "
         << regName(Dst) << " still has " << DU->Uses[Dst] << " use(s)";
      Out.push_back(makeDiag(F, 0, 0, ~0u, Pass, "keep_live_dropped", Dst,
                             NoReg, OS.str()));
    }
  }
  Snapshots[F.Name] = std::move(Current);
}

std::string gcsafe::analysis::formatSafetyDiag(const SafetyDiag &D) {
  std::ostringstream OS;
  OS << D.Function << ": b" << D.Block << "[" << D.Index << "]: ["
     << D.Kind << "] after " << D.Pass << ": " << D.Message;
  return OS.str();
}
