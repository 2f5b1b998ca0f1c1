//===- analysis/Mutate.cpp ------------------------------------*- C++ -*-===//

#include "analysis/Mutate.h"

#include "analysis/SafetyVerifier.h"
#include "opt/CFG.h"

#include <sstream>

using namespace gcsafe;
using namespace gcsafe::analysis;
using namespace gcsafe::ir;
using namespace gcsafe::opt;

const char *gcsafe::analysis::mutationKindName(MutationKind K) {
  switch (K) {
  case MutationKind::DeleteKeepLive: return "delete_keep_live";
  case MutationKind::DropKill: return "drop_kill";
  case MutationKind::HoistKill: return "hoist_kill";
  case MutationKind::ClobberBase: return "clobber_base";
  }
  return "?";
}

bool gcsafe::analysis::parseMutationKindName(const std::string &Name,
                                             MutationKind &Out) {
  for (MutationKind K :
       {MutationKind::DeleteKeepLive, MutationKind::DropKill,
        MutationKind::HoistKill, MutationKind::ClobberBase})
    if (Name == mutationKindName(K)) {
      Out = K;
      return true;
    }
  return false;
}

namespace {

std::string describe(MutationKind K, const Function &F, uint32_t B,
                     uint32_t Idx, const Instruction &I) {
  std::ostringstream OS;
  OS << mutationKindName(K) << " " << F.Name << ":b" << B << "[" << Idx
     << "]";
  if (K == MutationKind::DeleteKeepLive || K == MutationKind::ClobberBase)
    OS << " (keep_live r"
       << (I.Dst == NoReg ? 0 : I.Dst) << ")";
  else if (I.A.isReg())
    OS << " (kill r" << I.A.Reg << ")";
  return OS.str();
}

/// A DeleteKeepLive mutant is equivalent when turning the KeepLive into a
/// plain Mov changes no register lifetime: verify the mutated function and
/// keep the candidate only if the verifier objects.
bool deleteIsObservable(const Function &F, uint32_t B, uint32_t Idx) {
  Function Mutated = F;
  Instruction &I = Mutated.Blocks[B].Insts[Idx];
  I.Op = Opcode::Mov;
  I.B = Value::none();
  SafetyVerifyOptions O;
  O.Pass = "(mutant)";
  std::vector<SafetyDiag> Diags;
  return !verifyFunctionSafety(Mutated, O, Diags);
}

} // namespace

std::vector<Mutation>
gcsafe::analysis::enumerateMutations(const Module &M) {
  std::vector<Mutation> Out;
  for (uint32_t FI = 0; FI < M.Functions.size(); ++FI) {
    std::vector<Mutation> Fn = enumerateFunctionMutations(M.Functions[FI], FI);
    Out.insert(Out.end(), Fn.begin(), Fn.end());
  }
  return Out;
}

std::vector<Mutation>
gcsafe::analysis::enumerateFunctionMutations(const Function &F,
                                             uint32_t FnIndex) {
  std::vector<Mutation> Out;
  {
    const uint32_t FI = FnIndex;
    CFGInfo CFG(F);
    Liveness Live(F, CFG, Liveness::Plain);
    std::vector<RegSet> LiveAfter;

    for (uint32_t BId = 0; BId < F.Blocks.size(); ++BId) {
      const BasicBlock &B = F.Blocks[BId];
      if (B.Insts.empty())
        continue;
      Live.liveAfter(BId, LiveAfter);

      for (uint32_t Idx = 0; Idx < B.Insts.size(); ++Idx) {
        const Instruction &I = B.Insts[Idx];

        if (I.Op == Opcode::KeepLive && I.Dst != NoReg && I.A.isReg() &&
            I.B.isReg() && I.B.Reg != I.Dst) {
          if (deleteIsObservable(F, BId, Idx))
            Out.push_back({MutationKind::DeleteKeepLive, FI, BId, Idx,
                           describe(MutationKind::DeleteKeepLive, F, BId,
                                    Idx, I)});
          // Clobbering the base is observable only while the derived
          // register stays live past the KeepLive.
          if (LiveAfter[Idx].test(I.Dst))
            Out.push_back({MutationKind::ClobberBase, FI, BId, Idx,
                           describe(MutationKind::ClobberBase, F, BId, Idx,
                                    I)});
        }

        if (I.Op == Opcode::Kill && I.A.isReg()) {
          Out.push_back({MutationKind::DropKill, FI, BId, Idx,
                         describe(MutationKind::DropKill, F, BId, Idx, I)});
          // Hoisting must cross a non-kill instruction to change the
          // placement.
          bool CrossesInstruction = false;
          for (uint32_t J = Idx; J-- > 0;) {
            if (B.Insts[J].Op != Opcode::Kill) {
              CrossesInstruction = true;
              break;
            }
          }
          if (CrossesInstruction)
            Out.push_back({MutationKind::HoistKill, FI, BId, Idx,
                           describe(MutationKind::HoistKill, F, BId, Idx,
                                    I)});
        }
      }
    }
  }
  return Out;
}

bool gcsafe::analysis::applyMutation(Module &M, const Mutation &Mu) {
  if (Mu.FunctionIndex >= M.Functions.size())
    return false;
  return applyMutation(M.Functions[Mu.FunctionIndex], Mu);
}

bool gcsafe::analysis::applyMutation(Function &F, const Mutation &Mu) {
  if (Mu.Block >= F.Blocks.size())
    return false;
  BasicBlock &B = F.Blocks[Mu.Block];
  if (Mu.Index >= B.Insts.size())
    return false;
  Instruction &I = B.Insts[Mu.Index];

  switch (Mu.Kind) {
  case MutationKind::DeleteKeepLive: {
    if (I.Op != Opcode::KeepLive)
      return false;
    I.Op = Opcode::Mov;
    I.B = Value::none();
    return true;
  }
  case MutationKind::DropKill: {
    if (I.Op != Opcode::Kill)
      return false;
    B.Insts.erase(B.Insts.begin() + Mu.Index);
    return true;
  }
  case MutationKind::HoistKill: {
    if (I.Op != Opcode::Kill)
      return false;
    // Move the kill just above the nearest preceding non-kill instruction.
    uint32_t Target = Mu.Index;
    for (uint32_t J = Mu.Index; J-- > 0;) {
      if (B.Insts[J].Op != Opcode::Kill) {
        Target = J;
        break;
      }
    }
    if (Target == Mu.Index)
      return false;
    Instruction K = I;
    B.Insts.erase(B.Insts.begin() + Mu.Index);
    B.Insts.insert(B.Insts.begin() + Target, std::move(K));
    return true;
  }
  case MutationKind::ClobberBase: {
    if (I.Op != Opcode::KeepLive || !I.B.isReg())
      return false;
    Instruction Clobber;
    Clobber.Op = Opcode::Mov;
    Clobber.Dst = I.B.Reg;
    Clobber.A = Value::imm(0);
    B.Insts.insert(B.Insts.begin() + Mu.Index + 1, std::move(Clobber));
    return true;
  }
  }
  return false;
}
