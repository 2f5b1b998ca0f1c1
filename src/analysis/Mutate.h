//===- analysis/Mutate.h - GC-safety mutation harness ----------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verifier's adversarial self-test (docs/ANALYSIS.md §5): enumerate
/// deliberate KEEP_LIVE/kill corruptions of a compiled module and assert
/// that SafetyVerifier flags every one while passing the clean module.
///
/// Four mutation operators over the final (post-insertKills) IR:
///
///   DeleteKeepLive  KeepLive d,a,b  ->  Mov d,a   — the annotation is
///                   silently lost; the stale kill placement is a false
///                   retention the kill audit catches. Mutants whose
///                   removal changes no register lifetime are equivalent
///                   (the base dies at the same point anyway) and are not
///                   enumerated.
///   DropKill        remove one Kill — a register now outlives its death
///                   point ("kill_missing").
///   HoistKill       move one Kill up across the preceding non-kill
///                   instruction — kills placed earlier than the death
///                   point are the premature-collection bug itself.
///   ClobberBase     insert `Mov b, 0` right after a KeepLive whose
///                   derived register is still live — the base register
///                   no longer holds a pointer into the object.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_ANALYSIS_MUTATE_H
#define GCSAFE_ANALYSIS_MUTATE_H

#include "ir/IR.h"

#include <string>
#include <vector>

namespace gcsafe {
namespace analysis {

enum class MutationKind : uint8_t {
  DeleteKeepLive,
  DropKill,
  HoistKill,
  ClobberBase,
};

const char *mutationKindName(MutationKind K);
/// The inverse (the --corrupt-kind / corrupt_kind token); false on
/// unknown names.
bool parseMutationKindName(const std::string &Name, MutationKind &Out);

struct Mutation {
  MutationKind Kind;
  uint32_t FunctionIndex = 0;
  uint32_t Block = 0;
  uint32_t Index = 0; ///< Instruction index of the mutation site.
  std::string Description;
};

/// Enumerates every applicable, non-equivalent mutation of \p M. The
/// result is deterministic (module order).
std::vector<Mutation> enumerateMutations(const ir::Module &M);

/// Enumerates the mutations of a single function (FunctionIndex fixed to
/// \p FnIndex). This is the mid-pipeline surface behind the
/// opt.pass.corrupt failpoint: the self-healing pipeline corrupts one
/// function between a pass and its commit gate (docs/ROBUSTNESS.md §5).
std::vector<Mutation> enumerateFunctionMutations(const ir::Function &F,
                                                 uint32_t FnIndex = 0);

/// Applies \p Mu to \p M in place. Returns false if the site no longer
/// matches (stale mutation).
bool applyMutation(ir::Module &M, const Mutation &Mu);

/// Same, against one function (Mu.FunctionIndex is ignored).
bool applyMutation(ir::Function &F, const Mutation &Mu);

} // namespace analysis
} // namespace gcsafe

#endif // GCSAFE_ANALYSIS_MUTATE_H
