//===- opt/Passes.h - Optimizer passes -------------------------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer. Two groups of passes matter to the paper:
///
/// *Pointer-disguising optimizations* — the transformations the paper
/// defends against:
///   - reassociateDisplacements rewrites `t = p + (i - C)` into
///     `q = p - C; t = q + i` (the paper's opening example: "a conventional
///     C compiler may replace a final reference p[i-1000] ... by the
///     sequence p = p - 1000; ... p[i] ...");
///   - hoistLoopInvariants then moves `q = p - C` out of the loop, after
///     which no register holds a pointer into the object during the loop
///     body unless a KeepLive pins one.
///
/// *The peephole postprocessor* — the paper's "A Postprocessor" section:
/// three patterns, applied under a "simple global, intraprocedural
/// analysis that allows us to identify possible uses of register values",
/// that recover most of the KEEP_LIVE overhead:
///   1. add x,y,z; ld [z]    ==>  ld [x+y]      (z has no other uses; safe
///      through a KeepLive whose base is x or y, since x and y remain live
///      through the load)
///   2. mov x,z; ...z...     ==>  ...x...       (not if z is a KEEP_LIVE
///      base)
///   3. add x,y,z; mov z,w   ==>  add x,y,w
///
/// insertKills zeroes registers at the end of their (KEEP_LIVE-extended)
/// live ranges so the VM's conservative root scan sees exactly the values
/// a real register allocator would keep.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_OPT_PASSES_H
#define GCSAFE_OPT_PASSES_H

#include "ir/IR.h"

#include <span>
#include <utility>
#include <vector>

namespace gcsafe {
namespace opt {

struct PassStats {
  unsigned Folded = 0;
  unsigned CopiesPropagated = 0;
  unsigned CSEd = 0;
  unsigned DeadRemoved = 0;
  unsigned Reassociated = 0;
  unsigned StrengthReduced = 0;
  unsigned Hoisted = 0;
  unsigned Fused = 0;
  unsigned PeepholeLoadFusions = 0; ///< Pattern 1.
  unsigned PeepholeCoalesced = 0;   ///< Pattern 2.
  unsigned PeepholeAddMoves = 0;    ///< Pattern 3.
  unsigned KillsInserted = 0;

  void accumulate(const PassStats &Other);

  /// The counters as (snake_case name, value) pairs, in declaration order —
  /// the map shape every stats report serializes from. Counter names are
  /// stable; docs/OBSERVABILITY.md documents each one.
  std::vector<std::pair<const char *, unsigned>> entries() const;

  /// Sum of all counters (used to detect "this pass did something").
  unsigned total() const;
};

/// Constant folding, algebraic simplification, copy propagation and dead
/// code elimination, iterated to a fixpoint. Respects KeepLive opacity: the
/// value of a KeepLive is never forwarded or re-derived.
void simplifyFunction(ir::Function &F, PassStats &Stats);

/// The disguising reassociation (see file comment).
void reassociateDisplacements(ir::Function &F, PassStats &Stats);

/// Block-local common subexpression elimination. Pure computations with
/// identical operands reuse the earlier result; loads participate until a
/// store or call changes memory. KeepLive results are never CSE'd — the
/// paper's opacity requirement ("it causes the compiler to lose all
/// information about how the resulting value was computed").
void localCSE(ir::Function &F, PassStats &Stats);

/// Induction-variable strength reduction — the paper's second named
/// disguiser ("Similar problems may occur as a result of induction
/// variable optimizations"). For a basic IV `i += C` and an in-loop
/// address `a = p + i*K` (p loop-invariant), introduces a derived IV
/// `iv = p + i*K` advanced by C*K alongside i, after which the loop body
/// no longer computes from p at all — p can die while the object is still
/// being walked.
void strengthReduceIVs(ir::Function &F, PassStats &Stats);

/// Loop-invariant code motion into preheaders.
void hoistLoopInvariants(ir::Function &F, PassStats &Stats);

/// Folds single-use address adds into fused load/store addressing modes
/// (the "free addition in the load instruction"). Blocked by KeepLive.
void fuseAddressing(ir::Function &F, PassStats &Stats);

/// The paper's three peephole patterns (see file comment).
void peepholePostprocess(ir::Function &F, PassStats &Stats);

/// Patterns 2 and 3 only (copy coalescing / add-move folding). These do
/// not involve KEEP_LIVE and a production compiler performs them anyway,
/// so every optimized pipeline runs them — the postprocessor's
/// contribution is pattern 1's fusion through KEEP_LIVE.
void coalesceCopies(ir::Function &F, PassStats &Stats);

/// Inserts Kill pseudo-instructions at register death points.
void insertKills(ir::Function &F, PassStats &Stats);

/// Clears the bodies of unreachable blocks.
void removeUnreachableBlocks(ir::Function &F);

enum class OptLevel : uint8_t {
  O0,       ///< Debuggable: no optimization (kills still inserted).
  Peephole, ///< Copy coalescing + simplification only — the degradation
            ///< ladder's "peephole-only" rung (docs/ROBUSTNESS.md §5).
  O2,       ///< Full pipeline.
};

/// One step of the pass order: the pass's stable name (the "<pass>" of
/// the "opt.<pass>.*" stats keys, trace spans and quarantine sets) and
/// its transform.
struct PassStep {
  const char *Name;
  void (*Run)(ir::Function &, PassStats &);
};

/// The pass order for \p Level, as data: what runs, in which order, and
/// nothing about how it is observed. \p Postprocess adds the paper's
/// peephole postprocessor at O2. insert_kills is always the last step.
/// The driver runs every step over every function (after
/// removeUnreachableBlocks) and owns everything around it.
std::span<const PassStep> pipeline(OptLevel Level, bool Postprocess);

} // namespace opt
} // namespace gcsafe

#endif // GCSAFE_OPT_PASSES_H
