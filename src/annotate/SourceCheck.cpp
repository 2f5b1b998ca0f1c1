//===- annotate/SourceCheck.cpp -------------------------------*- C++ -*-===//

#include "annotate/SourceCheck.h"

#include <set>
#include <string>

using namespace gcsafe;
using namespace gcsafe::annotate;
using namespace gcsafe::cfront;

bool gcsafe::annotate::typeContainsPointers(const Type *T) {
  switch (T->kind()) {
  case TypeKind::Pointer:
    return true;
  case TypeKind::Array:
    return typeContainsPointers(cast<ArrayType>(T)->element());
  case TypeKind::Record: {
    const auto *RT = cast<RecordType>(T);
    for (const RecordType::Field &F : RT->fields())
      if (typeContainsPointers(F.Ty))
        return true;
    return false;
  }
  default:
    return false;
  }
}

namespace {

/// The pointee type of an argument expression, looking through explicit
/// casts and array decay to the type the *program* manipulates (memcpy
/// callers cast to void*; the interesting type is underneath).
const Type *underlyingPointee(const Expr *E) {
  while (true) {
    if (const auto *PE = dyn_cast<ParenExpr>(E)) {
      E = PE->inner();
      continue;
    }
    if (const auto *CE = dyn_cast<CastExpr>(E)) {
      if (CE->castKind() == CastKind::ArrayDecay) {
        const Type *Sub = CE->sub()->type();
        if (const auto *AT = dyn_cast<ArrayType>(Sub))
          return AT->element();
      }
      E = CE->sub();
      continue;
    }
    break;
  }
  if (const auto *PT = dyn_cast<PointerType>(E->type()))
    return PT->pointee();
  if (const auto *AT = dyn_cast<ArrayType>(E->type()))
    return AT->element();
  return nullptr;
}

/// Matches `Ptr ± IntLiteral` (pointer-typed result) and accumulates the
/// element displacement into \p Disp; returns the pointer side, or null if
/// the node is not a constant pointer-arithmetic step.
const Expr *peelConstStep(const Expr *E, long &Disp) {
  const auto *BE = dyn_cast<BinaryExpr>(E);
  if (!BE || (BE->op() != BinaryOp::Add && BE->op() != BinaryOp::Sub))
    return nullptr;
  if (!BE->type()->isPointer())
    return nullptr;
  const Expr *L = BE->lhs()->ignoreParensAndImplicitCasts();
  const Expr *R = BE->rhs()->ignoreParensAndImplicitCasts();
  if (const auto *IL = dyn_cast<IntLiteralExpr>(R)) {
    Disp += BE->op() == BinaryOp::Add ? IL->value() : -IL->value();
    return BE->lhs();
  }
  if (BE->op() == BinaryOp::Add)
    if (const auto *IL = dyn_cast<IntLiteralExpr>(L)) {
      Disp += IL->value();
      return BE->rhs();
    }
  return nullptr;
}

class CallWalker {
public:
  CallWalker(DiagnosticsEngine &Diags, SourceCheckStats &Stats)
      : Diags(Diags), Stats(Stats) {}

  void visitExpr(const Expr *E) {
    if (const auto *CE = dyn_cast<CallExpr>(E))
      checkCall(CE);
    if (const auto *BE = dyn_cast<BinaryExpr>(E))
      checkPointerArith(BE);
    if (const auto *CE = dyn_cast<CastExpr>(E))
      checkPointerTruncation(CE);
    forEachChild(E, [&](const Expr *Child) { visitExpr(Child); });
  }

  void visitStmt(const Stmt *S) {
    forEachChild(S, [&](const Stmt *Sub) { visitStmt(Sub); },
                 [&](const Expr *E) { visitExpr(E); });
  }

private:
  void warn(const Expr *E, const std::string &Message) {
    Diags.warning(SourceLocation(E->range().Begin), Message);
  }

  void checkCall(const CallExpr *CE) {
    const FunctionDecl *FD = CE->directCallee();
    if (!FD)
      return;
    std::string_view Name = FD->name();
    const auto &Args = CE->args();

    if ((Name == "scanf" || Name == "fscanf" || Name == "sscanf") &&
        !Args.empty()) {
      // The format is the last non-vararg fixed argument by convention:
      // scanf(fmt,...), fscanf(f,fmt,...), sscanf(s,fmt,...).
      size_t FmtIdx = Name == "scanf" ? 0 : 1;
      if (FmtIdx < Args.size()) {
        const Expr *Fmt = Args[FmtIdx]->ignoreParensAndImplicitCasts();
        if (const auto *SL = dyn_cast<StringLiteralExpr>(Fmt)) {
          if (SL->value().find("%p") != std::string_view::npos) {
            ++Stats.ScanfPercentP;
            warn(CE, "pointer input via scanf %p can hide a pointer from "
                     "the garbage collector");
          }
        }
      }
      return;
    }

    if ((Name == "fread" || Name == "fwrite") && !Args.empty()) {
      const Type *Elem = underlyingPointee(Args[0]);
      if (Elem && typeContainsPointers(Elem)) {
        ++Stats.FreadPointerful;
        warn(CE, std::string(Name) +
                     " on a pointer-containing type can hide pointers from "
                     "the garbage collector");
      }
      return;
    }

    if ((Name == "memcpy" || Name == "memmove") && Args.size() >= 2) {
      const Type *DstElem = underlyingPointee(Args[0]);
      const Type *SrcElem = underlyingPointee(Args[1]);
      if (!DstElem || !SrcElem)
        return;
      bool DstPtrs = typeContainsPointers(DstElem);
      bool SrcPtrs = typeContainsPointers(SrcElem);
      if (DstElem != SrcElem && (DstPtrs || SrcPtrs)) {
        ++Stats.MemcpyMismatch;
        warn(CE, std::string(Name) +
                     " with mismatched argument types can hide pointers "
                     "from the garbage collector");
      }
      return;
    }
  }

  /// Out-of-object pointer arithmetic: a chain of constant displacements
  /// whose total lands before the object or beyond one past the end of a
  /// known array bound. Fires once per chain, at the outermost node.
  void checkPointerArith(const BinaryExpr *BE) {
    if (ChainInterior.count(BE))
      return;
    long Disp = 0;
    const Expr *Cur = BE;
    while (true) {
      const Expr *Stripped = Cur->ignoreParensAndImplicitCasts();
      if (const Expr *Next = peelConstStep(Stripped, Disp)) {
        if (Stripped != BE)
          ChainInterior.insert(Stripped);
        Cur = Next;
        continue;
      }
      Cur = Stripped;
      break;
    }
    if (Cur == BE)
      return; // not a constant pointer-arithmetic chain

    uint64_t Bound = 0;
    if (arrayBound(Cur, Bound)) {
      // One past the end is legal ANSI C; anything else is out of object.
      if (Disp < 0 || static_cast<uint64_t>(Disp) > Bound) {
        ++Stats.OutOfObjectArith;
        warn(BE, "pointer arithmetic lands outside the array object "
                 "(beyond one past the end); an out-of-object pointer can "
                 "hide the object from the garbage collector");
      }
      return;
    }
    // Unknown-bound pointer base: only a *negative* total displacement is
    // provably out of object, and only when the base is a simple pointer
    // expression — `p + n - 1` style arithmetic on a computed base is
    // routinely in bounds.
    if (Disp < 0 && !isa<BinaryExpr>(Cur) && !isa<ConditionalExpr>(Cur) &&
        !isa<AssignExpr>(Cur)) {
      ++Stats.OutOfObjectArith;
      warn(BE, "pointer arithmetic with a negative constant offset points "
               "before the object; an out-of-object pointer can hide the "
               "object from the garbage collector");
    }
  }

  /// Explicit pointer-to-narrow-integer casts truncate the address; the
  /// collector's conservative scan can no longer recognize it.
  void checkPointerTruncation(const CastExpr *CE) {
    if (CE->castKind() != CastKind::Explicit)
      return;
    const Type *From = CE->sub()->type();
    const Type *To = CE->type();
    if (From->isObjectPointer() && To->isInteger() && To->size() < 8) {
      ++Stats.PointerTruncCast;
      warn(CE, "casting a pointer to a narrower integer truncates it and "
               "hides the pointer from the garbage collector");
    }
  }

  /// If \p E (through parens and implicit casts) names an array object,
  /// yields its element count. Stops at explicit casts — a reinterpreted
  /// array has a different effective element size.
  static bool arrayBound(const Expr *E, uint64_t &N) {
    if (const auto *AT = dyn_cast<ArrayType>(E->type())) {
      N = AT->numElements();
      return true;
    }
    return false;
  }

  DiagnosticsEngine &Diags;
  SourceCheckStats &Stats;
  /// Interior nodes of constant pointer-arithmetic chains already folded
  /// into an outer node's total — skipped to avoid duplicate reports.
  std::set<const Expr *> ChainInterior;
};

} // namespace

SourceCheckStats
gcsafe::annotate::runSourceChecks(const TranslationUnit &TU,
                                  DiagnosticsEngine &Diags) {
  SourceCheckStats Stats;
  CallWalker Walker(Diags, Stats);
  for (const Decl *D : TU.Decls)
    if (const auto *FD = dyn_cast<FunctionDecl>(D))
      if (FD->body())
        Walker.visitStmt(FD->body());
  return Stats;
}
