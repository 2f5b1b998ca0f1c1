//===- annotate/Annotator.cpp ---------------------------------*- C++ -*-===//

#include "annotate/Annotator.h"

#include <cassert>
#include <string>

using namespace gcsafe;
using namespace gcsafe::annotate;
using namespace gcsafe::cfront;

//===----------------------------------------------------------------------===//
// Small AST helpers
//===----------------------------------------------------------------------===//

namespace {

bool containsCall(const Expr *E) {
  if (isa<CallExpr>(E))
    return true;
  bool Found = false;
  forEachChild(E, [&](const Expr *Child) { Found = Found || containsCall(Child); });
  return Found;
}

/// A "simple" lvalue can be textually duplicated: no side effects, no
/// calls. Variables, struct members of simple lvalues, dereferences and
/// subscripts of variables with literal/variable indices.
bool isSimpleLValue(const Expr *E) {
  E = E->ignoreParens();
  switch (E->kind()) {
  case ExprKind::DeclRef:
    return true;
  case ExprKind::Member:
    if (cast<MemberExpr>(E)->isArrow())
      return isa<DeclRefExpr>(
          cast<MemberExpr>(E)->base()->ignoreParensAndImplicitCasts());
    return isSimpleLValue(cast<MemberExpr>(E)->base());
  case ExprKind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    return UE->op() == UnaryOp::Deref &&
           isa<DeclRefExpr>(UE->sub()->ignoreParensAndImplicitCasts());
  }
  case ExprKind::Index: {
    const auto *IE = cast<IndexExpr>(E);
    const Expr *Base = IE->base()->ignoreParensAndImplicitCasts();
    const Expr *Idx = IE->index()->ignoreParensAndImplicitCasts();
    return isa<DeclRefExpr>(Base) &&
           (isa<DeclRefExpr>(Idx) || isa<IntLiteralExpr>(Idx));
  }
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Optimization 3: slowly-varying base substitution
//===----------------------------------------------------------------------===//

/// Per-function pointer-flow summary used to replace a base pointer by an
/// "equivalent, but less rapidly varying" one (the paper's strcpy
/// exhibit). p may be replaced by s when (a) p's first binding has base s,
/// (b) every assignment to p has a base in {p, s} (so p always points into
/// the object s points into), and (c) s itself is never reassigned after
/// its initial binding.
class SlowBaseAnalysis {
public:
  void runOnFunction(const FunctionDecl *FD) {
    Info.clear();
    // Parameters are bound at function entry; any assignment in the body
    // is a reassignment (disqualifying them as slow bases).
    for (const VarDecl *P : FD->params())
      if (P->isPossibleHeapPointer())
        Info[P].SawBinding = true;
    if (FD->body())
      collectStmt(FD->body());
  }

  const VarDecl *resolve(const VarDecl *P) const {
    auto It = Info.find(P);
    if (It == Info.end())
      return P;
    const VarFlow &F = It->second;
    if (!F.BasesOk || !F.FirstSrc || F.FirstSrc == P)
      return P;
    auto SrcIt = Info.find(F.FirstSrc);
    if (SrcIt != Info.end() && SrcIt->second.Reassigned)
      return P;
    return F.FirstSrc;
  }

private:
  struct VarFlow {
    const VarDecl *FirstSrc = nullptr;
    bool SawBinding = false;
    bool BasesOk = true;
    bool Reassigned = false; ///< Modified after its first binding.
  };

  void recordBinding(const VarDecl *V, const Expr *RHS) {
    VarFlow &F = Info[V];
    if (F.SawBinding)
      F.Reassigned = true;
    BaseResult B = computeBase(RHS);
    if (B.Kind == BaseKind::Var) {
      if (!F.SawBinding)
        F.FirstSrc = B.Var;
      else if (B.Var != V && B.Var != F.FirstSrc)
        F.BasesOk = false;
    } else {
      if (F.SawBinding)
        F.BasesOk = false;
      // A non-variable first binding (allocation call, load) is fine: the
      // variable then has no slow base and resolve() returns it unchanged.
    }
    F.SawBinding = true;
  }

  void recordSelfUpdate(const VarDecl *V) {
    VarFlow &F = Info[V];
    if (F.SawBinding)
      F.Reassigned = true;
    F.SawBinding = true;
    // Base is the variable itself: allowed by condition (b).
  }

  void collectExpr(const Expr *E) {
    if (const auto *AE = dyn_cast<AssignExpr>(E)) {
      const Expr *L = AE->lhs()->ignoreParens();
      if (const auto *DRE = dyn_cast<DeclRefExpr>(L))
        if (const VarDecl *VD = DRE->varDecl())
          if (VD->isPossibleHeapPointer()) {
            if (AE->op() == AssignOp::Assign)
              recordBinding(VD, AE->rhs());
            else
              recordSelfUpdate(VD);
          }
    } else if (const auto *UE = dyn_cast<UnaryExpr>(E)) {
      if (UE->isIncDec())
        if (const auto *DRE =
                dyn_cast<DeclRefExpr>(UE->sub()->ignoreParens()))
          if (const VarDecl *VD = DRE->varDecl())
            if (VD->isPossibleHeapPointer())
              recordSelfUpdate(VD);
    }
    forEachChild(E, [&](const Expr *Child) { collectExpr(Child); });
  }

  /// A declaration records the bindings of its pointer variables, then
  /// the walk enters its initializers like any other expression.
  void collectStmt(const Stmt *S) {
    if (const auto *DS = dyn_cast<DeclStmt>(S))
      for (const VarDecl *VD : DS->decls())
        if (VD->init() && VD->isPossibleHeapPointer())
          recordBinding(VD, VD->init());
    forEachChild(S, [&](const Stmt *Sub) { collectStmt(Sub); },
                 [&](const Expr *E) { collectExpr(E); });
  }

  std::unordered_map<const VarDecl *, VarFlow> Info;
};

//===----------------------------------------------------------------------===//
// Analysis walker
//===----------------------------------------------------------------------===//

class AnalysisWalker {
public:
  AnalysisWalker(const AnnotatorOptions &Opts, AnnotationMap &Map)
      : Opts(Opts), Map(Map) {}

  void runFunction(const FunctionDecl *FD) {
    if (!FD->body())
      return;
    CurRetTy = FD->type()->returnType();
    if (Opts.PreferSlowBases)
      SlowBases.runOnFunction(FD);
    visitStmt(FD->body());
  }

private:
  AnnotatorStats &stats() { return Map.mutableStats(); }

  BaseResult adjustBase(BaseResult B) {
    if (Opts.PreferSlowBases && B.Kind == BaseKind::Var) {
      const VarDecl *Slow = SlowBases.resolve(B.Var);
      if (Slow != B.Var) {
        ++stats().SlowBaseSubstitutions;
        return BaseResult::var(Slow);
      }
    }
    return B;
  }

  /// An annotation point per the paper's algorithm. Decides whether to
  /// record a KEEP_LIVE for \p E, then recurses into it.
  void annotatePoint(const Expr *E, AnnotPosition Pos) {
    const Expr *EI = E->ignoreParens();

    // A conditional or comma expression feeds the point through its
    // value-producing subexpressions; annotate those instead (the paper's
    // temporaries make this explicit).
    if (const auto *CE = dyn_cast<ConditionalExpr>(EI)) {
      visitExpr(CE->cond());
      annotatePoint(CE->thenExpr(), Pos);
      annotatePoint(CE->elseExpr(), Pos);
      return;
    }
    if (const auto *BE = dyn_cast<BinaryExpr>(EI)) {
      if (BE->op() == BinaryOp::Comma) {
        visitExpr(BE->lhs());
        annotatePoint(BE->rhs(), Pos);
        return;
      }
    }

    maybeRecord(EI, Pos);
    visitExpr(EI);
  }

  void maybeRecord(const Expr *EI, AnnotPosition Pos) {
    if (!EI->type()->isObjectPointer())
      return;

    // Allocation functions (and annotated callees) already "return a result
    // that is (treated as) the value of a KEEP_LIVE expression"; a cast of
    // a call result is still just that value.
    const Expr *CastStripped = EI;
    while (true) {
      if (const auto *PE = dyn_cast<ParenExpr>(CastStripped)) {
        CastStripped = PE->inner();
        continue;
      }
      if (const auto *CE = dyn_cast<CastExpr>(CastStripped)) {
        if (CE->type()->isPointer() && CE->sub()->type()->isPointer()) {
          CastStripped = CE->sub();
          continue;
        }
      }
      break;
    }
    if (isa<CallExpr>(CastStripped)) {
      ++stats().SkippedCallResults;
      return;
    }
    // Assignments to a pointer variable, and ++/--, are annotated in their
    // own forms; their value is a copy of the updated variable.
    if (const auto *AE = dyn_cast<AssignExpr>(EI)) {
      const Expr *L = AE->lhs()->ignoreParens();
      if (isa<DeclRefExpr>(L))
        return;
    }
    if (const auto *UE = dyn_cast<UnaryExpr>(EI))
      if (UE->isIncDec())
        return;

    // Optimization 1: pure copies of values logically stored elsewhere need
    // no KEEP_LIVE — variables, and loads from memory the collector scans.
    if (Opts.SkipCopies) {
      const Expr *Core = EI->ignoreParensAndImplicitCasts();
      bool IsCopy = isa<DeclRefExpr>(Core) || isa<MemberExpr>(Core) ||
                    isa<IndexExpr>(Core);
      if (const auto *UE = dyn_cast<UnaryExpr>(Core))
        IsCopy = IsCopy || UE->op() == UnaryOp::Deref;
      if (IsCopy) {
        ++stats().SkippedCopies;
        return;
      }
    }

    BaseResult B = computeBase(EI);
    if (B.isNone()) {
      ++stats().SkippedNonHeap;
      return;
    }

    // With explicit casts stripped too, a bare variable is still just a
    // copy (same run-time value).
    if (Opts.SkipCopies && B.Kind == BaseKind::Var) {
      const Expr *Core = EI;
      while (true) {
        if (const auto *PE = dyn_cast<ParenExpr>(Core)) {
          Core = PE->inner();
          continue;
        }
        if (const auto *CE = dyn_cast<CastExpr>(Core)) {
          Core = CE->sub();
          continue;
        }
        break;
      }
      if (const auto *DRE = dyn_cast<DeclRefExpr>(Core)) {
        if (DRE->varDecl() == B.Var) {
          ++stats().SkippedCopies;
          return;
        }
      }
    }

    // Optimization 4: with collections only at call sites, a dereference
    // argument that contains no call completes before any collection can
    // run.
    if (Opts.Trigger == GcTrigger::AtCallsOnly &&
        Pos == AnnotPosition::DerefArgument && !containsCall(EI)) {
      ++stats().SkippedAtCallsOnly;
      return;
    }

    B = adjustBase(B);
    if (B.Kind == BaseKind::Generating)
      ++stats().TempsIntroduced;
    ++stats().KeepLives;
    Map.add({Annotation::Form::KeepLive, EI, B, Pos});
  }

  /// An e1[e2] or e->x (or heap e.x) access: the address computation is
  /// pointer arithmetic over BASEADDR(E) and gets its own wrap.
  void maybeAddrWrap(const Expr *E) {
    BaseResult B = computeBaseAddr(E);
    if (B.isNone()) {
      ++stats().SkippedNonHeap;
      return;
    }
    if (Opts.Trigger == GcTrigger::AtCallsOnly && !containsCall(E)) {
      ++stats().SkippedAtCallsOnly;
      return;
    }
    B = adjustBase(B);
    if (B.Kind == BaseKind::Generating)
      ++stats().TempsIntroduced;
    ++stats().KeepLives;
    Map.add({Annotation::Form::AddrWrap, E, B,
             AnnotPosition::DerefArgument});
  }

  /// Visits the children of an Index/Member access without creating an
  /// AddrWrap for the node itself (used under '&', where the enclosing
  /// value-level KEEP_LIVE already covers the address computation).
  void visitAccessChildren(const Expr *E) {
    if (const auto *IE = dyn_cast<IndexExpr>(E)) {
      visitExpr(IE->base());
      visitExpr(IE->index());
      return;
    }
    if (const auto *ME = dyn_cast<MemberExpr>(E)) {
      const Expr *Base = ME->base()->ignoreParens();
      if (isa<IndexExpr>(Base) || isa<MemberExpr>(Base)) {
        visitAccessChildren(Base);
        return;
      }
      visitExpr(ME->base());
      return;
    }
    visitExpr(E);
  }

  void handleAssign(const AssignExpr *AE) {
    visitExpr(AE->lhs());
    if (AE->op() == AssignOp::Assign) {
      if (AE->lhs()->type()->isObjectPointer())
        annotatePoint(AE->rhs(), AnnotPosition::AssignRHS);
      else
        visitExpr(AE->rhs());
      return;
    }
    // Compound assignment; pointer += / -= is pointer arithmetic and is
    // "treated as an assignment".
    if (AE->lhs()->type()->isObjectPointer()) {
      if (isSimpleLValue(AE->lhs())) {
        BaseResult B = adjustBase(computeBase(AE->lhs()));
        ++stats().CompoundAssignExpansions;
        Map.add({Annotation::Form::CompoundAssign, AE, B,
                 AnnotPosition::AssignRHS});
      } else {
        ++stats().UnhandledComplexLValues;
      }
    }
    visitExpr(AE->rhs());
  }

  void handleIncDec(const UnaryExpr *UE) {
    if (!UE->sub()->type()->isObjectPointer()) {
      visitExpr(UE->sub());
      return;
    }
    if (isSimpleLValue(UE->sub())) {
      BaseResult B = adjustBase(computeBase(UE->sub()));
      ++stats().IncDecExpansions;
      Map.add({Annotation::Form::IncDec, UE, B, AnnotPosition::AssignRHS});
    } else {
      ++stats().UnhandledComplexLValues;
    }
    visitExpr(UE->sub());
  }

  void visitExpr(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Paren:
      visitExpr(cast<ParenExpr>(E)->inner());
      return;
    case ExprKind::Unary: {
      const auto *UE = cast<UnaryExpr>(E);
      if (UE->op() == UnaryOp::Deref) {
        annotatePoint(UE->sub(), AnnotPosition::DerefArgument);
        return;
      }
      if (UE->isIncDec()) {
        handleIncDec(UE);
        return;
      }
      if (UE->op() == UnaryOp::AddrOf) {
        // &e1[e2] / &e->x: the whole '&' expression is a pointer value
        // wrapped at its own annotation point; don't double-wrap the
        // access.
        const Expr *Sub = UE->sub()->ignoreParens();
        if (isa<IndexExpr>(Sub) || isa<MemberExpr>(Sub)) {
          visitAccessChildren(Sub);
          return;
        }
      }
      visitExpr(UE->sub());
      return;
    }
    case ExprKind::Assign:
      handleAssign(cast<AssignExpr>(E));
      return;
    case ExprKind::Call: {
      const auto *CE = cast<CallExpr>(E);
      visitExpr(CE->callee());
      for (const Expr *Arg : CE->args()) {
        if (Arg->type()->isObjectPointer())
          annotatePoint(Arg, AnnotPosition::CallArgument);
        else
          visitExpr(Arg);
      }
      return;
    }
    case ExprKind::Member: {
      const auto *ME = cast<MemberExpr>(E);
      if (ME->isArrow()) {
        // "We essentially treat pointer offset calculations as pointer
        // arithmetic": e->x computes e + offset before dereferencing. A
        // zero-offset field needs no wrap (the load uses e directly).
        if (ME->field()->Offset != 0)
          maybeAddrWrap(ME);
        annotatePoint(ME->base(), AnnotPosition::DerefArgument);
      } else {
        // e.x is within the same object; it needs a wrap only when the
        // object itself is heap-resident (BASEADDR not NIL).
        if (ME->field()->Offset != 0)
          maybeAddrWrap(ME);
        visitExpr(ME->base());
      }
      return;
    }
    case ExprKind::Index: {
      const auto *IE = cast<IndexExpr>(E);
      // a[i] computes a + i*size: pointer arithmetic unless the index is a
      // constant 0.
      const Expr *Idx = IE->index()->ignoreParensAndImplicitCasts();
      const auto *IL = dyn_cast<IntLiteralExpr>(Idx);
      if (!IL || IL->value() != 0)
        maybeAddrWrap(IE);
      annotatePoint(IE->base(), AnnotPosition::DerefArgument);
      visitExpr(IE->index());
      return;
    }
    default:
      forEachChild(E, [&](const Expr *Child) { visitExpr(Child); });
      return;
    }
  }

  /// Initializers of pointer variables and returned pointers are
  /// annotation points; everything else is walked as is.
  void visitStmt(const Stmt *S) {
    if (const auto *DS = dyn_cast<DeclStmt>(S)) {
      for (const VarDecl *VD : DS->decls()) {
        if (!VD->init())
          continue;
        if (VD->isPossibleHeapPointer())
          annotatePoint(VD->init(), AnnotPosition::Initializer);
        else
          visitExpr(VD->init());
      }
      return;
    }
    if (const auto *RS = dyn_cast<ReturnStmt>(S);
        RS && RS->value() && CurRetTy && CurRetTy->isObjectPointer()) {
      annotatePoint(RS->value(), AnnotPosition::ReturnValue);
      return;
    }
    forEachChild(S, [&](const Stmt *Sub) { visitStmt(Sub); },
                 [&](const Expr *E) { visitExpr(E); });
  }

  const AnnotatorOptions &Opts;
  AnnotationMap &Map;
  SlowBaseAnalysis SlowBases;
  const Type *CurRetTy = nullptr;
};

} // namespace

AnnotationMap
gcsafe::annotate::annotateTranslationUnit(const TranslationUnit &TU,
                                          const AnnotatorOptions &Options) {
  AnnotationMap Map;
  Map.setSpecializeIncDec(Options.SpecializeIncDec);
  AnalysisWalker Walker(Options, Map);
  for (const Decl *D : TU.Decls)
    if (const auto *FD = dyn_cast<FunctionDecl>(D))
      Walker.runFunction(FD);
  return Map;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

/// True if evaluating \p E twice is observably different from once
/// (calls, assignments, increments).
bool hasSideEffects(const Expr *E) {
  if (isa<CallExpr>(E) || isa<AssignExpr>(E))
    return true;
  if (const auto *UE = dyn_cast<UnaryExpr>(E))
    if (UE->isIncDec())
      return true;
  bool Found = false;
  forEachChild(E, [&](const Expr *Child) {
    Found = Found || hasSideEffects(Child);
  });
  return Found;
}

class Renderer {
public:
  Renderer(const SourceBuffer &Buffer, AnnotationMode Mode,
           rewrite::EditList &Edits)
      : Buffer(Buffer), Mode(Mode), Edits(Edits) {}

  void render(const AnnotationMap &Map) {
    Specialize = Map.specializeIncDec();
    if (Mode == AnnotationMode::Checked && !Map.all().empty())
      Edits.insertBefore(0,
                         "/* gcsafe checked-mode runtime interface */\n"
                         "void *GC_same_obj(void *, void *);\n"
                         "void *GC_pre_incr(void **, long);\n"
                         "void *GC_post_incr(void **, long);\n\n");
    for (const Annotation &A : Map.all()) {
      switch (A.FormKind) {
      case Annotation::Form::KeepLive:
        renderKeepLive(A);
        break;
      case Annotation::Form::IncDec:
        renderIncDec(A);
        break;
      case Annotation::Form::CompoundAssign:
        renderCompoundAssign(A);
        break;
      case Annotation::Form::AddrWrap:
        renderAddrWrap(A);
        break;
      }
    }
  }

private:
  std::string text(SourceRange R) const {
    return std::string(Buffer.text().substr(R.Begin, R.End - R.Begin));
  }

  std::string freshName(const char *Prefix) {
    return std::string(Prefix) + std::to_string(Counter++);
  }

  /// The gcc empty-asm KEEP_LIVE from the paper: the output is constrained
  /// to the same location as the expression value ("0"), and the base is an
  /// extra, unused input operand kept live until this program point.
  std::string safePrefix(const std::string &EText, const std::string &Var) {
    return "({ __typeof__(" + EText + ") " + Var +
           "; __asm__(\"\" : \"=g\"(" + Var + ") : \"0\"(";
  }
  std::string safeSuffix(const std::string &BaseText, const std::string &Var) {
    return "), \"g\"((const void *)(" + BaseText + "))); " + Var + "; })";
  }

  /// Produces the base operand text for an annotation, materializing a
  /// temporary (statement expression) only when required. In checked mode
  /// a side-effect-free generating base is passed by re-evaluating its
  /// source text — GC_same_obj accepts any expression — which keeps the
  /// output plain ANSI C ("usable with any ANSI C compiler").
  void prepareBase(const Annotation &A, std::string &BaseText,
                   std::string &TempOpen, std::string &TempClose) {
    if (A.Base.Kind == BaseKind::Var) {
      BaseText = std::string(A.Base.Var->name());
      return;
    }
    assert(A.Base.Kind == BaseKind::Generating);
    const Expr *Gen = A.Base.GenExpr;
    if (Mode == AnnotationMode::Checked && !hasSideEffects(Gen)) {
      BaseText = text(Gen->range());
      return;
    }
    // Materialize the generating base as a temporary, replacing its
    // occurrence inside the expression (the paper's assumed temporary
    // introduction, realized with a gcc statement expression).
    std::string Temp = freshName("__gcsafe_b");
    SourceRange BR = Gen->range();
    TempOpen = "({ " + Gen->type()->str(Temp) + " = (" + text(BR) + "); ";
    TempClose = "; })";
    Edits.replace(BR.Begin, BR.End - BR.Begin, Temp);
    BaseText = Temp;
  }

  void renderKeepLive(const Annotation &A) {
    SourceRange R = A.Target->range();
    std::string EText = text(R);
    std::string BaseText;
    std::string TempOpen, TempClose;
    prepareBase(A, BaseText, TempOpen, TempClose);

    if (Mode == AnnotationMode::GCSafe) {
      std::string Var = freshName("__gcsafe_kl");
      Edits.insertBefore(R.Begin, TempOpen + safePrefix(EText, Var));
      Edits.insertAfter(R.End, safeSuffix(BaseText, Var) + TempClose);
    } else {
      std::string Ty = A.Target->type()->str();
      Edits.insertBefore(R.Begin,
                         TempOpen + "((" + Ty + ")GC_same_obj((void *)(");
      Edits.insertAfter(R.End,
                        "), (void *)(" + BaseText + ")))" + TempClose);
    }
  }

  /// e1[e2] / e->x with a wrapped address: the access becomes
  /// *KEEP_LIVE(&(access), base) — the paper's *&(e1[e2].x) normal form
  /// with the '&' expression annotated.
  void renderAddrWrap(const Annotation &A) {
    SourceRange R = A.Target->range();
    std::string EText = text(R);
    std::string BaseText;
    std::string TempOpen, TempClose;
    prepareBase(A, BaseText, TempOpen, TempClose);

    if (Mode == AnnotationMode::GCSafe) {
      std::string Var = freshName("__gcsafe_kl");
      Edits.insertBefore(R.Begin, "(*" + TempOpen + "({ __typeof__(&(" +
                                      EText + ")) " + Var +
                                      "; __asm__(\"\" : \"=g\"(" + Var +
                                      ") : \"0\"(&(");
      Edits.insertAfter(R.End, ")), \"g\"((const void *)(" + BaseText +
                                   "))); " + Var + "; })" + TempClose + ")");
    } else {
      // Plain ANSI C cast when expressible; gcc __typeof__ only for
      // array-typed accesses (whose pointer declarator we cannot build by
      // string concatenation).
      std::string PtrCast = A.Target->type()->isArray()
                                ? "(__typeof__(&(" + EText + ")))"
                                : "(" + A.Target->type()->str("*") + ")";
      Edits.insertBefore(R.Begin, "(*" + TempOpen + "(" + PtrCast +
                                      "GC_same_obj((void *)&(");
      Edits.insertAfter(R.End, "), (void *)(" + BaseText + ")))" + TempClose +
                                   ")");
    }
  }

  /// The general (unspecialized) increment transform from the paper's
  /// optimization 2 discussion: "a pointer expression e++ should be
  /// transformed to (tmp1 = &(e), tmp2 = *tmp1, *tmp1 = tmp2 + 1, tmp2)
  /// before inserting KEEP_LIVE calls" — used when optimization 2 is off.
  /// It forces e to memory, which is exactly the cost the specialized form
  /// avoids.
  void renderIncDecGeneral(const Annotation &A) {
    const auto *UE = cast<UnaryExpr>(A.Target);
    SourceRange R = UE->range();
    std::string L = text(UE->sub()->range());
    std::string Ty = UE->type()->str();
    bool IsPre = UE->op() == UnaryOp::PreInc || UE->op() == UnaryOp::PreDec;
    bool IsInc = UE->op() == UnaryOp::PreInc || UE->op() == UnaryOp::PostInc;
    std::string T1 = freshName("__gcsafe_t");
    std::string T2 = freshName("__gcsafe_t");
    std::string Step = IsInc ? " + 1" : " - 1";

    std::string NewValue;
    if (Mode == AnnotationMode::Checked) {
      NewValue = "(" + Ty + ")GC_same_obj((void *)(" + T2 + Step +
                 "), (void *)" + T2 + ")";
    } else {
      std::string Var = freshName("__gcsafe_kl");
      NewValue = safePrefix(T2, Var) + T2 + Step + safeSuffix(T2, Var);
    }
    std::string Repl = "({ __typeof__(&(" + L + ")) " + T1 + " = &(" + L +
                       "); __typeof__(" + L + ") " + T2 + " = *" + T1 +
                       "; *" + T1 + " = " + NewValue + "; " +
                       (IsPre ? "*" + T1 : T2) + "; })";
    Edits.replace(R.Begin, R.End - R.Begin, Repl);
  }

  void renderIncDec(const Annotation &A) {
    if (!Specialize) {
      renderIncDecGeneral(A);
      return;
    }
    const auto *UE = cast<UnaryExpr>(A.Target);
    SourceRange R = UE->range();
    std::string L = text(UE->sub()->range());
    std::string Ty = UE->type()->str();
    bool IsPre =
        UE->op() == UnaryOp::PreInc || UE->op() == UnaryOp::PreDec;
    bool IsInc =
        UE->op() == UnaryOp::PreInc || UE->op() == UnaryOp::PostInc;
    std::string BaseText = A.Base.Kind == BaseKind::Var
                               ? std::string(A.Base.Var->name())
                               : L;

    std::string Repl;
    if (Mode == AnnotationMode::Checked) {
      // The paper's example: ++p becomes
      //   ((char (*)) GC_pre_incr(&(p), sizeof(char)*(+(1))))
      Repl = "((" + Ty + ")" +
             (IsPre ? "GC_pre_incr" : "GC_post_incr") + "((void **)&(" + L +
             "), " + (IsInc ? "" : "-") + "(long)sizeof(*(" + L + "))))";
    } else {
      std::string Step = IsInc ? " + 1" : " - 1";
      std::string Var = freshName("__gcsafe_kl");
      std::string KL = safePrefix("(" + L + ")", Var) + "(" + L + ")" + Step +
                       safeSuffix(BaseText, Var);
      if (IsPre) {
        Repl = "((" + L + ") = " + KL + ")";
      } else {
        std::string Tmp = freshName("__gcsafe_t");
        std::string KLPost = safePrefix("(" + L + ")", Var) + Tmp + Step +
                             safeSuffix(BaseText, Var);
        Repl = "({ __typeof__(" + L + ") " + Tmp + " = (" + L + "); (" + L +
               ") = " + KLPost + "; " + Tmp + "; })";
      }
    }
    Edits.replace(R.Begin, R.End - R.Begin, Repl);
  }

  void renderCompoundAssign(const Annotation &A) {
    const auto *AE = cast<AssignExpr>(A.Target);
    SourceRange R = AE->range();
    std::string L = text(AE->lhs()->range());
    std::string RHS = text(AE->rhs()->range());
    std::string Ty = AE->type()->str();
    bool IsAdd = AE->op() == AssignOp::AddAssign;
    std::string BaseText = A.Base.Kind == BaseKind::Var
                               ? std::string(A.Base.Var->name())
                               : L;

    std::string Repl;
    if (Mode == AnnotationMode::Checked) {
      Repl = "((" + Ty + ")GC_pre_incr((void **)&(" + L +
             "), (long)sizeof(*(" + L + ")) * (" + (IsAdd ? "" : "-") + "(" +
             RHS + "))))";
    } else {
      std::string Var = freshName("__gcsafe_kl");
      std::string KL = safePrefix("(" + L + ")", Var) + "(" + L + ")" +
                       (IsAdd ? " + (" : " - (") + RHS + ")" +
                       safeSuffix(BaseText, Var);
      Repl = "((" + L + ") = " + KL + ")";
    }
    Edits.replace(R.Begin, R.End - R.Begin, Repl);
  }

  const SourceBuffer &Buffer;
  AnnotationMode Mode;
  rewrite::EditList &Edits;
  unsigned Counter = 0;
  bool Specialize = true;
};

} // namespace

void gcsafe::annotate::renderAnnotationEdits(const SourceBuffer &Buffer,
                                             const AnnotationMap &Map,
                                             AnnotationMode Mode,
                                             rewrite::EditList &Edits) {
  Renderer R(Buffer, Mode, Edits);
  R.render(Map);
}

std::string gcsafe::annotate::renderAnnotatedSource(const SourceBuffer &Buffer,
                                                    const AnnotationMap &Map,
                                                    AnnotationMode Mode) {
  rewrite::EditList Edits;
  renderAnnotationEdits(Buffer, Map, Mode, Edits);
  return Edits.apply(Buffer.text());
}
