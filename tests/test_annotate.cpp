//===- tests/test_annotate.cpp - BASE/BASEADDR and the annotator ---------===//

#include "annotate/Annotator.h"
#include "annotate/Base.h"
#include "driver/Pipeline.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace gcsafe;
using namespace gcsafe::annotate;
using namespace gcsafe::cfront;

namespace {

/// Parses a snippet and exposes helpers for digging out expressions.
struct Annot {
  driver::Compilation Comp;
  bool Ok;

  explicit Annot(std::string Src) : Comp("t.c", std::move(Src)) {
    Ok = Comp.parse();
  }

  FunctionDecl *fn(const char *Name) {
    return Comp.tu().findFunction(Name);
  }

  /// The expression of `return <expr>;` as the last statement of \p Name.
  const Expr *returnExpr(const char *Name) {
    auto *FD = fn(Name);
    if (!FD || !FD->body() || FD->body()->body().empty())
      return nullptr;
    auto *Ret = dyn_cast<ReturnStmt>(FD->body()->body().back());
    return Ret ? Ret->value() : nullptr;
  }

  /// The RHS of the Nth expression-statement assignment in \p Name.
  const Expr *assignRhs(const char *Name, unsigned N = 0) {
    auto *FD = fn(Name);
    unsigned Seen = 0;
    for (Stmt *S : FD->body()->body()) {
      auto *ES = dyn_cast<ExprStmt>(S);
      if (!ES || !ES->expr())
        continue;
      auto *AE = dyn_cast<AssignExpr>(ES->expr()->ignoreParens());
      if (!AE)
        continue;
      if (Seen++ == N)
        return AE->rhs();
    }
    return nullptr;
  }
};

const VarDecl *baseVarOf(const Expr *E) {
  BaseResult B = computeBase(E->ignoreParens());
  return B.Kind == BaseKind::Var ? B.Var : nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// BASE rules (one test per paper rule)
//===----------------------------------------------------------------------===//

TEST(Base, OfNullConstantIsNil) {
  Annot A("char *f(void) { return 0; }\n");
  ASSERT_TRUE(A.Ok);
  BaseResult B = computeBase(A.returnExpr("f")->ignoreParensAndImplicitCasts());
  EXPECT_TRUE(B.isNone());
}

TEST(Base, OfPointerVariableIsItself) {
  Annot A("char *f(char *p) { return p; }\n");
  ASSERT_TRUE(A.Ok);
  const VarDecl *V = baseVarOf(A.returnExpr("f"));
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->name(), "p");
}

TEST(Base, OfNonPointerVariableIsNil) {
  Annot A("long g;\nlong f(long x) { return x; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_TRUE(computeBase(A.returnExpr("f")->ignoreParens()).isNone());
}

TEST(Base, OfAssignmentToPointerVarIsTheVar) {
  // BASE(x = e) = x if x is a pointer variable.
  Annot A("char *f(char *p, char *q) { char *x; return x = p + 1; }\n");
  ASSERT_TRUE(A.Ok);
  const VarDecl *V = baseVarOf(A.returnExpr("f"));
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->name(), "x");
}

TEST(Base, OfCompoundAssignIsLhs) {
  // BASE(e1 += e2) = BASE(e1).
  Annot A("char *f(char *p, long n) { return p += n; }\n");
  ASSERT_TRUE(A.Ok);
  const VarDecl *V = baseVarOf(A.returnExpr("f"));
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->name(), "p");
}

TEST(Base, OfIncDecIsOperand) {
  Annot A("char *f(char *p) { return ++p; }\n"
          "char *g(char *q) { return q--; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_EQ(baseVarOf(A.returnExpr("f"))->name(), "p");
  EXPECT_EQ(baseVarOf(A.returnExpr("g"))->name(), "q");
}

TEST(Base, OfAdditionFollowsPointerOperand) {
  // BASE(e1 + e2) = BASE(e1) "where e1 is the expression with pointer
  // type" — either side.
  Annot A("char *f(char *p, long i) { return p + i; }\n"
          "char *g(char *p, long i) { return i + p; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_EQ(baseVarOf(A.returnExpr("f"))->name(), "p");
  EXPECT_EQ(baseVarOf(A.returnExpr("g"))->name(), "p");
}

TEST(Base, OfSubtractionIsLeft) {
  Annot A("char *f(char *p, long i) { return p - i; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_EQ(baseVarOf(A.returnExpr("f"))->name(), "p");
}

TEST(Base, OfCommaIsRight) {
  Annot A("char *f(char *p, char *q) { return (p, q + 1); }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_EQ(baseVarOf(A.returnExpr("f"))->name(), "q");
}

TEST(Base, OfAddrOfIndexIsArrayBase) {
  // BASE(&e1[e2]) = BASEADDR(e1[e2]) = BASE(e1).
  Annot A("char *f(char *p, long i) { return &p[i]; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_EQ(baseVarOf(A.returnExpr("f"))->name(), "p");
}

TEST(Base, AddrIndexFallsBackToIndexOperand) {
  // BASEADDR(e1[e2]) = BASE(e2) if BASE(e1) is NIL — the int[ptr] spelling.
  Annot A("char *f(char *p, long i) { return &i[p]; }\n");
  ASSERT_TRUE(A.Ok);
  // Sema normalizes i[p] to base p, so BASE is still p.
  EXPECT_EQ(baseVarOf(A.returnExpr("f"))->name(), "p");
}

TEST(Base, OfAddrOfArrowMemberIsPointer) {
  // BASEADDR(e1 -> x) = BASE(e1).
  Annot A("struct s { long a; long b; };\n"
          "long *f(struct s *p) { return &p->b; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_EQ(baseVarOf(A.returnExpr("f"))->name(), "p");
}

TEST(Base, OfAddrOfVariableIsNil) {
  // BASEADDR(x) = NIL if x is a variable.
  Annot A("long *f(void) { long x; return &x; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_TRUE(computeBase(A.returnExpr("f")->ignoreParens()).isNone());
}

TEST(Base, OfCallIsGenerating) {
  Annot A("char *f(void) { return (char *)gc_malloc(8) + 1; }\n");
  ASSERT_TRUE(A.Ok);
  BaseResult B = computeBase(A.returnExpr("f")->ignoreParens());
  EXPECT_EQ(B.Kind, BaseKind::Generating);
}

TEST(Base, OfDerefIsGenerating) {
  Annot A("char *f(char **pp) { return *pp + 4; }\n");
  ASSERT_TRUE(A.Ok);
  BaseResult B = computeBase(A.returnExpr("f")->ignoreParens());
  ASSERT_EQ(B.Kind, BaseKind::Generating);
  EXPECT_EQ(B.GenExpr->kind(), ExprKind::Unary);
}

TEST(Base, OfStringLiteralIsNil) {
  Annot A("char *f(void) { return \"static\" + 1; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_TRUE(computeBase(A.returnExpr("f")->ignoreParens()).isNone());
}

TEST(Base, OfIntCastToPointerIsNil) {
  Annot A("char *f(long x) { return (char *)x + 1; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_TRUE(computeBase(A.returnExpr("f")->ignoreParens()).isNone());
}

TEST(Base, PointerCastsArePreserved) {
  Annot A("struct s { long a; };\n"
          "struct s *f(char *p) { return (struct s *)(p + 8); }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_EQ(baseVarOf(A.returnExpr("f"))->name(), "p");
}

TEST(Base, ThroughParens) {
  Annot A("char *f(char *p, long i) { return ((p) + (i)); }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_EQ(baseVarOf(A.returnExpr("f"))->name(), "p");
}

//===----------------------------------------------------------------------===//
// Annotation decisions
//===----------------------------------------------------------------------===//

TEST(Annotator, WrapsPointerArithmeticAssignment) {
  Annot A("void f(char *p, long i) { char *q; q = p + i; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  EXPECT_EQ(M.stats().KeepLives, 1u);
  const Annotation *An = M.find(A.assignRhs("f")->ignoreParens());
  ASSERT_NE(An, nullptr);
  EXPECT_EQ(An->FormKind, Annotation::Form::KeepLive);
  EXPECT_EQ(An->Base.Var->name(), "p");
}

TEST(Annotator, SkipsPureCopies) {
  // Optimization 1: "There is clearly no reason to replace the assignment
  // p = q by p = KEEP_LIVE(q, q)."
  Annot A("void f(char *q) { char *p; p = q; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  EXPECT_EQ(M.stats().KeepLives, 0u);
  EXPECT_GE(M.stats().SkippedCopies, 1u);
}

TEST(Annotator, WithoutOpt1CopiesAreWrapped) {
  Annot A("void f(char *q) { char *p; p = q; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotatorOptions O;
  O.SkipCopies = false;
  AnnotationMap M = A.Comp.annotate(O);
  EXPECT_EQ(M.stats().KeepLives, 1u);
}

TEST(Annotator, SkipsAllocationCallResults) {
  // "allocation functions return a result that is (treated as) the value
  // of a KEEP_LIVE expression".
  Annot A("void f(void) { char *p; p = (char *)gc_malloc(64); }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  EXPECT_EQ(M.stats().KeepLives, 0u);
  EXPECT_GE(M.stats().SkippedCallResults, 1u);
}

TEST(Annotator, SkipsNonHeapValues) {
  Annot A("void f(void) { char *p; p = \"lit\" + 1; p = 0; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  EXPECT_EQ(M.stats().KeepLives, 0u);
  EXPECT_GE(M.stats().SkippedNonHeap, 1u);
}

TEST(Annotator, IndexAccessGetsAddrWrap) {
  // "we essentially treat pointer offset calculations as pointer
  // arithmetic".
  Annot A("long f(long *p, long i) { return p[i]; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  ASSERT_EQ(M.all().size(), 1u);
  EXPECT_EQ(M.all()[0].FormKind, Annotation::Form::AddrWrap);
  EXPECT_EQ(M.all()[0].Base.Var->name(), "p");
}

TEST(Annotator, ZeroIndexNeedsNoWrap) {
  Annot A("long f(long *p) { return p[0]; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  EXPECT_EQ(M.stats().total(), 0u);
}

TEST(Annotator, ZeroOffsetFieldNeedsNoWrap) {
  Annot A("struct s { long first; long second; };\n"
          "long f(struct s *p) { return p->first; }\n"
          "long g(struct s *p) { return p->second; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  // Only g's access computes a nonzero offset.
  EXPECT_EQ(M.stats().KeepLives, 1u);
}

TEST(Annotator, StackArrayIndexNeedsNoWrap) {
  Annot A("long f(long i) { long a[10]; a[3] = 1; return a[i]; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  EXPECT_EQ(M.stats().total(), 0u)
      << "local array accesses have BASEADDR = NIL";
}

TEST(Annotator, PointerIncDecRecorded) {
  Annot A("void f(char *p) { p++; --p; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  EXPECT_EQ(M.stats().IncDecExpansions, 2u);
}

TEST(Annotator, IntegerIncDecIgnored) {
  Annot A("void f(long x) { x++; --x; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  EXPECT_EQ(M.stats().IncDecExpansions, 0u);
}

TEST(Annotator, CompoundPointerAssignRecorded) {
  Annot A("void f(char *p, long n) { p += n; p -= 1; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  EXPECT_EQ(M.stats().CompoundAssignExpansions, 2u);
}

TEST(Annotator, GeneratingBaseGetsTemp) {
  Annot A("char *f(char **pp, long i) { char *q; q = *pp + i; return q; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  EXPECT_GE(M.stats().TempsIntroduced, 1u);
}

TEST(Annotator, ConditionalBranchesAnnotatedSeparately) {
  Annot A("char *f(long c, char *p, char *q) { char *r; r = c ? p + 1 : q; "
          "return r; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  // p + 1 wrapped; q is a copy and skipped.
  EXPECT_EQ(M.stats().KeepLives, 1u);
  EXPECT_GE(M.stats().SkippedCopies, 1u);
}

TEST(Annotator, CallArgumentsAndReturnsArePoints) {
  Annot A("void sink(char *p);\n"
          "char *f(char *p) { sink(p + 1); return p + 2; }\n");
  ASSERT_TRUE(A.Ok);
  AnnotationMap M = A.Comp.annotate();
  EXPECT_EQ(M.stats().KeepLives, 2u);
}

TEST(Annotator, AtCallsOnlyReducesWraps) {
  // Optimization 4: "If we know that garbage collections can be triggered
  // only at procedure calls, the number of KEEP_LIVE invocations could
  // often be reduced dramatically."
  std::string Src = "long f(long *p, long n) {\n"
                    "  long s; long i;\n"
                    "  s = 0;\n"
                    "  for (i = 0; i < n; i++) { s = s + p[i]; }\n"
                    "  return s;\n"
                    "}\n";
  Annot A1(Src), A2(Src);
  ASSERT_TRUE(A1.Ok);
  AnnotationMap MAsync = A1.Comp.annotate();
  AnnotatorOptions O;
  O.Trigger = GcTrigger::AtCallsOnly;
  AnnotationMap MCalls = A2.Comp.annotate(O);
  EXPECT_GT(MAsync.stats().total(), MCalls.stats().total());
  EXPECT_GE(MCalls.stats().SkippedAtCallsOnly, 1u);
}

TEST(Annotator, SlowBaseSubstitution) {
  // Optimization 3: in the strcpy loop, bases p/q are replaced by the
  // "equivalent, but less rapidly varying" s/t.
  std::string Src = "void cpy(char *s, char *t) {\n"
                    "  char *p; char *q;\n"
                    "  p = s; q = t;\n"
                    "  while (*p++ = *q++) { }\n"
                    "}\n";
  Annot A(Src);
  ASSERT_TRUE(A.Ok);
  AnnotatorOptions O;
  O.PreferSlowBases = true;
  AnnotationMap M = A.Comp.annotate(O);
  EXPECT_GE(M.stats().SlowBaseSubstitutions, 2u);
  bool SawS = false, SawT = false;
  for (const Annotation &An : M.all()) {
    if (An.Base.Kind == BaseKind::Var) {
      SawS = SawS || An.Base.Var->name() == "s";
      SawT = SawT || An.Base.Var->name() == "t";
    }
  }
  EXPECT_TRUE(SawS);
  EXPECT_TRUE(SawT);
}

TEST(Annotator, SlowBaseNotUsedWhenSourceReassigned) {
  // If s is reassigned, p's derivation from s is unsound and must not be
  // used.
  std::string Src = "void f(char *s) {\n"
                    "  char *p;\n"
                    "  p = s;\n"
                    "  s = (char *)gc_malloc(8);\n"
                    "  p = p + 1;\n"
                    "}\n";
  Annot A(Src);
  ASSERT_TRUE(A.Ok);
  AnnotatorOptions O;
  O.PreferSlowBases = true;
  AnnotationMap M = A.Comp.annotate(O);
  for (const Annotation &An : M.all()) {
    if (An.Base.Kind == BaseKind::Var && An.Target->type()->isPointer()) {
      EXPECT_NE(An.Base.Var->name(), "s");
    }
  }
}

TEST(Annotator, SlowBaseSeesReassignmentInsideADeclaration) {
  // s is reassigned inside t's initializer, so p's derivation from s no
  // longer holds: the returned p + 1 keeps p live, as it does when the
  // same assignment is a statement of its own.
  for (const char *Reassign : {"{ char *t = (s = o); }", "{ s = o; }"}) {
    std::string Src = std::string("char *g(char *s, char *o) {\n"
                                  "  char *p;\n"
                                  "  p = s + 1;\n  ") +
                      Reassign + "\n  return p + 1;\n}\n";
    Annot A(Src);
    ASSERT_TRUE(A.Ok) << Src;
    AnnotatorOptions O;
    O.PreferSlowBases = true;
    AnnotationMap M = A.Comp.annotate(O);
    const Expr *Ret = A.returnExpr("g")->ignoreParensAndImplicitCasts();
    const VarDecl *Base = nullptr;
    for (const Annotation &An : M.all())
      if (An.Target->ignoreParensAndImplicitCasts() == Ret &&
          An.Base.Kind == BaseKind::Var)
        Base = An.Base.Var;
    ASSERT_NE(Base, nullptr) << Src;
    EXPECT_EQ(Base->name(), "p") << Src;
  }
}

//===----------------------------------------------------------------------===//
// Textual rendering
//===----------------------------------------------------------------------===//

TEST(Render, CheckedModeUsesGCSameObj) {
  Annot A("char *f(char *p, long i) { char *q; q = p + i; return q; }\n");
  ASSERT_TRUE(A.Ok);
  std::string Out = A.Comp.annotatedSource(AnnotationMode::Checked);
  EXPECT_NE(Out.find("GC_same_obj((void *)(p + i), (void *)(p))"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("void *GC_same_obj(void *, void *);"),
            std::string::npos);
}

TEST(Render, SafeModeUsesEmptyAsm) {
  Annot A("char *f(char *p, long i) { char *q; q = p + i; return q; }\n");
  ASSERT_TRUE(A.Ok);
  std::string Out = A.Comp.annotatedSource(AnnotationMode::GCSafe);
  EXPECT_NE(Out.find("__asm__(\"\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"0\"(p + i)"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("GC_same_obj"), std::string::npos);
}

TEST(Render, PreIncrExpansionMatchesPaperShape) {
  // The paper: ++p (char *p) expands in debugging mode to
  //   ((char (*)) GC_pre_incr(&(p), sizeof(char)*(+(1))))
  Annot A("void f(char *p) { ++p; }\n");
  ASSERT_TRUE(A.Ok);
  std::string Out = A.Comp.annotatedSource(AnnotationMode::Checked);
  EXPECT_NE(Out.find("GC_pre_incr((void **)&(p)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("sizeof(*(p))"), std::string::npos) << Out;
  EXPECT_EQ(Out.find("++p"), std::string::npos) << "original ++p replaced";
}

TEST(Render, PostIncrUsesPostVariant) {
  Annot A("void f(char *p) { p--; }\n");
  ASSERT_TRUE(A.Ok);
  std::string Out = A.Comp.annotatedSource(AnnotationMode::Checked);
  EXPECT_NE(Out.find("GC_post_incr((void **)&(p), -(long)sizeof(*(p))"),
            std::string::npos)
      << Out;
}

TEST(Render, IndexAccessWrapsAddress) {
  Annot A("long f(long *p, long i) { return p[i]; }\n");
  ASSERT_TRUE(A.Ok);
  std::string Out = A.Comp.annotatedSource(AnnotationMode::Checked);
  EXPECT_NE(Out.find("GC_same_obj((void *)&(p[i]), (void *)(p))"),
            std::string::npos)
      << Out;
}

TEST(Render, GeneratingBaseInlinedInCheckedMode) {
  // A side-effect-free generating base (*pp) is re-evaluated as the
  // GC_same_obj base argument, keeping checked output plain ANSI C.
  Annot A("char *f(char **pp, long i) { char *q; q = *pp + i; return q; }\n");
  ASSERT_TRUE(A.Ok);
  std::string Out = A.Comp.annotatedSource(AnnotationMode::Checked);
  EXPECT_EQ(Out.find("__gcsafe_b"), std::string::npos) << Out;
  EXPECT_NE(Out.find("(void *)(*pp)"), std::string::npos) << Out;
}

TEST(Render, GeneratingBaseMaterializesTempInSafeMode) {
  Annot A("char *f(char **pp, long i) { char *q; q = *pp + i; return q; }\n");
  ASSERT_TRUE(A.Ok);
  std::string Out = A.Comp.annotatedSource(AnnotationMode::GCSafe);
  EXPECT_NE(Out.find("__gcsafe_b0"), std::string::npos) << Out;
  // The temp binds the original *pp text and replaces it in the wrapped
  // expression.
  EXPECT_NE(Out.find("= (*pp);"), std::string::npos) << Out;
}

TEST(Render, SideEffectingBaseStillGetsTempInCheckedMode) {
  Annot A("char *g(char **pp) { return *pp; }\n"
          "char *f(char **pp, long i) { char *q; q = g(pp) + i; return q; }\n");
  ASSERT_TRUE(A.Ok);
  std::string Out = A.Comp.annotatedSource(AnnotationMode::Checked);
  EXPECT_NE(Out.find("__gcsafe_b"), std::string::npos) << Out;
}

TEST(Render, CompoundAssignChecked) {
  Annot A("void f(char *p, long n) { p += n; }\n");
  ASSERT_TRUE(A.Ok);
  std::string Out = A.Comp.annotatedSource(AnnotationMode::Checked);
  EXPECT_NE(Out.find("GC_pre_incr((void **)&(p), (long)sizeof(*(p)) * ((n))"),
            std::string::npos)
      << Out;
}

TEST(Render, UnannotatedProgramIsUnchanged) {
  std::string Src = "long f(long a, long b) { return a * b + 2; }\n";
  Annot A(Src);
  ASSERT_TRUE(A.Ok);
  std::string Out = A.Comp.annotatedSource(AnnotationMode::Checked);
  EXPECT_EQ(Out, Src);
}

TEST(Render, BalancedParentheses) {
  // A structural sanity check over a meaty function: every rendered output
  // must keep parentheses balanced.
  Annot A("struct n { struct n *next; long v; };\n"
          "long sum(struct n *head, char *buf, long k) {\n"
          "  long s; struct n *it; char *p;\n"
          "  s = 0;\n"
          "  it = head;\n"
          "  p = buf + k;\n"
          "  while (it) { s = s + it->v + p[-1]; it = it->next; p++; }\n"
          "  return s;\n"
          "}\n");
  ASSERT_TRUE(A.Ok);
  for (auto Mode : {AnnotationMode::GCSafe, AnnotationMode::Checked}) {
    std::string Out = A.Comp.annotatedSource(Mode);
    long Depth = 0;
    for (char C : Out) {
      if (C == '(')
        ++Depth;
      else if (C == ')')
        --Depth;
      ASSERT_GE(Depth, 0) << Out;
    }
    EXPECT_EQ(Depth, 0) << Out;
  }
}

//===----------------------------------------------------------------------===//
// Source checking, assumption 2 (hidden-pointer hazards)
//===----------------------------------------------------------------------===//

#include "annotate/SourceCheck.h"

TEST(SourceCheck, ScanfPercentPWarns) {
  Annot A("int scanf(char *, ...);\n"
          "int main(void) { char *p; scanf(\"%p\", &p); return 0; }\n");
  ASSERT_TRUE(A.Ok) << A.Comp.renderedDiagnostics();
  EXPECT_TRUE(A.Comp.diags().anyMessageContains("scanf %p"));
}

TEST(SourceCheck, FscanfFormatPositionRespected) {
  Annot A("int fscanf(void *, char *, ...);\n"
          "int main(void) { void *f; long x; f = 0; "
          "fscanf(f, \"%p\", &x); return 0; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_TRUE(A.Comp.diags().anyMessageContains("scanf %p"));
}

TEST(SourceCheck, ScanfWithoutPercentPIsSilent) {
  Annot A("int scanf(char *, ...);\n"
          "int main(void) { long x; scanf(\"%ld\", &x); return 0; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_FALSE(A.Comp.diags().anyMessageContains("hide"));
}

TEST(SourceCheck, FreadIntoPointerfulStructWarns) {
  Annot A("long fread(void *, long, long, void *);\n"
          "struct rec { char *name; long v; };\n"
          "int main(void) { struct rec r; void *f; f = 0; "
          "fread(&r, sizeof(struct rec), 1, f); return 0; }\n");
  ASSERT_TRUE(A.Ok) << A.Comp.renderedDiagnostics();
  EXPECT_TRUE(A.Comp.diags().anyMessageContains("fread"));
}

TEST(SourceCheck, FreadIntoPlainBufferIsSilent) {
  Annot A("long fread(void *, long, long, void *);\n"
          "int main(void) { char buf[64]; void *f; f = 0; "
          "fread(buf, 1, 64, f); return 0; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_FALSE(A.Comp.diags().anyMessageContains("fread"));
}

TEST(SourceCheck, MemcpyTypeMismatchWarns) {
  Annot A("void *memcpy(void *, void *, long);\n"
          "struct a { char *p; };\n"
          "int main(void) { struct a x; char buf[16]; "
          "memcpy((void *)&x, (void *)buf, sizeof(struct a)); return 0; }\n");
  ASSERT_TRUE(A.Ok) << A.Comp.renderedDiagnostics();
  EXPECT_TRUE(A.Comp.diags().anyMessageContains("memcpy"));
}

TEST(SourceCheck, MemcpyMatchingTypesSilent) {
  Annot A("void *memcpy(void *, void *, long);\n"
          "struct a { char *p; };\n"
          "int main(void) { struct a x; struct a y; "
          "memcpy((void *)&x, (void *)&y, sizeof(struct a)); return 0; }\n");
  ASSERT_TRUE(A.Ok);
  EXPECT_FALSE(A.Comp.diags().anyMessageContains("memcpy"));
}

TEST(SourceCheck, StatsCountEachHazard) {
  Annot A("int scanf(char *, ...);\n"
          "void *memcpy(void *, void *, long);\n"
          "struct a { char *p; };\n"
          "int main(void) {\n"
          "  char *p; struct a x; char b[8];\n"
          "  scanf(\"%p\", &p);\n"
          "  memcpy((void *)&x, (void *)b, 8);\n"
          "  return 0;\n"
          "}\n");
  ASSERT_TRUE(A.Ok);
  DiagnosticsEngine Fresh;
  auto Stats = runSourceChecks(A.Comp.tu(), Fresh);
  EXPECT_EQ(Stats.ScanfPercentP, 1u);
  EXPECT_EQ(Stats.MemcpyMismatch, 1u);
  EXPECT_EQ(Stats.total(), 2u);
}

TEST(SourceCheck, WorkloadsAreHazardFree) {
  for (const char *Src :
       {gcsafe::workloads::cordtest().Source, gcsafe::workloads::cfrac().Source,
        gcsafe::workloads::gawk().Source, gcsafe::workloads::gs().Source}) {
    Annot A(Src);
    ASSERT_TRUE(A.Ok);
    DiagnosticsEngine Fresh;
    EXPECT_EQ(runSourceChecks(A.Comp.tu(), Fresh).total(), 0u);
  }
}
