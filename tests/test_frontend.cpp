//===- tests/test_frontend.cpp - Lexer/Parser/Sema/Types -----------------===//

#include "cfront/Lexer.h"
#include "cfront/Parser.h"
#include "cfront/Sema.h"
#include "cfront/Type.h"

#include <gtest/gtest.h>

#include <functional>

using namespace gcsafe;
using namespace gcsafe::cfront;

namespace {

std::vector<Token> lex(const std::string &Src, DiagnosticsEngine &Diags) {
  static std::vector<std::unique_ptr<SourceBuffer>> Buffers;
  Buffers.push_back(std::make_unique<SourceBuffer>("t.c", Src));
  Lexer L(*Buffers.back(), Diags);
  return L.lexAll();
}

/// Frontend harness holding everything a parse needs.
struct FrontendTest {
  SourceBuffer Buffer;
  DiagnosticsEngine Diags;
  Arena NodeArena;
  TypeContext Types;
  Sema Actions;
  TranslationUnit TU;
  bool Ok = false;

  explicit FrontendTest(std::string Src, bool WithBuiltins = true)
      : Buffer("t.c", std::move(Src)), Actions(Types, Diags, NodeArena) {
    if (WithBuiltins)
      Actions.declareRuntimeBuiltins(TU);
    Lexer L(Buffer, Diags);
    Parser P(L.lexAll(), Actions);
    Ok = P.parseTranslationUnit(TU);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, PunctuationMaximalMunch) {
  DiagnosticsEngine D;
  auto Toks = lex("+ ++ += - -- -= -> << <<= < <= >>= ... . ,", D);
  std::vector<TokenKind> Kinds;
  for (const Token &T : Toks)
    Kinds.push_back(T.Kind);
  std::vector<TokenKind> Expected = {
      TokenKind::Plus, TokenKind::PlusPlus, TokenKind::PlusEqual,
      TokenKind::Minus, TokenKind::MinusMinus, TokenKind::MinusEqual,
      TokenKind::Arrow, TokenKind::LessLess, TokenKind::LessLessEqual,
      TokenKind::Less, TokenKind::LessEqual, TokenKind::GreaterGreaterEqual,
      TokenKind::Ellipsis, TokenKind::Period, TokenKind::Comma,
      TokenKind::Eof};
  EXPECT_EQ(Kinds, Expected);
  EXPECT_FALSE(D.hasErrors());
}

TEST(Lexer, KeywordsVsIdentifiers) {
  DiagnosticsEngine D;
  auto Toks = lex("while whilex _while struct", D);
  EXPECT_EQ(Toks[0].Kind, TokenKind::KwWhile);
  EXPECT_EQ(Toks[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[2].Kind, TokenKind::Identifier);
  EXPECT_EQ(Toks[3].Kind, TokenKind::KwStruct);
}

TEST(Lexer, NumbersAndSuffixes) {
  DiagnosticsEngine D;
  auto Toks = lex("0 42 0x1F 0755 10L 3u 1.5 2e10 .5 1.5e-3f", D);
  EXPECT_EQ(Toks[0].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[2].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[2].Text, "0x1F");
  EXPECT_EQ(Toks[4].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Toks[6].Kind, TokenKind::FloatLiteral);
  EXPECT_EQ(Toks[7].Kind, TokenKind::FloatLiteral);
  EXPECT_EQ(Toks[8].Kind, TokenKind::FloatLiteral);
  EXPECT_EQ(Toks[9].Kind, TokenKind::FloatLiteral);
  EXPECT_FALSE(D.hasErrors());
}

TEST(Lexer, CommentsAndLineMarkersSkipped) {
  DiagnosticsEngine D;
  auto Toks = lex("a // line comment\n/* block\ncomment */ b\n# 1 \"f.c\"\nc", D);
  ASSERT_EQ(Toks.size(), 4u); // a b c eof
  EXPECT_EQ(Toks[0].Text, "a");
  EXPECT_EQ(Toks[1].Text, "b");
  EXPECT_EQ(Toks[2].Text, "c");
}

TEST(Lexer, StringAndCharLiterals) {
  DiagnosticsEngine D;
  auto Toks = lex(R"("hi\n\"q\"" 'x' '\n' '\0' '\x41')", D);
  EXPECT_EQ(Toks[0].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(decodeStringLiteral(Toks[0], D), "hi\n\"q\"");
  EXPECT_EQ(decodeCharLiteral(Toks[1], D), 'x');
  EXPECT_EQ(decodeCharLiteral(Toks[2], D), '\n');
  EXPECT_EQ(decodeCharLiteral(Toks[3], D), 0);
  EXPECT_EQ(decodeCharLiteral(Toks[4], D), 0x41);
  EXPECT_FALSE(D.hasErrors());
}

TEST(Lexer, TokenLocationsAreByteOffsets) {
  DiagnosticsEngine D;
  auto Toks = lex("ab + cd", D);
  EXPECT_EQ(Toks[0].Loc.Offset, 0u);
  EXPECT_EQ(Toks[0].endOffset(), 2u);
  EXPECT_EQ(Toks[1].Loc.Offset, 3u);
  EXPECT_EQ(Toks[2].Loc.Offset, 5u);
  EXPECT_EQ(Toks[2].endOffset(), 7u);
}

TEST(Lexer, UnterminatedLiteralsDiagnosed) {
  DiagnosticsEngine D;
  lex("\"never closed", D);
  EXPECT_TRUE(D.hasErrors());
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST(Types, SizesMatchLP64) {
  TypeContext T;
  EXPECT_EQ(T.charType()->size(), 1u);
  EXPECT_EQ(T.shortType()->size(), 2u);
  EXPECT_EQ(T.intType()->size(), 4u);
  EXPECT_EQ(T.longType()->size(), 8u);
  EXPECT_EQ(T.doubleType()->size(), 8u);
  EXPECT_EQ(T.pointerTo(T.charType())->size(), 8u);
  EXPECT_EQ(T.arrayOf(T.intType(), 10)->size(), 40u);
}

TEST(Types, PointerAndArrayUniquing) {
  TypeContext T;
  EXPECT_EQ(T.pointerTo(T.intType()), T.pointerTo(T.intType()));
  EXPECT_EQ(T.arrayOf(T.charType(), 5), T.arrayOf(T.charType(), 5));
  EXPECT_NE(T.arrayOf(T.charType(), 5), T.arrayOf(T.charType(), 6));
}

TEST(Types, RecordLayoutWithPadding) {
  TypeContext T;
  RecordType *R = T.createRecord(false, "s");
  R->complete({{"c", T.charType(), 0},
               {"l", T.longType(), 0},
               {"i", T.intType(), 0}});
  EXPECT_EQ(R->findField("c")->Offset, 0u);
  EXPECT_EQ(R->findField("l")->Offset, 8u);
  EXPECT_EQ(R->findField("i")->Offset, 16u);
  EXPECT_EQ(R->recordSize(), 24u); // padded to alignment 8
  EXPECT_EQ(R->recordAlign(), 8u);
}

TEST(Types, UnionLayout) {
  TypeContext T;
  RecordType *U = T.createRecord(true, "u");
  U->complete({{"c", T.charType(), 0}, {"l", T.longType(), 0}});
  EXPECT_EQ(U->findField("c")->Offset, 0u);
  EXPECT_EQ(U->findField("l")->Offset, 0u);
  EXPECT_EQ(U->recordSize(), 8u);
}

TEST(Types, PrintDeclarators) {
  TypeContext T;
  const Type *CharPtr = T.pointerTo(T.charType());
  EXPECT_EQ(CharPtr->str(), "char *");
  EXPECT_EQ(CharPtr->str("p"), "char *p");
  const Type *ArrOfPtr = T.arrayOf(CharPtr, 10);
  EXPECT_EQ(ArrOfPtr->str("a"), "char *a[10]");
  const Type *PtrToArr = T.pointerTo(T.arrayOf(T.charType(), 10));
  EXPECT_EQ(PtrToArr->str("p"), "char (*p)[10]");
  const Type *FnPtr =
      T.pointerTo(T.function(T.intType(), {T.longType()}, false));
  EXPECT_EQ(FnPtr->str("f"), "int (*f)(long)");
}

TEST(Types, ObjectPointerExcludesFunctionPointers) {
  TypeContext T;
  EXPECT_TRUE(T.pointerTo(T.charType())->isObjectPointer());
  EXPECT_TRUE(T.pointerTo(T.voidType())->isObjectPointer());
  const Type *FnPtr = T.pointerTo(T.function(T.voidType(), {}, false));
  EXPECT_FALSE(FnPtr->isObjectPointer());
}

//===----------------------------------------------------------------------===//
// Parser: declarations
//===----------------------------------------------------------------------===//

TEST(Parser, GlobalVariablesAndFunctions) {
  FrontendTest F("long counter;\n"
                 "char *name;\n"
                 "int add(int a, int b) { return a + b; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
  FunctionDecl *Add = F.TU.findFunction("add");
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add->params().size(), 2u);
  EXPECT_NE(Add->body(), nullptr);
  EXPECT_EQ(Add->type()->returnType(), F.Types.intType());
}

TEST(Parser, ComplexDeclarators) {
  FrontendTest F("char *argv[10];\n"
                 "char (*row)[16];\n"
                 "int (*handler)(long, char *);\n"
                 "long matrix_sum(long (*m)[4]) { return (*m)[0]; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
  auto *Argv = dyn_cast<VarDecl>(F.TU.Decls[F.TU.Decls.size() - 4]);
  ASSERT_NE(Argv, nullptr);
  EXPECT_EQ(Argv->type()->str("argv"), "char *argv[10]");
  auto *Row = dyn_cast<VarDecl>(F.TU.Decls[F.TU.Decls.size() - 3]);
  EXPECT_EQ(Row->type()->str("row"), "char (*row)[16]");
  auto *Handler = dyn_cast<VarDecl>(F.TU.Decls[F.TU.Decls.size() - 2]);
  EXPECT_EQ(Handler->type()->str("h"), "int (*h)(long, char *)");
}

TEST(Parser, StructDefinitionAndUse) {
  FrontendTest F("struct point { long x; long y; };\n"
                 "long dist2(struct point *p) { return p->x * p->x + p->y * p->y; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Parser, SelfReferentialStruct) {
  FrontendTest F("struct node { struct node *next; long v; };\n"
                 "long count(struct node *n) {\n"
                 "  long c;\n"
                 "  c = 0;\n"
                 "  while (n) { c = c + 1; n = n->next; }\n"
                 "  return c;\n"
                 "}\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Parser, TypedefNamesDisambiguate) {
  FrontendTest F("typedef long word;\n"
                 "typedef struct pair { word a; word b; } pair_t;\n"
                 "word get(pair_t *p) { return p->a + (word)p->b; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Parser, EnumConstantsFold) {
  FrontendTest F("enum color { RED, GREEN = 5, BLUE };\n"
                 "int f(void) { return BLUE; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Parser, PrototypeThenDefinitionSharesDecl) {
  FrontendTest F("long twice(long x);\n"
                 "long user(void) { return twice(21); }\n"
                 "long twice(long x) { return x * 2; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
  // Only one FunctionDecl for 'twice'.
  int Count = 0;
  for (Decl *D : F.TU.Decls)
    if (auto *FD = dyn_cast<FunctionDecl>(D))
      if (FD->name() == "twice")
        ++Count;
  EXPECT_EQ(Count, 1);
  EXPECT_NE(F.TU.findFunction("twice")->body(), nullptr);
}

TEST(Parser, StringArrayInitializerSizesArray) {
  FrontendTest F("int main(void) { char buf[] = \"hello\"; return buf[0]; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Parser, ErrorsOnRedefinition) {
  FrontendTest F("int main(void) { long x; long x; return 0; }\n");
  EXPECT_FALSE(F.Ok);
  EXPECT_TRUE(F.Diags.anyMessageContains("redefinition"));
}

TEST(Parser, ErrorsOnUndeclaredIdentifier) {
  FrontendTest F("int main(void) { return nothere; }\n");
  EXPECT_FALSE(F.Ok);
  EXPECT_TRUE(F.Diags.anyMessageContains("undeclared"));
}

TEST(Parser, ErrorsOnGoto) {
  FrontendTest F("int main(void) { goto out; out: return 0; }\n");
  EXPECT_FALSE(F.Ok);
  EXPECT_TRUE(F.Diags.anyMessageContains("goto"));
}

TEST(Parser, ScopesShadow) {
  FrontendTest F("long x;\n"
                 "long f(void) {\n"
                 "  long x;\n"
                 "  x = 1;\n"
                 "  { long x; x = 2; }\n"
                 "  return x;\n"
                 "}\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

//===----------------------------------------------------------------------===//
// Parser/Sema: expressions and typing
//===----------------------------------------------------------------------===//

namespace {
/// Parses a function whose body is `return <expr>;` with the given
/// parameter declarations, and returns the type of the return expression.
const Type *typeOfExpr(const std::string &Params, const std::string &ExprText,
                       const std::string &Prefix = "") {
  FrontendTest F(Prefix + "long probe(" + Params + ") { return (long)(" +
                 ExprText + "); }\n");
  if (!F.Ok)
    return nullptr;
  FunctionDecl *FD = F.TU.findFunction("probe");
  auto *Ret = dyn_cast<ReturnStmt>(FD->body()->body().back());
  // return value is (long)(expr): peel the explicit cast.
  const Expr *E = Ret->value()->ignoreParensAndImplicitCasts();
  const auto *CE = dyn_cast<CastExpr>(E);
  const Expr *Inner = CE->sub()->ignoreParens();
  // Static storage for the answer across the FrontendTest lifetime: we only
  // compare builtin categories, so classify into a stable description.
  static TypeContext Stable;
  const Type *T = Inner->type();
  if (T->isPointer())
    return Stable.pointerTo(Stable.voidType());
  if (const auto *BT = dyn_cast<BuiltinType>(T)) {
    switch (BT->builtinKind()) {
    case BuiltinKind::Int: return Stable.intType();
    case BuiltinKind::UInt: return Stable.uintType();
    case BuiltinKind::Long: return Stable.longType();
    case BuiltinKind::ULong: return Stable.ulongType();
    case BuiltinKind::Double: return Stable.doubleType();
    case BuiltinKind::Char: return Stable.charType();
    default: return Stable.shortType();
    }
  }
  return nullptr;
}

const Type *stableInt() { static TypeContext T; return nullptr; }
} // namespace

TEST(Sema, UsualArithmeticConversions) {
  static TypeContext Stable;
  (void)stableInt;
  EXPECT_EQ(typeOfExpr("char c, short s", "c + s")->str(), "int");
  EXPECT_EQ(typeOfExpr("int i, long l", "i + l")->str(), "long");
  EXPECT_EQ(typeOfExpr("unsigned int u, int i", "u + i")->str(),
            "unsigned int");
  EXPECT_EQ(typeOfExpr("double d, int i", "d + i")->str(), "double");
  EXPECT_EQ(typeOfExpr("long l, unsigned long u", "l + u")->str(),
            "unsigned long");
}

TEST(Sema, ComparisonsYieldInt) {
  EXPECT_EQ(typeOfExpr("long a, long b", "a < b")->str(), "int");
  EXPECT_EQ(typeOfExpr("char *p, char *q", "p == q")->str(), "int");
}

TEST(Sema, PointerArithmeticTypes) {
  EXPECT_EQ(typeOfExpr("char *p, long i", "p + i")->str(), "void *");
  EXPECT_EQ(typeOfExpr("char *p, long i", "i + p")->str(), "void *");
  EXPECT_EQ(typeOfExpr("char *p, char *q", "p - q")->str(), "long");
  EXPECT_EQ(typeOfExpr("long *p", "p - 2")->str(), "void *");
}

TEST(Sema, ArrayDecaysToPointer) {
  FrontendTest F("long f(void) { char a[10]; char *p; p = a; return *p; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Sema, SizeofFoldsToConstant) {
  FrontendTest F("struct s { long a; char b; };\n"
                 "long f(void) { return sizeof(struct s) + sizeof(char *); }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
  auto *FD = F.TU.findFunction("f");
  auto *Ret = cast<ReturnStmt>(FD->body()->body().back());
  const auto *Add =
      dyn_cast<BinaryExpr>(Ret->value()->ignoreParensAndImplicitCasts());
  ASSERT_NE(Add, nullptr);
  const auto *L = dyn_cast<IntLiteralExpr>(Add->lhs()->ignoreParens());
  const auto *R = dyn_cast<IntLiteralExpr>(Add->rhs()->ignoreParens());
  ASSERT_NE(L, nullptr);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(L->value(), 16);
  EXPECT_EQ(R->value(), 8);
}

TEST(Sema, IntToPointerWarns) {
  // The paper: "Our preprocessor issues warnings when nonpointer values are
  // directly converted to pointers."
  FrontendTest F("int main(void) { char *p; long x; x = 100; p = (char *)x; "
                 "return 0; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
  EXPECT_GE(F.Diags.warningCount(), 1u);
  EXPECT_TRUE(F.Diags.anyMessageContains("disguised"));
}

TEST(Sema, NullPointerConstantDoesNotWarn) {
  FrontendTest F("int main(void) { char *p; p = 0; p = (char *)0; return p == 0; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
  EXPECT_EQ(F.Diags.warningCount(), 0u);
}

TEST(Sema, PointerToIntIsBenign) {
  // "conversion of a pointer to an integer and back, without intervening
  // arithmetic, is benign" — no warning on the pointer-to-int side.
  FrontendTest F("long hash(char *p) { return (long)p % 1024; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
  EXPECT_EQ(F.Diags.warningCount(), 0u);
}

TEST(Sema, AddressOfRValueIsError) {
  FrontendTest F("int main(void) { long x; long *p; p = &(x + 1); return 0; }\n");
  EXPECT_FALSE(F.Ok);
}

TEST(Sema, DerefNonPointerIsError) {
  FrontendTest F("int main(void) { long x; return *x; }\n");
  EXPECT_FALSE(F.Ok);
  EXPECT_TRUE(F.Diags.anyMessageContains("dereference"));
}

TEST(Sema, CallArityChecked) {
  FrontendTest F("long f(long a, long b) { return a + b; }\n"
                 "long g(void) { return f(1); }\n");
  EXPECT_FALSE(F.Ok);
  EXPECT_TRUE(F.Diags.anyMessageContains("number of arguments"));
}

TEST(Sema, MemberAccessValidation) {
  FrontendTest F("struct s { long a; };\n"
                 "long f(struct s *p) { return p->nope; }\n");
  EXPECT_FALSE(F.Ok);
  EXPECT_TRUE(F.Diags.anyMessageContains("no member named"));
}

TEST(Sema, FunctionPointersWork) {
  FrontendTest F("long dbl(long x) { return 2 * x; }\n"
                 "long apply(long (*f)(long), long v) { return f(v); }\n"
                 "long go(void) { return apply(dbl, 21); }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Sema, ConditionalMergesPointerAndNull) {
  FrontendTest F("char *pick(char *p, long c) { return c ? p : 0; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Sema, RecordAssignmentAllowed) {
  FrontendTest F("struct s { long a; long b; };\n"
                 "long f(void) { struct s x; struct s y; x.a = 1; x.b = 2; "
                 "y = x; return y.b; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

//===----------------------------------------------------------------------===//
// Source ranges (the substrate of the textual annotator)
//===----------------------------------------------------------------------===//

TEST(Parser, ExpressionRangesMatchSourceText) {
  std::string Src = "long f(long *p, long i) { return p[i - 1000] + 1; }\n";
  FrontendTest F(Src);
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
  auto *FD = F.TU.findFunction("f");
  auto *Ret = cast<ReturnStmt>(FD->body()->body().back());
  const Expr *Sum = Ret->value()->ignoreParensAndImplicitCasts();
  const auto *Add = dyn_cast<BinaryExpr>(Sum);
  ASSERT_NE(Add, nullptr);
  auto TextOf = [&](const Expr *E) {
    SourceRange R = E->range();
    return std::string(Src.substr(R.Begin, R.End - R.Begin));
  };
  EXPECT_EQ(TextOf(Add), "p[i - 1000] + 1");
  const Expr *Idx = Add->lhs()->ignoreParensAndImplicitCasts();
  EXPECT_EQ(TextOf(Idx), "p[i - 1000]");
  const auto *IE = dyn_cast<IndexExpr>(Idx);
  ASSERT_NE(IE, nullptr);
  EXPECT_EQ(TextOf(IE->index()->ignoreParensAndImplicitCasts()), "i - 1000");
}

TEST(Parser, ParenRangesIncludeParens) {
  std::string Src = "long f(long a) { return (a + 2) * 3; }\n";
  FrontendTest F(Src);
  ASSERT_TRUE(F.Ok);
  auto *FD = F.TU.findFunction("f");
  auto *Ret = cast<ReturnStmt>(FD->body()->body().back());
  const auto *Mul =
      cast<BinaryExpr>(Ret->value()->ignoreParensAndImplicitCasts());
  SourceRange R = Mul->lhs()->range();
  EXPECT_EQ(Src.substr(R.Begin, R.End - R.Begin), "(a + 2)");
}

//===----------------------------------------------------------------------===//
// AST printing
//===----------------------------------------------------------------------===//

#include "cfront/ASTPrinter.h"

TEST(ASTPrinter, DumpsTypedTree) {
  FrontendTest F("struct s { long a; char *name; };\n"
                 "long get(struct s *p, long i) { return p->a + i; }\n");
  ASSERT_TRUE(F.Ok);
  std::string Dump = printTranslationUnit(F.TU);
  EXPECT_NE(Dump.find("Function get : long (struct s *, long)"),
            std::string::npos)
      << Dump;
  EXPECT_NE(Dump.find("Member ->a @0"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("DeclRef p : struct s * lvalue"), std::string::npos)
      << Dump;
}

TEST(ASTPrinter, HidesBuiltins) {
  FrontendTest F("int main(void) { return 0; }\n");
  ASSERT_TRUE(F.Ok);
  std::string Dump = printTranslationUnit(F.TU);
  EXPECT_EQ(Dump.find("gc_malloc"), std::string::npos);
  EXPECT_NE(Dump.find("Function main"), std::string::npos);
}

TEST(ASTPrinter, ShowsCastsAndIndexing) {
  FrontendTest F("char f(char *p, long i) { return ((char *)p)[i + 1]; }\n");
  ASSERT_TRUE(F.Ok);
  std::string Dump = printTranslationUnit(F.TU);
  EXPECT_NE(Dump.find("Cast explicit"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("Index : char lvalue"), std::string::npos) << Dump;
}

//===----------------------------------------------------------------------===//
// Declarator and statement corners
//===----------------------------------------------------------------------===//

TEST(Parser, FunctionReturningFunctionPointer) {
  FrontendTest F("long helper(long x) { return x + 1; }\n"
                 "long (*pick(void))(long) { return helper; }\n"
                 "int main(void) { return pick()(41); }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
  auto *Pick = F.TU.findFunction("pick");
  ASSERT_NE(Pick, nullptr);
  EXPECT_EQ(Pick->type()->returnType()->str(), "long (*)(long)");
}

TEST(Parser, EnumConstantsInCaseLabels) {
  FrontendTest F("enum kind { KA, KB = 7, KC };\n"
                 "long f(long k) {\n"
                 "  switch (k) {\n"
                 "  case KA: return 1;\n"
                 "  case KB: return 2;\n"
                 "  case KC: return 3;\n"
                 "  }\n"
                 "  return 0;\n"
                 "}\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Parser, CommaInForIncrement) {
  FrontendTest F("long f(long n) {\n"
                 "  long i; long j; long s;\n"
                 "  s = 0;\n"
                 "  for (i = 0, j = n; i < j; i++, j--) { s = s + 1; }\n"
                 "  return s;\n"
                 "}\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Parser, ChainedTypedefs) {
  FrontendTest F("typedef long word;\n"
                 "typedef word *wordp;\n"
                 "typedef wordp table[4];\n"
                 "long f(wordp p) { return *p; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Parser, SizeofExpressionDoesNotDecayArrays) {
  FrontendTest F("int main(void) {\n"
                 "  char a[12];\n"
                 "  char *p;\n"
                 "  p = a;\n"
                 "  return (int)(sizeof(a) - sizeof p);\n"
                 "}\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
  // sizeof(a) = 12 (array), sizeof p = 8 (pointer): checked at run time in
  // the backend suite; here just assert it folded to constants.
}

TEST(Parser, MultipleDeclaratorsPerLine) {
  FrontendTest F("long f(void) { long a, b, *p, arr[3]; a = 1; b = 2; "
                 "p = &a; arr[0] = *p; return a + b + arr[0]; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Parser, NestedStructTags) {
  FrontendTest F("struct outer { struct inner { long v; } in; long w; };\n"
                 "long f(struct outer *o) { return o->in.v + o->w; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

TEST(Parser, ForwardStructPointerField) {
  FrontendTest F("struct b;\n"
                 "struct a { struct b *link; };\n"
                 "struct b { struct a *back; long v; };\n"
                 "long f(struct a *x) { return x->link->v; }\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
}

//===----------------------------------------------------------------------===//
// AST walks
//===----------------------------------------------------------------------===//

TEST(ASTWalk, StatementChildrenInSourceOrder) {
  FrontendTest F("long f(long n) {\n"
                 "  long a = n + 1, b;\n"
                 "  for (;;) break;\n"
                 "  for (long i = 0; i < n; i++) continue;\n"
                 "  if (n) a = 2; else a = 3;\n"
                 "  while (a) a--;\n"
                 "  do b = a; while (b);\n"
                 "  switch (n) { case 1: a = 4; default: ; }\n"
                 "  return a;\n"
                 "}\n");
  ASSERT_TRUE(F.Ok) << F.Diags.render(F.Buffer);
  static const char *const Names[] = {
      "Compound", "Decl",   "Expr",   "If",       "While", "Do",     "For",
      "Return",   "Break",  "Continue", "Switch", "Case",  "Default"};
  std::string Seq;
  std::function<void(const Stmt *)> Walk = [&](const Stmt *S) {
    Seq += std::string(Seq.empty() ? "" : " ") +
           Names[static_cast<unsigned>(S->kind())];
    forEachChild(S, Walk, [&](const Expr *E) {
      SourceRange R = E->range();
      Seq += " [" +
             std::string(F.Buffer.text().substr(R.Begin, R.End - R.Begin)) +
             "]";
    });
  };
  Walk(F.TU.findFunction("f")->body());
  EXPECT_EQ(Seq, "Compound Decl [n + 1] For Break For Decl [0] [i < n] [i++] "
                 "Continue If [n] Expr [a = 2] Expr [a = 3] While [a] Expr "
                 "[a--] Do Expr [b = a] [b] Switch [n] Compound Case Expr "
                 "[a = 4] Default Expr Return [a]");
}
