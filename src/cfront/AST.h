//===- cfront/AST.h - C abstract syntax tree -------------------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arena-allocated, type-annotated AST for the supported C subset. Every
/// expression records the exact character range it covers in the original
/// source so the annotator can, like the paper's preprocessor, generate "a
/// list of insertions and deletions, sorted by character position in the
/// original source string".
///
/// Source-form-preserving nodes matter to the BASE/BASEADDR analysis:
/// `e1[e2]`, `e->x`, parentheses and `&e` keep their surface syntax (they
/// are *not* desugared into `*(e1+e2)`), exactly as the paper's inductive
/// definition requires.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_CFRONT_AST_H
#define GCSAFE_CFRONT_AST_H

#include "cfront/Type.h"
#include "support/Arena.h"
#include "support/Casting.h"
#include "support/Source.h"

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gcsafe {
namespace cfront {

/// Half-open character range [Begin, End) in the source buffer.
struct SourceRange {
  uint32_t Begin = ~0u;
  uint32_t End = ~0u;

  SourceRange() = default;
  SourceRange(uint32_t Begin, uint32_t End) : Begin(Begin), End(End) {}
  bool isValid() const { return Begin != ~0u; }
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

class Expr;
class CompoundStmt;

enum class DeclKind : uint8_t { Var, Function, Typedef };

class Decl {
public:
  DeclKind kind() const { return Kind; }
  std::string_view name() const { return Name; }
  SourceLocation location() const { return Loc; }

protected:
  Decl(DeclKind Kind, std::string_view Name, SourceLocation Loc)
      : Kind(Kind), Name(Name), Loc(Loc) {}
  ~Decl() = default;

private:
  DeclKind Kind;
  std::string_view Name;
  SourceLocation Loc;
};

/// Variable or parameter.
class VarDecl : public Decl {
public:
  enum class Storage : uint8_t { Global, Local, Param };

  VarDecl(std::string_view Name, SourceLocation Loc, const Type *Ty,
          Storage StorageKind)
      : Decl(DeclKind::Var, Name, Loc), Ty(Ty), StorageKind(StorageKind) {}

  const Type *type() const { return Ty; }
  /// Completes an unsized array type from its initializer.
  void setType(const Type *NewTy) { Ty = NewTy; }
  Storage storage() const { return StorageKind; }
  bool isGlobal() const { return StorageKind == Storage::Global; }
  Expr *init() const { return Init; }
  void setInit(Expr *E) { Init = E; }

  /// True if this variable's type makes it a "possible heap pointer" for
  /// the BASE analysis: an object-pointer-typed variable.
  bool isPossibleHeapPointer() const { return Ty->isObjectPointer(); }

  static bool classof(const Decl *D) { return D->kind() == DeclKind::Var; }

private:
  const Type *Ty;
  Storage StorageKind;
  Expr *Init = nullptr;
};

class FunctionDecl : public Decl {
public:
  FunctionDecl(std::string_view Name, SourceLocation Loc,
               const FunctionType *Ty, std::span<VarDecl *const> Params)
      : Decl(DeclKind::Function, Name, Loc), Ty(Ty), Params(Params) {}

  const FunctionType *type() const { return Ty; }
  std::span<VarDecl *const> params() const { return Params; }
  /// Replaces the parameter list (used when a definition follows a
  /// prototype: the same FunctionDecl object is completed in place so
  /// earlier references stay valid).
  void setParams(std::span<VarDecl *const> NewParams) { Params = NewParams; }
  void setType(const FunctionType *NewTy) { Ty = NewTy; }
  CompoundStmt *body() const { return Body; }
  void setBody(CompoundStmt *B) { Body = B; }
  bool isBuiltin() const { return Builtin; }
  void setBuiltin(bool B) { Builtin = B; }

  static bool classof(const Decl *D) {
    return D->kind() == DeclKind::Function;
  }

private:
  const FunctionType *Ty;
  std::span<VarDecl *const> Params;
  CompoundStmt *Body = nullptr;
  bool Builtin = false;
};

class TypedefDecl : public Decl {
public:
  TypedefDecl(std::string_view Name, SourceLocation Loc, const Type *Ty)
      : Decl(DeclKind::Typedef, Name, Loc), Ty(Ty) {}
  const Type *type() const { return Ty; }
  static bool classof(const Decl *D) {
    return D->kind() == DeclKind::Typedef;
  }

private:
  const Type *Ty;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class ExprKind : uint8_t {
  IntLiteral,
  FloatLiteral,
  StringLiteral,
  DeclRef,
  Paren,
  Unary,
  Binary,
  Assign,
  Conditional,
  Call,
  Cast,
  Member,
  Index,
};

enum class UnaryOp : uint8_t {
  Plus,
  Minus,
  BitNot,
  LogicalNot,
  Deref,
  AddrOf,
  PreInc,
  PreDec,
  PostInc,
  PostDec,
};

enum class BinaryOp : uint8_t {
  Add, Sub, Mul, Div, Rem,
  Shl, Shr,
  Lt, Gt, Le, Ge, Eq, Ne,
  BitAnd, BitXor, BitOr,
  LogicalAnd, LogicalOr,
  Comma,
};

enum class AssignOp : uint8_t {
  Assign,
  AddAssign, SubAssign, MulAssign, DivAssign, RemAssign,
  ShlAssign, ShrAssign, AndAssign, XorAssign, OrAssign,
};

class Expr {
public:
  ExprKind kind() const { return Kind; }
  const Type *type() const { return Ty; }
  SourceRange range() const { return Range; }
  void setRange(SourceRange R) { Range = R; }
  bool isLValue() const { return LValue; }

  /// Strips ParenExpr wrappers.
  const Expr *ignoreParens() const;
  Expr *ignoreParens() {
    return const_cast<Expr *>(
        static_cast<const Expr *>(this)->ignoreParens());
  }

  /// Strips parens and implicit casts (not explicit ones).
  const Expr *ignoreParensAndImplicitCasts() const;

protected:
  Expr(ExprKind Kind, const Type *Ty, SourceRange Range, bool LValue)
      : Kind(Kind), Ty(Ty), Range(Range), LValue(LValue) {}
  ~Expr() = default;

private:
  ExprKind Kind;
  const Type *Ty;
  SourceRange Range;
  bool LValue;
};

class IntLiteralExpr : public Expr {
public:
  IntLiteralExpr(long Value, const Type *Ty, SourceRange R)
      : Expr(ExprKind::IntLiteral, Ty, R, false), Value(Value) {}
  long value() const { return Value; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::IntLiteral;
  }

private:
  long Value;
};

class FloatLiteralExpr : public Expr {
public:
  FloatLiteralExpr(double Value, const Type *Ty, SourceRange R)
      : Expr(ExprKind::FloatLiteral, Ty, R, false), Value(Value) {}
  double value() const { return Value; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::FloatLiteral;
  }

private:
  double Value;
};

class StringLiteralExpr : public Expr {
public:
  StringLiteralExpr(std::string_view Value, const Type *Ty, SourceRange R)
      : Expr(ExprKind::StringLiteral, Ty, R, /*LValue=*/true), Value(Value) {}
  /// Decoded contents (no quotes, escapes resolved), arena-owned.
  std::string_view value() const { return Value; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::StringLiteral;
  }

private:
  std::string_view Value;
};

class DeclRefExpr : public Expr {
public:
  DeclRefExpr(Decl *D, const Type *Ty, SourceRange R, bool LValue)
      : Expr(ExprKind::DeclRef, Ty, R, LValue), D(D) {}
  Decl *decl() const { return D; }
  VarDecl *varDecl() const { return dyn_cast<VarDecl>(D); }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::DeclRef;
  }

private:
  Decl *D;
};

class ParenExpr : public Expr {
public:
  ParenExpr(Expr *Inner, SourceRange R)
      : Expr(ExprKind::Paren, Inner->type(), R, Inner->isLValue()),
        Inner(Inner) {}
  Expr *inner() const { return Inner; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Paren; }

private:
  Expr *Inner;
};

class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, Expr *Sub, const Type *Ty, SourceRange R,
            bool LValue)
      : Expr(ExprKind::Unary, Ty, R, LValue), Op(Op), Sub(Sub) {}
  UnaryOp op() const { return Op; }
  Expr *sub() const { return Sub; }
  bool isIncDec() const {
    return Op == UnaryOp::PreInc || Op == UnaryOp::PreDec ||
           Op == UnaryOp::PostInc || Op == UnaryOp::PostDec;
  }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }

private:
  UnaryOp Op;
  Expr *Sub;
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, Expr *LHS, Expr *RHS, const Type *Ty,
             SourceRange R)
      : Expr(ExprKind::Binary, Ty, R, false), Op(Op), LHS(LHS), RHS(RHS) {}
  BinaryOp op() const { return Op; }
  Expr *lhs() const { return LHS; }
  Expr *rhs() const { return RHS; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }

private:
  BinaryOp Op;
  Expr *LHS;
  Expr *RHS;
};

class AssignExpr : public Expr {
public:
  AssignExpr(AssignOp Op, Expr *LHS, Expr *RHS, const Type *Ty,
             SourceRange R)
      : Expr(ExprKind::Assign, Ty, R, false), Op(Op), LHS(LHS), RHS(RHS) {}
  AssignOp op() const { return Op; }
  Expr *lhs() const { return LHS; }
  Expr *rhs() const { return RHS; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Assign; }

private:
  AssignOp Op;
  Expr *LHS;
  Expr *RHS;
};

class ConditionalExpr : public Expr {
public:
  ConditionalExpr(Expr *Cond, Expr *Then, Expr *Else, const Type *Ty,
                  SourceRange R)
      : Expr(ExprKind::Conditional, Ty, R, false), Cond(Cond), Then(Then),
        Else(Else) {}
  Expr *cond() const { return Cond; }
  Expr *thenExpr() const { return Then; }
  Expr *elseExpr() const { return Else; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Conditional;
  }

private:
  Expr *Cond;
  Expr *Then;
  Expr *Else;
};

class CallExpr : public Expr {
public:
  CallExpr(Expr *Callee, std::span<Expr *const> Args, const Type *Ty,
           SourceRange R)
      : Expr(ExprKind::Call, Ty, R, false), Callee(Callee), Args(Args) {}
  Expr *callee() const { return Callee; }
  std::span<Expr *const> args() const { return Args; }

  /// Returns the called FunctionDecl when the callee is a direct reference,
  /// else null.
  FunctionDecl *directCallee() const;

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Call; }

private:
  Expr *Callee;
  std::span<Expr *const> Args;
};

enum class CastKind : uint8_t {
  Explicit,      ///< A cast written in the source.
  Implicit,      ///< Inserted conversion between scalar types.
  ArrayDecay,    ///< Array lvalue to pointer-to-first-element.
  FunctionDecay, ///< Function designator to function pointer.
  LValueToRValue ///< Not materialized; loads are implicit in evaluation.
};

class CastExpr : public Expr {
public:
  CastExpr(CastKind CK, Expr *Sub, const Type *Ty, SourceRange R)
      : Expr(ExprKind::Cast, Ty, R, false), CK(CK), Sub(Sub) {}
  CastKind castKind() const { return CK; }
  Expr *sub() const { return Sub; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Cast; }

private:
  CastKind CK;
  Expr *Sub;
};

/// Member access `e.x` or `e->x` (kept in surface form for BASEADDR).
class MemberExpr : public Expr {
public:
  MemberExpr(Expr *Base, const RecordType::Field *Field, bool IsArrow,
             const Type *Ty, SourceRange R, bool LValue)
      : Expr(ExprKind::Member, Ty, R, LValue), Base(Base), Field(Field),
        Arrow(IsArrow) {}
  Expr *base() const { return Base; }
  const RecordType::Field *field() const { return Field; }
  bool isArrow() const { return Arrow; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Member; }

private:
  Expr *Base;
  const RecordType::Field *Field;
  bool Arrow;
};

/// Subscript `e1[e2]` (kept in surface form for BASEADDR).
class IndexExpr : public Expr {
public:
  IndexExpr(Expr *Base, Expr *Index, const Type *Ty, SourceRange R)
      : Expr(ExprKind::Index, Ty, R, /*LValue=*/true), Base(Base),
        Index(Index) {}
  Expr *base() const { return Base; }
  Expr *index() const { return Index; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Index; }

private:
  Expr *Base;
  Expr *Index;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class StmtKind : uint8_t {
  Compound,
  Decl,
  Expr,
  If,
  While,
  Do,
  For,
  Return,
  Break,
  Continue,
  Switch,
  Case,
  Default,
};

class Stmt {
public:
  StmtKind kind() const { return Kind; }
  SourceLocation location() const { return Loc; }

protected:
  Stmt(StmtKind Kind, SourceLocation Loc) : Kind(Kind), Loc(Loc) {}
  ~Stmt() = default;

private:
  StmtKind Kind;
  SourceLocation Loc;
};

class CompoundStmt : public Stmt {
public:
  CompoundStmt(std::span<Stmt *const> Body, SourceLocation Loc)
      : Stmt(StmtKind::Compound, Loc), Body(Body) {}
  std::span<Stmt *const> body() const { return Body; }
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::Compound;
  }

private:
  std::span<Stmt *const> Body;
};

class DeclStmt : public Stmt {
public:
  DeclStmt(std::span<VarDecl *const> Decls, SourceLocation Loc)
      : Stmt(StmtKind::Decl, Loc), Decls(Decls) {}
  std::span<VarDecl *const> decls() const { return Decls; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Decl; }

private:
  std::span<VarDecl *const> Decls;
};

class ExprStmt : public Stmt {
public:
  ExprStmt(Expr *E, SourceLocation Loc) : Stmt(StmtKind::Expr, Loc), E(E) {}
  Expr *expr() const { return E; } ///< May be null (empty statement).
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Expr; }

private:
  Expr *E;
};

class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else, SourceLocation Loc)
      : Stmt(StmtKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  Expr *cond() const { return Cond; }
  Stmt *thenStmt() const { return Then; }
  Stmt *elseStmt() const { return Else; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::If; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else;
};

class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, Stmt *Body, SourceLocation Loc)
      : Stmt(StmtKind::While, Loc), Cond(Cond), Body(Body) {}
  Expr *cond() const { return Cond; }
  Stmt *body() const { return Body; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::While; }

private:
  Expr *Cond;
  Stmt *Body;
};

class DoStmt : public Stmt {
public:
  DoStmt(Stmt *Body, Expr *Cond, SourceLocation Loc)
      : Stmt(StmtKind::Do, Loc), Body(Body), Cond(Cond) {}
  Stmt *body() const { return Body; }
  Expr *cond() const { return Cond; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Do; }

private:
  Stmt *Body;
  Expr *Cond;
};

class ForStmt : public Stmt {
public:
  ForStmt(Stmt *Init, Expr *Cond, Expr *Inc, Stmt *Body, SourceLocation Loc)
      : Stmt(StmtKind::For, Loc), Init(Init), Cond(Cond), Inc(Inc),
        Body(Body) {}
  Stmt *init() const { return Init; } ///< DeclStmt, ExprStmt, or null.
  Expr *cond() const { return Cond; }
  Expr *inc() const { return Inc; }
  Stmt *body() const { return Body; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::For; }

private:
  Stmt *Init;
  Expr *Cond;
  Expr *Inc;
  Stmt *Body;
};

class ReturnStmt : public Stmt {
public:
  ReturnStmt(Expr *Value, SourceLocation Loc)
      : Stmt(StmtKind::Return, Loc), Value(Value) {}
  Expr *value() const { return Value; } ///< May be null.
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Return; }

private:
  Expr *Value;
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLocation Loc) : Stmt(StmtKind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Break; }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLocation Loc) : Stmt(StmtKind::Continue, Loc) {}
  static bool classof(const Stmt *S) {
    return S->kind() == StmtKind::Continue;
  }
};

class SwitchStmt : public Stmt {
public:
  SwitchStmt(Expr *Cond, Stmt *Body, SourceLocation Loc)
      : Stmt(StmtKind::Switch, Loc), Cond(Cond), Body(Body) {}
  Expr *cond() const { return Cond; }
  Stmt *body() const { return Body; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Switch; }

private:
  Expr *Cond;
  Stmt *Body;
};

class CaseStmt : public Stmt {
public:
  CaseStmt(long Value, Stmt *Sub, SourceLocation Loc)
      : Stmt(StmtKind::Case, Loc), Value(Value), Sub(Sub) {}
  long value() const { return Value; }
  Stmt *sub() const { return Sub; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Case; }

private:
  long Value;
  Stmt *Sub;
};

class DefaultStmt : public Stmt {
public:
  DefaultStmt(Stmt *Sub, SourceLocation Loc)
      : Stmt(StmtKind::Default, Loc), Sub(Sub) {}
  Stmt *sub() const { return Sub; }
  static bool classof(const Stmt *S) { return S->kind() == StmtKind::Default; }

private:
  Stmt *Sub;
};

//===----------------------------------------------------------------------===//
// Translation unit
//===----------------------------------------------------------------------===//

/// The result of parsing one file. Owns nothing directly; all nodes live in
/// the arena supplied to the parser.
struct TranslationUnit {
  std::vector<Decl *> Decls;

  FunctionDecl *findFunction(std::string_view Name) const {
    for (Decl *D : Decls)
      if (auto *FD = dyn_cast<FunctionDecl>(D))
        if (FD->name() == Name)
          return FD;
    return nullptr;
  }
};

/// Calls \p Fn on each direct subexpression of \p E.
template <typename Callable>
void forEachChild(const Expr *E, Callable Fn) {
  switch (E->kind()) {
  case ExprKind::IntLiteral:
  case ExprKind::FloatLiteral:
  case ExprKind::StringLiteral:
  case ExprKind::DeclRef:
    return;
  case ExprKind::Paren:
    Fn(cast<ParenExpr>(E)->inner());
    return;
  case ExprKind::Unary:
    Fn(cast<UnaryExpr>(E)->sub());
    return;
  case ExprKind::Binary:
    Fn(cast<BinaryExpr>(E)->lhs());
    Fn(cast<BinaryExpr>(E)->rhs());
    return;
  case ExprKind::Assign:
    Fn(cast<AssignExpr>(E)->lhs());
    Fn(cast<AssignExpr>(E)->rhs());
    return;
  case ExprKind::Conditional:
    Fn(cast<ConditionalExpr>(E)->cond());
    Fn(cast<ConditionalExpr>(E)->thenExpr());
    Fn(cast<ConditionalExpr>(E)->elseExpr());
    return;
  case ExprKind::Call: {
    const auto *CE = cast<CallExpr>(E);
    Fn(CE->callee());
    for (const Expr *Arg : CE->args())
      Fn(Arg);
    return;
  }
  case ExprKind::Cast:
    Fn(cast<CastExpr>(E)->sub());
    return;
  case ExprKind::Member:
    Fn(cast<MemberExpr>(E)->base());
    return;
  case ExprKind::Index:
    Fn(cast<IndexExpr>(E)->base());
    Fn(cast<IndexExpr>(E)->index());
    return;
  }
}

/// Calls \p OnStmt on each direct substatement and \p OnExpr on each
/// direct subexpression of \p S, in source order (a do's body before its
/// condition; a for's init, condition, increment, body). A declaration's
/// children are its initializers. Absent children are skipped.
template <typename StmtFn, typename ExprFn>
void forEachChild(const Stmt *S, StmtFn OnStmt, ExprFn OnExpr) {
  switch (S->kind()) {
  case StmtKind::Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(S)->body())
      OnStmt(Sub);
    return;
  case StmtKind::Decl:
    for (const VarDecl *VD : cast<DeclStmt>(S)->decls())
      if (VD->init())
        OnExpr(VD->init());
    return;
  case StmtKind::Expr:
    if (const Expr *E = cast<ExprStmt>(S)->expr())
      OnExpr(E);
    return;
  case StmtKind::If: {
    const auto *IS = cast<IfStmt>(S);
    OnExpr(IS->cond());
    OnStmt(IS->thenStmt());
    if (IS->elseStmt())
      OnStmt(IS->elseStmt());
    return;
  }
  case StmtKind::While:
    OnExpr(cast<WhileStmt>(S)->cond());
    OnStmt(cast<WhileStmt>(S)->body());
    return;
  case StmtKind::Do:
    OnStmt(cast<DoStmt>(S)->body());
    OnExpr(cast<DoStmt>(S)->cond());
    return;
  case StmtKind::For: {
    const auto *FS = cast<ForStmt>(S);
    if (FS->init())
      OnStmt(FS->init());
    if (FS->cond())
      OnExpr(FS->cond());
    if (FS->inc())
      OnExpr(FS->inc());
    OnStmt(FS->body());
    return;
  }
  case StmtKind::Return:
    if (const Expr *V = cast<ReturnStmt>(S)->value())
      OnExpr(V);
    return;
  case StmtKind::Break:
  case StmtKind::Continue:
    return;
  case StmtKind::Switch:
    OnExpr(cast<SwitchStmt>(S)->cond());
    OnStmt(cast<SwitchStmt>(S)->body());
    return;
  case StmtKind::Case:
    OnStmt(cast<CaseStmt>(S)->sub());
    return;
  case StmtKind::Default:
    OnStmt(cast<DefaultStmt>(S)->sub());
    return;
  }
}

} // namespace cfront
} // namespace gcsafe

#endif // GCSAFE_CFRONT_AST_H
