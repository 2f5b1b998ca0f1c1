//===- cfront/Sema.cpp ----------------------------------------*- C++ -*-===//

#include "cfront/Sema.h"

#include "cfront/Lexer.h"

#include <cassert>
#include <cstdlib>
#include <string>

using namespace gcsafe;
using namespace gcsafe::cfront;

//===----------------------------------------------------------------------===//
// Scope
//===----------------------------------------------------------------------===//

Decl *Scope::lookupOrdinaryLocal(std::string_view Name) const {
  auto It = Ordinary.find(Name);
  return It == Ordinary.end() ? nullptr : It->second;
}

RecordType *Scope::lookupTagLocal(std::string_view Name) const {
  auto It = Tags.find(Name);
  return It == Tags.end() ? nullptr : It->second;
}

long *Scope::lookupEnumConstantLocal(std::string_view Name) {
  auto It = EnumConstants.find(Name);
  return It == EnumConstants.end() ? nullptr : &It->second;
}

//===----------------------------------------------------------------------===//
// Sema: scopes
//===----------------------------------------------------------------------===//

Sema::Sema(TypeContext &Types, DiagnosticsEngine &Diags, Arena &NodeArena)
    : Types(Types), Diags(Diags), NodeArena(NodeArena) {
  Scopes.push_back(std::make_unique<Scope>(nullptr));
}

Sema::~Sema() = default;

void Sema::pushScope() {
  Scopes.push_back(std::make_unique<Scope>(Scopes.back().get()));
}

void Sema::popScope() {
  assert(Scopes.size() > 1 && "popping global scope");
  Scopes.pop_back();
}

Decl *Sema::lookupOrdinary(std::string_view Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
    if (Decl *D = (*It)->lookupOrdinaryLocal(Name))
      return D;
  return nullptr;
}

RecordType *Sema::lookupTag(std::string_view Name,
                            bool CurrentScopeOnly) const {
  if (CurrentScopeOnly)
    return Scopes.back()->lookupTagLocal(Name);
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
    if (RecordType *RT = (*It)->lookupTagLocal(Name))
      return RT;
  return nullptr;
}

const long *Sema::lookupEnumConstant(std::string_view Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
    if (long *V = (*It)->lookupEnumConstantLocal(Name))
      return V;
  return nullptr;
}

bool Sema::isTypedefName(std::string_view Name) const {
  Decl *D = lookupOrdinary(Name);
  return D && isa<TypedefDecl>(D);
}

void Sema::declareVar(VarDecl *VD) {
  if (Decl *Prev = Scopes.back()->lookupOrdinaryLocal(VD->name()))
    if (isa<VarDecl>(Prev))
      Diags.error(VD->location(),
                  "redefinition of '" + std::string(VD->name()) + "'");
  Scopes.back()->declareOrdinary(VD->name(), VD);
}

void Sema::declareFunction(FunctionDecl *FD) {
  // Redeclaration of functions is permitted (prototype then definition).
  Scopes.front()->declareOrdinary(FD->name(), FD);
}

void Sema::declareTypedef(TypedefDecl *TD) {
  Scopes.back()->declareOrdinary(TD->name(), TD);
}

void Sema::declareTag(std::string_view Name, RecordType *RT) {
  Scopes.back()->declareTag(Name, RT);
}

void Sema::declareEnumConstant(std::string_view Name, long Value) {
  Scopes.back()->declareEnumConstant(Name, Value);
}

void Sema::declareRuntimeBuiltins(TranslationUnit &TU) {
  const Type *VoidTy = Types.voidType();
  const Type *LongTy = Types.longType();
  const Type *DoubleTy = Types.doubleType();
  const Type *VoidPtr = Types.pointerTo(VoidTy);
  const Type *CharPtr = Types.pointerTo(Types.charType());

  auto Declare = [&](const char *Name, const Type *Ret,
                     std::vector<const Type *> Params) {
    const FunctionType *FT = Types.function(Ret, std::move(Params), false);
    std::string_view N = NodeArena.copyString(Name);
    std::vector<VarDecl *> ParamDecls;
    for (const Type *PT : FT->params())
      ParamDecls.push_back(NodeArena.create<VarDecl>(
          std::string_view(), SourceLocation(), PT, VarDecl::Storage::Param));
    auto *FD = NodeArena.create<FunctionDecl>(
        N, SourceLocation(), FT, NodeArena.copyArray(ParamDecls));
    FD->setBuiltin(true);
    declareFunction(FD);
    TU.Decls.push_back(FD);
  };

  // Collecting allocator. Per the paper's problem statement, malloc/calloc/
  // realloc are "replaced by corresponding calls to a collecting
  // allocator", and free becomes a no-op.
  Declare("gc_malloc", VoidPtr, {LongTy});
  Declare("gc_malloc_atomic", VoidPtr, {LongTy});
  Declare("gc_collect", VoidTy, {});
  Declare("malloc", VoidPtr, {LongTy});
  Declare("calloc", VoidPtr, {LongTy, LongTy});
  Declare("realloc", VoidPtr, {VoidPtr, LongTy});
  Declare("free", VoidTy, {VoidPtr});

  // Output and test support.
  Declare("print_int", VoidTy, {LongTy});
  Declare("print_char", VoidTy, {LongTy});
  Declare("print_str", VoidTy, {CharPtr});
  Declare("print_double", VoidTy, {DoubleTy});
  Declare("assert_true", VoidTy, {LongTy});

  // Deterministic PRNG for in-VM workload input generation.
  Declare("rand_seed", VoidTy, {LongTy});
  Declare("rand_next", LongTy, {});
}

//===----------------------------------------------------------------------===//
// Conversions
//===----------------------------------------------------------------------===//

Expr *Sema::implicitCast(Expr *E, const Type *To) {
  if (E->type() == To)
    return E;
  return NodeArena.create<CastExpr>(CastKind::Implicit, E, To, E->range());
}

Expr *Sema::decay(Expr *E) {
  if (E->type()->isArray()) {
    const auto *AT = cast<ArrayType>(E->type());
    return NodeArena.create<CastExpr>(CastKind::ArrayDecay, E,
                                      Types.pointerTo(AT->element()),
                                      E->range());
  }
  if (E->type()->isFunction())
    return NodeArena.create<CastExpr>(
        CastKind::FunctionDecay, E, Types.pointerTo(E->type()), E->range());
  return E;
}

static bool isNullPointerConstant(const Expr *E) {
  const auto *IL = dyn_cast<IntLiteralExpr>(E->ignoreParensAndImplicitCasts());
  return IL && IL->value() == 0;
}

Expr *Sema::convertTo(Expr *E, const Type *To, SourceLocation Loc) {
  E = decay(E);
  const Type *From = E->type();
  if (From == To)
    return E;
  if (To->isRecord() || To->isArray()) {
    Diags.error(Loc, "cannot convert '" + From->str() + "' to '" + To->str() +
                         "'");
    return E;
  }
  if (To->isPointer()) {
    if (From->isPointer())
      return implicitCast(E, To);
    if (From->isInteger()) {
      // The paper's source-checking rule 1: "Our preprocessor issues
      // warnings when nonpointer values are directly converted to
      // pointers."
      if (!isNullPointerConstant(E))
        Diags.warning(Loc,
                      "nonpointer value converted to pointer; a disguised "
                      "pointer is invisible to the garbage collector");
      return implicitCast(E, To);
    }
    Diags.error(Loc, "cannot convert '" + From->str() + "' to pointer type");
    return implicitCast(E, To);
  }
  if (To->isArithmetic()) {
    if (From->isArithmetic())
      return implicitCast(E, To);
    if (From->isPointer() && To->isInteger())
      return implicitCast(E, To); // benign per the paper, no warning
    Diags.error(Loc, "cannot convert '" + From->str() + "' to '" + To->str() +
                         "'");
    return implicitCast(E, To);
  }
  if (To->isVoid())
    return implicitCast(E, To);
  Diags.error(Loc, "invalid conversion target '" + To->str() + "'");
  return E;
}

const Type *Sema::integerPromote(const Type *T) const {
  if (!T->isInteger())
    return T;
  if (T->size() < 4)
    return Types.intType();
  return T;
}

const Type *Sema::usualArithmetic(Expr *&LHS, Expr *&RHS,
                                  SourceLocation Loc) {
  const Type *L = LHS->type();
  const Type *R = RHS->type();
  if (!L->isArithmetic() || !R->isArithmetic()) {
    Diags.error(Loc, "invalid operands to arithmetic operator ('" + L->str() +
                         "' and '" + R->str() + "')");
    return Types.intType();
  }
  const Type *Common;
  if (L->isFloating() || R->isFloating()) {
    Common = Types.doubleType();
  } else {
    const Type *LP = integerPromote(L);
    const Type *RP = integerPromote(R);
    if (LP == RP) {
      Common = LP;
    } else if (LP->size() != RP->size()) {
      Common = LP->size() > RP->size() ? LP : RP;
    } else {
      // Same size, different signedness: unsigned wins.
      Common = LP->isUnsignedInteger() ? LP : RP;
    }
  }
  LHS = implicitCast(LHS, Common);
  RHS = implicitCast(RHS, Common);
  return Common;
}

Expr *Sema::checkCondition(Expr *E, SourceLocation Loc) {
  E = decay(E);
  if (!E->type()->isScalar())
    Diags.error(Loc, "condition has non-scalar type '" + E->type()->str() +
                         "'");
  return E;
}

Expr *Sema::errorExpr(SourceRange R) {
  return NodeArena.create<IntLiteralExpr>(0, Types.intType(), R);
}

Expr *Sema::makeIntLiteral(long Value, const Type *Ty, SourceRange R) {
  return NodeArena.create<IntLiteralExpr>(Value, Ty, R);
}

//===----------------------------------------------------------------------===//
// Literals and references
//===----------------------------------------------------------------------===//

Expr *Sema::actOnIntLiteral(const Token &Tok) {
  std::string Text(Tok.Text);
  bool IsUnsigned = false, IsLong = false;
  while (!Text.empty()) {
    char C = Text.back();
    if (C == 'u' || C == 'U') {
      IsUnsigned = true;
      Text.pop_back();
    } else if (C == 'l' || C == 'L') {
      IsLong = true;
      Text.pop_back();
    } else {
      break;
    }
  }
  unsigned long long Value = std::strtoull(Text.c_str(), nullptr, 0);
  const Type *Ty;
  if (IsLong)
    Ty = IsUnsigned ? Types.ulongType() : Types.longType();
  else if (IsUnsigned)
    Ty = Value > 0xFFFFFFFFull ? Types.ulongType() : Types.uintType();
  else if (Value > 0x7FFFFFFFull)
    Ty = Types.longType();
  else
    Ty = Types.intType();
  return NodeArena.create<IntLiteralExpr>(
      static_cast<long>(Value), Ty, SourceRange(Tok.Loc.Offset, Tok.endOffset()));
}

Expr *Sema::actOnFloatLiteral(const Token &Tok) {
  std::string Text(Tok.Text);
  double Value = std::strtod(Text.c_str(), nullptr);
  return NodeArena.create<FloatLiteralExpr>(
      Value, Types.doubleType(), SourceRange(Tok.Loc.Offset, Tok.endOffset()));
}

Expr *Sema::actOnCharLiteral(const Token &Tok) {
  long Value = decodeCharLiteral(Tok, Diags);
  return NodeArena.create<IntLiteralExpr>(
      Value, Types.intType(), SourceRange(Tok.Loc.Offset, Tok.endOffset()));
}

Expr *Sema::actOnStringLiteral(const Token &Tok) {
  std::string Decoded = decodeStringLiteral(Tok, Diags);
  std::string_view Stable = NodeArena.copyString(Decoded);
  const Type *Ty = Types.arrayOf(Types.charType(), Decoded.size() + 1);
  return NodeArena.create<StringLiteralExpr>(
      Stable, Ty, SourceRange(Tok.Loc.Offset, Tok.endOffset()));
}

Expr *Sema::actOnDeclRef(const Token &NameTok) {
  SourceRange R(NameTok.Loc.Offset, NameTok.endOffset());
  if (const long *EnumVal = lookupEnumConstant(NameTok.Text))
    return NodeArena.create<IntLiteralExpr>(*EnumVal, Types.intType(), R);
  Decl *D = lookupOrdinary(NameTok.Text);
  if (!D) {
    Diags.error(NameTok.Loc,
                "use of undeclared identifier '" + std::string(NameTok.Text) +
                    "'");
    return errorExpr(R);
  }
  if (auto *VD = dyn_cast<VarDecl>(D))
    return NodeArena.create<DeclRefExpr>(VD, VD->type(), R, /*LValue=*/true);
  if (auto *FD = dyn_cast<FunctionDecl>(D))
    return NodeArena.create<DeclRefExpr>(FD, FD->type(), R, /*LValue=*/false);
  Diags.error(NameTok.Loc, "'" + std::string(NameTok.Text) +
                               "' does not name a value");
  return errorExpr(R);
}

Expr *Sema::actOnParen(Expr *Inner, SourceRange R) {
  return NodeArena.create<ParenExpr>(Inner, R);
}

//===----------------------------------------------------------------------===//
// Operators
//===----------------------------------------------------------------------===//

Expr *Sema::actOnUnary(UnaryOp Op, Expr *Sub, SourceRange R,
                       SourceLocation Loc) {
  switch (Op) {
  case UnaryOp::Plus:
  case UnaryOp::Minus: {
    Sub = decay(Sub);
    if (!Sub->type()->isArithmetic()) {
      Diags.error(Loc, "invalid operand to unary +/-");
      return errorExpr(R);
    }
    const Type *Ty = Sub->type()->isFloating()
                         ? Sub->type()
                         : integerPromote(Sub->type());
    Sub = implicitCast(Sub, Ty);
    return NodeArena.create<UnaryExpr>(Op, Sub, Ty, R, false);
  }
  case UnaryOp::BitNot: {
    Sub = decay(Sub);
    if (!Sub->type()->isInteger()) {
      Diags.error(Loc, "invalid operand to unary ~");
      return errorExpr(R);
    }
    const Type *Ty = integerPromote(Sub->type());
    Sub = implicitCast(Sub, Ty);
    return NodeArena.create<UnaryExpr>(Op, Sub, Ty, R, false);
  }
  case UnaryOp::LogicalNot: {
    Sub = decay(Sub);
    if (!Sub->type()->isScalar())
      Diags.error(Loc, "invalid operand to unary !");
    return NodeArena.create<UnaryExpr>(Op, Sub, Types.intType(), R, false);
  }
  case UnaryOp::Deref: {
    Sub = decay(Sub);
    const auto *PT = dyn_cast<PointerType>(Sub->type());
    if (!PT) {
      Diags.error(Loc, "dereference of non-pointer type '" +
                           Sub->type()->str() + "'");
      return errorExpr(R);
    }
    const Type *Pointee = PT->pointee();
    if (Pointee->isVoid()) {
      Diags.error(Loc, "dereference of 'void *'");
      return errorExpr(R);
    }
    bool LValue = !Pointee->isFunction();
    return NodeArena.create<UnaryExpr>(Op, Sub, Pointee, R, LValue);
  }
  case UnaryOp::AddrOf: {
    const Expr *Stripped = Sub->ignoreParens();
    bool IsFunction = Sub->type()->isFunction();
    if (!Sub->isLValue() && !IsFunction) {
      Diags.error(Loc, "cannot take the address of an rvalue");
      return errorExpr(R);
    }
    (void)Stripped;
    return NodeArena.create<UnaryExpr>(Op, Sub, Types.pointerTo(Sub->type()),
                                       R, false);
  }
  case UnaryOp::PreInc:
  case UnaryOp::PreDec:
  case UnaryOp::PostInc:
  case UnaryOp::PostDec: {
    if (!Sub->isLValue() || Sub->type()->isArray()) {
      Diags.error(Loc, "operand of increment/decrement is not a modifiable "
                       "lvalue");
      return errorExpr(R);
    }
    if (!Sub->type()->isScalar()) {
      Diags.error(Loc, "invalid operand type '" + Sub->type()->str() +
                           "' for increment/decrement");
      return errorExpr(R);
    }
    return NodeArena.create<UnaryExpr>(Op, Sub, Sub->type(), R, false);
  }
  }
  return errorExpr(R);
}

Expr *Sema::actOnBinary(BinaryOp Op, Expr *LHS, Expr *RHS, SourceRange R,
                        SourceLocation Loc) {
  switch (Op) {
  case BinaryOp::Add: {
    LHS = decay(LHS);
    RHS = decay(RHS);
    const Type *L = LHS->type(), *Rt = RHS->type();
    if (L->isObjectPointer() && Rt->isInteger())
      return NodeArena.create<BinaryExpr>(Op, LHS, RHS, L, R);
    if (L->isInteger() && Rt->isObjectPointer())
      return NodeArena.create<BinaryExpr>(Op, LHS, RHS, Rt, R);
    const Type *Ty = usualArithmetic(LHS, RHS, Loc);
    return NodeArena.create<BinaryExpr>(Op, LHS, RHS, Ty, R);
  }
  case BinaryOp::Sub: {
    LHS = decay(LHS);
    RHS = decay(RHS);
    const Type *L = LHS->type(), *Rt = RHS->type();
    if (L->isObjectPointer() && Rt->isInteger())
      return NodeArena.create<BinaryExpr>(Op, LHS, RHS, L, R);
    if (L->isObjectPointer() && Rt->isObjectPointer())
      return NodeArena.create<BinaryExpr>(Op, LHS, RHS, Types.longType(), R);
    const Type *Ty = usualArithmetic(LHS, RHS, Loc);
    return NodeArena.create<BinaryExpr>(Op, LHS, RHS, Ty, R);
  }
  case BinaryOp::Mul:
  case BinaryOp::Div: {
    LHS = decay(LHS);
    RHS = decay(RHS);
    const Type *Ty = usualArithmetic(LHS, RHS, Loc);
    return NodeArena.create<BinaryExpr>(Op, LHS, RHS, Ty, R);
  }
  case BinaryOp::Rem:
  case BinaryOp::BitAnd:
  case BinaryOp::BitXor:
  case BinaryOp::BitOr: {
    LHS = decay(LHS);
    RHS = decay(RHS);
    if (!LHS->type()->isInteger() || !RHS->type()->isInteger())
      Diags.error(Loc, "invalid operands to integer operator");
    const Type *Ty = usualArithmetic(LHS, RHS, Loc);
    return NodeArena.create<BinaryExpr>(Op, LHS, RHS, Ty, R);
  }
  case BinaryOp::Shl:
  case BinaryOp::Shr: {
    LHS = decay(LHS);
    RHS = decay(RHS);
    if (!LHS->type()->isInteger() || !RHS->type()->isInteger())
      Diags.error(Loc, "invalid operands to shift operator");
    const Type *Ty = integerPromote(LHS->type());
    LHS = implicitCast(LHS, Ty);
    RHS = implicitCast(RHS, integerPromote(RHS->type()));
    return NodeArena.create<BinaryExpr>(Op, LHS, RHS, Ty, R);
  }
  case BinaryOp::Lt:
  case BinaryOp::Gt:
  case BinaryOp::Le:
  case BinaryOp::Ge:
  case BinaryOp::Eq:
  case BinaryOp::Ne: {
    LHS = decay(LHS);
    RHS = decay(RHS);
    const Type *L = LHS->type(), *Rt = RHS->type();
    if (L->isPointer() || Rt->isPointer()) {
      if (L->isPointer() && isNullPointerConstant(RHS))
        RHS = implicitCast(RHS, L);
      else if (Rt->isPointer() && isNullPointerConstant(LHS))
        LHS = implicitCast(LHS, Rt);
      else if (!L->isPointer() || !Rt->isPointer())
        Diags.error(Loc, "comparison between pointer and integer");
    } else {
      usualArithmetic(LHS, RHS, Loc);
    }
    return NodeArena.create<BinaryExpr>(Op, LHS, RHS, Types.intType(), R);
  }
  case BinaryOp::LogicalAnd:
  case BinaryOp::LogicalOr: {
    LHS = checkCondition(LHS, Loc);
    RHS = checkCondition(RHS, Loc);
    return NodeArena.create<BinaryExpr>(Op, LHS, RHS, Types.intType(), R);
  }
  case BinaryOp::Comma: {
    RHS = decay(RHS);
    return NodeArena.create<BinaryExpr>(Op, LHS, RHS, RHS->type(), R);
  }
  }
  return errorExpr(R);
}

Expr *Sema::actOnAssign(AssignOp Op, Expr *LHS, Expr *RHS, SourceRange R,
                        SourceLocation Loc) {
  if (!LHS->isLValue() || LHS->type()->isArray()) {
    Diags.error(Loc, "left side of assignment is not a modifiable lvalue");
    return errorExpr(R);
  }
  const Type *L = LHS->type();
  if (Op == AssignOp::Assign) {
    if (L->isRecord()) {
      RHS = decay(RHS);
      if (RHS->type() != L)
        Diags.error(Loc, "incompatible record assignment");
    } else {
      RHS = convertTo(RHS, L, Loc);
    }
    return NodeArena.create<AssignExpr>(Op, LHS, RHS, L, R);
  }
  // Compound assignment.
  RHS = decay(RHS);
  if (L->isObjectPointer()) {
    if ((Op != AssignOp::AddAssign && Op != AssignOp::SubAssign) ||
        !RHS->type()->isInteger())
      Diags.error(Loc, "invalid compound assignment on pointer");
    return NodeArena.create<AssignExpr>(Op, LHS, RHS, L, R);
  }
  if (!L->isArithmetic()) {
    Diags.error(Loc, "invalid left operand of compound assignment");
    return errorExpr(R);
  }
  bool IntegerOnly = Op == AssignOp::RemAssign || Op == AssignOp::ShlAssign ||
                     Op == AssignOp::ShrAssign || Op == AssignOp::AndAssign ||
                     Op == AssignOp::XorAssign || Op == AssignOp::OrAssign;
  if (IntegerOnly && (!L->isInteger() || !RHS->type()->isInteger()))
    Diags.error(Loc, "invalid operands to integer compound assignment");
  RHS = convertTo(RHS, L, Loc);
  return NodeArena.create<AssignExpr>(Op, LHS, RHS, L, R);
}

Expr *Sema::actOnConditional(Expr *Cond, Expr *Then, Expr *Else,
                             SourceRange R, SourceLocation Loc) {
  Cond = checkCondition(Cond, Loc);
  Then = decay(Then);
  Else = decay(Else);
  const Type *T = Then->type(), *E = Else->type();
  const Type *Ty;
  if (T == E) {
    Ty = T;
  } else if (T->isArithmetic() && E->isArithmetic()) {
    Ty = usualArithmetic(Then, Else, Loc);
  } else if (T->isPointer() && isNullPointerConstant(Else)) {
    Else = implicitCast(Else, T);
    Ty = T;
  } else if (E->isPointer() && isNullPointerConstant(Then)) {
    Then = implicitCast(Then, E);
    Ty = E;
  } else if (T->isPointer() && E->isPointer()) {
    Else = implicitCast(Else, T);
    Ty = T;
  } else if (T->isVoid() && E->isVoid()) {
    Ty = T;
  } else {
    Diags.error(Loc, "incompatible operands of ?: ('" + T->str() + "' and '" +
                         E->str() + "')");
    Ty = T;
  }
  return NodeArena.create<ConditionalExpr>(Cond, Then, Else, Ty, R);
}

Expr *Sema::actOnCall(Expr *Callee, std::vector<Expr *> Args, SourceRange R,
                      SourceLocation Loc) {
  Callee = decay(Callee);
  const FunctionType *FT = nullptr;
  if (const auto *PT = dyn_cast<PointerType>(Callee->type()))
    FT = dyn_cast<FunctionType>(PT->pointee());
  if (!FT) {
    Diags.error(Loc, "called object is not a function");
    return errorExpr(R);
  }
  const auto &Params = FT->params();
  if (Args.size() < Params.size() ||
      (Args.size() > Params.size() && !FT->isVariadic())) {
    Diags.error(Loc, "wrong number of arguments (" +
                         std::to_string(Args.size()) + " given, " +
                         std::to_string(Params.size()) + " expected)");
  }
  for (size_t I = 0; I < Args.size(); ++I) {
    if (I < Params.size()) {
      Args[I] = convertTo(Args[I], Params[I], Loc);
    } else {
      // Default argument promotions for variadic extras.
      Args[I] = decay(Args[I]);
      if (Args[I]->type()->isInteger())
        Args[I] = implicitCast(Args[I], integerPromote(Args[I]->type()));
    }
  }
  return NodeArena.create<CallExpr>(Callee, NodeArena.copyArray(Args),
                                    FT->returnType(), R);
}

Expr *Sema::actOnExplicitCast(const Type *To, Expr *Sub, SourceRange R,
                              SourceLocation Loc) {
  if (To->isVoid()) {
    Sub = decay(Sub);
    return NodeArena.create<CastExpr>(CastKind::Explicit, Sub, To, R);
  }
  Sub = decay(Sub);
  const Type *From = Sub->type();
  if (To->isPointer() && From->isInteger() && !isNullPointerConstant(Sub))
    Diags.warning(Loc, "nonpointer value converted to pointer; a disguised "
                       "pointer is invisible to the garbage collector");
  if ((To->isRecord() || To->isArray()) ||
      (From->isRecord() || From->isArray()))
    Diags.error(Loc, "invalid cast involving aggregate type");
  return NodeArena.create<CastExpr>(CastKind::Explicit, Sub, To, R);
}

Expr *Sema::actOnMember(Expr *Base, const Token &NameTok, bool IsArrow,
                        SourceRange R) {
  const RecordType *RT = nullptr;
  bool LValue = false;
  if (IsArrow) {
    Base = decay(Base);
    if (const auto *PT = dyn_cast<PointerType>(Base->type()))
      RT = dyn_cast<RecordType>(PT->pointee());
    LValue = true;
  } else {
    RT = dyn_cast<RecordType>(Base->type());
    LValue = Base->isLValue();
  }
  if (!RT || !RT->isComplete()) {
    Diags.error(NameTok.Loc, "member access into non-record or incomplete "
                             "type '" +
                                 Base->type()->str() + "'");
    return errorExpr(R);
  }
  const RecordType::Field *Field = RT->findField(NameTok.Text);
  if (!Field) {
    Diags.error(NameTok.Loc, "no member named '" + std::string(NameTok.Text) +
                                 "' in '" + RT->str() + "'");
    return errorExpr(R);
  }
  return NodeArena.create<MemberExpr>(Base, Field, IsArrow, Field->Ty, R,
                                      LValue);
}

Expr *Sema::actOnIndex(Expr *Base, Expr *Index, SourceRange R,
                       SourceLocation Loc) {
  Base = decay(Base);
  Index = decay(Index);
  // Allow the (rare but legal) int[ptr] spelling by normalizing operands.
  if (Base->type()->isInteger() && Index->type()->isObjectPointer())
    std::swap(Base, Index);
  const auto *PT = dyn_cast<PointerType>(Base->type());
  if (!PT || !Index->type()->isInteger()) {
    Diags.error(Loc, "invalid subscript (base '" + Base->type()->str() +
                         "', index '" + Index->type()->str() + "')");
    return errorExpr(R);
  }
  return NodeArena.create<IndexExpr>(Base, Index, PT->pointee(), R);
}

Expr *Sema::actOnSizeOf(const Type *T, SourceRange R, SourceLocation Loc) {
  if (T->size() == 0 && !T->isVoid())
    Diags.error(Loc, "sizeof of incomplete type '" + T->str() + "'");
  uint64_t Size = T->isVoid() ? 1 : T->size();
  return NodeArena.create<IntLiteralExpr>(static_cast<long>(Size),
                                          Types.ulongType(), R);
}

//===----------------------------------------------------------------------===//
// Constant evaluation
//===----------------------------------------------------------------------===//

namespace {
bool evalConst(const Expr *E, long &Out) {
  E = E->ignoreParens();
  if (const auto *IL = dyn_cast<IntLiteralExpr>(E)) {
    Out = IL->value();
    return true;
  }
  if (const auto *CE = dyn_cast<CastExpr>(E)) {
    if (!CE->type()->isInteger())
      return false;
    if (!evalConst(CE->sub(), Out))
      return false;
    // Truncate to the destination width.
    uint64_t Bits = CE->type()->size() * 8;
    if (Bits < 64) {
      uint64_t Mask = (uint64_t(1) << Bits) - 1;
      uint64_t V = static_cast<uint64_t>(Out) & Mask;
      if (CE->type()->isSignedInteger() && (V >> (Bits - 1)))
        V |= ~Mask;
      Out = static_cast<long>(V);
    }
    return true;
  }
  if (const auto *UE = dyn_cast<UnaryExpr>(E)) {
    long V;
    if (!evalConst(UE->sub(), V))
      return false;
    switch (UE->op()) {
    case UnaryOp::Plus: Out = V; return true;
    case UnaryOp::Minus: Out = -V; return true;
    case UnaryOp::BitNot: Out = ~V; return true;
    case UnaryOp::LogicalNot: Out = !V; return true;
    default: return false;
    }
  }
  if (const auto *BE = dyn_cast<BinaryExpr>(E)) {
    long L, R;
    if (!evalConst(BE->lhs(), L) || !evalConst(BE->rhs(), R))
      return false;
    switch (BE->op()) {
    case BinaryOp::Add: Out = L + R; return true;
    case BinaryOp::Sub: Out = L - R; return true;
    case BinaryOp::Mul: Out = L * R; return true;
    case BinaryOp::Div:
      if (R == 0)
        return false;
      Out = L / R;
      return true;
    case BinaryOp::Rem:
      if (R == 0)
        return false;
      Out = L % R;
      return true;
    case BinaryOp::Shl: Out = L << R; return true;
    case BinaryOp::Shr: Out = L >> R; return true;
    case BinaryOp::Lt: Out = L < R; return true;
    case BinaryOp::Gt: Out = L > R; return true;
    case BinaryOp::Le: Out = L <= R; return true;
    case BinaryOp::Ge: Out = L >= R; return true;
    case BinaryOp::Eq: Out = L == R; return true;
    case BinaryOp::Ne: Out = L != R; return true;
    case BinaryOp::BitAnd: Out = L & R; return true;
    case BinaryOp::BitXor: Out = L ^ R; return true;
    case BinaryOp::BitOr: Out = L | R; return true;
    case BinaryOp::LogicalAnd: Out = L && R; return true;
    case BinaryOp::LogicalOr: Out = L || R; return true;
    case BinaryOp::Comma: return false;
    }
  }
  if (const auto *CE = dyn_cast<ConditionalExpr>(E)) {
    long C;
    if (!evalConst(CE->cond(), C))
      return false;
    return evalConst(C ? CE->thenExpr() : CE->elseExpr(), Out);
  }
  return false;
}
} // namespace

long Sema::evaluateIntConstant(const Expr *E, SourceLocation Loc) {
  long Value = 0;
  if (!evalConst(E, Value)) {
    Diags.error(Loc, "expression is not an integer constant");
    return 0;
  }
  return Value;
}
