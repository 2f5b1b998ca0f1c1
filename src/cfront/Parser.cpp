//===- cfront/Parser.cpp --------------------------------------*- C++ -*-===//

#include "cfront/Parser.h"

#include <cassert>
#include <string>

using namespace gcsafe;
using namespace gcsafe::cfront;

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (tryConsume(Kind))
    return true;
  Actions.diags().error(loc(), std::string("expected ") +
                                   tokenKindName(Kind) + " " + Context +
                                   ", found " + tokenKindName(tok().Kind));
  return false;
}

bool Parser::parseTranslationUnit(TranslationUnit &TU) {
  while (!at(TokenKind::Eof)) {
    size_t Before = Index;
    parseExternalDeclaration(TU);
    if (Index == Before)
      consume(); // guarantee progress on malformed input
  }
  return !Actions.diags().hasErrors();
}

//===----------------------------------------------------------------------===//
// Declaration specifiers
//===----------------------------------------------------------------------===//

bool Parser::isTypeSpecifierStart(const Token &T) const {
  switch (T.Kind) {
  case TokenKind::KwVoid:
  case TokenKind::KwChar:
  case TokenKind::KwShort:
  case TokenKind::KwInt:
  case TokenKind::KwLong:
  case TokenKind::KwFloat:
  case TokenKind::KwDouble:
  case TokenKind::KwSigned:
  case TokenKind::KwUnsigned:
  case TokenKind::KwStruct:
  case TokenKind::KwUnion:
  case TokenKind::KwEnum:
  case TokenKind::KwTypedef:
  case TokenKind::KwStatic:
  case TokenKind::KwExtern:
  case TokenKind::KwConst:
  case TokenKind::KwVolatile:
  case TokenKind::KwRegister:
  case TokenKind::KwAuto:
    return true;
  case TokenKind::Identifier:
    return Actions.isTypedefName(T.Text);
  default:
    return false;
  }
}

const Type *Parser::parseDeclSpecifiers(StorageClass &SC) {
  SC = StorageClass::None;
  TypeContext &Types = Actions.types();
  enum BaseKind { BK_None, BK_Void, BK_Char, BK_Int, BK_Double } Base = BK_None;
  bool HasShort = false, HasUnsigned = false, HasSigned = false;
  int LongCount = 0;
  const Type *Named = nullptr;
  bool SawAny = false;

  while (true) {
    switch (tok().Kind) {
    case TokenKind::KwTypedef: SC = StorageClass::Typedef; consume(); break;
    case TokenKind::KwStatic: SC = StorageClass::Static; consume(); break;
    case TokenKind::KwExtern: SC = StorageClass::Extern; consume(); break;
    case TokenKind::KwRegister:
    case TokenKind::KwAuto:
    case TokenKind::KwConst:
    case TokenKind::KwVolatile:
      consume();
      break;
    case TokenKind::KwVoid: Base = BK_Void; SawAny = true; consume(); break;
    case TokenKind::KwChar: Base = BK_Char; SawAny = true; consume(); break;
    case TokenKind::KwInt:
      if (Base == BK_None)
        Base = BK_Int;
      SawAny = true;
      consume();
      break;
    case TokenKind::KwFloat:
    case TokenKind::KwDouble:
      Base = BK_Double;
      SawAny = true;
      consume();
      break;
    case TokenKind::KwShort: HasShort = true; SawAny = true; consume(); break;
    case TokenKind::KwLong: ++LongCount; SawAny = true; consume(); break;
    case TokenKind::KwSigned: HasSigned = true; SawAny = true; consume(); break;
    case TokenKind::KwUnsigned:
      HasUnsigned = true;
      SawAny = true;
      consume();
      break;
    case TokenKind::KwStruct:
    case TokenKind::KwUnion:
      Named = parseStructOrUnionSpecifier();
      SawAny = true;
      break;
    case TokenKind::KwEnum:
      Named = parseEnumSpecifier();
      SawAny = true;
      break;
    case TokenKind::Identifier:
      if (!SawAny && !Named && Actions.isTypedefName(tok().Text)) {
        Decl *D = Actions.lookupOrdinary(tok().Text);
        Named = cast<TypedefDecl>(D)->type();
        SawAny = true;
        consume();
        break;
      }
      goto done;
    default:
      goto done;
    }
  }
done:
  (void)HasSigned;
  if (Named)
    return Named;
  if (!SawAny)
    return nullptr;
  if (Base == BK_Void)
    return Types.voidType();
  if (Base == BK_Char)
    return HasUnsigned ? Types.ucharType() : Types.charType();
  if (Base == BK_Double)
    return Types.doubleType();
  if (HasShort)
    return HasUnsigned ? Types.ushortType() : Types.shortType();
  if (LongCount > 0)
    return HasUnsigned ? Types.ulongType() : Types.longType();
  return HasUnsigned ? Types.uintType() : Types.intType();
}

const Type *Parser::parseStructOrUnionSpecifier() {
  bool IsUnion = at(TokenKind::KwUnion);
  SourceLocation KwLoc = loc();
  consume(); // struct/union
  std::string_view TagName;
  if (at(TokenKind::Identifier)) {
    TagName = tok().Text;
    consume();
  }
  if (!at(TokenKind::LBrace)) {
    if (TagName.empty()) {
      Actions.diags().error(KwLoc, "expected tag or member list");
      return Actions.types().intType();
    }
    RecordType *RT = Actions.lookupTag(TagName, /*CurrentScopeOnly=*/false);
    if (!RT) {
      RT = Actions.types().createRecord(IsUnion, std::string(TagName));
      Actions.declareTag(Actions.arena().copyString(TagName), RT);
    }
    return RT;
  }

  RecordType *RT = nullptr;
  if (!TagName.empty()) {
    RT = Actions.lookupTag(TagName, /*CurrentScopeOnly=*/true);
    if (RT && RT->isComplete()) {
      Actions.diags().error(KwLoc,
                            "redefinition of '" + std::string(TagName) + "'");
      RT = nullptr;
    }
  }
  if (!RT) {
    RT = Actions.types().createRecord(
        IsUnion, TagName.empty() ? "<anonymous>" : std::string(TagName));
    if (!TagName.empty())
      Actions.declareTag(Actions.arena().copyString(TagName), RT);
  }

  consume(); // '{'
  std::vector<RecordType::Field> Fields;
  while (!at(TokenKind::RBrace) && !at(TokenKind::Eof)) {
    StorageClass SC;
    const Type *Base = parseDeclSpecifiers(SC);
    if (!Base) {
      Actions.diags().error(loc(), "expected member declaration");
      break;
    }
    do {
      DeclaratorInfo D;
      parseDeclaratorSyntax(D, /*Abstract=*/false);
      if (D.Name.empty()) {
        Actions.diags().error(loc(), "expected member name");
        break;
      }
      const Type *Ty = buildDeclaratorType(Base, D);
      if (Ty->size() == 0 && !Ty->isPointer())
        Actions.diags().error(D.NameLoc, "member '" + std::string(D.Name) +
                                             "' has incomplete type");
      Fields.push_back(
          {std::string(D.Name), Ty, 0});
    } while (tryConsume(TokenKind::Comma));
    expect(TokenKind::Semi, "after member declaration");
  }
  expect(TokenKind::RBrace, "to close member list");
  RT->complete(std::move(Fields));
  return RT;
}

const Type *Parser::parseEnumSpecifier() {
  consume(); // 'enum'
  if (at(TokenKind::Identifier))
    consume(); // tag (all enums are int; the tag carries no extra meaning)
  if (tryConsume(TokenKind::LBrace)) {
    long NextValue = 0;
    while (!at(TokenKind::RBrace) && !at(TokenKind::Eof)) {
      if (!at(TokenKind::Identifier)) {
        Actions.diags().error(loc(), "expected enumerator name");
        break;
      }
      std::string_view Name = Actions.arena().copyString(tok().Text);
      SourceLocation NameLoc = loc();
      consume();
      if (tryConsume(TokenKind::Equal)) {
        Expr *E = parseConditional();
        NextValue = Actions.evaluateIntConstant(E, NameLoc);
      }
      Actions.declareEnumConstant(Name, NextValue);
      ++NextValue;
      if (!tryConsume(TokenKind::Comma))
        break;
    }
    expect(TokenKind::RBrace, "to close enumerator list");
  }
  return Actions.types().intType();
}

//===----------------------------------------------------------------------===//
// Declarators
//===----------------------------------------------------------------------===//

void Parser::parseDeclaratorSyntax(DeclaratorInfo &D, bool Abstract) {
  unsigned Stars = 0;
  while (tryConsume(TokenKind::Star)) {
    while (tryConsume(TokenKind::KwConst) || tryConsume(TokenKind::KwVolatile))
      ;
    ++Stars;
  }
  parseDirectDeclarator(D, Abstract);
  for (unsigned I = 0; I < Stars; ++I)
    D.Chunks.push_back({DeclaratorChunk::CK_Pointer, 0, {}, false});
}

void Parser::parseDirectDeclarator(DeclaratorInfo &D, bool Abstract) {
  if (at(TokenKind::LParen)) {
    // Grouping paren vs. function-parameter paren: a grouping paren is
    // followed by '*', '(' or a non-typedef identifier.
    const Token &Next = tok(1);
    bool Grouping =
        Next.is(TokenKind::Star) || Next.is(TokenKind::LParen) ||
        (Next.is(TokenKind::Identifier) && !Actions.isTypedefName(Next.Text));
    if (Grouping) {
      consume();
      parseDeclaratorSyntax(D, Abstract);
      expect(TokenKind::RParen, "to close declarator");
      parseDeclaratorSuffixes(D);
      return;
    }
  }
  if (at(TokenKind::Identifier)) {
    D.Name = Actions.arena().copyString(tok().Text);
    D.NameLoc = loc();
    consume();
  } else if (!Abstract) {
    // Name required; caller diagnoses via the empty name.
  }
  parseDeclaratorSuffixes(D);
}

void Parser::parseDeclaratorSuffixes(DeclaratorInfo &D) {
  while (true) {
    if (tryConsume(TokenKind::LBracket)) {
      uint64_t Size = 0;
      if (!at(TokenKind::RBracket)) {
        SourceLocation SizeLoc = loc();
        Expr *E = parseConditional();
        long V = Actions.evaluateIntConstant(E, SizeLoc);
        if (V < 0) {
          Actions.diags().error(SizeLoc, "negative array size");
          V = 0;
        }
        Size = static_cast<uint64_t>(V);
      }
      expect(TokenKind::RBracket, "to close array bound");
      D.Chunks.push_back({DeclaratorChunk::CK_Array, Size, {}, false});
      continue;
    }
    if (at(TokenKind::LParen)) {
      consume();
      DeclaratorChunk Chunk{DeclaratorChunk::CK_Function, 0, {}, false};
      Chunk.Params = parseParameterList(Chunk.Variadic);
      expect(TokenKind::RParen, "to close parameter list");
      D.Chunks.push_back(std::move(Chunk));
      continue;
    }
    return;
  }
}

std::vector<Parser::ParamInfo> Parser::parseParameterList(bool &Variadic) {
  Variadic = false;
  std::vector<ParamInfo> Params;
  if (at(TokenKind::RParen))
    return Params;
  if (at(TokenKind::KwVoid) && tok(1).is(TokenKind::RParen)) {
    consume();
    return Params;
  }
  while (true) {
    if (tryConsume(TokenKind::Ellipsis)) {
      Variadic = true;
      break;
    }
    StorageClass SC;
    const Type *Base = parseDeclSpecifiers(SC);
    if (!Base) {
      Actions.diags().error(loc(), "expected parameter type");
      break;
    }
    DeclaratorInfo D;
    parseDeclaratorSyntax(D, /*Abstract=*/true);
    const Type *Ty = buildDeclaratorType(Base, D);
    // Parameter type adjustments.
    if (const auto *AT = dyn_cast<ArrayType>(Ty))
      Ty = Actions.types().pointerTo(AT->element());
    else if (Ty->isFunction())
      Ty = Actions.types().pointerTo(Ty);
    Params.push_back({D.Name, D.NameLoc.isValid() ? D.NameLoc : loc(), Ty});
    if (!tryConsume(TokenKind::Comma))
      break;
  }
  return Params;
}

const Type *Parser::buildDeclaratorType(const Type *Base,
                                        const DeclaratorInfo &D) {
  TypeContext &Types = Actions.types();
  const Type *Ty = Base;
  for (auto It = D.Chunks.rbegin(), E = D.Chunks.rend(); It != E; ++It) {
    switch (It->Kind) {
    case DeclaratorChunk::CK_Pointer:
      Ty = Types.pointerTo(Ty);
      break;
    case DeclaratorChunk::CK_Array:
      Ty = Types.arrayOf(Ty, It->ArraySize);
      break;
    case DeclaratorChunk::CK_Function: {
      std::vector<const Type *> ParamTypes;
      for (const ParamInfo &P : It->Params)
        ParamTypes.push_back(P.Ty);
      Ty = Types.function(Ty, std::move(ParamTypes), It->Variadic);
      break;
    }
    }
  }
  return Ty;
}

const Type *Parser::parseTypeName() {
  StorageClass SC;
  const Type *Base = parseDeclSpecifiers(SC);
  if (!Base) {
    Actions.diags().error(loc(), "expected type name");
    return Actions.types().intType();
  }
  DeclaratorInfo D;
  parseDeclaratorSyntax(D, /*Abstract=*/true);
  if (!D.Name.empty())
    Actions.diags().error(D.NameLoc, "unexpected name in type name");
  return buildDeclaratorType(Base, D);
}

bool Parser::startsTypeName(unsigned Ahead) const {
  return isTypeSpecifierStart(tok(Ahead));
}

//===----------------------------------------------------------------------===//
// External declarations
//===----------------------------------------------------------------------===//

void Parser::parseExternalDeclaration(TranslationUnit &TU) {
  StorageClass SC;
  const Type *Base = parseDeclSpecifiers(SC);
  if (!Base) {
    Actions.diags().error(loc(), "expected declaration");
    return;
  }
  if (tryConsume(TokenKind::Semi))
    return; // bare struct/union/enum declaration

  bool First = true;
  while (true) {
    DeclaratorInfo D;
    parseDeclaratorSyntax(D, /*Abstract=*/false);
    if (D.Name.empty()) {
      Actions.diags().error(loc(), "expected declarator name");
      break;
    }
    const Type *Ty = buildDeclaratorType(Base, D);

    if (First && Ty->isFunction() && at(TokenKind::LBrace)) {
      parseFunctionDefinition(TU, Base, D);
      return;
    }
    First = false;

    if (SC == StorageClass::Typedef) {
      auto *TD = Actions.arena().create<TypedefDecl>(D.Name, D.NameLoc, Ty);
      Actions.declareTypedef(TD);
      TU.Decls.push_back(TD);
    } else if (const auto *FT = dyn_cast<FunctionType>(Ty)) {
      // Function prototype.
      Decl *Existing = Actions.lookupOrdinary(D.Name);
      if (!Existing || !isa<FunctionDecl>(Existing)) {
        std::vector<VarDecl *> ParamDecls;
        const auto &Chunk = D.Chunks.front();
        for (const ParamInfo &P : Chunk.Params)
          ParamDecls.push_back(Actions.arena().create<VarDecl>(
              P.Name, P.Loc, P.Ty, VarDecl::Storage::Param));
        auto *FD = Actions.arena().create<FunctionDecl>(
            D.Name, D.NameLoc, FT, Actions.arena().copyArray(ParamDecls));
        Actions.declareFunction(FD);
        TU.Decls.push_back(FD);
      }
    } else {
      auto *VD = Actions.arena().create<VarDecl>(D.Name, D.NameLoc, Ty,
                                                 VarDecl::Storage::Global);
      parseInitializer(VD);
      Actions.declareVar(VD);
      TU.Decls.push_back(VD);
    }
    if (!tryConsume(TokenKind::Comma))
      break;
  }
  expect(TokenKind::Semi, "after declaration");
}

void Parser::parseFunctionDefinition(TranslationUnit &TU, const Type *RetBase,
                                     const DeclaratorInfo &D) {
  const Type *Ty = buildDeclaratorType(RetBase, D);
  const auto *FT = cast<FunctionType>(Ty);
  assert(!D.Chunks.empty() &&
         D.Chunks.front().Kind == DeclaratorChunk::CK_Function &&
         "definition declarator has no function chunk");

  std::vector<VarDecl *> ParamDecls;
  for (const ParamInfo &P : D.Chunks.front().Params) {
    if (P.Name.empty())
      Actions.diags().error(P.Loc, "parameter name omitted in definition");
    ParamDecls.push_back(Actions.arena().create<VarDecl>(
        P.Name, P.Loc, P.Ty, VarDecl::Storage::Param));
  }

  FunctionDecl *FD = nullptr;
  if (Decl *Existing = Actions.lookupOrdinary(D.Name))
    FD = dyn_cast<FunctionDecl>(Existing);
  if (FD) {
    if (FD->body())
      Actions.diags().error(D.NameLoc,
                            "redefinition of '" + std::string(D.Name) + "'");
    FD->setType(FT);
    FD->setParams(Actions.arena().copyArray(ParamDecls));
  } else {
    FD = Actions.arena().create<FunctionDecl>(
        D.Name, D.NameLoc, FT, Actions.arena().copyArray(ParamDecls));
    Actions.declareFunction(FD);
    TU.Decls.push_back(FD);
  }

  Actions.pushScope();
  for (VarDecl *P : FD->params())
    if (!P->name().empty())
      Actions.declareVar(P);
  const Type *SavedRet = CurFnRetTy;
  CurFnRetTy = FT->returnType();
  CompoundStmt *Body = parseCompoundStatement();
  CurFnRetTy = SavedRet;
  FD->setBody(Body);
  Actions.popScope();
}

Expr *Parser::parseInitializer(VarDecl *VD) {
  if (!tryConsume(TokenKind::Equal))
    return nullptr;
  if (at(TokenKind::LBrace)) {
    Actions.diags().error(loc(), "brace initializers are not supported");
    // Skip the balanced braces for recovery.
    int Depth = 0;
    do {
      if (at(TokenKind::LBrace))
        ++Depth;
      else if (at(TokenKind::RBrace))
        --Depth;
      consume();
    } while (Depth > 0 && !at(TokenKind::Eof));
    return nullptr;
  }
  SourceLocation InitLoc = loc();
  Expr *E = parseAssignment();
  // `char buf[] = "text"` / `char buf[N] = "text"`.
  bool StringInit = false;
  if (const auto *AT = dyn_cast<ArrayType>(VD->type())) {
    if (AT->element()->size() == 1)
      if (auto *SL = dyn_cast<StringLiteralExpr>(E->ignoreParens())) {
        StringInit = true;
        if (AT->numElements() == 0)
          VD->setType(
              Actions.types().arrayOf(AT->element(), SL->value().size() + 1));
        else if (AT->numElements() < SL->value().size() + 1)
          Actions.diags().error(InitLoc, "string literal longer than array");
      }
  }
  if (!StringInit)
    E = Actions.convertTo(E, VD->type(), InitLoc);
  VD->setInit(E);
  return E;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

Stmt *Parser::parseLocalDeclaration() {
  SourceLocation DeclLoc = loc();
  StorageClass SC;
  const Type *Base = parseDeclSpecifiers(SC);
  if (!Base) {
    Actions.diags().error(loc(), "expected declaration");
    return Actions.arena().create<ExprStmt>(nullptr, DeclLoc);
  }
  std::vector<VarDecl *> Vars;
  if (!at(TokenKind::Semi)) {
    do {
      DeclaratorInfo D;
      parseDeclaratorSyntax(D, /*Abstract=*/false);
      if (D.Name.empty()) {
        Actions.diags().error(loc(), "expected declarator name");
        break;
      }
      const Type *Ty = buildDeclaratorType(Base, D);
      if (SC == StorageClass::Typedef) {
        auto *TD = Actions.arena().create<TypedefDecl>(D.Name, D.NameLoc, Ty);
        Actions.declareTypedef(TD);
        continue;
      }
      if (Ty->isFunction())
        continue; // local prototypes: accept and ignore
      auto *VD = Actions.arena().create<VarDecl>(D.Name, D.NameLoc, Ty,
                                                 VarDecl::Storage::Local);
      parseInitializer(VD);
      Actions.declareVar(VD);
      Vars.push_back(VD);
    } while (tryConsume(TokenKind::Comma));
  }
  expect(TokenKind::Semi, "after declaration");
  return Actions.arena().create<DeclStmt>(Actions.arena().copyArray(Vars),
                                          DeclLoc);
}

CompoundStmt *Parser::parseCompoundStatement() {
  SourceLocation LBraceLoc = loc();
  expect(TokenKind::LBrace, "to open block");
  std::vector<Stmt *> Body;
  while (!at(TokenKind::RBrace) && !at(TokenKind::Eof)) {
    size_t Before = Index;
    Body.push_back(parseStatement());
    if (Index == Before)
      consume();
  }
  expect(TokenKind::RBrace, "to close block");
  return Actions.arena().create<CompoundStmt>(
      Actions.arena().copyArray(Body), LBraceLoc);
}

Stmt *Parser::parseStatement() {
  Arena &A = Actions.arena();
  SourceLocation StmtLoc = loc();
  switch (tok().Kind) {
  case TokenKind::LBrace: {
    Actions.pushScope();
    CompoundStmt *CS = parseCompoundStatement();
    Actions.popScope();
    return CS;
  }
  case TokenKind::KwIf: {
    consume();
    expect(TokenKind::LParen, "after 'if'");
    Expr *Cond = Actions.checkCondition(parseExpression(), StmtLoc);
    expect(TokenKind::RParen, "after condition");
    Stmt *Then = parseStatement();
    Stmt *Else = nullptr;
    if (tryConsume(TokenKind::KwElse))
      Else = parseStatement();
    return A.create<IfStmt>(Cond, Then, Else, StmtLoc);
  }
  case TokenKind::KwWhile: {
    consume();
    expect(TokenKind::LParen, "after 'while'");
    Expr *Cond = Actions.checkCondition(parseExpression(), StmtLoc);
    expect(TokenKind::RParen, "after condition");
    Stmt *Body = parseStatement();
    return A.create<WhileStmt>(Cond, Body, StmtLoc);
  }
  case TokenKind::KwDo: {
    consume();
    Stmt *Body = parseStatement();
    expect(TokenKind::KwWhile, "after do-body");
    expect(TokenKind::LParen, "after 'while'");
    Expr *Cond = Actions.checkCondition(parseExpression(), StmtLoc);
    expect(TokenKind::RParen, "after condition");
    expect(TokenKind::Semi, "after do-while");
    return A.create<DoStmt>(Body, Cond, StmtLoc);
  }
  case TokenKind::KwFor: {
    consume();
    expect(TokenKind::LParen, "after 'for'");
    Actions.pushScope();
    Stmt *Init = nullptr;
    if (tryConsume(TokenKind::Semi)) {
      // no init
    } else if (isDeclarationStart()) {
      Init = parseLocalDeclaration();
    } else {
      Expr *E = parseExpression();
      expect(TokenKind::Semi, "after for-init");
      Init = A.create<ExprStmt>(E, StmtLoc);
    }
    Expr *Cond = nullptr;
    if (!at(TokenKind::Semi))
      Cond = Actions.checkCondition(parseExpression(), StmtLoc);
    expect(TokenKind::Semi, "after for-condition");
    Expr *Inc = nullptr;
    if (!at(TokenKind::RParen))
      Inc = parseExpression();
    expect(TokenKind::RParen, "after for-increment");
    Stmt *Body = parseStatement();
    Actions.popScope();
    return A.create<ForStmt>(Init, Cond, Inc, Body, StmtLoc);
  }
  case TokenKind::KwReturn: {
    consume();
    Expr *Value = nullptr;
    if (!at(TokenKind::Semi)) {
      Value = parseExpression();
      if (CurFnRetTy && !CurFnRetTy->isVoid())
        Value = Actions.convertTo(Value, CurFnRetTy, StmtLoc);
      else
        Value = Actions.decay(Value);
    }
    expect(TokenKind::Semi, "after return");
    return A.create<ReturnStmt>(Value, StmtLoc);
  }
  case TokenKind::KwBreak:
    consume();
    expect(TokenKind::Semi, "after 'break'");
    return A.create<BreakStmt>(StmtLoc);
  case TokenKind::KwContinue:
    consume();
    expect(TokenKind::Semi, "after 'continue'");
    return A.create<ContinueStmt>(StmtLoc);
  case TokenKind::KwSwitch: {
    consume();
    expect(TokenKind::LParen, "after 'switch'");
    Expr *Cond = parseExpression();
    Cond = Actions.decay(Cond);
    expect(TokenKind::RParen, "after switch condition");
    Stmt *Body = parseStatement();
    return A.create<SwitchStmt>(Cond, Body, StmtLoc);
  }
  case TokenKind::KwCase: {
    consume();
    SourceLocation CaseLoc = StmtLoc;
    Expr *E = parseConditional();
    long Value = Actions.evaluateIntConstant(E, CaseLoc);
    expect(TokenKind::Colon, "after case value");
    Stmt *Sub = parseStatement();
    return A.create<CaseStmt>(Value, Sub, CaseLoc);
  }
  case TokenKind::KwDefault: {
    consume();
    expect(TokenKind::Colon, "after 'default'");
    Stmt *Sub = parseStatement();
    return A.create<DefaultStmt>(Sub, StmtLoc);
  }
  case TokenKind::KwGoto:
    Actions.diags().error(StmtLoc, "'goto' is not supported");
    while (!at(TokenKind::Semi) && !at(TokenKind::Eof))
      consume();
    tryConsume(TokenKind::Semi);
    return A.create<ExprStmt>(nullptr, StmtLoc);
  case TokenKind::Semi:
    consume();
    return A.create<ExprStmt>(nullptr, StmtLoc);
  default:
    if (isDeclarationStart())
      return parseLocalDeclaration();
    Expr *E = parseExpression();
    expect(TokenKind::Semi, "after expression");
    return A.create<ExprStmt>(E, StmtLoc);
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expr *Parser::parseExpression() {
  uint32_t B = begin();
  Expr *LHS = parseAssignment();
  while (at(TokenKind::Comma)) {
    SourceLocation OpLoc = loc();
    consume();
    Expr *RHS = parseAssignment();
    LHS = Actions.actOnBinary(BinaryOp::Comma, LHS, RHS, rangeFrom(B), OpLoc);
  }
  return LHS;
}

static bool assignOpForToken(TokenKind Kind, AssignOp &Op) {
  switch (Kind) {
  case TokenKind::Equal: Op = AssignOp::Assign; return true;
  case TokenKind::PlusEqual: Op = AssignOp::AddAssign; return true;
  case TokenKind::MinusEqual: Op = AssignOp::SubAssign; return true;
  case TokenKind::StarEqual: Op = AssignOp::MulAssign; return true;
  case TokenKind::SlashEqual: Op = AssignOp::DivAssign; return true;
  case TokenKind::PercentEqual: Op = AssignOp::RemAssign; return true;
  case TokenKind::LessLessEqual: Op = AssignOp::ShlAssign; return true;
  case TokenKind::GreaterGreaterEqual: Op = AssignOp::ShrAssign; return true;
  case TokenKind::AmpEqual: Op = AssignOp::AndAssign; return true;
  case TokenKind::CaretEqual: Op = AssignOp::XorAssign; return true;
  case TokenKind::PipeEqual: Op = AssignOp::OrAssign; return true;
  default: return false;
  }
}

Expr *Parser::parseAssignment() {
  uint32_t B = begin();
  Expr *LHS = parseConditional();
  AssignOp Op;
  if (!assignOpForToken(tok().Kind, Op))
    return LHS;
  SourceLocation OpLoc = loc();
  consume();
  Expr *RHS = parseAssignment();
  return Actions.actOnAssign(Op, LHS, RHS, rangeFrom(B), OpLoc);
}

Expr *Parser::parseConditional() {
  uint32_t B = begin();
  Expr *Cond = parseBinary(1);
  if (!at(TokenKind::Question))
    return Cond;
  SourceLocation OpLoc = loc();
  consume();
  Expr *Then = parseExpression();
  expect(TokenKind::Colon, "in conditional expression");
  Expr *Else = parseConditional();
  return Actions.actOnConditional(Cond, Then, Else, rangeFrom(B), OpLoc);
}

namespace {
struct BinOpInfo {
  int Prec;
  BinaryOp Op;
};

bool binaryOpForToken(TokenKind Kind, BinOpInfo &Info) {
  switch (Kind) {
  case TokenKind::PipePipe: Info = {1, BinaryOp::LogicalOr}; return true;
  case TokenKind::AmpAmp: Info = {2, BinaryOp::LogicalAnd}; return true;
  case TokenKind::Pipe: Info = {3, BinaryOp::BitOr}; return true;
  case TokenKind::Caret: Info = {4, BinaryOp::BitXor}; return true;
  case TokenKind::Amp: Info = {5, BinaryOp::BitAnd}; return true;
  case TokenKind::EqualEqual: Info = {6, BinaryOp::Eq}; return true;
  case TokenKind::ExclaimEqual: Info = {6, BinaryOp::Ne}; return true;
  case TokenKind::Less: Info = {7, BinaryOp::Lt}; return true;
  case TokenKind::Greater: Info = {7, BinaryOp::Gt}; return true;
  case TokenKind::LessEqual: Info = {7, BinaryOp::Le}; return true;
  case TokenKind::GreaterEqual: Info = {7, BinaryOp::Ge}; return true;
  case TokenKind::LessLess: Info = {8, BinaryOp::Shl}; return true;
  case TokenKind::GreaterGreater: Info = {8, BinaryOp::Shr}; return true;
  case TokenKind::Plus: Info = {9, BinaryOp::Add}; return true;
  case TokenKind::Minus: Info = {9, BinaryOp::Sub}; return true;
  case TokenKind::Star: Info = {10, BinaryOp::Mul}; return true;
  case TokenKind::Slash: Info = {10, BinaryOp::Div}; return true;
  case TokenKind::Percent: Info = {10, BinaryOp::Rem}; return true;
  default: return false;
  }
}
} // namespace

Expr *Parser::parseBinary(int MinPrec) {
  uint32_t B = begin();
  Expr *LHS = parseCastExpression();
  while (true) {
    BinOpInfo Info;
    if (!binaryOpForToken(tok().Kind, Info) || Info.Prec < MinPrec)
      return LHS;
    SourceLocation OpLoc = loc();
    consume();
    Expr *RHS = parseBinary(Info.Prec + 1);
    LHS = Actions.actOnBinary(Info.Op, LHS, RHS, rangeFrom(B), OpLoc);
  }
}

Expr *Parser::parseCastExpression() {
  if (at(TokenKind::LParen) && startsTypeName(1)) {
    uint32_t B = begin();
    SourceLocation CastLoc = loc();
    consume();
    const Type *Ty = parseTypeName();
    expect(TokenKind::RParen, "after cast type");
    Expr *Sub = parseCastExpression();
    return Actions.actOnExplicitCast(Ty, Sub, rangeFrom(B), CastLoc);
  }
  return parseUnary();
}

Expr *Parser::parseUnary() {
  uint32_t B = begin();
  SourceLocation OpLoc = loc();
  switch (tok().Kind) {
  case TokenKind::PlusPlus: {
    consume();
    Expr *Sub = parseUnary();
    return Actions.actOnUnary(UnaryOp::PreInc, Sub, rangeFrom(B), OpLoc);
  }
  case TokenKind::MinusMinus: {
    consume();
    Expr *Sub = parseUnary();
    return Actions.actOnUnary(UnaryOp::PreDec, Sub, rangeFrom(B), OpLoc);
  }
  case TokenKind::Amp: {
    consume();
    Expr *Sub = parseCastExpression();
    return Actions.actOnUnary(UnaryOp::AddrOf, Sub, rangeFrom(B), OpLoc);
  }
  case TokenKind::Star: {
    consume();
    Expr *Sub = parseCastExpression();
    return Actions.actOnUnary(UnaryOp::Deref, Sub, rangeFrom(B), OpLoc);
  }
  case TokenKind::Plus: {
    consume();
    Expr *Sub = parseCastExpression();
    return Actions.actOnUnary(UnaryOp::Plus, Sub, rangeFrom(B), OpLoc);
  }
  case TokenKind::Minus: {
    consume();
    Expr *Sub = parseCastExpression();
    return Actions.actOnUnary(UnaryOp::Minus, Sub, rangeFrom(B), OpLoc);
  }
  case TokenKind::Tilde: {
    consume();
    Expr *Sub = parseCastExpression();
    return Actions.actOnUnary(UnaryOp::BitNot, Sub, rangeFrom(B), OpLoc);
  }
  case TokenKind::Exclaim: {
    consume();
    Expr *Sub = parseCastExpression();
    return Actions.actOnUnary(UnaryOp::LogicalNot, Sub, rangeFrom(B), OpLoc);
  }
  case TokenKind::KwSizeof: {
    consume();
    if (at(TokenKind::LParen) && startsTypeName(1)) {
      consume();
      const Type *Ty = parseTypeName();
      expect(TokenKind::RParen, "after sizeof type");
      return Actions.actOnSizeOf(Ty, rangeFrom(B), OpLoc);
    }
    Expr *Sub = parseUnary();
    return Actions.actOnSizeOf(Sub->type(), rangeFrom(B), OpLoc);
  }
  default:
    return parsePostfix();
  }
}

Expr *Parser::parsePostfix() {
  uint32_t B = begin();
  Expr *E = parsePrimary();
  while (true) {
    switch (tok().Kind) {
    case TokenKind::LParen: {
      SourceLocation CallLoc = loc();
      consume();
      std::vector<Expr *> Args;
      if (!at(TokenKind::RParen)) {
        do {
          Args.push_back(parseAssignment());
        } while (tryConsume(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "to close call");
      E = Actions.actOnCall(E, std::move(Args), rangeFrom(B), CallLoc);
      break;
    }
    case TokenKind::LBracket: {
      SourceLocation SubLoc = loc();
      consume();
      Expr *Idx = parseExpression();
      expect(TokenKind::RBracket, "to close subscript");
      E = Actions.actOnIndex(E, Idx, rangeFrom(B), SubLoc);
      break;
    }
    case TokenKind::Period:
    case TokenKind::Arrow: {
      bool IsArrow = at(TokenKind::Arrow);
      consume();
      if (!at(TokenKind::Identifier)) {
        Actions.diags().error(loc(), "expected member name");
        return E;
      }
      Token NameTok = tok();
      consume();
      E = Actions.actOnMember(E, NameTok, IsArrow, rangeFrom(B));
      break;
    }
    case TokenKind::PlusPlus: {
      SourceLocation OpLoc = loc();
      consume();
      E = Actions.actOnUnary(UnaryOp::PostInc, E, rangeFrom(B), OpLoc);
      break;
    }
    case TokenKind::MinusMinus: {
      SourceLocation OpLoc = loc();
      consume();
      E = Actions.actOnUnary(UnaryOp::PostDec, E, rangeFrom(B), OpLoc);
      break;
    }
    default:
      return E;
    }
  }
}

Expr *Parser::parsePrimary() {
  switch (tok().Kind) {
  case TokenKind::IntLiteral: {
    Token T = tok();
    consume();
    return Actions.actOnIntLiteral(T);
  }
  case TokenKind::FloatLiteral: {
    Token T = tok();
    consume();
    return Actions.actOnFloatLiteral(T);
  }
  case TokenKind::CharLiteral: {
    Token T = tok();
    consume();
    return Actions.actOnCharLiteral(T);
  }
  case TokenKind::StringLiteral: {
    Token T = tok();
    consume();
    return Actions.actOnStringLiteral(T);
  }
  case TokenKind::Identifier: {
    Token T = tok();
    consume();
    return Actions.actOnDeclRef(T);
  }
  case TokenKind::LParen: {
    uint32_t B = begin();
    consume();
    Expr *E = parseExpression();
    expect(TokenKind::RParen, "to close parenthesized expression");
    return Actions.actOnParen(E, rangeFrom(B));
  }
  default:
    Actions.diags().error(loc(), std::string("expected expression, found ") +
                                     tokenKindName(tok().Kind));
    Expr *Err = Actions.makeIntLiteral(0, Actions.types().intType(),
                                       SourceRange(begin(), begin()));
    return Err;
  }
}
