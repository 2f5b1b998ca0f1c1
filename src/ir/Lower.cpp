//===- ir/Lower.cpp -------------------------------------------*- C++ -*-===//

#include "ir/Lower.h"

#include <cassert>
#include <cstring>
#include <unordered_map>

using namespace gcsafe;
using namespace gcsafe::ir;
using namespace gcsafe::cfront;
using annotate::Annotation;
using annotate::BaseKind;

namespace {

Builtin builtinByName(std::string_view Name) {
  if (Name == "gc_malloc") return Builtin::GcMalloc;
  if (Name == "gc_malloc_atomic") return Builtin::GcMallocAtomic;
  if (Name == "gc_collect") return Builtin::GcCollect;
  if (Name == "malloc") return Builtin::Malloc;
  if (Name == "calloc") return Builtin::Calloc;
  if (Name == "realloc") return Builtin::Realloc;
  if (Name == "free") return Builtin::Free;
  if (Name == "print_int") return Builtin::PrintInt;
  if (Name == "print_char") return Builtin::PrintChar;
  if (Name == "print_str") return Builtin::PrintStr;
  if (Name == "print_double") return Builtin::PrintDouble;
  if (Name == "assert_true") return Builtin::AssertTrue;
  if (Name == "rand_seed") return Builtin::RandSeed;
  if (Name == "rand_next") return Builtin::RandNext;
  if (Name == "GC_same_obj") return Builtin::SameObj;
  if (Name == "GC_pre_incr") return Builtin::PreIncr;
  if (Name == "GC_post_incr") return Builtin::PostIncr;
  return Builtin::None;
}

/// Function "pointers" are encoded as small tagged integers the VM decodes
/// on indirect calls; they can never collide with heap addresses.
int64_t functionPointerValue(int32_t Index) { return 0x10000 + Index; }

/// Collects variables whose address is taken (they must live in memory).
void collectAddressTakenExpr(const Expr *E,
                             std::unordered_map<const VarDecl *, bool> &Out) {
  if (const auto *UE = dyn_cast<UnaryExpr>(E)) {
    if (UE->op() == UnaryOp::AddrOf) {
      // Find the root variable of the lvalue chain a.b.c / a[i] (not
      // through pointers: p->x addresses the pointee, not p).
      const Expr *L = UE->sub()->ignoreParens();
      while (true) {
        if (const auto *ME = dyn_cast<MemberExpr>(L)) {
          if (ME->isArrow())
            break;
          L = ME->base()->ignoreParens();
          continue;
        }
        break;
      }
      if (const auto *DRE = dyn_cast<DeclRefExpr>(L))
        if (const VarDecl *VD = DRE->varDecl())
          Out[VD] = true;
    }
  }
  forEachChild(E,
               [&](const Expr *Child) { collectAddressTakenExpr(Child, Out); });
}

void collectAddressTakenStmt(const Stmt *S,
                             std::unordered_map<const VarDecl *, bool> &Out) {
  forEachChild(S, [&](const Stmt *Sub) { collectAddressTakenStmt(Sub, Out); },
               [&](const Expr *E) { collectAddressTakenExpr(E, Out); });
}

//===----------------------------------------------------------------------===//
// Module-level lowering context
//===----------------------------------------------------------------------===//

class ModuleLowering {
public:
  ModuleLowering(const LowerOptions &Opts, DiagnosticsEngine &Diags)
      : Opts(Opts), Diags(Diags) {}

  Module run(const TranslationUnit &TU);

  const LowerOptions &options() const { return Opts; }
  DiagnosticsEngine &diags() { return Diags; }

  int32_t functionIndex(const FunctionDecl *FD) const {
    auto It = FunctionIndices.find(FD);
    return It == FunctionIndices.end() ? -1 : It->second;
  }

  /// Returns the globals-area offset of \p VD (which must be global).
  uint64_t globalOffset(const VarDecl *VD) {
    auto It = GlobalOffsets.find(VD);
    assert(It != GlobalOffsets.end() && "unregistered global");
    return It->second;
  }

  /// Interns a string literal and returns its globals-area offset.
  uint64_t internString(std::string_view Text);

  Module M;

private:
  uint64_t addGlobal(std::string Name, uint64_t Size, bool PointerFree,
                     std::vector<char> Init);

  const LowerOptions &Opts;
  DiagnosticsEngine &Diags;
  std::unordered_map<const FunctionDecl *, int32_t> FunctionIndices;
  std::unordered_map<const VarDecl *, uint64_t> GlobalOffsets;
  std::unordered_map<std::string, uint64_t> StringPool;
  uint64_t GlobalsSize = 0;

  friend class FunctionLowering;
};

//===----------------------------------------------------------------------===//
// Function-level lowering
//===----------------------------------------------------------------------===//

class FunctionLowering {
public:
  FunctionLowering(ModuleLowering &ML, Function &F)
      : ML(ML), Opts(ML.options()), F(F) {}

  void lowerBody(const FunctionDecl *FD);
  /// Lowers global-variable initializers into the synthetic init function.
  void lowerGlobalInits(const std::vector<const VarDecl *> &Globals);

private:
  struct VarLoc {
    bool InMemory = false;
    uint32_t Reg = NoReg;
    uint64_t FrameOffset = 0;
  };

  //--- block plumbing -----------------------------------------------------

  uint32_t newBlock(std::string Name) {
    F.Blocks.push_back(BasicBlock{std::move(Name), {}});
    return static_cast<uint32_t>(F.Blocks.size() - 1);
  }
  void setBlock(uint32_t B) { Cur = B; }
  Instruction &emit(Instruction I) {
    if (I.Loc == ~0u)
      I.Loc = CurLoc;
    F.Blocks[Cur].Insts.push_back(std::move(I));
    return F.Blocks[Cur].Insts.back();
  }
  bool blockTerminated() const {
    const auto &Insts = F.Blocks[Cur].Insts;
    return !Insts.empty() && Insts.back().isTerminator();
  }
  void jumpTo(uint32_t B) {
    if (!blockTerminated()) {
      Instruction I;
      I.Op = Opcode::Jmp;
      I.Blk1 = B;
      emit(std::move(I));
    }
  }

  Value emitBin(Opcode Op, Value A, Value B) {
    Instruction I;
    I.Op = Op;
    I.Dst = F.newReg();
    I.A = A;
    I.B = B;
    emit(std::move(I));
    return Value::reg(F.Blocks[Cur].Insts.back().Dst);
  }
  Value emitUn(Opcode Op, Value A) {
    Instruction I;
    I.Op = Op;
    I.Dst = F.newReg();
    I.A = A;
    emit(std::move(I));
    return Value::reg(F.Blocks[Cur].Insts.back().Dst);
  }
  Value emitMov(Value A) { return emitUn(Opcode::Mov, A); }
  void emitMovTo(uint32_t Dst, Value A) {
    Instruction I;
    I.Op = Opcode::Mov;
    I.Dst = Dst;
    I.A = A;
    emit(std::move(I));
  }

  //--- variables and memory -----------------------------------------------

  VarLoc &locate(const VarDecl *VD);
  uint64_t allocFrameSlot(uint64_t Size, uint64_t Align) {
    F.FrameSize = (F.FrameSize + Align - 1) & ~(Align - 1);
    uint64_t Off = F.FrameSize;
    F.FrameSize += Size;
    return Off;
  }

  Value readVar(const VarDecl *VD);
  void writeVar(const VarDecl *VD, Value V);
  Value varAddress(const VarDecl *VD);

  Value emitLoad(Value Addr, const Type *Ty);
  void emitStore(Value Addr, Value V, const Type *Ty);
  void emitAggregateCopy(Value DstAddr, Value SrcAddr, uint64_t Size);

  /// Narrows a value to the width of \p Ty (when assigning to sub-long
  /// integer variables) so later comparisons behave like C.
  Value narrowTo(Value V, const Type *Ty);

  //--- safety -------------------------------------------------------------

  Value baseValue(const annotate::BaseResult &B, Value Fallback);
  Value emitSafetyWrap(Value V, Value BaseV);
  Value applyAnnotation(const Expr *E, Value V);
  Value applyAddrAnnotation(const Expr *E, Value Addr);
  Value pointerUpdateWrap(const Expr *Target, Value NewV, Value OldV);

  //--- expressions --------------------------------------------------------

  Value lowerExpr(const Expr *E);
  Value lowerExprImpl(const Expr *E);
  Value lowerLValueAddr(const Expr *E);
  Value lowerUnary(const UnaryExpr *UE);
  Value lowerBinary(const BinaryExpr *BE);
  Value lowerAssign(const AssignExpr *AE);
  Value lowerIncDec(const UnaryExpr *UE);
  Value lowerCall(const CallExpr *CE);
  Value lowerCast(const CastExpr *CE);
  Value lowerShortCircuit(const BinaryExpr *BE);
  Value lowerConditional(const ConditionalExpr *CE);
  Value scaleIndex(Value Idx, uint64_t ElemSize);
  Value lowerConditionValue(const Expr *E) { return lowerExpr(E); }

  //--- statements ---------------------------------------------------------

  void lowerStmt(const Stmt *S);
  void lowerSwitch(const SwitchStmt *SS);

  ModuleLowering &ML;
  const LowerOptions &Opts;
  Function &F;
  uint32_t Cur = 0;
  uint32_t CurLoc = ~0u; ///< Source offset of the statement being lowered.
  std::unordered_map<const VarDecl *, VarLoc> VarLocs;
  std::unordered_map<const Expr *, Value> ExprValues;
  std::vector<uint32_t> BreakTargets;
  std::vector<uint32_t> ContinueTargets;

  struct SwitchCtx {
    std::vector<std::pair<long, uint32_t>> Cases;
    int64_t DefaultBlock = -1;
  };
  std::vector<SwitchCtx> SwitchStack;
};

//===----------------------------------------------------------------------===//
// ModuleLowering implementation
//===----------------------------------------------------------------------===//

uint64_t ModuleLowering::addGlobal(std::string Name, uint64_t Size,
                                   bool PointerFree, std::vector<char> Init) {
  GlobalsSize = (GlobalsSize + 15) & ~uint64_t(15);
  GlobalVar G;
  G.Name = std::move(Name);
  G.Size = Size ? Size : 1;
  G.PointerFree = PointerFree;
  G.InitData = std::move(Init);
  G.Offset = GlobalsSize;
  GlobalsSize += G.Size;
  M.Globals.push_back(std::move(G));
  return M.Globals.back().Offset;
}

uint64_t ModuleLowering::internString(std::string_view Text) {
  std::string Key(Text);
  auto It = StringPool.find(Key);
  if (It != StringPool.end())
    return It->second;
  std::vector<char> Data(Text.begin(), Text.end());
  Data.push_back('\0');
  uint64_t DataSize = Data.size();
  uint64_t Off = addGlobal("__str" + std::to_string(StringPool.size()),
                           DataSize, /*PointerFree=*/true, std::move(Data));
  StringPool.emplace(std::move(Key), Off);
  return Off;
}

Module ModuleLowering::run(const TranslationUnit &TU) {
  // Pass 1: assign function indices and global offsets.
  std::vector<const VarDecl *> GlobalVars;
  for (const Decl *D : TU.Decls) {
    if (const auto *FD = dyn_cast<FunctionDecl>(D)) {
      if (FD->isBuiltin() || !FD->body())
        continue;
      FunctionIndices[FD] = static_cast<int32_t>(M.Functions.size());
      Function F;
      F.Name = std::string(FD->name());
      F.ReturnsValue = !FD->type()->returnType()->isVoid();
      M.Functions.push_back(std::move(F));
    } else if (const auto *VD = dyn_cast<VarDecl>(D)) {
      uint64_t Off = addGlobal(std::string(VD->name()), VD->type()->size(),
                               /*PointerFree=*/false, {});
      GlobalOffsets[VD] = Off;
      GlobalVars.push_back(VD);
    }
  }

  // Pass 2: lower function bodies.
  for (const Decl *D : TU.Decls) {
    const auto *FD = dyn_cast<FunctionDecl>(D);
    if (!FD || FD->isBuiltin() || !FD->body())
      continue;
    FunctionLowering FL(*this, M.Functions[FunctionIndices[FD]]);
    FL.lowerBody(FD);
  }

  // Pass 3: global initializers.
  bool AnyInit = false;
  for (const VarDecl *VD : GlobalVars)
    AnyInit = AnyInit || VD->init() != nullptr;
  if (AnyInit) {
    Function Init;
    Init.Name = "__globals_init";
    M.GlobalInitIndex = static_cast<int32_t>(M.Functions.size());
    M.Functions.push_back(std::move(Init));
    FunctionLowering FL(*this, M.Functions[M.GlobalInitIndex]);
    FL.lowerGlobalInits(GlobalVars);
  }

  M.MainIndex = M.findFunction("main");
  M.GlobalsSize = GlobalsSize;
  return std::move(M);
}

//===----------------------------------------------------------------------===//
// FunctionLowering: variables and memory
//===----------------------------------------------------------------------===//

FunctionLowering::VarLoc &FunctionLowering::locate(const VarDecl *VD) {
  auto It = VarLocs.find(VD);
  assert(It != VarLocs.end() && "variable not prepared");
  return It->second;
}

Value FunctionLowering::varAddress(const VarDecl *VD) {
  if (VD->isGlobal()) {
    Instruction I;
    I.Op = Opcode::AddrGlobal;
    I.Dst = F.newReg();
    I.Aux = static_cast<int64_t>(ML.globalOffset(VD));
    emit(std::move(I));
    return Value::reg(F.Blocks[Cur].Insts.back().Dst);
  }
  VarLoc &L = locate(VD);
  assert(L.InMemory && "address of register variable");
  Instruction I;
  I.Op = Opcode::AddrLocal;
  I.Dst = F.newReg();
  I.Aux = static_cast<int64_t>(L.FrameOffset);
  emit(std::move(I));
  return Value::reg(F.Blocks[Cur].Insts.back().Dst);
}

Value FunctionLowering::emitLoad(Value Addr, const Type *Ty) {
  if (Ty->isRecord() || Ty->isArray())
    return Addr; // aggregate "values" are their addresses
  Instruction I;
  I.Op = Opcode::Load;
  I.Dst = F.newReg();
  I.A = Addr;
  I.Size = static_cast<uint8_t>(Ty->size());
  I.SignedLoad = !Ty->isUnsignedInteger();
  emit(std::move(I));
  return Value::reg(F.Blocks[Cur].Insts.back().Dst);
}

void FunctionLowering::emitStore(Value Addr, Value V, const Type *Ty) {
  Instruction I;
  I.Op = Opcode::Store;
  I.A = Addr;
  I.B = V;
  I.Size = static_cast<uint8_t>(Ty->size());
  emit(std::move(I));
}

void FunctionLowering::emitAggregateCopy(Value DstAddr, Value SrcAddr,
                                         uint64_t Size) {
  // The paper: "It is currently still possible to reference or overwrite
  // other memory if C structures are accessed as a whole ... This could be
  // remedied at minimal cost with the insertion of an additional check."
  // In checked mode, verify that the last byte of each side lies in the
  // same object as the first (no-op for non-heap addresses).
  if (Opts.SafetyMode == LowerOptions::Safety::Checked && Size > 0) {
    Value DstEnd = emitBin(Opcode::Add, DstAddr, Value::imm(Size - 1));
    emitSafetyWrap(DstEnd, DstAddr);
    Value SrcEnd = emitBin(Opcode::Add, SrcAddr, Value::imm(Size - 1));
    emitSafetyWrap(SrcEnd, SrcAddr);
  }
  // Inline word-by-word copy (record assignment / initialization).
  uint64_t Off = 0;
  while (Off < Size) {
    uint64_t Chunk = Size - Off >= 8 ? 8 : 1;
    Value Src = Off ? emitBin(Opcode::Add, SrcAddr, Value::imm(Off)) : SrcAddr;
    Value Dst = Off ? emitBin(Opcode::Add, DstAddr, Value::imm(Off)) : DstAddr;
    Instruction L;
    L.Op = Opcode::Load;
    L.Dst = F.newReg();
    L.A = Src;
    L.Size = static_cast<uint8_t>(Chunk);
    emit(std::move(L));
    Value Tmp = Value::reg(F.Blocks[Cur].Insts.back().Dst);
    Instruction S;
    S.Op = Opcode::Store;
    S.A = Dst;
    S.B = Tmp;
    S.Size = static_cast<uint8_t>(Chunk);
    emit(std::move(S));
    Off += Chunk;
  }
}

Value FunctionLowering::narrowTo(Value V, const Type *Ty) {
  if (!Ty->isInteger() || Ty->size() >= 8)
    return V;
  Instruction I;
  I.Op = Ty->isUnsignedInteger() ? Opcode::ZExt : Opcode::SExt;
  I.Dst = F.newReg();
  I.A = V;
  I.Size = static_cast<uint8_t>(Ty->size());
  emit(std::move(I));
  return Value::reg(F.Blocks[Cur].Insts.back().Dst);
}

Value FunctionLowering::readVar(const VarDecl *VD) {
  if (VD->isGlobal())
    return emitLoad(varAddress(VD), VD->type());
  VarLoc &L = locate(VD);
  if (!L.InMemory)
    return Value::reg(L.Reg);
  if (VD->type()->isRecord() || VD->type()->isArray())
    return varAddress(VD);
  return emitLoad(varAddress(VD), VD->type());
}

void FunctionLowering::writeVar(const VarDecl *VD, Value V) {
  if (VD->isGlobal()) {
    emitStore(varAddress(VD), V, VD->type());
    return;
  }
  VarLoc &L = locate(VD);
  if (!L.InMemory) {
    emitMovTo(L.Reg, narrowTo(V, VD->type()));
    return;
  }
  emitStore(varAddress(VD), V, VD->type());
}

//===----------------------------------------------------------------------===//
// FunctionLowering: safety instrumentation
//===----------------------------------------------------------------------===//

Value FunctionLowering::baseValue(const annotate::BaseResult &B,
                                  Value Fallback) {
  switch (B.Kind) {
  case BaseKind::Var:
    return readVar(B.Var);
  case BaseKind::Generating: {
    auto It = ExprValues.find(B.GenExpr);
    if (It != ExprValues.end())
      return It->second;
    return Fallback;
  }
  case BaseKind::None:
    return Fallback;
  }
  return Fallback;
}

Value FunctionLowering::emitSafetyWrap(Value V, Value BaseV) {
  Instruction I;
  I.Op = Opts.SafetyMode == LowerOptions::Safety::Checked
             ? Opcode::CheckSameObj
             : Opcode::KeepLive;
  I.Dst = F.newReg();
  I.A = V;
  I.B = BaseV;
  emit(std::move(I));
  return Value::reg(F.Blocks[Cur].Insts.back().Dst);
}

Value FunctionLowering::applyAnnotation(const Expr *E, Value V) {
  if (Opts.SafetyMode == LowerOptions::Safety::None || !Opts.Annotations)
    return V;
  const Annotation *A = Opts.Annotations->find(E);
  if (!A || A->FormKind != Annotation::Form::KeepLive)
    return V;
  Value BaseV = baseValue(A->Base, V);
  return emitSafetyWrap(V, BaseV);
}

/// Wraps an e1[e2] / e->x address computation when the annotator marked it
/// (Form::AddrWrap).
Value FunctionLowering::applyAddrAnnotation(const Expr *E, Value Addr) {
  if (Opts.SafetyMode == LowerOptions::Safety::None || !Opts.Annotations)
    return Addr;
  const Annotation *A = Opts.Annotations->find(E);
  if (!A || A->FormKind != Annotation::Form::AddrWrap)
    return Addr;
  return emitSafetyWrap(Addr, baseValue(A->Base, Addr));
}

/// Wraps a pointer update (++/--/+=/-=) value: KEEP_LIVE(new, old) — or the
/// annotation's (possibly slow) base when one was recorded.
Value FunctionLowering::pointerUpdateWrap(const Expr *Target, Value NewV,
                                          Value OldV) {
  if (Opts.SafetyMode == LowerOptions::Safety::None)
    return NewV;
  Value BaseV = OldV;
  if (Opts.Annotations)
    if (const Annotation *A = Opts.Annotations->find(Target))
      if (A->Base.Kind == BaseKind::Var)
        BaseV = readVar(A->Base.Var);
  return emitSafetyWrap(NewV, BaseV);
}

//===----------------------------------------------------------------------===//
// FunctionLowering: expressions
//===----------------------------------------------------------------------===//

Value FunctionLowering::lowerExpr(const Expr *E) {
  Value V = lowerExprImpl(E);
  ExprValues[E] = V;
  if (E->type()->isObjectPointer()) {
    V = applyAnnotation(E, V);
    ExprValues[E] = V;
  }
  return V;
}

Value FunctionLowering::scaleIndex(Value Idx, uint64_t ElemSize) {
  if (ElemSize == 1)
    return Idx;
  if (Idx.isImm())
    return Value::imm(Idx.Imm * static_cast<int64_t>(ElemSize));
  return emitBin(Opcode::Mul, Idx, Value::imm(ElemSize));
}

Value FunctionLowering::lowerExprImpl(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::IntLiteral:
    return Value::imm(cast<IntLiteralExpr>(E)->value());
  case ExprKind::FloatLiteral:
    return Value::fimm(cast<FloatLiteralExpr>(E)->value());
  case ExprKind::StringLiteral: {
    Instruction I;
    I.Op = Opcode::AddrGlobal;
    I.Dst = F.newReg();
    I.Aux =
        static_cast<int64_t>(ML.internString(cast<StringLiteralExpr>(E)->value()));
    emit(std::move(I));
    return Value::reg(F.Blocks[Cur].Insts.back().Dst);
  }
  case ExprKind::DeclRef: {
    const auto *DRE = cast<DeclRefExpr>(E);
    if (const auto *FD = dyn_cast<FunctionDecl>(DRE->decl())) {
      int32_t Idx = ML.functionIndex(FD);
      if (Idx < 0) {
        ML.diags().error(SourceLocation(E->range().Begin),
                         "taking address of undefined function '" +
                             std::string(FD->name()) + "'");
        return Value::imm(0);
      }
      return Value::imm(functionPointerValue(Idx));
    }
    return readVar(cast<VarDecl>(DRE->decl()));
  }
  case ExprKind::Paren:
    return lowerExpr(cast<ParenExpr>(E)->inner());
  case ExprKind::Unary:
    return lowerUnary(cast<UnaryExpr>(E));
  case ExprKind::Binary:
    return lowerBinary(cast<BinaryExpr>(E));
  case ExprKind::Assign:
    return lowerAssign(cast<AssignExpr>(E));
  case ExprKind::Conditional:
    return lowerConditional(cast<ConditionalExpr>(E));
  case ExprKind::Call:
    return lowerCall(cast<CallExpr>(E));
  case ExprKind::Cast:
    return lowerCast(cast<CastExpr>(E));
  case ExprKind::Member:
  case ExprKind::Index: {
    Value Addr = lowerLValueAddr(E);
    return emitLoad(Addr, E->type());
  }
  }
  return Value::imm(0);
}

Value FunctionLowering::lowerLValueAddr(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Paren:
    return lowerLValueAddr(cast<ParenExpr>(E)->inner());
  case ExprKind::DeclRef: {
    const auto *DRE = cast<DeclRefExpr>(E);
    return varAddress(cast<VarDecl>(DRE->decl()));
  }
  case ExprKind::StringLiteral: {
    Instruction I;
    I.Op = Opcode::AddrGlobal;
    I.Dst = F.newReg();
    I.Aux =
        static_cast<int64_t>(ML.internString(cast<StringLiteralExpr>(E)->value()));
    emit(std::move(I));
    return Value::reg(F.Blocks[Cur].Insts.back().Dst);
  }
  case ExprKind::Unary: {
    const auto *UE = cast<UnaryExpr>(E);
    assert(UE->op() == UnaryOp::Deref && "not an lvalue unary");
    return lowerExpr(UE->sub());
  }
  case ExprKind::Member: {
    const auto *ME = cast<MemberExpr>(E);
    Value Base = ME->isArrow() ? lowerExpr(ME->base())
                               : lowerLValueAddr(ME->base());
    uint64_t Off = ME->field()->Offset;
    if (Off == 0)
      return Base;
    Value Addr = emitBin(Opcode::Add, Base, Value::imm(Off));
    return applyAddrAnnotation(E, Addr);
  }
  case ExprKind::Index: {
    const auto *IE = cast<IndexExpr>(E);
    Value Base = lowerExpr(IE->base());
    Value Idx = lowerExpr(IE->index());
    Value Off = scaleIndex(Idx, E->type()->isVoid() ? 1 : E->type()->size());
    if (Off.isImm() && Off.Imm == 0)
      return Base;
    Value Addr = emitBin(Opcode::Add, Base, Off);
    return applyAddrAnnotation(E, Addr);
  }
  default:
    ML.diags().error(SourceLocation(E->range().Begin),
                     "expression is not an addressable lvalue");
    return Value::imm(0);
  }
}

Value FunctionLowering::lowerUnary(const UnaryExpr *UE) {
  switch (UE->op()) {
  case UnaryOp::Plus:
    return lowerExpr(UE->sub());
  case UnaryOp::Minus:
    return emitUn(UE->type()->isFloating() ? Opcode::FNeg : Opcode::Neg,
                  lowerExpr(UE->sub()));
  case UnaryOp::BitNot:
    return emitUn(Opcode::Not, lowerExpr(UE->sub()));
  case UnaryOp::LogicalNot:
    if (UE->sub()->type()->isFloating())
      return emitBin(Opcode::FCmpEq, lowerExpr(UE->sub()), Value::fimm(0.0));
    return emitBin(Opcode::CmpEq, lowerExpr(UE->sub()), Value::imm(0));
  case UnaryOp::Deref: {
    Value Addr = lowerExpr(UE->sub());
    return emitLoad(Addr, UE->type());
  }
  case UnaryOp::AddrOf:
    return lowerLValueAddr(UE->sub());
  case UnaryOp::PreInc:
  case UnaryOp::PreDec:
  case UnaryOp::PostInc:
  case UnaryOp::PostDec:
    return lowerIncDec(UE);
  }
  return Value::imm(0);
}

Value FunctionLowering::lowerIncDec(const UnaryExpr *UE) {
  const Expr *Sub = UE->sub();
  const Type *Ty = UE->type();
  bool IsInc = UE->op() == UnaryOp::PreInc || UE->op() == UnaryOp::PostInc;
  bool IsPre = UE->op() == UnaryOp::PreInc || UE->op() == UnaryOp::PreDec;
  bool IsPtr = Ty->isObjectPointer();
  int64_t Step = 1;
  if (IsPtr)
    Step = static_cast<int64_t>(cast<PointerType>(Ty)->pointee()->size());
  if (!IsInc)
    Step = -Step;

  const Expr *SubStripped = Sub->ignoreParens();
  const auto *DRE = dyn_cast<DeclRefExpr>(SubStripped);
  const VarDecl *VD = DRE ? DRE->varDecl() : nullptr;
  bool RegVar = VD && !VD->isGlobal() && !locate(VD).InMemory;

  Value Old, New;
  if (RegVar) {
    Old = IsPre ? readVar(VD) : emitMov(readVar(VD));
    if (Ty->isFloating())
      New = emitBin(Opcode::FAdd, Old, Value::fimm(IsInc ? 1.0 : -1.0));
    else
      New = emitBin(Opcode::Add, Old, Value::imm(Step));
    if (IsPtr)
      New = pointerUpdateWrap(UE, New, Old);
    writeVar(VD, New);
    return IsPre ? readVar(VD) : Old;
  }

  Value Addr = lowerLValueAddr(Sub);
  Old = emitLoad(Addr, Ty);
  if (Ty->isFloating())
    New = emitBin(Opcode::FAdd, Old, Value::fimm(IsInc ? 1.0 : -1.0));
  else
    New = emitBin(Opcode::Add, Old, Value::imm(Step));
  if (IsPtr)
    New = pointerUpdateWrap(UE, New, Old);
  emitStore(Addr, narrowTo(New, Ty), Ty);
  return IsPre ? New : Old;
}

Value FunctionLowering::lowerBinary(const BinaryExpr *BE) {
  BinaryOp Op = BE->op();
  const Type *Ty = BE->type();

  if (Op == BinaryOp::LogicalAnd || Op == BinaryOp::LogicalOr)
    return lowerShortCircuit(BE);
  if (Op == BinaryOp::Comma) {
    lowerExpr(BE->lhs());
    return lowerExpr(BE->rhs());
  }

  // Pointer arithmetic.
  if (Op == BinaryOp::Add || Op == BinaryOp::Sub) {
    const Type *LT = BE->lhs()->type();
    const Type *RT = BE->rhs()->type();
    if (LT->isObjectPointer() && RT->isInteger()) {
      Value P = lowerExpr(BE->lhs());
      Value I = lowerExpr(BE->rhs());
      uint64_t Sz = cast<PointerType>(LT)->pointee()->size();
      Value Off = scaleIndex(I, Sz);
      return emitBin(Op == BinaryOp::Add ? Opcode::Add : Opcode::Sub, P, Off);
    }
    if (Op == BinaryOp::Add && LT->isInteger() && RT->isObjectPointer()) {
      Value I = lowerExpr(BE->lhs());
      Value P = lowerExpr(BE->rhs());
      uint64_t Sz = cast<PointerType>(RT)->pointee()->size();
      return emitBin(Opcode::Add, P, scaleIndex(I, Sz));
    }
    if (Op == BinaryOp::Sub && LT->isObjectPointer() &&
        RT->isObjectPointer()) {
      Value A = lowerExpr(BE->lhs());
      Value B = lowerExpr(BE->rhs());
      Value D = emitBin(Opcode::Sub, A, B);
      uint64_t Sz = cast<PointerType>(LT)->pointee()->size();
      if (Sz > 1)
        D = emitBin(Opcode::DivS, D, Value::imm(Sz));
      return D;
    }
  }

  Value L = lowerExpr(BE->lhs());
  Value R = lowerExpr(BE->rhs());
  bool Fp = BE->lhs()->type()->isFloating();
  bool Unsigned = BE->lhs()->type()->isUnsignedInteger() ||
                  BE->lhs()->type()->isPointer();
  Opcode OC;
  switch (Op) {
  case BinaryOp::Add: OC = Fp ? Opcode::FAdd : Opcode::Add; break;
  case BinaryOp::Sub: OC = Fp ? Opcode::FSub : Opcode::Sub; break;
  case BinaryOp::Mul: OC = Fp ? Opcode::FMul : Opcode::Mul; break;
  case BinaryOp::Div:
    OC = Fp ? Opcode::FDiv : (Unsigned ? Opcode::DivU : Opcode::DivS);
    break;
  case BinaryOp::Rem: OC = Unsigned ? Opcode::RemU : Opcode::RemS; break;
  case BinaryOp::Shl: OC = Opcode::Shl; break;
  case BinaryOp::Shr: OC = Unsigned ? Opcode::ShrL : Opcode::ShrA; break;
  case BinaryOp::BitAnd: OC = Opcode::And; break;
  case BinaryOp::BitXor: OC = Opcode::Xor; break;
  case BinaryOp::BitOr: OC = Opcode::Or; break;
  case BinaryOp::Lt:
    OC = Fp ? Opcode::FCmpLt : (Unsigned ? Opcode::CmpLtU : Opcode::CmpLtS);
    break;
  case BinaryOp::Le:
    OC = Fp ? Opcode::FCmpLe : (Unsigned ? Opcode::CmpLeU : Opcode::CmpLeS);
    break;
  case BinaryOp::Gt:
    OC = Fp ? Opcode::FCmpGt : (Unsigned ? Opcode::CmpGtU : Opcode::CmpGtS);
    break;
  case BinaryOp::Ge:
    OC = Fp ? Opcode::FCmpGe : (Unsigned ? Opcode::CmpGeU : Opcode::CmpGeS);
    break;
  case BinaryOp::Eq: OC = Fp ? Opcode::FCmpEq : Opcode::CmpEq; break;
  case BinaryOp::Ne: OC = Fp ? Opcode::FCmpNe : Opcode::CmpNe; break;
  default:
    OC = Opcode::Add;
    break;
  }
  Value V = emitBin(OC, L, R);
  // C integer narrowing semantics for sub-long arithmetic results.
  if (Ty->isInteger() && Ty->size() < 8 && Op != BinaryOp::Lt &&
      Op != BinaryOp::Le && Op != BinaryOp::Gt && Op != BinaryOp::Ge &&
      Op != BinaryOp::Eq && Op != BinaryOp::Ne)
    V = narrowTo(V, Ty);
  return V;
}

Value FunctionLowering::lowerShortCircuit(const BinaryExpr *BE) {
  bool IsAnd = BE->op() == BinaryOp::LogicalAnd;
  uint32_t Result = F.newReg();
  uint32_t RhsB = newBlock(IsAnd ? "and.rhs" : "or.rhs");
  uint32_t ShortB = newBlock(IsAnd ? "and.false" : "or.true");
  uint32_t JoinB = newBlock(IsAnd ? "and.join" : "or.join");

  Value L = lowerConditionValue(BE->lhs());
  Instruction Br;
  Br.Op = Opcode::Br;
  Br.A = L;
  Br.Blk1 = IsAnd ? RhsB : ShortB;
  Br.Blk2 = IsAnd ? ShortB : RhsB;
  emit(std::move(Br));

  setBlock(RhsB);
  Value R = lowerConditionValue(BE->rhs());
  Value RBool = emitBin(Opcode::CmpNe, R, Value::imm(0));
  emitMovTo(Result, RBool);
  jumpTo(JoinB);

  setBlock(ShortB);
  emitMovTo(Result, Value::imm(IsAnd ? 0 : 1));
  jumpTo(JoinB);

  setBlock(JoinB);
  return Value::reg(Result);
}

Value FunctionLowering::lowerConditional(const ConditionalExpr *CE) {
  bool IsVoid = CE->type()->isVoid();
  uint32_t Result = IsVoid ? NoReg : F.newReg();
  uint32_t ThenB = newBlock("cond.then");
  uint32_t ElseB = newBlock("cond.else");
  uint32_t JoinB = newBlock("cond.join");

  Value C = lowerConditionValue(CE->cond());
  Instruction Br;
  Br.Op = Opcode::Br;
  Br.A = C;
  Br.Blk1 = ThenB;
  Br.Blk2 = ElseB;
  emit(std::move(Br));

  setBlock(ThenB);
  Value TV = lowerExpr(CE->thenExpr());
  if (!IsVoid)
    emitMovTo(Result, TV);
  jumpTo(JoinB);

  setBlock(ElseB);
  Value EV = lowerExpr(CE->elseExpr());
  if (!IsVoid)
    emitMovTo(Result, EV);
  jumpTo(JoinB);

  setBlock(JoinB);
  return IsVoid ? Value::imm(0) : Value::reg(Result);
}

Value FunctionLowering::lowerAssign(const AssignExpr *AE) {
  const Expr *LHS = AE->lhs();
  const Type *Ty = LHS->type();

  if (AE->op() == AssignOp::Assign) {
    if (Ty->isRecord()) {
      Value Dst = lowerLValueAddr(LHS);
      Value Src = lowerExpr(AE->rhs()); // aggregate value == address
      emitAggregateCopy(Dst, Src, Ty->size());
      return Dst;
    }
    Value V = lowerExpr(AE->rhs());
    const Expr *LStripped = LHS->ignoreParens();
    if (const auto *DRE = dyn_cast<DeclRefExpr>(LStripped)) {
      writeVar(cast<VarDecl>(DRE->decl()), V);
      return V;
    }
    Value Addr = lowerLValueAddr(LHS);
    emitStore(Addr, narrowTo(V, Ty), Ty);
    return V;
  }

  // Compound assignment.
  bool IsPtr = Ty->isObjectPointer();
  int64_t ElemSize =
      IsPtr ? static_cast<int64_t>(cast<PointerType>(Ty)->pointee()->size())
            : 1;
  bool Fp = Ty->isFloating();
  Opcode OC;
  bool Unsigned = Ty->isUnsignedInteger();
  switch (AE->op()) {
  case AssignOp::AddAssign: OC = Fp ? Opcode::FAdd : Opcode::Add; break;
  case AssignOp::SubAssign: OC = Fp ? Opcode::FSub : Opcode::Sub; break;
  case AssignOp::MulAssign: OC = Fp ? Opcode::FMul : Opcode::Mul; break;
  case AssignOp::DivAssign:
    OC = Fp ? Opcode::FDiv : (Unsigned ? Opcode::DivU : Opcode::DivS);
    break;
  case AssignOp::RemAssign: OC = Unsigned ? Opcode::RemU : Opcode::RemS; break;
  case AssignOp::ShlAssign: OC = Opcode::Shl; break;
  case AssignOp::ShrAssign: OC = Unsigned ? Opcode::ShrL : Opcode::ShrA; break;
  case AssignOp::AndAssign: OC = Opcode::And; break;
  case AssignOp::XorAssign: OC = Opcode::Xor; break;
  case AssignOp::OrAssign: OC = Opcode::Or; break;
  default: OC = Opcode::Add; break;
  }

  const Expr *LStripped = LHS->ignoreParens();
  const auto *DRE = dyn_cast<DeclRefExpr>(LStripped);
  const VarDecl *VD = DRE ? DRE->varDecl() : nullptr;
  bool RegVar = VD && !VD->isGlobal() && !locate(VD).InMemory;

  Value RHS = lowerExpr(AE->rhs());
  if (IsPtr)
    RHS = scaleIndex(RHS, ElemSize);

  if (RegVar) {
    Value Old = readVar(VD);
    Value New = emitBin(OC, Old, RHS);
    if (IsPtr)
      New = pointerUpdateWrap(AE, New, Old);
    writeVar(VD, New);
    return readVar(VD);
  }
  Value Addr = lowerLValueAddr(LHS);
  Value Old = emitLoad(Addr, Ty);
  Value New = emitBin(OC, Old, RHS);
  if (IsPtr)
    New = pointerUpdateWrap(AE, New, Old);
  New = narrowTo(New, Ty);
  emitStore(Addr, New, Ty);
  return New;
}

Value FunctionLowering::lowerCall(const CallExpr *CE) {
  Instruction I;
  I.Op = Opcode::Call;

  FunctionDecl *Direct = CE->directCallee();
  Value IndirectCallee;
  if (Direct) {
    // A declaration without a body that names a runtime entry point (the
    // re-parsed preprocessor output declares GC_same_obj & friends) is a
    // builtin call too.
    bool TreatAsBuiltin =
        Direct->isBuiltin() ||
        (!Direct->body() && builtinByName(Direct->name()) != Builtin::None);
    if (TreatAsBuiltin) {
      I.BuiltinCallee = builtinByName(Direct->name());
      assert(I.BuiltinCallee != Builtin::None && "unknown builtin");
    } else {
      int32_t Idx = ML.functionIndex(Direct);
      if (Idx < 0) {
        ML.diags().error(SourceLocation(CE->range().Begin),
                         "call to undefined function '" +
                             std::string(Direct->name()) + "'");
        return Value::imm(0);
      }
      I.Callee = Idx;
    }
  } else {
    IndirectCallee = lowerExpr(CE->callee());
    I.A = IndirectCallee; // decoded by the VM
  }

  for (const Expr *Arg : CE->args())
    I.Args.push_back(lowerExpr(Arg));

  if (!CE->type()->isVoid())
    I.Dst = F.newReg();
  emit(std::move(I));
  uint32_t Dst = F.Blocks[Cur].Insts.back().Dst;
  return Dst == NoReg ? Value::imm(0) : Value::reg(Dst);
}

Value FunctionLowering::lowerCast(const CastExpr *CE) {
  const Type *To = CE->type();
  const Type *From = CE->sub()->type();
  switch (CE->castKind()) {
  case CastKind::ArrayDecay:
    return lowerLValueAddr(CE->sub());
  case CastKind::FunctionDecay:
    return lowerExpr(CE->sub());
  default:
    break;
  }
  Value V = lowerExpr(CE->sub());
  if (To->isVoid())
    return V;
  if (To->isFloating() && From->isInteger())
    return emitUn(Opcode::SIToFP, V);
  if (To->isInteger() && From->isFloating()) {
    Value I = emitUn(Opcode::FPToSI, V);
    return narrowTo(I, To);
  }
  if (To->isInteger() && From->isInteger() && To->size() < From->size())
    return narrowTo(V, To);
  // Pointer casts, widening integer conversions, int<->pointer: the 64-bit
  // register value is already correct.
  return V;
}

//===----------------------------------------------------------------------===//
// FunctionLowering: statements
//===----------------------------------------------------------------------===//

void FunctionLowering::lowerStmt(const Stmt *S) {
  if (S->location().isValid())
    CurLoc = S->location().Offset;
  switch (S->kind()) {
  case StmtKind::Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(S)->body()) {
      lowerStmt(Sub);
      if (blockTerminated() && Sub != cast<CompoundStmt>(S)->body().back()) {
        // Unreachable trailing code still needs a block (it may contain
        // case labels handled elsewhere; plain code is dropped by DCE).
        setBlock(newBlock("dead"));
      }
    }
    return;
  case StmtKind::Decl:
    for (const VarDecl *VD : cast<DeclStmt>(S)->decls()) {
      // Location was prepared in lowerBody; just run initializers.
      if (!VD->init())
        continue;
      if (VD->type()->isRecord()) {
        Value Src = lowerExpr(VD->init());
        emitAggregateCopy(varAddress(VD), Src, VD->type()->size());
        continue;
      }
      if (VD->type()->isArray()) {
        // Only string-literal initialization of char arrays is supported.
        if (const auto *SL =
                dyn_cast<StringLiteralExpr>(VD->init()->ignoreParens())) {
          Value Src = lowerLValueAddr(SL);
          emitAggregateCopy(varAddress(VD), Src, SL->value().size() + 1);
        }
        continue;
      }
      Value V = lowerExpr(VD->init());
      writeVar(VD, V);
    }
    return;
  case StmtKind::Expr:
    if (const Expr *E = cast<ExprStmt>(S)->expr())
      lowerExpr(E);
    return;
  case StmtKind::If: {
    const auto *IS = cast<IfStmt>(S);
    uint32_t ThenB = newBlock("if.then");
    uint32_t ElseB = IS->elseStmt() ? newBlock("if.else") : 0;
    uint32_t JoinB = newBlock("if.join");
    if (!IS->elseStmt())
      ElseB = JoinB;
    Value C = lowerConditionValue(IS->cond());
    Instruction Br;
    Br.Op = Opcode::Br;
    Br.A = C;
    Br.Blk1 = ThenB;
    Br.Blk2 = ElseB;
    emit(std::move(Br));
    setBlock(ThenB);
    lowerStmt(IS->thenStmt());
    jumpTo(JoinB);
    if (IS->elseStmt()) {
      setBlock(ElseB);
      lowerStmt(IS->elseStmt());
      jumpTo(JoinB);
    }
    setBlock(JoinB);
    return;
  }
  case StmtKind::While: {
    const auto *WS = cast<WhileStmt>(S);
    uint32_t HeaderB = newBlock("while.header");
    uint32_t BodyB = newBlock("while.body");
    uint32_t ExitB = newBlock("while.exit");
    jumpTo(HeaderB);
    setBlock(HeaderB);
    Value C = lowerConditionValue(WS->cond());
    Instruction Br;
    Br.Op = Opcode::Br;
    Br.A = C;
    Br.Blk1 = BodyB;
    Br.Blk2 = ExitB;
    emit(std::move(Br));
    setBlock(BodyB);
    BreakTargets.push_back(ExitB);
    ContinueTargets.push_back(HeaderB);
    lowerStmt(WS->body());
    BreakTargets.pop_back();
    ContinueTargets.pop_back();
    jumpTo(HeaderB);
    setBlock(ExitB);
    return;
  }
  case StmtKind::Do: {
    const auto *DS = cast<DoStmt>(S);
    uint32_t BodyB = newBlock("do.body");
    uint32_t CondB = newBlock("do.cond");
    uint32_t ExitB = newBlock("do.exit");
    jumpTo(BodyB);
    setBlock(BodyB);
    BreakTargets.push_back(ExitB);
    ContinueTargets.push_back(CondB);
    lowerStmt(DS->body());
    BreakTargets.pop_back();
    ContinueTargets.pop_back();
    jumpTo(CondB);
    setBlock(CondB);
    Value C = lowerConditionValue(DS->cond());
    Instruction Br;
    Br.Op = Opcode::Br;
    Br.A = C;
    Br.Blk1 = BodyB;
    Br.Blk2 = ExitB;
    emit(std::move(Br));
    setBlock(ExitB);
    return;
  }
  case StmtKind::For: {
    const auto *FS = cast<ForStmt>(S);
    if (FS->init())
      lowerStmt(FS->init());
    uint32_t HeaderB = newBlock("for.header");
    uint32_t BodyB = newBlock("for.body");
    uint32_t IncB = newBlock("for.inc");
    uint32_t ExitB = newBlock("for.exit");
    jumpTo(HeaderB);
    setBlock(HeaderB);
    if (FS->cond()) {
      Value C = lowerConditionValue(FS->cond());
      Instruction Br;
      Br.Op = Opcode::Br;
      Br.A = C;
      Br.Blk1 = BodyB;
      Br.Blk2 = ExitB;
      emit(std::move(Br));
    } else {
      jumpTo(BodyB);
    }
    setBlock(BodyB);
    BreakTargets.push_back(ExitB);
    ContinueTargets.push_back(IncB);
    lowerStmt(FS->body());
    BreakTargets.pop_back();
    ContinueTargets.pop_back();
    jumpTo(IncB);
    setBlock(IncB);
    if (FS->inc())
      lowerExpr(FS->inc());
    jumpTo(HeaderB);
    setBlock(ExitB);
    return;
  }
  case StmtKind::Return: {
    const auto *RS = cast<ReturnStmt>(S);
    Instruction I;
    I.Op = Opcode::Ret;
    if (RS->value())
      I.A = lowerExpr(RS->value());
    emit(std::move(I));
    return;
  }
  case StmtKind::Break:
    if (!BreakTargets.empty()) {
      Instruction I;
      I.Op = Opcode::Jmp;
      I.Blk1 = BreakTargets.back();
      emit(std::move(I));
    }
    return;
  case StmtKind::Continue:
    if (!ContinueTargets.empty()) {
      Instruction I;
      I.Op = Opcode::Jmp;
      I.Blk1 = ContinueTargets.back();
      emit(std::move(I));
    }
    return;
  case StmtKind::Switch:
    lowerSwitch(cast<SwitchStmt>(S));
    return;
  case StmtKind::Case: {
    const auto *CS = cast<CaseStmt>(S);
    uint32_t B = newBlock("case");
    jumpTo(B); // fallthrough from the preceding statement
    setBlock(B);
    if (!SwitchStack.empty())
      SwitchStack.back().Cases.emplace_back(CS->value(), B);
    lowerStmt(CS->sub());
    return;
  }
  case StmtKind::Default: {
    const auto *DS = cast<DefaultStmt>(S);
    uint32_t B = newBlock("default");
    jumpTo(B);
    setBlock(B);
    if (!SwitchStack.empty())
      SwitchStack.back().DefaultBlock = B;
    lowerStmt(DS->sub());
    return;
  }
  }
}

void FunctionLowering::lowerSwitch(const SwitchStmt *SS) {
  Value Cond = lowerExpr(SS->cond());
  // Materialize the scrutinee: the dispatch chain compares it repeatedly.
  if (!Cond.isReg())
    Cond = emitMov(Cond);
  uint32_t DispatchStart = Cur;
  uint32_t ExitB = newBlock("switch.exit");

  SwitchStack.push_back(SwitchCtx{});
  BreakTargets.push_back(ExitB);

  uint32_t BodyEntry = newBlock("switch.body");
  setBlock(BodyEntry);
  lowerStmt(SS->body());
  jumpTo(ExitB);

  SwitchCtx Ctx = SwitchStack.back();
  SwitchStack.pop_back();
  BreakTargets.pop_back();

  // Build the dispatch chain in fresh blocks, starting from where the
  // scrutinee was computed.
  setBlock(DispatchStart);
  for (auto &[CaseVal, CaseBlock] : Ctx.Cases) {
    uint32_t NextTest = newBlock("switch.test");
    Value Match = emitBin(Opcode::CmpEq, Cond, Value::imm(CaseVal));
    Instruction Br;
    Br.Op = Opcode::Br;
    Br.A = Match;
    Br.Blk1 = CaseBlock;
    Br.Blk2 = NextTest;
    emit(std::move(Br));
    setBlock(NextTest);
  }
  jumpTo(Ctx.DefaultBlock >= 0 ? static_cast<uint32_t>(Ctx.DefaultBlock)
                               : ExitB);
  setBlock(ExitB);
}

//===----------------------------------------------------------------------===//
// FunctionLowering: entry points
//===----------------------------------------------------------------------===//

namespace {
/// Prepares storage for every local declared anywhere in the body.
void collectLocals(const Stmt *S, std::vector<const VarDecl *> &Out) {
  if (const auto *DS = dyn_cast<DeclStmt>(S)) {
    Out.insert(Out.end(), DS->decls().begin(), DS->decls().end());
    return;
  }
  forEachChild(S, [&](const Stmt *Sub) { collectLocals(Sub, Out); },
               [](const Expr *) {});
}
} // namespace

void FunctionLowering::lowerBody(const FunctionDecl *FD) {
  setBlock(newBlock("entry"));

  std::unordered_map<const VarDecl *, bool> AddressTaken;
  collectAddressTakenStmt(FD->body(), AddressTaken);

  auto NeedsMemory = [&](const VarDecl *VD) {
    return Opts.AllVarsInMemory || AddressTaken.count(VD) ||
           VD->type()->isRecord() || VD->type()->isArray();
  };

  // Records passed or returned by value are outside the supported subset
  // (the workloads and the paper's algorithm never need them); reject them
  // cleanly rather than miscompiling.
  for (const VarDecl *P : FD->params())
    if (P->type()->isRecord())
      ML.diags().error(P->location(),
                       "passing structures by value is not supported");
  if (FD->type()->returnType()->isRecord())
    ML.diags().error(FD->location(),
                     "returning structures by value is not supported");

  // Parameters arrive in registers (the ABI), then move to their home.
  for (const VarDecl *P : FD->params()) {
    uint32_t In = F.newReg();
    F.ParamRegs.push_back(In);
    VarLoc L;
    if (NeedsMemory(P)) {
      L.InMemory = true;
      L.FrameOffset = allocFrameSlot(P->type()->size() ? P->type()->size() : 8,
                                     P->type()->align() ? P->type()->align()
                                                        : 8);
      VarLocs[P] = L;
      emitStore(varAddress(P), Value::reg(In), P->type());
    } else {
      L.Reg = In;
      VarLocs[P] = L;
    }
  }

  std::vector<const VarDecl *> Locals;
  collectLocals(FD->body(), Locals);
  for (const VarDecl *VD : Locals) {
    VarLoc L;
    if (NeedsMemory(VD)) {
      L.InMemory = true;
      uint64_t Size = VD->type()->size() ? VD->type()->size() : 8;
      uint64_t Align = VD->type()->align() ? VD->type()->align() : 8;
      L.FrameOffset = allocFrameSlot(Size, Align);
    } else {
      L.Reg = F.newReg();
    }
    VarLocs[VD] = L;
  }

  lowerStmt(FD->body());

  if (!blockTerminated()) {
    Instruction I;
    I.Op = Opcode::Ret;
    if (F.ReturnsValue)
      I.A = Value::imm(0);
    emit(std::move(I));
  }
}

void FunctionLowering::lowerGlobalInits(
    const std::vector<const VarDecl *> &Globals) {
  setBlock(newBlock("entry"));
  for (const VarDecl *VD : Globals) {
    if (!VD->init())
      continue;
    if (VD->type()->isArray()) {
      if (const auto *SL =
              dyn_cast<StringLiteralExpr>(VD->init()->ignoreParens())) {
        Value Src = lowerLValueAddr(SL);
        emitAggregateCopy(varAddress(VD), Src, SL->value().size() + 1);
      }
      continue;
    }
    if (VD->type()->isRecord()) {
      Value Src = lowerExpr(VD->init());
      emitAggregateCopy(varAddress(VD), Src, VD->type()->size());
      continue;
    }
    Value V = lowerExpr(VD->init());
    emitStore(varAddress(VD), narrowTo(V, VD->type()), VD->type());
  }
  Instruction I;
  I.Op = Opcode::Ret;
  emit(std::move(I));
}

} // namespace

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

Module gcsafe::ir::lowerTranslationUnit(const TranslationUnit &TU,
                                        const LowerOptions &Opts,
                                        DiagnosticsEngine &Diags) {
  ModuleLowering ML(Opts, Diags);
  Module M = ML.run(TU);
  return M;
}
