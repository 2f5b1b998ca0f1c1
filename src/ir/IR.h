//===- ir/IR.h - Three-address intermediate representation -----*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A register-machine IR standing in for the paper's gcc+SPARC back end:
/// virtual registers, basic blocks, explicit loads/stores, and — the
/// machine feature at the heart of the paper's overhead analysis — fused
/// addressing modes (`LoadIdx d, [a+b]`, the "free addition in the load
/// instruction" of SPARC's `ldsb [%o0+1],%o0`).
///
/// GC-safety appears as two instructions:
///   KeepLive d, a, b     — d = a, result opaque; b is treated as live
///                          wherever d is live (the paper's KEEP_LIVE
///                          contract, condition (2)).
///   CheckSameObj d, a, b — d = a after a GC_same_obj(a, b) runtime check
///                          (checked mode); costs a call.
///
/// `Kill r` pseudo-instructions zero a dead register. Real machines reuse
/// registers; an interpreter with unbounded virtual registers would
/// otherwise keep every pointer ever computed alive and hide exactly the
/// premature-collection behaviour this project reproduces.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_IR_IR_H
#define GCSAFE_IR_IR_H

#include <cstdint>
#include <string>
#include <vector>

namespace gcsafe {
namespace ir {

enum class Opcode : uint8_t {
  // Moves and integer ALU (64-bit).
  Mov,
  Add, Sub, Mul, DivS, DivU, RemS, RemU,
  And, Or, Xor, Shl, ShrA, ShrL,
  Neg, Not,
  // Double-precision float (values bit-cast in registers).
  FAdd, FSub, FMul, FDiv, FNeg,
  // Comparisons: produce 0/1.
  CmpEq, CmpNe,
  CmpLtS, CmpLeS, CmpGtS, CmpGeS,
  CmpLtU, CmpLeU, CmpGtU, CmpGeU,
  FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,
  // Conversions.
  SExt,   ///< Sign-extend from Size bytes.
  ZExt,   ///< Zero-extend from Size bytes.
  SIToFP,
  FPToSI,
  // Memory. Size is the access width; SignedLoad selects extension.
  Load,     ///< Dst = mem[A]
  Store,    ///< mem[A] = B
  LoadIdx,  ///< Dst = mem[A + B]  (fused addressing mode)
  StoreIdx, ///< mem[A + B] = C
  AddrLocal,  ///< Dst = frame base + Aux
  AddrGlobal, ///< Dst = &globals[Aux]
  // Control flow (block terminators).
  Jmp, ///< goto Blk1
  Br,  ///< if A goto Blk1 else Blk2
  Ret, ///< return A (A may be None)
  // Calls.
  Call, ///< Dst? = Callee(Args...) — user function or builtin
  // GC-safety.
  KeepLive,
  CheckSameObj,
  // Register lifetime.
  Kill, ///< zero register A.Reg (dead)
  Nop,
};

/// Runtime builtins callable from compiled code.
enum class Builtin : uint8_t {
  None,
  GcMalloc,
  GcMallocAtomic,
  GcCollect,
  Malloc,
  Calloc,
  Realloc,
  Free,
  PrintInt,
  PrintChar,
  PrintStr,
  PrintDouble,
  AssertTrue,
  RandSeed,
  RandNext,
  /// The checked-mode runtime entry points, callable from source (the
  /// re-parsed preprocessor output declares and calls them directly).
  SameObj,
  PreIncr,
  PostIncr,
};

/// No register.
constexpr uint32_t NoReg = ~0u;

/// An instruction operand.
struct Value {
  enum class ValueKind : uint8_t { None, Reg, Imm, FImm } Kind =
      ValueKind::None;
  union {
    uint32_t Reg;
    int64_t Imm;
    double FImm;
  };

  Value() : Reg(0) {}
  static Value none() { return Value(); }
  static Value reg(uint32_t R) {
    Value V;
    V.Kind = ValueKind::Reg;
    V.Reg = R;
    return V;
  }
  static Value imm(int64_t I) {
    Value V;
    V.Kind = ValueKind::Imm;
    V.Imm = I;
    return V;
  }
  static Value fimm(double F) {
    Value V;
    V.Kind = ValueKind::FImm;
    V.FImm = F;
    return V;
  }

  bool isNone() const { return Kind == ValueKind::None; }
  bool isReg() const { return Kind == ValueKind::Reg; }
  bool isImm() const { return Kind == ValueKind::Imm; }
  bool isFImm() const { return Kind == ValueKind::FImm; }
  bool isRegNo(uint32_t R) const { return isReg() && Reg == R; }

  bool operator==(const Value &RHS) const {
    if (Kind != RHS.Kind)
      return false;
    switch (Kind) {
    case ValueKind::None: return true;
    case ValueKind::Reg: return Reg == RHS.Reg;
    case ValueKind::Imm: return Imm == RHS.Imm;
    case ValueKind::FImm: return FImm == RHS.FImm;
    }
    return false;
  }
};

struct Instruction {
  Opcode Op = Opcode::Nop;
  uint8_t Size = 8;        ///< Memory access / extension width in bytes.
  bool SignedLoad = true;  ///< Load sign-extension.
  uint32_t Loc = ~0u;      ///< Source byte offset of the originating
                           ///< statement (~0u unknown). Survives the
                           ///< optimizer; diagnostics map it to a line.
  uint32_t Dst = NoReg;
  Value A, B, C;
  int64_t Aux = 0;         ///< Frame offset / global index.
  int32_t Callee = -1;     ///< User function index for Call.
  Builtin BuiltinCallee = Builtin::None;
  std::vector<Value> Args; ///< Call arguments.
  uint32_t Blk1 = 0, Blk2 = 0;

  bool isTerminator() const {
    return Op == Opcode::Jmp || Op == Opcode::Br || Op == Opcode::Ret;
  }
  bool operator==(const Instruction &) const = default;
};

struct BasicBlock {
  std::string Name;
  std::vector<Instruction> Insts;
  bool operator==(const BasicBlock &) const = default;
};

struct Function {
  std::string Name;
  uint32_t NumRegs = 0;
  std::vector<uint32_t> ParamRegs;
  uint64_t FrameSize = 0; ///< Bytes of addressable locals.
  std::vector<BasicBlock> Blocks;
  bool ReturnsValue = false;

  uint32_t newReg() { return NumRegs++; }
  /// Field-wise equality: every field any analysis reads, Loc included.
  bool operator==(const Function &) const = default;
};

/// A statically allocated object (global variable or string literal).
struct GlobalVar {
  std::string Name;
  uint64_t Size = 0;
  std::vector<char> InitData; ///< Empty = zero-initialized.
  bool PointerFree = false;   ///< Collector may skip scanning it.
  uint64_t Offset = 0;        ///< Assigned layout offset in the VM's
                              ///< globals area.
};

struct Module {
  std::vector<Function> Functions;
  std::vector<GlobalVar> Globals;
  uint64_t GlobalsSize = 0; ///< Total bytes of the globals area.
  int32_t MainIndex = -1;
  int32_t GlobalInitIndex = -1; ///< Synthetic function running global
                                ///< initializers; -1 if none.

  int32_t findFunction(const std::string &Name) const {
    for (size_t I = 0; I < Functions.size(); ++I)
      if (Functions[I].Name == Name)
        return static_cast<int32_t>(I);
    return -1;
  }
};

/// Renders a function or module as text (for tests and debugging).
std::string printFunction(const Function &F);
std::string printModule(const Module &M);

/// Static code-size accounting. KeepLive assembles to an empty sequence
/// (the paper's empty asm); CheckSameObj is a call; Kill is bookkeeping.
unsigned instructionSizeUnits(const Instruction &I);
unsigned functionSizeUnits(const Function &F);

} // namespace ir
} // namespace gcsafe

#endif // GCSAFE_IR_IR_H
