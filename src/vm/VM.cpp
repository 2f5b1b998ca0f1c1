//===- vm/VM.cpp ----------------------------------------------*- C++ -*-===//

#include "vm/VM.h"

#include "opt/CFG.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

using namespace gcsafe;
using namespace gcsafe::vm;
using namespace gcsafe::ir;

namespace {
double bitsToDouble(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}
uint64_t doubleToBits(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}
constexpr int64_t FuncPtrBase = 0x10000;

/// A decoded operand is a register index, or a constant-pool slot when
/// KBit is set.
constexpr uint32_t KBit = 0x80000000u;

// Integer binary operators over A and B. Each decodes to a generic form
// and to register/register and register/constant forms.
#define GCSAFE_VM_INT_BINOPS(X)                                                \
  X(Add, A + B)                                                                \
  X(Sub, A - B)                                                                \
  X(Mul, A * B)                                                                \
  X(And, A & B)                                                                \
  X(Or, A | B)                                                                 \
  X(Xor, A ^ B)                                                                \
  X(Shl, A << (B & 63))                                                        \
  X(ShrA, static_cast<uint64_t>(static_cast<int64_t>(A) >> (B & 63)))          \
  X(ShrL, A >> (B & 63))                                                       \
  X(CmpEq, A == B)                                                             \
  X(CmpNe, A != B)                                                             \
  X(CmpLtS, static_cast<int64_t>(A) < static_cast<int64_t>(B))                 \
  X(CmpLeS, static_cast<int64_t>(A) <= static_cast<int64_t>(B))                \
  X(CmpGtS, static_cast<int64_t>(A) > static_cast<int64_t>(B))                 \
  X(CmpGeS, static_cast<int64_t>(A) >= static_cast<int64_t>(B))                \
  X(CmpLtU, A < B)                                                             \
  X(CmpLeU, A <= B)                                                            \
  X(CmpGtU, A > B)                                                             \
  X(CmpGeU, A >= B)

#define GCSAFE_VM_FLOAT_BINOPS(X)                                              \
  X(FAdd, doubleToBits(bitsToDouble(A) + bitsToDouble(B)))                     \
  X(FSub, doubleToBits(bitsToDouble(A) - bitsToDouble(B)))                     \
  X(FMul, doubleToBits(bitsToDouble(A) * bitsToDouble(B)))                     \
  X(FDiv, doubleToBits(bitsToDouble(A) / bitsToDouble(B)))                     \
  X(FCmpEq, bitsToDouble(A) == bitsToDouble(B))                                \
  X(FCmpNe, bitsToDouble(A) != bitsToDouble(B))                                \
  X(FCmpLt, bitsToDouble(A) < bitsToDouble(B))                                 \
  X(FCmpLe, bitsToDouble(A) <= bitsToDouble(B))                                \
  X(FCmpGt, bitsToDouble(A) > bitsToDouble(B))                                 \
  X(FCmpGe, bitsToDouble(A) >= bitsToDouble(B))

enum class DOp : uint8_t {
#define GCSAFE_VM_INT_OPS(Name, Expr) Name, Name##RR, Name##RK,
#define GCSAFE_VM_FLOAT_OPS(Name, Expr) Name,
  GCSAFE_VM_INT_BINOPS(GCSAFE_VM_INT_OPS)
  GCSAFE_VM_FLOAT_BINOPS(GCSAFE_VM_FLOAT_OPS)
#undef GCSAFE_VM_INT_OPS
#undef GCSAFE_VM_FLOAT_OPS
  Nop, FallOff, MovR, MovK,
  DivS, DivU, RemS, RemU,
  Neg, Not, FNeg, SExt, ZExt, SIToFP, FPToSI,
  Load, LoadIdx, Store, StoreIdx, AddrLocal,
  Jmp, Br, Ret, Call, CallBuiltin,
  KeepLive, CheckSameObj, Kill,
};

/// Cycle cost of one execution of \p I, before block-entry spill
/// penalties and builtin library time.
uint32_t cycleCost(const Instruction &I, const VMOptions &O) {
  const MachineModel &MM = O.Model;
  switch (I.Op) {
  case Opcode::KeepLive: // empty assembly sequence (or a real call in the
                         // naive implementation)
    return O.KeepLiveCostsCall ? MM.CyclesCall : 0;
  case Opcode::Kill:
  case Opcode::Nop:
    return 0;
  case Opcode::Mov:
    return MM.CyclesMov;
  case Opcode::Mul:
    return MM.CyclesMul;
  case Opcode::DivS: case Opcode::DivU:
  case Opcode::RemS: case Opcode::RemU:
    return MM.CyclesDiv;
  case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul: case Opcode::FDiv:
  case Opcode::FNeg:
  case Opcode::FCmpEq: case Opcode::FCmpNe: case Opcode::FCmpLt:
  case Opcode::FCmpLe: case Opcode::FCmpGt: case Opcode::FCmpGe:
  case Opcode::SIToFP: case Opcode::FPToSI:
    return MM.CyclesFloat;
  case Opcode::Load:
  case Opcode::LoadIdx: // the fused addition is free
    return MM.CyclesLoad;
  case Opcode::Store:
  case Opcode::StoreIdx:
    return MM.CyclesStore;
  case Opcode::Jmp:
  case Opcode::Br:
    return MM.CyclesBranch;
  case Opcode::Ret:
  case Opcode::Call:
    return MM.CyclesCall;
  case Opcode::CheckSameObj:
    return MM.CyclesCheck;
  default:
    return MM.CyclesAlu;
  }
}

/// Sampling-profiler category for the executing instruction: the cycle
/// attribution buckets of RunResult, refined with memory/branch/call/alu.
const char *sampleKind(const Instruction &I) {
  switch (I.Op) {
  case Opcode::KeepLive:
    return "keep_live";
  case Opcode::CheckSameObj:
    return "checks";
  case Opcode::Kill:
    return "kill";
  case Opcode::Load:
  case Opcode::LoadIdx:
  case Opcode::Store:
  case Opcode::StoreIdx:
  case Opcode::AddrLocal:
  case Opcode::AddrGlobal:
    return "memory";
  case Opcode::Jmp:
  case Opcode::Br:
    return "branch";
  case Opcode::Call:
    switch (I.BuiltinCallee) {
    case Builtin::GcMalloc:
    case Builtin::GcMallocAtomic:
    case Builtin::Malloc:
    case Builtin::Calloc:
    case Builtin::Realloc:
      return "allocator";
    case Builtin::SameObj:
    case Builtin::PreIncr:
    case Builtin::PostIncr:
      return "checks";
    default:
      return "call";
    }
  case Opcode::Ret:
    return "call";
  default:
    return "alu";
  }
}

uint64_t loadValue(uint64_t Addr, unsigned Size, bool Signed) {
  const void *P = reinterpret_cast<const void *>(Addr);
  uint64_t Raw = 0;
  switch (Size) {
  case 8:
    std::memcpy(&Raw, P, 8);
    return Raw;
  case 4:
    std::memcpy(&Raw, P, 4);
    break;
  case 2:
    std::memcpy(&Raw, P, 2);
    break;
  case 1:
    std::memcpy(&Raw, P, 1);
    break;
  default:
    std::memcpy(&Raw, P, Size);
    if (Size >= 8)
      return Raw;
  }
  unsigned Bits = Size * 8;
  uint64_t Mask = (uint64_t(1) << Bits) - 1;
  Raw &= Mask;
  if (Signed && (Raw >> (Bits - 1)))
    Raw |= ~Mask;
  return Raw;
}

void storeValue(uint64_t Addr, uint64_t Val, unsigned Size) {
  void *P = reinterpret_cast<void *>(Addr);
  switch (Size) {
  case 8: std::memcpy(P, &Val, 8); return;
  case 4: std::memcpy(P, &Val, 4); return;
  case 2: std::memcpy(P, &Val, 2); return;
  case 1: std::memcpy(P, &Val, 1); return;
  default: std::memcpy(P, &Val, Size); return;
  }
}
} // namespace

/// One decoded instruction. Field use by opcode:
///   binary/unary ops, Load*, Store*, KeepLive, CheckSameObj: operands A,
///     B, C (a register index, or KBit | constant slot; the RR/RK forms
///     and MovR/MovK hold bare indices);
///   AddrLocal: A = constant slot of the frame offset;
///   Jmp: X = target position, B = its spill penalty;
///   Br: A = condition, X/Y = taken/not-taken positions, B/C = penalties;
///   Call: X = callee index (~0u: indirect through A), B/C = first
///     argument operand in Code::ArgOps and argument count;
///   CallBuiltin: X = the ir::Builtin, B/C as for Call;
///   Kill: A = the register; FallOff: X = the block index.
/// Dst is always a register: results nobody reads go to the sink slot.
struct VM::DInst {
  DOp Op = DOp::Nop;
  uint8_t Size = 8;
  bool Signed = true;
  uint32_t Cost = 0;
  uint32_t Dst = 0;
  uint32_t A = 0, B = 0, C = 0;
  uint32_t X = 0, Y = 0;
};

/// A function decoded for execution: its blocks concatenated in order,
/// each followed by a FallOff sentinel.
struct VM::Code {
  const Function *F = nullptr;
  uint32_t NumRegs = 0;
  uint32_t EntryPenalty = 0; ///< Spill penalty of the entry block.
  std::vector<DInst> Insts;
  std::vector<uint64_t> Consts{0}; ///< Slot 0 is an absent operand.
  std::vector<uint32_t> ArgOps;
  // Cold side arrays, indexed by position in Insts.
  std::vector<const Instruction *> Source; ///< null for sentinels
  std::vector<uint32_t> FlatIndex;         ///< flat IR instruction index
  mutable std::vector<size_t> Sites;       ///< allocation site ids (lazy)
};

VM::VM(const Module &MIn, VMOptions Options) : M(MIn), Opts(std::move(Options)) {
  gc::CollectorConfig GC;
  GC.AllocCountTrigger = Opts.GcAllocTrigger;
  GC.PoisonOnFree = true;
  GC.AllInteriorPointers = Opts.AllInteriorPointers;
  GC.EventLimit = Opts.GcEventLimit;
  GC.Trace = Opts.Trace;
  GC.Oom = Opts.GcOomPolicy;
  GC.OomRetries = Opts.GcOomRetries;
  GC.MaxHeapPages = Opts.GcMaxHeapPages;
  GC.AuditEachCollection = Opts.GcAuditEachCollection;
  GC.Faults = Opts.Faults;
  GC.CollectDeadlineNs = Opts.GcDeadlineNs;
  GC.Profile = Opts.Profile ? &Opts.Profile->Heap : nullptr;
  C = std::make_unique<gc::Collector>(GC);
  Check = std::make_unique<gc::PointerCheck>(*C);

  Globals.assign(M.GlobalsSize ? M.GlobalsSize : 1, 0);
  for (const GlobalVar &G : M.Globals)
    if (!G.InitData.empty())
      std::memcpy(Globals.data() + G.Offset, G.InitData.data(),
                  G.InitData.size());
  Stack.assign(Opts.StackSize, 0);
  Regs.assign(256, 0);
  Decoded.resize(M.Functions.size());

  // GC-roots: "the machine stack, registers, and statically allocated
  // memory".
  C->addRootScanner([this](gc::RootVisitor &V) {
    V.visitRange(Globals.data(), Globals.data() + Globals.size());
    V.visitRange(Stack.data(), Stack.data() + StackTop);
    V.visitRange(Regs.data(), Regs.data() + RegTop);
  });
}

VM::~VM() = default;

void VM::fail(const std::string &Message) {
  if (!Halted) {
    Result.Ok = false;
    Result.Error = Message;
    Halted = true;
  }
}

const VM::Code &VM::decoded(uint32_t FnIndex) {
  static_assert(sizeof(DInst) == 32, "decoded records stay compact");
  std::unique_ptr<Code> &Slot = Decoded[FnIndex];
  if (Slot)
    return *Slot;
  const Function &F = M.Functions[FnIndex];
  auto Fn = std::make_unique<Code>();
  Fn->F = &F;
  Fn->NumRegs = F.NumRegs;

  std::vector<uint32_t> Penalty(F.Blocks.size(), 0);
  {
    opt::CFGInfo CFG(F);
    opt::Liveness LV(F, CFG);
    for (uint32_t B = 0; B < F.Blocks.size(); ++B) {
      unsigned P = LV.maxPressure(B);
      if (P > Opts.Model.NumRegs)
        Penalty[B] = (P - Opts.Model.NumRegs) * Opts.Model.CyclesSpill;
    }
  }
  std::vector<uint32_t> Start(F.Blocks.size());
  uint32_t Pos = 0;
  for (uint32_t B = 0; B < F.Blocks.size(); ++B) {
    Start[B] = Pos;
    Pos += static_cast<uint32_t>(F.Blocks[B].Insts.size()) + 1;
  }
  if (!F.Blocks.empty())
    Fn->EntryPenalty = Penalty[0];
  Fn->Insts.reserve(Pos);

  const uint32_t Sink = F.NumRegs;
  auto Constant = [&](uint64_t V) {
    Fn->Consts.push_back(V);
    return static_cast<uint32_t>(Fn->Consts.size() - 1);
  };
  auto Operand = [&](const Value &V) -> uint32_t {
    switch (V.Kind) {
    case Value::ValueKind::Reg:
      return V.Reg;
    case Value::ValueKind::Imm:
      return KBit | Constant(static_cast<uint64_t>(V.Imm));
    case Value::ValueKind::FImm:
      return KBit | Constant(doubleToBits(V.FImm));
    case Value::ValueKind::None:
      break;
    }
    return KBit; // slot 0
  };

  uint32_t Flat = 0;
  for (uint32_t BI = 0; BI < F.Blocks.size(); ++BI) {
    for (const Instruction &I : F.Blocks[BI].Insts) {
      DInst D;
      D.Cost = cycleCost(I, Opts);
      D.Size = I.Size;
      D.Signed = I.SignedLoad;
      D.Dst = I.Dst == NoReg ? Sink : I.Dst;
      switch (I.Op) {
#define GCSAFE_VM_DECODE(Name, Expr)                                           \
  case Opcode::Name:                                                           \
    D.A = Operand(I.A);                                                        \
    D.B = Operand(I.B);                                                        \
    if (I.A.isReg() && I.B.isReg()) {                                          \
      D.Op = DOp::Name##RR;                                                    \
    } else if (I.A.isReg()) {                                                  \
      D.Op = DOp::Name##RK;                                                    \
      D.B &= ~KBit;                                                            \
    } else {                                                                   \
      D.Op = DOp::Name;                                                        \
    }                                                                          \
    break;
        GCSAFE_VM_INT_BINOPS(GCSAFE_VM_DECODE)
#undef GCSAFE_VM_DECODE
#define GCSAFE_VM_DECODE(Name, Expr)                                           \
  case Opcode::Name:                                                           \
    D.Op = DOp::Name;                                                          \
    D.A = Operand(I.A);                                                        \
    D.B = Operand(I.B);                                                        \
    break;
        GCSAFE_VM_FLOAT_BINOPS(GCSAFE_VM_DECODE)
#undef GCSAFE_VM_DECODE
#define GCSAFE_VM_DECODE(Name)                                                 \
  case Opcode::Name:                                                           \
    D.Op = DOp::Name;                                                          \
    D.A = Operand(I.A);                                                        \
    D.B = Operand(I.B);                                                        \
    D.C = Operand(I.C);                                                        \
    break;
        GCSAFE_VM_DECODE(DivS)
        GCSAFE_VM_DECODE(DivU)
        GCSAFE_VM_DECODE(RemS)
        GCSAFE_VM_DECODE(RemU)
        GCSAFE_VM_DECODE(Neg)
        GCSAFE_VM_DECODE(Not)
        GCSAFE_VM_DECODE(FNeg)
        GCSAFE_VM_DECODE(SExt)
        GCSAFE_VM_DECODE(ZExt)
        GCSAFE_VM_DECODE(SIToFP)
        GCSAFE_VM_DECODE(FPToSI)
        GCSAFE_VM_DECODE(Load)
        GCSAFE_VM_DECODE(LoadIdx)
        GCSAFE_VM_DECODE(Store)
        GCSAFE_VM_DECODE(StoreIdx)
        GCSAFE_VM_DECODE(Ret)
        GCSAFE_VM_DECODE(KeepLive)
        GCSAFE_VM_DECODE(CheckSameObj)
#undef GCSAFE_VM_DECODE
      case Opcode::Nop:
        D.Op = DOp::Nop;
        break;
      case Opcode::Mov:
        D.Op = I.A.isReg() ? DOp::MovR : DOp::MovK;
        D.A = Operand(I.A) & ~KBit;
        break;
      case Opcode::AddrLocal:
        D.Op = DOp::AddrLocal;
        D.A = Constant(static_cast<uint64_t>(I.Aux));
        break;
      case Opcode::AddrGlobal: // the globals area never moves
        D.Op = DOp::MovK;
        D.A = Constant(reinterpret_cast<uint64_t>(Globals.data()) +
                       static_cast<uint64_t>(I.Aux));
        break;
      case Opcode::Jmp:
        D.Op = DOp::Jmp;
        D.X = Start[I.Blk1];
        D.B = Penalty[I.Blk1];
        break;
      case Opcode::Br:
        D.Op = DOp::Br;
        D.A = Operand(I.A);
        D.X = Start[I.Blk1];
        D.Y = Start[I.Blk2];
        D.B = Penalty[I.Blk1];
        D.C = Penalty[I.Blk2];
        break;
      case Opcode::Call:
        D.B = static_cast<uint32_t>(Fn->ArgOps.size());
        D.C = static_cast<uint32_t>(I.Args.size());
        for (const Value &V : I.Args)
          Fn->ArgOps.push_back(Operand(V));
        if (I.BuiltinCallee != Builtin::None) {
          D.Op = DOp::CallBuiltin;
          D.X = static_cast<uint32_t>(I.BuiltinCallee);
        } else {
          D.Op = DOp::Call;
          D.X = I.Callee >= 0 ? static_cast<uint32_t>(I.Callee) : ~0u;
          D.A = Operand(I.A);
        }
        break;
      case Opcode::Kill:
        D.Op = DOp::Kill;
        D.A = I.A.isReg() ? I.A.Reg : Sink;
        break;
      }
      Fn->Insts.push_back(D);
      Fn->Source.push_back(&I);
      Fn->FlatIndex.push_back(Flat++);
    }
    DInst End;
    End.Op = DOp::FallOff;
    End.X = BI;
    Fn->Insts.push_back(End);
    Fn->Source.push_back(nullptr);
    Fn->FlatIndex.push_back(~0u);
  }
  Slot = std::move(Fn);
  return *Slot;
}

bool VM::pushFrame(const Code &Fn, uint32_t RetPC, uint32_t RetDst) {
  uint64_t Base = (StackTop + 15) & ~uint64_t(15);
  uint64_t FrameSize = Fn.F->FrameSize;
  if (Base + FrameSize > Stack.size()) {
    fail("VM stack overflow");
    return false;
  }
  std::memset(Stack.data() + Base, 0, FrameSize);
  uint32_t RegBase = RegTop;
  size_t Need = size_t(RegBase) + Fn.NumRegs + 1; // + the sink slot
  if (Need > Regs.size())
    Regs.resize(std::max(Need, Regs.size() * 2));
  std::fill_n(Regs.data() + RegBase, Fn.NumRegs, 0);
  Frames.push_back({&Fn, RetPC, RetDst, RegBase, Base});
  StackTop = Base + FrameSize;
  RegTop = RegBase + Fn.NumRegs;
  return true;
}

void VM::tagAllocSite(const Code &Fn, const DInst &I, const char *Kind) {
  if (!Opts.Profile)
    return;
  size_t Pos = &I - Fn.Insts.data();
  if (Fn.Sites.empty())
    Fn.Sites.assign(Fn.Insts.size(), support::HeapProfile::UntaggedSite);
  size_t &Site = Fn.Sites[Pos];
  if (Site == support::HeapProfile::UntaggedSite)
    Site = Opts.Profile->Heap.internSite(Fn.F->Name, Fn.FlatIndex[Pos], Kind);
  C->setAllocSite(Site);
}

void VM::recordCycleSample(const Function *Leaf, const Instruction &I,
                           uint64_t Cycles) {
  uint64_t Weight = Cycles - LastSampleCycles;
  LastSampleCycles = Cycles;
  // Stack at sample time; the executing function may already have returned
  // (Ret) or called out (Call), so force it to be the leaf.
  std::string Stack;
  for (const Frame &Fr : Frames) {
    if (!Stack.empty())
      Stack += ';';
    Stack += Fr.Fn->F->Name;
  }
  if (Frames.empty() || Frames.back().Fn->F != Leaf) {
    if (!Stack.empty())
      Stack += ';';
    Stack += Leaf->Name;
  }
  Opts.Profile->Cycles.addSample(Stack, Leaf->Name, sampleKind(I), Weight);
}

bool VM::checkMemoryAccess(uint64_t Addr, const char *What) {
  if (Addr < 0x1000) {
    fail(std::string("null/small-pointer dereference in ") + What);
    return false;
  }
  // The VM's own Stack and Globals are never heap pages, so the page-table
  // lookup would return false for them; skip it.
  if (Opts.DetectFreedAccess &&
      Addr - reinterpret_cast<uint64_t>(Stack.data()) >= Stack.size() &&
      Addr - reinterpret_cast<uint64_t>(Globals.data()) >= Globals.size() &&
      C->pointsToFreedObject(reinterpret_cast<const void *>(Addr)))
    ++Result.FreedAccesses;
  return true;
}

void VM::runBuiltin(const Code &Fn, const DInst &I, uint64_t *R) {
  const uint64_t *K = Fn.Consts.data();
  const uint32_t *ArgOps = Fn.ArgOps.data() + I.B;
  auto Arg = [&](size_t Idx) -> uint64_t {
    if (Idx >= I.C)
      return 0;
    uint32_t Op = ArgOps[Idx];
    return Op & KBit ? K[Op & ~KBit] : R[Op];
  };
  auto SetDst = [&](uint64_t V) { R[I.Dst] = V; };

  // Exhaustion is a structured run error, never a crash: the typed
  // allocation surface turns a failed request into RunResult::Error.
  auto AllocOrFail = [&](uint64_t Size, bool Atomic,
                         const char *What) -> void * {
    gc::AllocResult R = Atomic ? C->tryAllocateAtomic(Size)
                               : C->tryAllocate(Size);
    if (!R.ok())
      fail(std::string("out of memory: ") + What + "(" +
           std::to_string(Size) + " bytes) failed: " +
           gc::allocStatusName(R.Status));
    return R.Ptr;
  };

  const Builtin Callee = static_cast<Builtin>(I.X);
  switch (Callee) {
  case Builtin::GcMalloc:
  case Builtin::Malloc: {
    Result.Cycles += Opts.Model.CyclesAllocator;
    Result.AllocatorCycles += Opts.Model.CyclesAllocator;
    uint64_t Size = Arg(0);
    ++Result.AllocCount;
    Result.AllocBytes += Size;
    tagAllocSite(Fn, I, Callee == Builtin::Malloc ? "malloc" : "GC_malloc");
    void *P = AllocOrFail(Size, false, "GC_malloc");
    if (!P)
      return;
    SetDst(reinterpret_cast<uint64_t>(P));
    return;
  }
  case Builtin::GcMallocAtomic: {
    Result.Cycles += Opts.Model.CyclesAllocator;
    Result.AllocatorCycles += Opts.Model.CyclesAllocator;
    uint64_t Size = Arg(0);
    ++Result.AllocCount;
    Result.AllocBytes += Size;
    tagAllocSite(Fn, I, "GC_malloc_atomic");
    void *P = AllocOrFail(Size, true, "GC_malloc_atomic");
    if (!P)
      return;
    SetDst(reinterpret_cast<uint64_t>(P));
    return;
  }
  case Builtin::Calloc: {
    Result.Cycles += Opts.Model.CyclesAllocator;
    Result.AllocatorCycles += Opts.Model.CyclesAllocator;
    uint64_t N = Arg(0), Each = Arg(1);
    if (Each && N > UINT64_MAX / Each) {
      fail("out of memory: calloc(" + std::to_string(N) + ", " +
           std::to_string(Each) + ") overflows");
      return;
    }
    uint64_t Size = N * Each;
    ++Result.AllocCount;
    Result.AllocBytes += Size;
    tagAllocSite(Fn, I, "calloc");
    void *P = AllocOrFail(Size, false, "calloc");
    if (!P)
      return;
    SetDst(reinterpret_cast<uint64_t>(P));
    return;
  }
  case Builtin::Realloc: {
    Result.Cycles += Opts.Model.CyclesAllocator;
    Result.AllocatorCycles += Opts.Model.CyclesAllocator;
    uint64_t Old = Arg(0);
    uint64_t Size = Arg(1);
    ++Result.AllocCount;
    Result.AllocBytes += Size;
    tagAllocSite(Fn, I, "realloc");
    void *New = AllocOrFail(Size, false, "realloc");
    if (!New)
      return;
    if (Old) {
      size_t OldSize = C->objectSize(reinterpret_cast<void *>(Old));
      size_t CopyLen = OldSize < Size ? OldSize : Size;
      std::memcpy(New, reinterpret_cast<void *>(Old), CopyLen);
    }
    SetDst(reinterpret_cast<uint64_t>(New));
    return;
  }
  case Builtin::Free:
    // "remove all calls to free" — the collector reclaims.
    return;
  case Builtin::GcCollect:
    C->collect();
    return;
  case Builtin::PrintInt: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%" PRId64,
                  static_cast<int64_t>(Arg(0)));
    Result.Output += Buf;
    return;
  }
  case Builtin::PrintChar:
    Result.Output.push_back(static_cast<char>(Arg(0)));
    return;
  case Builtin::PrintStr: {
    const char *S = reinterpret_cast<const char *>(Arg(0));
    if (!S) {
      fail("print_str(NULL)");
      return;
    }
    size_t Len = strnlen(S, 1 << 20);
    Result.Output.append(S, Len);
    return;
  }
  case Builtin::PrintDouble: {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "%g", bitsToDouble(Arg(0)));
    Result.Output += Buf;
    return;
  }
  case Builtin::AssertTrue:
    if (Arg(0) == 0)
      fail("assert_true failed in VM program");
    return;
  case Builtin::RandSeed:
    Prng = Arg(0) ? Arg(0) : 0x9E3779B97F4A7C15ull;
    return;
  case Builtin::RandNext: {
    // xorshift64*
    Prng ^= Prng >> 12;
    Prng ^= Prng << 25;
    Prng ^= Prng >> 27;
    uint64_t V = Prng * 0x2545F4914F6CDD1Dull;
    SetDst(V >> 1); // keep it a nonnegative long
    return;
  }
  case Builtin::SameObj: {
    Result.Cycles += Opts.Model.CyclesCheck;
    Result.CheckCycles += Opts.Model.CyclesCheck;
    size_t Before = Check->violationCount();
    Check->sameObj(reinterpret_cast<const void *>(Arg(0)),
                   reinterpret_cast<const void *>(Arg(1)),
                   Fn.F->Name.c_str());
    SetDst(Arg(0));
    if (Opts.HaltOnCheckViolation && Check->violationCount() != Before)
      fail("pointer-arithmetic check violation");
    return;
  }
  case Builtin::PreIncr:
  case Builtin::PostIncr: {
    Result.Cycles += Opts.Model.CyclesCheck;
    Result.CheckCycles += Opts.Model.CyclesCheck;
    uint64_t Slot = Arg(0);
    if (!checkMemoryAccess(Slot, "GC_*_incr"))
      return;
    size_t Before = Check->violationCount();
    auto *PP = reinterpret_cast<void **>(Slot);
    void *Out = Callee == Builtin::PreIncr
                    ? Check->preIncr(PP, static_cast<ptrdiff_t>(Arg(1)),
                                     Fn.F->Name.c_str())
                    : Check->postIncr(PP, static_cast<ptrdiff_t>(Arg(1)),
                                      Fn.F->Name.c_str());
    SetDst(reinterpret_cast<uint64_t>(Out));
    if (Opts.HaltOnCheckViolation && Check->violationCount() != Before)
      fail("pointer-arithmetic check violation");
    return;
  }
  case Builtin::None:
    fail("call to unresolved builtin");
    return;
  }
}

RunResult VM::run() {
  const uint64_t StartNs = support::monotonicNowNs();
  Result = RunResult();
  Result.Ok = true;

  if (M.MainIndex < 0) {
    fail("module has no main()");
    Result.RunNs = support::monotonicNowNs() - StartNs;
    return Result;
  }

  const uint32_t CallCost = Opts.Model.CyclesCall;
  bool InGlobalInit = M.GlobalInitIndex >= 0;
  if (pushFrame(decoded(InGlobalInit ? M.GlobalInitIndex : M.MainIndex), 0,
                0)) {
    Result.Cycles += CallCost + Frames.back().Fn->EntryPenalty;
    Result.SpillCycles += Frames.back().Fn->EntryPenalty;
  }

  const uint64_t SampleEvery =
      Opts.Profile ? Opts.Profile->SamplePeriodCycles : 0;
  LastSampleCycles = 0;
  const bool Watchdogs = Opts.VmDeadlineNs || Opts.GcDeadlineNs;
  const uint64_t MaxInsts = Opts.MaxInstructions;
  const uint64_t GcPeriod = Opts.GcInstructionPeriod;
  const uint64_t CallPeriod = Opts.GcCallPeriod;

  // Hot state, written back to Result around builtins and at exit.
  uint64_t N = 0, Cycles = Result.Cycles, Spill = Result.SpillCycles;
  uint64_t Kills = 0, KeepLives = 0, KeepLiveCycles = 0;
  const Code *Fn = nullptr;
  const DInst *Base = nullptr, *PC = nullptr;
  uint64_t *R = nullptr;
  const uint64_t *K = nullptr;
  uint64_t FrameAddr = 0;
  // The executing instruction as the sampler sees it (sampling only).
  const Instruction *SampleInst = nullptr;
  const Function *SampleLeaf = nullptr;

  // Switches the hot state to the top frame, resuming at \p ResumePC.
  auto Enter = [&](uint32_t ResumePC) {
    const Frame &Fr = Frames.back();
    Fn = Fr.Fn;
    Base = Fn->Insts.data();
    PC = Base + ResumePC;
    R = Regs.data() + Fr.RegBase;
    K = Fn->Consts.data();
    FrameAddr = reinterpret_cast<uint64_t>(Stack.data()) + Fr.FrameBase;
  };
  auto V = [&](uint32_t Op) -> uint64_t {
    return Op & KBit ? K[Op & ~KBit] : R[Op];
  };
  // The instruction count at which the loop must leave the fast path:
  // the budget, the next watchdog poll, the instruction after the next
  // periodic collection point, or every instruction while sampling.
  auto NextLimit = [&]() -> uint64_t {
    if (SampleEvery)
      return N + 1;
    uint64_t L = MaxInsts == UINT64_MAX ? UINT64_MAX : MaxInsts + 1;
    if (Watchdogs)
      L = std::min(L, (N | 511) + 1);
    if (GcPeriod) {
      uint64_t Next = N % GcPeriod ? N - N % GcPeriod + GcPeriod : N;
      if (Next >= N) // no overflow
        L = std::min(L, Next + 1);
    }
    return L;
  };
  // Charges \p I without executing it (a limit stopped the run there).
  auto ChargeOnly = [&](const DInst &I) {
    Cycles += I.Cost;
    if (I.Op == DOp::KeepLive) {
      ++KeepLives;
      KeepLiveCycles += I.Cost;
    } else if (I.Op == DOp::Kill) {
      ++Kills;
    } else if (I.Op == DOp::CheckSameObj) {
      Result.CheckCycles += I.Cost;
    }
  };

  uint64_t Limit = 0;
  if (Halted)
    goto Stop;
  Enter(0);
  Limit = NextLimit();

  for (;;) {
    const DInst *I = PC++;
    if (++N >= Limit) {
      // Slow path. Instruction N-1 is complete and nothing has run since,
      // so its sampling and periodic collection happen here; then the
      // limits that stop the run at instruction N, after counting it.
      if (SampleInst && Cycles - LastSampleCycles >= SampleEvery)
        recordCycleSample(SampleLeaf, *SampleInst, Cycles);
      if (GcPeriod && N > 1 && (N - 1) % GcPeriod == 0)
        C->collect();
      if (I->Op != DOp::FallOff) {
        const char *Stopped = nullptr;
        if (N > MaxInsts) {
          Stopped = "instruction budget exceeded";
        } else if (Result.Output.size() > Opts.MaxOutputBytes) {
          Stopped = "output limit exceeded";
        } else if (Watchdogs && (N & 511) == 0) {
          // The wall clock is polled every 512 instructions to keep the
          // hot loop free of syscalls; the GC deadline is detected by the
          // collector itself and only acted on here.
          uint64_t Elapsed = support::monotonicNowNs() - StartNs;
          if (Opts.VmDeadlineNs && Elapsed > Opts.VmDeadlineNs) {
            Result.WatchdogTimeout = true;
            if (Opts.Trace)
              Opts.Trace->emit("robust", "vm.deadline", Elapsed,
                               Opts.VmDeadlineNs);
            Stopped = "watchdog: VM run deadline exceeded";
          } else if (Opts.GcDeadlineNs &&
                     C->stats().GcDeadlineExceeded > 0) {
            Result.WatchdogTimeout = true;
            Stopped = "watchdog: GC collection deadline exceeded";
          }
        }
        if (Stopped) {
          ChargeOnly(*I);
          fail(Stopped);
          goto Stop;
        }
        if (SampleEvery) {
          SampleInst = Fn->Source[I - Base];
          SampleLeaf = Fn->F;
        }
      }
      Limit = NextLimit();
    }
    Cycles += I->Cost;

    switch (I->Op) {
#define GCSAFE_VM_EXEC(Name, Expr)                                             \
  case DOp::Name: {                                                            \
    uint64_t A = V(I->A), B = V(I->B);                                         \
    R[I->Dst] = (Expr);                                                        \
    continue;                                                                  \
  }                                                                            \
  case DOp::Name##RR: {                                                        \
    uint64_t A = R[I->A], B = R[I->B];                                         \
    R[I->Dst] = (Expr);                                                        \
    continue;                                                                  \
  }                                                                            \
  case DOp::Name##RK: {                                                        \
    uint64_t A = R[I->A], B = K[I->B];                                         \
    R[I->Dst] = (Expr);                                                        \
    continue;                                                                  \
  }
      GCSAFE_VM_INT_BINOPS(GCSAFE_VM_EXEC)
#undef GCSAFE_VM_EXEC
#define GCSAFE_VM_EXEC(Name, Expr)                                             \
  case DOp::Name: {                                                            \
    uint64_t A = V(I->A), B = V(I->B);                                         \
    R[I->Dst] = (Expr);                                                        \
    continue;                                                                  \
  }
      GCSAFE_VM_FLOAT_BINOPS(GCSAFE_VM_EXEC)
#undef GCSAFE_VM_EXEC

    case DOp::Nop:
      continue;
    case DOp::FallOff:
      // Control ran past the last instruction of a block: not an executed
      // instruction, so it is not counted.
      --N;
      fail("control fell off the end of block '" + Fn->F->Blocks[I->X].Name +
           "' in " + Fn->F->Name);
      goto Stop;
    case DOp::MovR:
      R[I->Dst] = R[I->A];
      continue;
    case DOp::MovK:
      R[I->Dst] = K[I->A];
      continue;
    case DOp::DivS: {
      int64_t Den = static_cast<int64_t>(V(I->B));
      if (Den == 0) {
        fail("division by zero");
        goto Done;
      }
      R[I->Dst] = static_cast<uint64_t>(static_cast<int64_t>(V(I->A)) / Den);
      continue;
    }
    case DOp::DivU: {
      uint64_t Den = V(I->B);
      if (Den == 0) {
        fail("division by zero");
        goto Done;
      }
      R[I->Dst] = V(I->A) / Den;
      continue;
    }
    case DOp::RemS: {
      int64_t Den = static_cast<int64_t>(V(I->B));
      if (Den == 0) {
        fail("remainder by zero");
        goto Done;
      }
      R[I->Dst] = static_cast<uint64_t>(static_cast<int64_t>(V(I->A)) % Den);
      continue;
    }
    case DOp::RemU: {
      uint64_t Den = V(I->B);
      if (Den == 0) {
        fail("remainder by zero");
        goto Done;
      }
      R[I->Dst] = V(I->A) % Den;
      continue;
    }
    case DOp::Neg:
      R[I->Dst] = static_cast<uint64_t>(-static_cast<int64_t>(V(I->A)));
      continue;
    case DOp::Not:
      R[I->Dst] = ~V(I->A);
      continue;
    case DOp::FNeg:
      R[I->Dst] = doubleToBits(-bitsToDouble(V(I->A)));
      continue;
    case DOp::SExt: {
      unsigned Bits = I->Size * 8;
      uint64_t Val = V(I->A);
      if (Bits < 64) {
        uint64_t Mask = (uint64_t(1) << Bits) - 1;
        Val &= Mask;
        if (Val >> (Bits - 1))
          Val |= ~Mask;
      }
      R[I->Dst] = Val;
      continue;
    }
    case DOp::ZExt: {
      unsigned Bits = I->Size * 8;
      uint64_t Val = V(I->A);
      if (Bits < 64)
        Val &= (uint64_t(1) << Bits) - 1;
      R[I->Dst] = Val;
      continue;
    }
    case DOp::SIToFP:
      R[I->Dst] = doubleToBits(
          static_cast<double>(static_cast<int64_t>(V(I->A))));
      continue;
    case DOp::FPToSI:
      R[I->Dst] = static_cast<uint64_t>(
          static_cast<int64_t>(bitsToDouble(V(I->A))));
      continue;
    case DOp::Load:
    case DOp::LoadIdx: {
      uint64_t Addr = V(I->A) + (I->Op == DOp::LoadIdx ? V(I->B) : 0);
      if (!checkMemoryAccess(Addr, "load"))
        goto Done;
      R[I->Dst] = loadValue(Addr, I->Size, I->Signed);
      continue;
    }
    case DOp::Store:
    case DOp::StoreIdx: {
      uint64_t Addr, Val;
      if (I->Op == DOp::StoreIdx) {
        Addr = V(I->A) + V(I->B);
        Val = V(I->C);
      } else {
        Addr = V(I->A);
        Val = V(I->B);
      }
      if (!checkMemoryAccess(Addr, "store"))
        goto Done;
      storeValue(Addr, Val, I->Size);
      continue;
    }
    case DOp::AddrLocal:
      R[I->Dst] = FrameAddr + K[I->A];
      continue;
    case DOp::Jmp:
      PC = Base + I->X;
      Cycles += I->B;
      Spill += I->B;
      continue;
    case DOp::Br: {
      bool Taken = V(I->A) != 0;
      PC = Base + (Taken ? I->X : I->Y);
      uint32_t Penalty = Taken ? I->B : I->C;
      Cycles += Penalty;
      Spill += Penalty;
      continue;
    }
    case DOp::Ret: {
      uint64_t RetVal = V(I->A);
      Frame Callee = Frames.back();
      Frames.pop_back();
      StackTop = Callee.FrameBase;
      RegTop = Callee.RegBase;
      if (!Frames.empty()) {
        Enter(Callee.RetPC);
        R[Callee.RetDst] = RetVal;
        continue;
      }
      if (!InGlobalInit) {
        Result.ExitCode = static_cast<long>(RetVal);
        goto Done;
      }
      InGlobalInit = false;
      StackTop = 0;
      if (!pushFrame(decoded(M.MainIndex), 0, 0))
        goto Done;
      Cycles += CallCost + Frames.back().Fn->EntryPenalty;
      Spill += Frames.back().Fn->EntryPenalty;
      Enter(0);
      continue;
    }
    case DOp::Call: {
      if (CallPeriod && ++CallsExecuted % CallPeriod == 0)
        C->collect(); // call-site-only collection (optimization 4 regime)
      uint32_t CalleeIndex = I->X;
      if (CalleeIndex == ~0u) {
        int32_t Index = static_cast<int32_t>(V(I->A) - FuncPtrBase);
        if (Index < 0 || static_cast<size_t>(Index) >= M.Functions.size()) {
          fail("indirect call through a non-function value");
          goto Done;
        }
        CalleeIndex = static_cast<uint32_t>(Index);
      }
      const Code &Callee = decoded(CalleeIndex);
      const uint32_t CallerBase = Frames.back().RegBase;
      if (!pushFrame(Callee, static_cast<uint32_t>(PC - Base), I->Dst))
        goto Done;
      // The arguments go straight into the callee's window; pushFrame may
      // have moved the register stack.
      const uint64_t *CallerR = Regs.data() + CallerBase;
      uint64_t *CalleeR = Regs.data() + Frames.back().RegBase;
      const uint32_t *ArgOps = Fn->ArgOps.data() + I->B;
      const std::vector<uint32_t> &Params = Callee.F->ParamRegs;
      size_t NArgs = std::min<size_t>(Params.size(), I->C);
      for (size_t A = 0; A < NArgs; ++A)
        CalleeR[Params[A]] = ArgOps[A] & KBit ? K[ArgOps[A] & ~KBit]
                                              : CallerR[ArgOps[A]];
      Cycles += CallCost + Callee.EntryPenalty;
      Spill += Callee.EntryPenalty;
      Enter(0);
      continue;
    }
    case DOp::CallBuiltin:
      if (CallPeriod && ++CallsExecuted % CallPeriod == 0)
        C->collect();
      Result.Cycles = Cycles;
      runBuiltin(*Fn, *I, R);
      Cycles = Result.Cycles;
      if (Result.Output.size() > Opts.MaxOutputBytes)
        Limit = N + 1; // the next instruction trips the output cap
      if (Halted)
        goto Done;
      continue;
    case DOp::KeepLive:
      R[I->Dst] = V(I->A);
      ++KeepLives;
      KeepLiveCycles += I->Cost;
      continue;
    case DOp::CheckSameObj: {
      Result.CheckCycles += I->Cost;
      uint64_t A = V(I->A);
      size_t Before = Check->violationCount();
      Check->sameObj(reinterpret_cast<const void *>(A),
                     reinterpret_cast<const void *>(V(I->B)),
                     Fn->F->Name.c_str());
      R[I->Dst] = A;
      if (Opts.HaltOnCheckViolation && Check->violationCount() != Before) {
        fail("pointer-arithmetic check violation");
        goto Done;
      }
      continue;
    }
    case DOp::Kill:
      R[I->A] = 0;
      ++Kills;
      continue;
    }
  }

Done:
  // Instruction N ended the run; its sampling and periodic collection
  // still happen.
  if (SampleInst && Cycles - LastSampleCycles >= SampleEvery)
    recordCycleSample(SampleLeaf, *SampleInst, Cycles);
  if (GcPeriod && N % GcPeriod == 0)
    C->collect();

Stop:
  Result.InstructionsExecuted = N;
  Result.Cycles = Cycles;
  Result.SpillCycles = Spill;
  Result.KillsExecuted = Kills;
  Result.KeepLiveExecuted = KeepLives;
  Result.KeepLiveCycles = KeepLiveCycles;
  Result.Collections = C->stats().Collections;
  Result.ChecksPerformed = Check->checkCount();
  Result.CheckViolations = Check->violationCount();
  Result.Gc = C->stats();
  Result.RunNs = support::monotonicNowNs() - StartNs;
  if (Opts.Trace)
    Opts.Trace->span("vm", "run", StartNs, Result.RunNs, Result.Cycles,
                     Result.InstructionsExecuted);
  return Result;
}
