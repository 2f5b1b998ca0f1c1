//===- vm/VM.h - IR interpreter over the conservative GC -------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an ir::Module on a simulated machine whose heap is the
/// conservative collector from src/gc. The GC-roots are exactly what the
/// paper lists — "the machine stack, registers, and statically allocated
/// memory": the register stack, the VM stack (frame slots), and the
/// globals area are scanned conservatively.
///
/// Each function is decoded on its first call into a flat array of
/// compact records: opcode, access width, the cycle cost under the
/// MachineModel, and operands resolved to a register index or a slot of
/// the function's constant pool. Branch targets are flat positions and
/// carry the target block's register-pressure spill penalty, so costs and
/// penalties are fixed at decode time and never re-derived per execution.
/// Every block ends in a fall-off sentinel. Up to two Kill records (zero-
/// cycle register deaths) after a non-control record are folded into it
/// and run in its dispatch. An AddrLocal of an in-frame slot is fused with
/// a next record that loads or stores through its register: the access
/// runs in the AddrLocal's dispatch, counted and charged as itself, with
/// no freed-access probe, which is provably false inside the VM's Stack.
/// Frames share one contiguous register stack; the root scanner visits
/// its live prefix [0, RegTop) as one range, which is word for word what
/// a per-frame register file would expose.
///
/// Collections can be triggered adversarially: after every allocation
/// (collector AllocCountTrigger), at a fixed instruction period
/// (GcInstructionPeriod) and/or every N calls (GcCallPeriod), modeling the
/// paper's "asynchronously triggered collector" under which all its
/// transformations must stay safe. Freed objects are poisoned, and loads
/// from freed heap slots are detected and reported — this is how
/// premature collection becomes observable.
///
/// The freed-access probe is exact: every load and store whose address
/// Collector::pointsToFreedObject would report counts, including slots
/// never allocated and objects freed without any sweep. A fast path may
/// skip the page-table lookup only where it provably returns false: the
/// VM skips it for addresses inside its own Stack and Globals buffers,
/// which are never heap pages, and the page table itself rejects any
/// address outside the span of pages the heap ever mapped, since a page
/// never mapped is never freed. Arming the probe lazily (say, at the
/// first sweep) would not be behaviour-preserving. The probe and the
/// page-table walk behind it are inlined into the dispatch loop; only
/// the null-dereference failure is a call.
///
/// The VM also accounts cycles under a MachineModel (including a register
/// pressure penalty) and runs the checked-mode CheckSameObj instruction
/// against the collector's page table, recording violations like the
/// paper's GC_same_obj.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_VM_VM_H
#define GCSAFE_VM_VM_H

#include "gc/Check.h"
#include "gc/Collector.h"
#include "ir/IR.h"
#include "vm/Machine.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gcsafe {
namespace vm {

struct VMOptions {
  MachineModel Model = sparc10();

  /// Collector: collect after this many allocations (0 = bytes-based only).
  size_t GcAllocTrigger = 0;
  /// Collect every N executed instructions (0 = off). The adversarial
  /// asynchronous scheduler.
  uint64_t GcInstructionPeriod = 0;
  /// Collect every N call instructions (0 = off): the paper's
  /// optimization-4 regime where "garbage collections can be triggered
  /// only at procedure calls".
  uint64_t GcCallPeriod = 0;
  /// Collector recognizes heap-stored interior pointers (paper default).
  /// false = the Extensions section's base-pointers-only mode.
  bool AllInteriorPointers = true;

  uint64_t MaxInstructions = 2000000000;
  size_t StackSize = 1 << 20;
  size_t MaxOutputBytes = 4 << 20;

  /// Wall-clock watchdogs (docs/ROBUSTNESS.md §5), 0 = off. A stuck run
  /// is a fault, not a hang: exceeding VmDeadlineNs (whole-run budget,
  /// checked every ~512 instructions) or GcDeadlineNs (per-collection
  /// mark+sweep budget, via CollectorStats::GcDeadlineExceeded) stops the
  /// VM with RunResult::WatchdogTimeout set.
  uint64_t VmDeadlineNs = 0;
  uint64_t GcDeadlineNs = 0;

  /// Cost KEEP_LIVE as a real external call (the paper's naive
  /// implementation: "a call to an external function whose implementation
  /// is unavailable to the compiler ... terribly inefficient"). Semantics
  /// are unchanged; only the cycle charge differs.
  bool KeepLiveCostsCall = false;

  /// Stop execution at the first checked-mode violation.
  bool HaltOnCheckViolation = false;

  /// Optional event sink shared with the collector: GC phase events plus
  /// a cat="vm" run summary are emitted here.
  support::TraceBuffer *Trace = nullptr;

  /// Collector OOM policy. The VM itself always uses the typed-result
  /// allocation surface, so exhaustion becomes a structured run error
  /// ("out of memory: ...") rather than a process abort; this still
  /// controls how hard the collector tries to recover first.
  gc::OomPolicy GcOomPolicy = gc::OomPolicy::Graceful;
  /// Recovery retries after the emergency collection.
  unsigned GcOomRetries = 3;
  /// Hard cap on collector heap pages (0 = unlimited).
  size_t GcMaxHeapPages = 0;
  /// Run a heap-integrity audit after every collection.
  bool GcAuditEachCollection = false;
  /// Optional failpoint registry passed through to the collector.
  support::FaultInjector *Faults = nullptr;

  /// Optional profiler (docs/OBSERVABILITY.md §6). When set, its
  /// HeapProfile is attached to the collector and every allocation builtin
  /// is tagged with its (function, flat instruction index) site; when
  /// Profile->SamplePeriodCycles > 0 the VM additionally records one cycle
  /// sample (call stack + leaf instruction kind) per period.
  support::Profiler *Profile = nullptr;
};

struct RunResult {
  bool Ok = false;
  std::string Error;
  std::string Output;
  long ExitCode = 0;
  /// The run was stopped by a deadline watchdog (VmDeadlineNs /
  /// GcDeadlineNs); Error says which. Maps to ExitWatchdogTimeout.
  bool WatchdogTimeout = false;

  uint64_t InstructionsExecuted = 0;
  uint64_t Cycles = 0;
  uint64_t SpillCycles = 0;

  // Cycle attribution: where the total went. The paper's slowdown numbers
  // are exactly (Cycles_safe - Cycles_base) / Cycles_base; the split below
  // says how much of a run is safety machinery rather than user code.
  uint64_t KeepLiveExecuted = 0; ///< KEEP_LIVE pseudo-ops executed.
  uint64_t KeepLiveCycles = 0;   ///< Their cycle charge (nonzero only when
                                 ///< KeepLiveCostsCall models the naive
                                 ///< external-call implementation).
  uint64_t KillsExecuted = 0;    ///< Register-death Kill pseudo-ops.
  uint64_t CheckCycles = 0;      ///< GC_same_obj / GC_*_incr checking.
  uint64_t AllocatorCycles = 0;  ///< Allocation entry points.

  uint64_t ChecksPerformed = 0;
  uint64_t CheckViolations = 0;

  /// Loads/stores that touched a freed heap object — evidence of a
  /// GC-safety failure (premature collection).
  uint64_t FreedAccesses = 0;

  /// Snapshot of the collector's counters (including per-collection
  /// CollectionEvent records) at the end of the run.
  gc::CollectorStats Gc;

  /// Wall time of VM::run, decoding and collections included.
  uint64_t RunNs = 0;

  /// Cycles not attributed to safety, checking, allocation or modeled
  /// spills — the paper's "user code".
  uint64_t userCycles() const {
    uint64_t Overhead =
        KeepLiveCycles + CheckCycles + AllocatorCycles + SpillCycles;
    return Cycles > Overhead ? Cycles - Overhead : 0;
  }
};

class VM {
public:
  VM(const ir::Module &M, VMOptions Options = VMOptions());
  ~VM();
  VM(const VM &) = delete;
  VM &operator=(const VM &) = delete;

  /// Runs __globals_init (if present) then main. Reusable only once.
  RunResult run();

  gc::Collector &collector() { return *C; }

private:
  struct Code;
  struct DInst;

  /// One activation. The executing frame is always the last one; its
  /// registers are Regs[RegBase, RegBase + NumRegs).
  struct Frame {
    const Code *Fn = nullptr;
    uint32_t RetPC = 0;  ///< Caller's resume position.
    uint32_t RetDst = 0; ///< Caller register for the return value.
    uint32_t RegBase = 0;
    uint64_t FrameBase = 0; ///< Frame slots in Stack.
  };

  const Code &decoded(uint32_t FnIndex);
  bool pushFrame(const Code &Fn, uint32_t RetPC, uint32_t RetDst);
  void runBuiltin(const Code &Fn, const DInst &I, uint64_t *R);
  void tagAllocSite(const Code &Fn, const DInst &I, const char *Kind);
  void recordCycleSample(const ir::Function *Leaf, const ir::Instruction &I,
                         uint64_t Cycles);
  bool checkMemoryAccess(uint64_t Addr, const char *What);
  [[gnu::cold, gnu::noinline]] bool failNullAccess(const char *What);
  void fail(const std::string &Message);

  const ir::Module &M;
  VMOptions Opts;
  std::unique_ptr<gc::Collector> C;
  std::unique_ptr<gc::PointerCheck> Check;

  std::vector<char> Globals;
  std::vector<char> Stack;
  uint64_t StackTop = 0;
  /// The register stack. Slot RegTop (one past the executing frame) is
  /// the sink for results nobody reads; it lies outside the scanned range.
  std::vector<uint64_t> Regs;
  uint32_t RegTop = 0;
  std::vector<Frame> Frames;
  /// Indexed like M.Functions; a function is decoded on its first call.
  std::vector<std::unique_ptr<Code>> Decoded;

  RunResult Result;
  bool Halted = false;
  uint64_t Prng = 0x9E3779B97F4A7C15ull;
  uint64_t CallsExecuted = 0;
  uint64_t LastSampleCycles = 0;
};

} // namespace vm
} // namespace gcsafe

#endif // GCSAFE_VM_VM_H
