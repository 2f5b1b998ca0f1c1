//===- vm/Machine.h - Machine cost models ----------------------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cycle-cost models standing in for the paper's three measurement
/// machines: a Weitek-processor SPARCstation 2 (SunOS 4.1.4), a
/// SPARCstation 10 (Solaris 2.5), and a Pentium 90 (Linux 1.81). The models
/// capture the *relative* properties the paper's analysis turns on:
///
///  * fused addressing is free (`ld [x+y]` costs one load) — so code that
///    cannot fuse because of a KEEP_LIVE pays an extra ALU op and register;
///  * calls are expensive relative to straight-line code — so checked mode
///    (a GC_same_obj call per pointer operation) is several hundred percent;
///  * loads/stores are relatively cheaper on the Pentium — so fully
///    debuggable (-g) code, which is all loads and stores, degrades less
///    there (paper: 17-41% vs 33-56% on the SPARCs);
///  * the Pentium has far fewer registers — the paper uses this to argue
///    the overhead is *not* register pressure ("one would have expected
///    much more substantial performance degradation on the Intel Pentium
///    machine"); our pressure model charges spills when live values exceed
///    the register file.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_VM_MACHINE_H
#define GCSAFE_VM_MACHINE_H

#include <string>

namespace gcsafe {
namespace vm {

struct MachineModel {
  std::string Name;
  unsigned CyclesAlu = 1;
  unsigned CyclesMov = 1;
  unsigned CyclesMul = 4;
  unsigned CyclesDiv = 20;
  unsigned CyclesFloat = 3;
  unsigned CyclesLoad = 2;
  unsigned CyclesStore = 2;
  unsigned CyclesBranch = 2;
  unsigned CyclesCall = 8;   ///< Call/return overhead (each way charged once).
  unsigned CyclesCheck = 14; ///< GC_same_obj: call + page-table lookup.
  unsigned NumRegs = 24;     ///< Allocatable integer registers.
  unsigned CyclesSpill = 2;  ///< Per excess live value per block entry.

  /// Library time per allocation call (allocator + amortized collector).
  /// The paper's standard libraries "were not preprocessed": library time
  /// is constant across compilation modes and dilutes the measured
  /// slowdowns, which is why gcc -g is only 25-56% slower than -O on these
  /// allocation-intensive programs.
  unsigned CyclesAllocator = 600;
};

/// SPARCstation 2: slow memory, expensive calls, big register file.
inline MachineModel sparc2() {
  MachineModel M;
  M.Name = "SPARCstation 2";
  M.CyclesAlu = 1;
  M.CyclesMul = 5;
  M.CyclesDiv = 25;
  M.CyclesFloat = 4;
  M.CyclesLoad = 2;
  M.CyclesStore = 3;
  M.CyclesBranch = 2;
  M.CyclesCall = 10;
  M.CyclesCheck = 95;
  M.NumRegs = 24;
  M.CyclesSpill = 3;
  M.CyclesAllocator = 800;
  return M;
}

/// SPARCstation 10: faster memory, still call-heavy.
inline MachineModel sparc10() {
  MachineModel M;
  M.Name = "SPARCstation 10";
  M.CyclesAlu = 1;
  M.CyclesMul = 3;
  M.CyclesDiv = 12;
  M.CyclesFloat = 2;
  M.CyclesLoad = 2;
  M.CyclesStore = 2;
  M.CyclesBranch = 1;
  M.CyclesCall = 8;
  M.CyclesCheck = 80;
  M.NumRegs = 24;
  M.CyclesSpill = 2;
  M.CyclesAllocator = 650;
  return M;
}

/// Pentium 90: cheap memory traffic, few registers, cheaper calls.
inline MachineModel pentium90() {
  MachineModel M;
  M.Name = "Pentium 90";
  M.CyclesAlu = 1;
  M.CyclesMul = 2;
  M.CyclesDiv = 10;
  M.CyclesFloat = 3;
  M.CyclesLoad = 1;
  M.CyclesStore = 1;
  M.CyclesBranch = 1;
  M.CyclesCall = 5;
  M.CyclesCheck = 60;
  M.NumRegs = 6;
  M.CyclesSpill = 1;
  M.CyclesAllocator = 900;
  return M;
}

/// The cost model a --machine= token names ("sparc2", "sparc10",
/// "pentium90"); false on unknown names. The one name table for the CLI,
/// the serve protocol and the driver.
inline bool machineModelByName(const std::string &Token, MachineModel &Out) {
  if (Token == "sparc2")
    Out = sparc2();
  else if (Token == "sparc10")
    Out = sparc10();
  else if (Token == "pentium90")
    Out = pentium90();
  else
    return false;
  return true;
}

} // namespace vm
} // namespace gcsafe

#endif // GCSAFE_VM_MACHINE_H
