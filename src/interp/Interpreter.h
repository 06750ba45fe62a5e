//===- interp/Interpreter.h - Functional Alpha interpreter ----------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The functional Alpha interpreter: the reference V-ISA semantics. The
/// co-designed VM runs it during the interpret/profile stage (paper Section
/// 3.1) and every translated-code backend is validated against it.
///
/// step() reports everything the profiler and superblock recorder need:
/// the decoded instruction, control-flow outcome, and memory address. Traps
/// (memory faults, GENTRAP, illegal instructions) are reported precisely —
/// architected state is left exactly as of the trapping instruction.
///
/// Decoded instructions live in per-page arrays indexed by
/// (pc & 4095) / 4, each slot decoded lazily on its first execution (a
/// per-page bitmap marks decoded slots), behind a one-entry last-page
/// cache (DESIGN.md §16). run() retires ordinary instructions without
/// building a StepInfo and defers to step() — the reference — for any
/// instruction that traps, halts, fails to decode, or is the final step.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_INTERP_INTERPRETER_H
#define ILDP_INTERP_INTERPRETER_H

#include "alpha/AlphaInst.h"
#include "interp/ArchState.h"
#include "mem/GuestMemory.h"

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

namespace ildp {

/// Why execution stopped or what a step produced.
enum class StepStatus : uint8_t {
  Ok,      ///< Instruction retired normally.
  Halted,  ///< CALL_PAL HALT retired; program finished.
  Trapped, ///< The instruction raised a precise trap.
};

/// Precise trap descriptor.
enum class TrapKind : uint8_t {
  None,
  MemUnmapped,  ///< Load/store to an unmapped page.
  MemUnaligned, ///< Misaligned load/store.
  FetchFault,   ///< Instruction fetch failed.
  IllegalInst,  ///< Undecodable instruction word.
  Gentrap,      ///< CALL_PAL GENTRAP.
};

struct Trap {
  TrapKind Kind = TrapKind::None;
  uint64_t Pc = 0;      ///< V-ISA address of the trapping instruction.
  uint64_t MemAddr = 0; ///< Faulting address for memory traps.
};

/// Canonical trap for a failed guest memory access. BadSize means the
/// instruction asked for an impossible access width — an illegal
/// encoding, not a memory-management fault.
inline TrapKind trapKindForMemFault(MemFaultKind Fault) {
  switch (Fault) {
  case MemFaultKind::Unmapped:
    return TrapKind::MemUnmapped;
  case MemFaultKind::Unaligned:
    return TrapKind::MemUnaligned;
  default:
    return TrapKind::IllegalInst;
  }
}

/// Everything one retired (or trapped) instruction did.
struct StepInfo {
  StepStatus Status = StepStatus::Ok;
  uint64_t Pc = 0;
  alpha::AlphaInst Inst;
  uint64_t NextPc = 0;   ///< Actual successor PC (valid when Status==Ok).
  bool IsControl = false;
  bool Taken = false;    ///< For control transfers: was it taken?
  uint64_t MemAddr = 0;  ///< Effective address for loads/stores.
  Trap TrapInfo;
};

/// Functional Alpha interpreter over a GuestMemory image.
class Interpreter {
public:
  explicit Interpreter(GuestMemory &Mem) : Mem(Mem) {}

  ArchState &state() { return State; }
  const ArchState &state() const { return State; }
  GuestMemory &memory() { return Mem; }

  /// Executes one instruction at State.Pc. On StepStatus::Ok, State.Pc has
  /// advanced to the successor. On Trapped, architected state (including
  /// Pc) is left at the trapping instruction.
  StepInfo step();

  /// Runs until HALT, a trap, or \p MaxSteps instructions.
  /// Returns the last StepInfo (Status Ok means MaxSteps was hit).
  StepInfo run(uint64_t MaxSteps);

  /// Number of instructions retired by this interpreter so far.
  uint64_t retiredCount() const { return Retired; }

  /// Decodes the instruction at \p Addr via the decode cache (shared with
  /// the superblock recorder so decode work is not repeated). Returns
  /// nullptr when the fetch faults. A slot is decoded once, at its first
  /// use: later stores to that word are not observed.
  const alpha::AlphaInst *decodeAt(uint64_t Addr) {
    uint64_t PageIndex = Addr >> GuestMemory::PageShift;
    unsigned Slot = unsigned(Addr & (GuestMemory::PageSize - 1)) >> 2;
    if (PageIndex == LastPageIndex && (Addr & 3) == 0 &&
        LastPage->isDecoded(Slot))
      return &LastPage->Insts[Slot];
    return decodeSlow(Addr);
  }

private:
  static constexpr unsigned SlotsPerPage =
      unsigned(GuestMemory::PageSize / alpha::InstBytes);

  /// Decoded instructions of one guest page.
  struct DecodedPage {
    std::array<alpha::AlphaInst, SlotsPerPage> Insts;
    std::array<uint64_t, SlotsPerPage / 64> Decoded{};

    bool isDecoded(unsigned Slot) const {
      return (Decoded[Slot / 64] >> (Slot % 64)) & 1;
    }
  };

  const alpha::AlphaInst *decodeSlow(uint64_t Addr);
  /// Retires the instruction at State.Pc if it completes normally and
  /// returns true; returns false with all state untouched when it would
  /// trap, halt, or fail to decode.
  bool tryRetire();

  GuestMemory &Mem;
  ArchState State;
  uint64_t Retired = 0;
  std::unordered_map<uint64_t, std::unique_ptr<DecodedPage>> DecodePages;
  /// One-entry cache over DecodePages (NoPage when empty).
  static constexpr uint64_t NoPage = ~uint64_t(0);
  uint64_t LastPageIndex = NoPage;
  DecodedPage *LastPage = nullptr;
};

} // namespace ildp

#endif // ILDP_INTERP_INTERPRETER_H
