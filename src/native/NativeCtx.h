//===- native/NativeCtx.h - C-compatible native execution ABI -------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The entry/exit context a natively compiled fragment runs against, its
// exit codes and the GENTRAP fault value: the one definition both sides
// of the ABI use. native/NativeAbi.h includes it for the host, and the
// build embeds it verbatim into the preamble of every emitted fragment.
//
// Written in the common subset of C and C++, with no other headers: the
// includer supplies uint32_t and uint64_t. Field order and types are
// frozen by NativeAbiVersion (native/NativeAbi.h).
//
//===----------------------------------------------------------------------===//

#ifndef ILDP_NATIVE_NATIVECTX_H
#define ILDP_NATIVE_NATIVECTX_H

// How a natively executed body exited (ildp_native_ctx::exit_code).
enum ildp_native_exit {
  // Taken cond_exit / branch at inst_index; the host reads the live body
  // instruction for the V-target and the chained/translator flavour.
  ILDP_EXIT_DIRECT = 0,
  ILDP_EXIT_PREDICT_HIT = 1,  // jump_predict hit (V-target from the body).
  ILDP_EXIT_PREDICT_MISS = 2, // jump_predict miss; vtarget = actual.
  ILDP_EXIT_DISPATCH = 3,     // jump_dispatch; vtarget = actual.
  ILDP_EXIT_RETURN = 4,       // return_dual; vtarget = actual.
  ILDP_EXIT_HALT = 5,
  ILDP_EXIT_TRAP = 6 // mem_fault + trap_addr describe the fault.
};

// mem_fault value of a GENTRAP trap exit. Memory faults use the
// MemFaultKind numeric values, which are all small.
enum { ILDP_GENTRAP_FAULT = 255 };

typedef struct ildp_native_ctx {
  uint64_t *acc;      // MaxAccumulators entries of IExecState::Acc.
  uint64_t *gpr;      // NumIisaGprs entries; r31 reads as zero.
  uint64_t *vpc_base; // IExecState::VpcBase.
  void *mem;          // Opaque GuestMemory handle for the callbacks.
  // Guest-memory callbacks: return the MemFaultKind as an int (0 = ok).
  int (*ld)(void *mem, uint64_t addr, uint32_t size, uint64_t *out);
  int (*st)(void *mem, uint64_t addr, uint64_t value, uint32_t size);
  uint64_t inst_budget; // Reserved (fragment-granular budget today).
  // Outputs.
  uint32_t exit_code;  // An ildp_native_exit value.
  uint32_t inst_index; // Body index of the exiting/trapping instruction.
  uint64_t vtarget;    // Indirect-exit target (already & ~3).
  uint32_t mem_fault;  // Trap exits: MemFaultKind or ILDP_GENTRAP_FAULT.
  uint64_t trap_addr;  // Trap exits: faulting effective address.
} ildp_native_ctx;

#endif // ILDP_NATIVE_NATIVECTX_H
