//===- native/NativeEmitter.h - Lower I-ISA fragments to C source ---------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a settled I-ISA fragment body to a self-contained C translation
/// unit implementing the NativeAbi entry point (DESIGN.md §13). The
/// emitter specialises the same ops the I-ISA executor runs: it lowers the
/// body with iisa::lowerToOps, which alone resolves operand shapes, r31,
/// destination routing, constant folding and the old value of a
/// conditional move, and writes one C statement per op. Each statement is
/// the expression of that op code's handler in iisa/ExecutorLoop.h, with
/// every slot the op names as a local s<N> loaded from the context at
/// entry: ildp_op_ADDQ(s9, 0x2ULL), if (ildp_br_BEQ(s1)) ILDP_EXIT(...).
/// The zero slot reads as 0, a write to the sink is dropped, and every
/// exit writes back exactly the destination slots. Each Alpha operation is
/// a call into alpha/AlphaOps.h, which the preamble embeds verbatim, so
/// the host compiler inlines the operation and the dispatch the executor
/// pays per op disappears.
///
/// A body is refused only when it is empty (`empty-body`) or one of its
/// instructions lowers to OpCode::Bad (`bad-op`: a register the state
/// lacks, or a kind paired with a foreign opcode). Refusal is a typed
/// degrade — the fragment stays on the I-ISA tier — never a miscompile.
///
/// fragmentKey() hashes only the emission-relevant instruction fields
/// (kind, opcode, operands, destinations, embedded targets/displacements)
/// — NOT exec counts or accounting metadata, and no linkage, which the
/// body does not hold — so one compiled object stays valid across
/// eviction/re-install and persist round-trips, and identical bodies at
/// different entry points share a module.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_NATIVE_NATIVEEMITTER_H
#define ILDP_NATIVE_NATIVEEMITTER_H

#include "iisa/IisaInst.h"

#include <string>
#include <vector>

namespace ildp {
namespace native {

/// Bumped whenever emitted code changes meaning; folded into the
/// compile-command checksum so stale persisted objects are rejected.
constexpr uint32_t NativeEmitterVersion = 3;

/// Result of lowering a fragment body to C.
struct EmitResult {
  bool Ok = false;
  std::string Source;       ///< Complete C translation unit when Ok.
  const char *Reason = "";  ///< Static refusal reason when !Ok.
};

/// Lowers \p Body to a C translation unit exporting ildp_native_run().
/// Refuses (Ok = false, typed Reason) an empty body or one whose lowering
/// holds an OpCode::Bad op instead of guessing.
EmitResult emitFragmentC(const std::vector<iisa::IisaInst> &Body,
                         iisa::IsaVariant Variant);

/// Content key over the emission-relevant fields of \p Body (FNV-1a 64).
/// Stable across install state and persist round-trips.
uint64_t fragmentKey(const std::vector<iisa::IisaInst> &Body,
                     iisa::IsaVariant Variant);

} // namespace native
} // namespace ildp

#endif // ILDP_NATIVE_NATIVEEMITTER_H
