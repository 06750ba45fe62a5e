//===- native/NativeEmitter.h - Lower I-ISA fragments to C source ---------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a settled I-ISA fragment body to a self-contained C translation
/// unit implementing the NativeAbi entry point (DESIGN.md §13). Every
/// instruction becomes straight-line C over locals for exactly the
/// accumulators and GPRs the body touches. Each Alpha operation is a call
/// into alpha/AlphaOps.h, which the preamble embeds verbatim and which
/// alpha::evalIntOp and friends call too: ildp_op_ADDQ(a0, g3),
/// ildp_br_BEQ(a1), ildp_cmov_CMOVNE(g4). The emitter writes only the
/// per-fragment code, so the host compiler inlines the operation and
/// constant-folds operand selection and opcode dispatch away entirely —
/// that interpretive dispatch is the cost the native tier exists to
/// eliminate.
///
/// The emitter is total over the I-ISA the translator generates today and
/// *refuses* anything else (an opcode missing from AlphaOps.h's lists, an
/// out-of-range register): refusal is a typed degrade — the fragment
/// simply stays on the I-ISA tier — never a miscompile.
///
/// fragmentKey() hashes only the emission-relevant instruction fields
/// (kind, opcode, operands, destinations, embedded targets/displacements)
/// — NOT the patchable ToTranslator flag, exec counts, or accounting
/// metadata — so one compiled object stays valid across exit re-patching,
/// eviction/re-install, and persist round-trips, and identical bodies at
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
constexpr uint32_t NativeEmitterVersion = 2;

/// Result of lowering a fragment body to C.
struct EmitResult {
  bool Ok = false;
  std::string Source;       ///< Complete C translation unit when Ok.
  const char *Reason = "";  ///< Static refusal reason when !Ok.
};

/// Lowers \p Body to a C translation unit exporting ildp_native_run().
/// Refuses (Ok = false, typed Reason) anything outside the supported
/// I-ISA surface instead of guessing.
EmitResult emitFragmentC(const std::vector<iisa::IisaInst> &Body,
                         iisa::IsaVariant Variant);

/// Content key over the emission-relevant fields of \p Body (FNV-1a 64).
/// Stable across exit patching, install state, and persist round-trips.
uint64_t fragmentKey(const std::vector<iisa::IisaInst> &Body,
                     iisa::IsaVariant Variant);

} // namespace native
} // namespace ildp

#endif // ILDP_NATIVE_NATIVEEMITTER_H
