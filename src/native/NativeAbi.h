//===- native/NativeAbi.h - Host <-> emitted-C execution ABI --------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pinned ABI between the VM and natively compiled fragments
/// (DESIGN.md §13). A compiled fragment is a shared object exporting one
/// symbol, `ildp_native_run`, taking a NativeContext: one pointer to the
/// live IExecState::Slots array, which the emitted code indexes by the
/// same slot numbers as the lowered ops it was generated from, an opaque
/// guest-memory handle with load/store callbacks (guest memory is sparse
/// and paged, so there is no flat base pointer to hand out), and output
/// fields describing how the body exited.
///
/// The emitted code reports exits in *deopt-neutral* form: a direct exit
/// (taken cond_exit or branch) carries only the instruction index, the
/// host reads the V-target from the fragment body, and the VM resolves
/// whether it is chained when it takes the exit — so residency changes in
/// the translation cache never invalidate an installed native module.
/// Indirect exits
/// (predict-miss, dispatch, return) carry the register-computed V-target.
/// Memory faults and GENTRAP surface as trap exits with the architected
/// state written back exactly as the I-ISA executor would leave it; the
/// VM then runs the ordinary PEI recovery path — deopt is just another
/// degrade.
///
/// The context struct, the exit codes and the GENTRAP fault value are
/// defined once, in the C-compatible native/NativeCtx.h; the Alpha
/// operations the emitted code calls are defined once, in
/// alpha/AlphaOps.h. The build embeds both headers verbatim into
/// nativeAbiPreamble(), so the host and every compiled fragment read the
/// same text.
///
/// NativeAbiVersion and the slot layout (IExecState's slot constants) are
/// folded into the compile-command checksum, so a persisted object
/// compiled against an older ABI or layout is rejected as stale instead
/// of being dlopen'd.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_NATIVE_NATIVEABI_H
#define ILDP_NATIVE_NATIVEABI_H

#include <cstdint>

// C-compatible; ildp_native_ctx and its constants live in the global
// namespace.
#include "native/NativeCtx.h"

namespace ildp {
namespace native {

/// Bumped on any incompatible change to NativeCtx.h, the exit-code
/// numbering, or the embedded operation semantics.
constexpr uint32_t NativeAbiVersion = 4;

/// The pinned entry/exit context (see native/NativeCtx.h).
using NativeContext = ::ildp_native_ctx;

/// How a natively executed body exited (NativeContext::exit_code).
using NativeExitCode = ::ildp_native_exit;

/// NativeContext::mem_fault value for a GENTRAP trap exit.
constexpr uint32_t NativeGentrapFault = ILDP_GENTRAP_FAULT;

/// C text prepended to every emitted fragment: the fixed-width typedefs,
/// then alpha/AlphaOps.h and native/NativeCtx.h verbatim.
const char *nativeAbiPreamble();

/// Name of the exported entry symbol in a compiled fragment object.
inline const char *nativeEntrySymbol() { return "ildp_native_run"; }

/// Entry function type (host view of `void ildp_native_run(ctx *)`).
using NativeEntryFn = void (*)(NativeContext *);

} // namespace native
} // namespace ildp

#endif // ILDP_NATIVE_NATIVEABI_H
