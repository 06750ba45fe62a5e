//===- native/NativeExec.h - Run compiled fragments, map exits ------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host side of native fragment execution. A fragment that has tiered
/// up holds its dlopen'd NativeModule (shared across all fragments with
/// the same content key, fleet-wide), whose entry function runs its body.
///
/// Native bodies produce no per-instruction events and need none: the VM
/// accounts every tier's exit from the fragment's prefix sums
/// (dbt::ExitAccounting, core/Fragment.h), a pure function of the exit
/// index that runFragment() reports exactly as the I-ISA executor would.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_NATIVE_NATIVEEXEC_H
#define ILDP_NATIVE_NATIVEEXEC_H

#include "iisa/Executor.h"
#include "native/NativeModule.h"

#include <cstdint>
#include <vector>

namespace ildp {

class GuestMemory;

namespace native {

/// Runs \p Module's entry over \p State / \p Mem and maps the
/// NativeContext outputs to the same iisa::IExit the interpretive executor
/// would have returned for \p Body (the live body supplies V-targets and
/// the chained / call-translator flavor for direct exits — see
/// NativeAbi.h).
iisa::IExit runFragment(const NativeModule &Module, iisa::IExecState &State,
                        GuestMemory &Mem,
                        const std::vector<iisa::IisaInst> &Body);

} // namespace native
} // namespace ildp

#endif // ILDP_NATIVE_NATIVEEXEC_H
