//===- include/ildp/ildp.h - Umbrella header ------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella header pulling in the whole public API. For
/// fine-grained builds include the per-library headers directly (each is
/// self-contained); the include path is the repository's `src/` directory.
///
/// Layering (each layer depends only on those above it):
///   support  -> statistics, tables, RNG, bit utilities
///   mem      -> guest memory
///   alpha    -> the V-ISA: decode/encode/assemble/disassemble/semantics
///   interp   -> the reference functional interpreter
///   iisa     -> the accumulator I-ISA and its functional executor
///   core     -> the dynamic binary translator (the paper's contribution)
///   persist  -> the persistent translation cache (warm-start files)
///   native   -> the native-host execution tier (emit-C + dlopen)
///   uarch    -> the ILDP and superscalar timing models
///   vm       -> the co-designed virtual machine driver
///   workloads-> the synthetic SPEC CPU2000 stand-ins
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_ILDP_H
#define ILDP_ILDP_H

// Support utilities.
#include "support/BitUtil.h"
#include "support/Rng.h"
#include "support/SatCounter.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"

// Guest memory.
#include "mem/GuestMemory.h"

// The Alpha V-ISA.
#include "alpha/AlphaInst.h"
#include "alpha/AlphaIsa.h"
#include "alpha/Assembler.h"
#include "alpha/Decoder.h"
#include "alpha/Disasm.h"
#include "alpha/Encoder.h"
#include "alpha/Semantics.h"

// The reference interpreter.
#include "interp/ArchState.h"
#include "interp/Interpreter.h"

// The accumulator-oriented I-ISA.
#include "iisa/Disasm.h"
#include "iisa/Encoding.h"
#include "iisa/Executor.h"
#include "iisa/IisaInst.h"

// The dynamic binary translator.
#include "core/CodeGen.h"
#include "core/Config.h"
#include "core/Fragment.h"
#include "core/Lowering.h"
#include "core/ProfileController.h"
#include "core/StrandAlloc.h"
#include "core/Superblock.h"
#include "core/SuperblockBuilder.h"
#include "core/TranslationCache.h"
#include "core/Translator.h"
#include "core/TrapRecovery.h"
#include "core/Uop.h"
#include "core/UsageAnalysis.h"

// The persistent translation cache (warm starts).
#include "persist/ByteStream.h"
#include "persist/Crc32.h"
#include "persist/Fingerprint.h"
#include "persist/FragmentCodec.h"

// The native-host execution tier.
#include "native/NativeAbi.h"
#include "native/NativeCompiler.h"
#include "native/NativeEmitter.h"
#include "native/NativeExec.h"
#include "native/NativeModule.h"
#include "native/NativeService.h"
#include "native/NativeStore.h"

// Timing models.
#include "uarch/Cache.h"
#include "uarch/FrontEnd.h"
#include "uarch/IldpModel.h"
#include "uarch/Params.h"
#include "uarch/Predictors.h"
#include "uarch/SuperscalarModel.h"
#include "uarch/Trace.h"

// The co-designed virtual machine.
#include "vm/VirtualMachine.h"

// Synthetic workloads.
#include "workloads/Workloads.h"

#endif // ILDP_ILDP_H
