//===- native/NativeCompiler.h - Host toolchain probe + C compilation -----===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Finds a working host C compiler once per process and turns emitted C
/// sources into shared-object bytes. The probe honours the
/// `ILDP_NATIVE_CC` environment variable (set to a nonexistent or broken
/// command, it deterministically fails the probe — the test hook for the
/// graceful no-toolchain path), then falls back to `cc`, `gcc`, `clang`
/// on PATH; each candidate must actually compile a trivial translation
/// unit before being accepted.
///
/// commandChecksum() fingerprints everything that affects the meaning of
/// a compiled object: compiler path + reported version, the compile
/// flags, NativeAbiVersion, NativeEmitterVersion, and the IExecState slot
/// layout the emitted code indexes. CacheStore native payloads carry this
/// checksum so a persisted object from a different toolchain, ABI, emitter
/// or slot layout is rejected as `native_stale` instead of being
/// dlopen'd.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_NATIVE_NATIVECOMPILER_H
#define ILDP_NATIVE_NATIVECOMPILER_H

#include <cstdint>
#include <string>
#include <vector>

namespace ildp {
namespace native {

/// The probed host toolchain. found() == false means the native tier is
/// unavailable and the VM runs exactly as without it.
struct HostCompiler {
  bool Found = false;
  std::string Path;      ///< Resolved compiler command (argv[0]).
  std::string Version;   ///< First line of `--version` output.
  uint64_t Checksum = 0; ///< commandChecksum() result.

  bool found() const { return Found; }
};

/// Probes once per process and caches the result; thread-safe. The cache
/// is keyed by the current ILDP_NATIVE_CC value, so a test that changes
/// the variable between VM constructions gets a fresh probe. (Callers
/// keep the HostCompiler *by value* for exactly this reason: the
/// reference is only stable until the next env change.)
const HostCompiler &hostCompiler();

/// Result of one out-of-line compilation.
struct CompileResult {
  bool Ok = false;
  std::vector<uint8_t> Object; ///< Shared-object bytes when Ok.
  std::string Diag;            ///< Compiler stderr (truncated) when !Ok.
};

/// Compiles \p Source (a complete C translation unit) to a shared object
/// with \p CC. Thread-safe; uses process-unique temp files. Never throws.
CompileResult compileToObject(const HostCompiler &CC,
                              const std::string &Source);

} // namespace native
} // namespace ildp

#endif // ILDP_NATIVE_NATIVECOMPILER_H
