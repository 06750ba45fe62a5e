//===- native/NativeModule.h - dlopen'd fragment modules + registry -------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns a dlopen'd compiled-fragment shared object and its resolved entry
/// function. Modules are handed out as shared_ptr through a process-global
/// registry keyed by a content hash of the object bytes, so VmFleet
/// workers warm-started from one shared store map each unique native
/// module into the process exactly once. The registry holds weak_ptr
/// entries only — a module's lifetime is exactly the union of the
/// fragments referencing it, and dlclose happens in the destructor, i.e.
/// when the last referencing fragment is destroyed. Fragments are only
/// destroyed at the translation-cache graveyard reclaim safepoints
/// (TranslationCache::reclaimEvicted), so a native body can never be
/// unmapped while any frame could still be executing inside it — the
/// same deferred-teardown discipline that keeps evicted I-ISA fragments
/// alive, now carrying dlclose too.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_NATIVE_NATIVEMODULE_H
#define ILDP_NATIVE_NATIVEMODULE_H

#include "native/NativeAbi.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace ildp {
namespace native {

/// One dlopen'd compiled-fragment object. Construct via loadModule().
class NativeModule {
public:
  ~NativeModule(); ///< dlclose (reached only at reclaim safepoints).

  NativeModule(const NativeModule &) = delete;
  NativeModule &operator=(const NativeModule &) = delete;

  NativeEntryFn entry() const { return Fn; }
  uint64_t contentHash() const { return Hash; }

private:
  friend std::shared_ptr<NativeModule> loadModule(
      const std::vector<uint8_t> &Object);
  NativeModule() = default;

  void *Handle = nullptr;
  NativeEntryFn Fn = nullptr;
  uint64_t Hash = 0;
};

/// Maps \p Object into the process (writing it to a temp file, dlopen,
/// unlink) and resolves the entry symbol. Deduplicated process-wide by
/// content hash: a second call with identical bytes returns the already
/// loaded module. Returns nullptr on dlopen/dlsym failure. Thread-safe.
std::shared_ptr<NativeModule> loadModule(const std::vector<uint8_t> &Object);

/// Number of modules currently mapped process-wide (test/stat hook).
size_t liveModuleCount();

} // namespace native
} // namespace ildp

#endif // ILDP_NATIVE_NATIVEMODULE_H
