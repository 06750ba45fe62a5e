//===- native/NativeService.h - Background native compilation workers -----===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Out-of-line native compilation, following the TranslationService
/// worker-pool idiom: the VM thread submits a fragment body (by value —
/// workers never touch VM-owned state) and later drains completions at
/// its safepoints. Two deliberate differences from TranslationService:
/// submission is non-blocking (trySubmit drops the request when the queue
/// is full — a fragment that stays hot simply re-qualifies at a later
/// threshold crossing, and host compilation must NEVER stall dispatch),
/// and completions are delivered unordered (native installation has no
/// chain-environment ordering constraint; each completion is keyed by the
/// fragment content key).
///
/// The worker emits C (NativeEmitter) and runs the host compiler
/// (NativeCompiler). Emission refusal and compiler failures come back as
/// typed failure completions — the fragment is marked failed and stays on
/// the I-ISA tier, never retried in a loop. (The NativeCompile fault site
/// is decided by the VM at submission, so an injected failure is counted
/// even when the run ends before a worker picks the request up.)
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_NATIVE_NATIVESERVICE_H
#define ILDP_NATIVE_NATIVESERVICE_H

#include "iisa/IisaInst.h"
#include "native/NativeCompiler.h"
#include "support/WorkQueue.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace ildp {
namespace native {

/// One fragment body to compile.
struct NativeRequest {
  uint64_t Key = 0;        ///< fragmentKey() of the body.
  uint64_t EntryVAddr = 0; ///< For diagnostics only.
  std::vector<iisa::IisaInst> Body;
  iisa::IsaVariant Variant = iisa::IsaVariant::Basic;
};

/// One finished compilation attempt.
struct NativeCompletion {
  uint64_t Key = 0;
  uint64_t EntryVAddr = 0;
  bool Ok = false;
  const char *Reason = ""; ///< Static string (emit refusal or compile).
  std::vector<uint8_t> Object;
};

/// A pool of native-compilation worker threads with unordered delivery.
class NativeService {
public:
  /// Spawns \p Workers threads compiling with \p CC. \p QueueDepth
  /// bounds the request queue.
  NativeService(const HostCompiler &CC, unsigned Workers, size_t QueueDepth);
  ~NativeService();

  NativeService(const NativeService &) = delete;
  NativeService &operator=(const NativeService &) = delete;

  /// Non-blocking submit; false when the queue is full or shut down
  /// (caller leaves the fragment pending-free to re-qualify later).
  bool trySubmit(NativeRequest Req);

  /// Cheap VM-thread check: any completion buffered?
  bool hasCompleted() const {
    return CompletedCount.load(std::memory_order_acquire) != 0;
  }

  /// Moves all buffered completions into \p Out (appended). Never blocks.
  void drainCompleted(std::vector<NativeCompletion> &Out);

  /// Blocks until every submitted request has a buffered completion.
  /// (Save paths use this so persisted stores capture in-flight work.)
  void waitAllIdle();

  /// Requests submitted (accepted) so far.
  uint64_t submittedCount() const {
    return Submitted.load(std::memory_order_relaxed);
  }

  unsigned workerCount() const { return unsigned(Workers.size()); }

  /// The toolchain this service compiles with (stable snapshot of the
  /// probe taken at construction; use this, not hostCompiler(), for
  /// checksums that must match the produced objects).
  const HostCompiler &compiler() const { return CC; }

private:
  void workerMain();

  /// By value: hostCompiler()'s reference is only stable until the next
  /// ILDP_NATIVE_CC change, and workers outlive any such change.
  const HostCompiler CC;
  WorkQueue<NativeRequest> Requests;
  std::vector<std::thread> Workers;

  mutable std::mutex DoneMutex;
  std::condition_variable DoneCv;
  std::vector<NativeCompletion> Done;
  std::atomic<size_t> CompletedCount{0};
  std::atomic<uint64_t> Submitted{0};
  std::atomic<uint64_t> Finished{0}; ///< Completions produced (incl. drained).
};

} // namespace native
} // namespace ildp

#endif // ILDP_NATIVE_NATIVESERVICE_H
