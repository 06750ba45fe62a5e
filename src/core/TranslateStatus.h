//===- core/TranslateStatus.h - Typed translation-failure reporting -------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failure model of the guarded translation pipeline: every stage
/// (decode validation -> lowering -> usage analysis -> strand allocation ->
/// code generation -> assembly) reports a typed TranslateStatus instead of
/// asserting, and the VM degrades to interpretation for the offending
/// region (DESIGN.md §9). Deep pipeline walkers raise a TranslateAbort via
/// bailout()/ensure(); the stage-boundary functions catch it and surface an
/// Expected<T>. The throw path only runs on malformed input or an injected
/// fault, so the no-fault pipeline pays nothing beyond the ensure()
/// branches themselves.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_CORE_TRANSLATESTATUS_H
#define ILDP_CORE_TRANSLATESTATUS_H

#include <cstdint>
#include <optional>
#include <utility>

namespace ildp {
namespace dbt {

/// Why a translation attempt was abandoned.
enum class TranslateStatus : uint8_t {
  Ok,
  MalformedGuestInst, ///< Recorded guest bytes violate recorder invariants.
  UnsupportedOpcode,  ///< Instruction form the pipeline cannot lower.
  ScratchExhausted,   ///< Out of accumulators/scratch GPRs after spilling.
  FragmentTooLarge,   ///< Encoded body exceeds DbtConfig::MaxFragmentBytes.
  InternalLowering,   ///< Invariant violated during lowering.
  InternalUsage,      ///< Invariant violated during usage analysis.
  InternalStrandAlloc,///< Invariant violated during strand allocation.
  InternalCodeGen,    ///< Invariant violated during code generation.
  InternalAssembly,   ///< Invariant violated while sizing/encoding the body.
  InjectedFault,      ///< Deterministic test fault (support::Injector).
};

constexpr unsigned NumTranslateStatuses = 11;

/// Stable lowercase name, usable as a statistics-key suffix
/// ("robust.bailout.<name>").
const char *getTranslateStatusName(TranslateStatus Status);

/// Internal control-flow exception carrying a bailout out of a pipeline
/// walker. Never escapes a stage-boundary function (lower, analyzeUsage,
/// formStrandsAndAllocate, generateCode, translate): each catches it and
/// returns the status.
struct TranslateAbort {
  TranslateStatus Status;
  const char *Detail; ///< Static string; never owned.
};

/// Abandons the current translation with \p Status.
[[noreturn]] inline void bailout(TranslateStatus Status,
                                 const char *Detail = "") {
  throw TranslateAbort{Status, Detail};
}

/// Guarded replacement for assert() inside pipeline walkers: unlike an
/// assert, the check survives NDEBUG builds and degrades instead of dying.
inline void ensure(bool Cond, TranslateStatus Status,
                   const char *Detail = "") {
  if (!Cond)
    bailout(Status, Detail);
}

/// A value or a typed translation failure. The error state carries the
/// status plus a static detail string for diagnostics.
template <typename T> class Expected {
public:
  Expected(T Value) : Value(std::move(Value)), Status(TranslateStatus::Ok) {}
  Expected(TranslateStatus Status, const char *Detail = "")
      : Status(Status), Detail(Detail) {}
  Expected(const TranslateAbort &Abort)
      : Status(Abort.Status), Detail(Abort.Detail) {}

  explicit operator bool() const { return Status == TranslateStatus::Ok; }
  TranslateStatus status() const { return Status; }
  const char *detail() const { return Detail; }

  T &operator*() { return *Value; }
  const T &operator*() const { return *Value; }
  T *operator->() { return &*Value; }
  const T *operator->() const { return &*Value; }

  /// Moves the value out; only valid on success.
  T take() { return std::move(*Value); }

private:
  std::optional<T> Value;
  TranslateStatus Status;
  const char *Detail = "";
};

} // namespace dbt
} // namespace ildp

#endif // ILDP_CORE_TRANSLATESTATUS_H
