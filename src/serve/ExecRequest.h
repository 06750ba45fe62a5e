//===- serve/ExecRequest.h - Execution-service request/response types -----===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire-level-ish types of the fleet execution service (DESIGN.md
/// §12): a GuestImage (relocatable description of a guest program, the
/// unit tenants submit), an ExecRequest (what to run, as whom, under
/// which limits), and an ExecResponse (typed outcome, architected result,
/// and an exact per-request statistics delta).
///
/// The request taxonomy continues the report-and-degrade discipline of
/// the translation pipeline (DESIGN.md §9): an overloaded queue, an
/// unknown or malformed image, a guest trap, a missed deadline, or a
/// shutting-down fleet all produce a typed ExecResponse — the service
/// never throws a request away silently and never dies on one.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_SERVE_EXECREQUEST_H
#define ILDP_SERVE_EXECREQUEST_H

#include "interp/ArchState.h"
#include "mem/GuestMemory.h"
#include "support/Statistics.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ildp {
namespace serve {

/// Typed outcome of one execution request.
enum class ExecStatus : uint8_t {
  Ok,                 ///< Ran to HALT; Arch/Checksum are the result.
  Trapped,            ///< Guest trapped; Arch is the precisely recovered
                      ///< state (the paper's Section 2.2 machinery).
  BadImage,           ///< Unknown fingerprint/workload, empty or
                      ///< malformed image, or an unmapped/misaligned
                      ///< entry point. Rejected before execution.
  QueueFull,          ///< Admission control: the bounded request queue
                      ///< was full at submit time.
  DeadlineExceeded,   ///< The per-request wall-clock deadline passed;
                      ///< Arch is the state at the abandonment point.
  InstBudgetExceeded, ///< The per-request guest-instruction ceiling was
                      ///< reached; Arch is the state at the ceiling.
  ShutDown,           ///< The scheduler was draining or stopped: the
                      ///< request was cancelled while still queued (or
                      ///< refused at submit time).
  TenantQuotaExceeded, ///< Admission control: the tenant exhausted its
                       ///< token-bucket rate or max-in-flight quota.
                       ///< ExecResponse::RetryAfterMs says when to retry.
  HostCrashed,         ///< Multi-process mode (HostSupervisor): the host
                       ///< process serving this request died mid-flight.
                       ///< The request was NOT completed; RetryAfterMs
                       ///< hints when a restarted host will be warm.
                       ///< Never produced by the in-process scheduler.
};

constexpr unsigned NumExecStatuses = 9;

/// Stable lowercase status name ("ok", "queue-full", ...), used for the
/// "serve.rejected.<reason>" statistics and the demo front end.
const char *getExecStatusName(ExecStatus Status);

/// Parses a status name as printed by getExecStatusName(). Returns false
/// and leaves \p Status untouched on an unknown name. Used by the
/// multi-process supervisor to type child "err <status> ..." lines.
bool parseExecStatusName(const std::string &Name, ExecStatus &Status);

/// Priority lane of a request. The scheduler keeps one independently
/// bounded queue per lane and drains them by weighted-deficit dequeue
/// (FleetConfig::LaneWeights), so a tiny Interactive request is served
/// ahead of — but never starves — a Batch backlog.
enum class Priority : uint8_t {
  Interactive, ///< Latency-sensitive; largest dequeue weight.
  Normal,      ///< The default.
  Batch,       ///< Throughput work; smallest dequeue weight.
};

constexpr unsigned NumPriorities = 3;

/// Stable lowercase lane name ("interactive", "normal", "batch"), used
/// for the "serve.lane.<name>.*" statistics and the demo front end.
const char *getPriorityName(Priority P);

/// Parses a lane name as printed by getPriorityName(). Returns false and
/// leaves \p P untouched on an unknown name.
bool parsePriorityName(const std::string &Name, Priority &P);

/// One contiguous run of initialized guest bytes.
struct ImageSegment {
  uint64_t Base = 0;
  std::vector<uint8_t> Bytes;
};

/// A relocatable description of a guest program: everything needed to
/// materialize a fresh GuestMemory per request. Obtained from
/// imageFromWorkload() (the twelve paper workloads) or built directly by
/// a tenant from raw image bytes.
struct GuestImage {
  std::string Name; ///< Diagnostic label; not part of the identity.
  uint64_t EntryPc = 0;
  std::vector<ImageSegment> Segments;

  bool empty() const { return Segments.empty(); }
};

/// Snapshots workload \p Name (built at \p Scale) into a GuestImage. The
/// rebuilt memory is page-for-page identical to a directly built
/// workload, so its persistence fingerprint — and therefore its slot in
/// a shared warm store — is the same.
GuestImage imageFromWorkload(const std::string &Name, unsigned Scale = 1);

/// Materializes \p Image into \p Mem. Returns nullptr on success or a
/// static reason string ("empty-image", "entry-unmapped", ...) that the
/// fleet surfaces as an ExecStatus::BadImage detail.
const char *buildGuestMemory(const GuestImage &Image, GuestMemory &Mem);

/// Sentinel for ExecRequest::CodeCacheBytes: inherit the tenant's (or
/// fleet's) budget instead of overriding it per request.
constexpr uint64_t InheritCacheBudget = ~uint64_t(0);

/// One unit of service work. Exactly one image source must be given:
/// Image (inline bytes), ImageFingerprint (a fleet-registered image), or
/// Workload (a fleet-registered image by name).
struct ExecRequest {
  /// Inline image bytes (takes precedence when non-empty).
  GuestImage Image;
  /// Fingerprint of an image pre-registered with the fleet (used when
  /// Image is empty and this is nonzero).
  uint64_t ImageFingerprint = 0;
  /// Name of an image pre-registered with the fleet (used last).
  std::string Workload;

  /// Tenant identity; selects the per-tenant code-cache budget
  /// (FleetConfig::TenantCacheBytes) and admission quota
  /// (FleetConfig::TenantQuotas). Empty = the fleet defaults.
  std::string Tenant;
  /// Priority lane (scheduler path only; VmFleet::execute ignores it).
  Priority Lane = Priority::Normal;
  /// Per-request guest-instruction ceiling (0 = fleet default). Reaching
  /// it yields ExecStatus::InstBudgetExceeded.
  uint64_t MaxGuestInsts = 0;
  /// Per-request wall-clock deadline in microseconds from dispatch
  /// (0 = none). Enforced between budget slices of guest instructions
  /// (DeadlineSliceInsts in serve/VmFleet.cpp).
  uint64_t DeadlineMicros = 0;
  /// Per-request translation-cache byte budget override
  /// (InheritCacheBudget = use the tenant/fleet budget; 0 = unbounded).
  uint64_t CodeCacheBytes = InheritCacheBudget;
};

/// Parses the arguments of a line-protocol "run" request (everything after
/// the word "run") from \p In into \p Req:
///
///   <workload> [tenant=<t>] [priority=<interactive|normal|batch>]
///              [max_insts=<n>] [deadline_us=<n>] [cache_bytes=<n>]
///
/// A number is unsigned, in decimal, octal or hex ("0x10"); a value that is
/// empty, signed, out of range, or not numeric to its end is rejected.
/// Returns nullptr on success, else a static detail: "missing-workload",
/// "bad-priority", "bad-number" or "unknown-option".
const char *parseRunRequest(std::istream &In, ExecRequest &Req);

/// Typed outcome plus results and exact per-request accounting.
struct ExecResponse {
  ExecStatus Status = ExecStatus::Ok;
  const char *Detail = ""; ///< Static string; never owned.
  /// Backoff hint for load-shed rejections, in milliseconds. Populated
  /// (>= 1) for every TenantQuotaExceeded response — the time until a
  /// rate token accrues, or one observed mean service time for an
  /// in-flight-cap rejection — and best-effort for QueueFull (estimated
  /// lane drain time). Zero for all other statuses.
  uint32_t RetryAfterMs = 0;

  /// Final architected state: the HALT state (Ok), the precisely
  /// recovered trap state (Trapped), or the state at the abandonment
  /// point (deadline/ceiling). Untouched for pre-execution rejections.
  ArchState Arch;
  /// Workload convention: the data-dependent checksum left in v0.
  uint64_t Checksum = 0;
  /// Guest (V-ISA) instructions this request executed.
  uint64_t GuestInsts = 0;
  /// Exact statistics delta for this request (VirtualMachine::statsDelta):
  /// translation work, evictions, fallbacks, warm-start hits, ...
  StatisticSet Stats;
  /// Wall-clock execution time (dispatch to completion; queueing excluded).
  double WallMicros = 0;
  /// Fleet worker slot that executed the request.
  unsigned Worker = 0;

  bool ok() const { return Status == ExecStatus::Ok; }
};

} // namespace serve
} // namespace ildp

#endif // ILDP_SERVE_EXECREQUEST_H
