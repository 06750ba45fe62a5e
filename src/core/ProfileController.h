//===- core/ProfileController.h - Trace-start candidate profiling ---------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracks execution counters for trace-start candidate instructions
/// (Section 3.1). Candidates are:
///   - targets of register-indirect jumps (JMP/JSR/RET),
///   - targets of backward conditional branches,
///   - exit targets of existing fragments.
/// When a candidate's counter reaches the hot threshold, the VM switches to
/// recording mode. The paper uses an unlimited number of counters
/// (Section 4.1); so do we.
///
/// Translation failures feed back here (DESIGN.md §9): an entry whose
/// translation bailed out gets its counter reset and its hot threshold
/// multiplied by a backoff factor, so the VM re-profiles it for ever longer
/// before retrying; after a bounded number of retries the entry is
/// blacklisted and interpreted forever. Failure state — unlike counters and
/// translation marks — deliberately survives a translation-cache flush: a
/// flush does not make a malformed superblock translatable.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_CORE_PROFILECONTROLLER_H
#define ILDP_CORE_PROFILECONTROLLER_H

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

namespace ildp {
namespace dbt {

/// Candidate counters plus the set of already-translated entry points.
class ProfileController {
public:
  explicit ProfileController(unsigned HotThreshold)
      : Threshold(HotThreshold) {}

  /// Registers \p VAddr as a trace-start candidate (idempotent).
  void addCandidate(uint64_t VAddr) { Candidates.insert(VAddr); }

  bool isCandidate(uint64_t VAddr) const { return Candidates.count(VAddr); }

  /// Bumps the execution counter of candidate \p VAddr. Returns true when
  /// the counter reaches the hot threshold for an address that has not been
  /// translated yet (i.e. recording should start here). Blacklisted entries
  /// never qualify; entries with past failures must reach their inflated
  /// per-entry threshold.
  bool bump(uint64_t VAddr) {
    if (Translated.count(VAddr) || !Candidates.count(VAddr))
      return false;
    unsigned Goal = Threshold;
    if (!Failed.empty()) { // Fast path: no failures ever -> one branch.
      auto It = Failed.find(VAddr);
      if (It != Failed.end()) {
        if (It->second.Blacklisted)
          return false;
        Goal = It->second.Threshold;
      }
    }
    // >= rather than ==: an entry whose fragment was evicted re-enters
    // profiling with its counter intact (noteEvicted), so the count may
    // already sit at or past the goal when it becomes bumpable again.
    return ++Counters[VAddr] >= Goal;
  }

  /// Marks \p VAddr as translated (its counter stops mattering).
  void markTranslated(uint64_t VAddr) { Translated.insert(VAddr); }

  /// The fragment for \p VAddr was evicted from the translation cache:
  /// drop only the translation mark, keeping the execution counter and any
  /// failure state intact. The entry re-enters profiling where it left
  /// off — a previously hot entry re-qualifies on its next bump instead of
  /// paying the full threshold again.
  void noteEvicted(uint64_t VAddr) { Translated.erase(VAddr); }

  bool isTranslated(uint64_t VAddr) const { return Translated.count(VAddr); }

  size_t candidateCount() const { return Candidates.size(); }

  /// Records a translation failure for \p VAddr: the entry's counter
  /// resets, its hot threshold is multiplied by \p Backoff (so it
  /// re-profiles exponentially longer before the next attempt), and once it
  /// has failed more than \p MaxRetries times it is blacklisted — bump()
  /// never fires for it again. Also drops any translation mark.
  void recordFailure(uint64_t VAddr, unsigned MaxRetries, uint64_t Backoff) {
    Translated.erase(VAddr);
    Counters.erase(VAddr);
    FailureState &F = Failed[VAddr];
    if (F.Blacklisted)
      return;
    ++F.Failures;
    if (F.Failures > MaxRetries) {
      F.Blacklisted = true;
      return;
    }
    if (Backoff == 0)
      Backoff = 1;
    uint64_t Next = uint64_t(F.Threshold ? F.Threshold : Threshold) * Backoff;
    constexpr uint64_t Cap = 1u << 30; // Avoid unsigned overflow; still
    F.Threshold = unsigned(Next < Cap ? Next : Cap); // effectively "never".
  }

  bool isBlacklisted(uint64_t VAddr) const {
    auto It = Failed.find(VAddr);
    return It != Failed.end() && It->second.Blacklisted;
  }

  /// Translation failures recorded so far for \p VAddr.
  unsigned failureCount(uint64_t VAddr) const {
    auto It = Failed.find(VAddr);
    return It == Failed.end() ? 0 : It->second.Failures;
  }

  size_t blacklistedCount() const {
    size_t N = 0;
    for (const auto &KV : Failed)
      N += KV.second.Blacklisted;
    return N;
  }

  /// Forgets translation marks and counters (after a translation-cache
  /// flush): candidates stay registered, and hot paths must re-qualify.
  /// Failure/blacklist state survives — flushing the cache does not make a
  /// failing superblock translatable.
  void resetAfterFlush() {
    Translated.clear();
    Counters.clear();
  }

private:
  struct FailureState {
    unsigned Failures = 0;
    unsigned Threshold = 0; ///< 0 = base threshold (no failure yet).
    bool Blacklisted = false;
  };

  unsigned Threshold;
  std::unordered_set<uint64_t> Candidates;
  std::unordered_set<uint64_t> Translated;
  std::unordered_map<uint64_t, unsigned> Counters;
  std::unordered_map<uint64_t, FailureState> Failed;
};

} // namespace dbt
} // namespace ildp

#endif // ILDP_CORE_PROFILECONTROLLER_H
