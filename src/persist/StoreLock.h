//===- persist/StoreLock.h - Store writer lock on flock(2) ----------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The advisory lock serializing CacheStore::saveMerged writers
/// (DESIGN.md §15): an exclusive flock(2) on "<store>.lock". The kernel
/// drops a flock when the descriptor holding it closes — at release, at
/// exit, or at death by any signal — so a dead writer never leaves a
/// stale lock; a leftover lock file is locked at once by the next writer.
/// The descriptor is O_CLOEXEC so a spawned child never inherits it.
///
/// Release unlinks the file, then closes it, so a clean save leaves no
/// lock file. A waiter may thus lock an inode unlinked under it; after
/// locking, the descriptor's inode is compared with the path's and
/// acquisition starts again if they differ.
///
/// A live holder is waited for up to Options::MaxWaitMillis. Past that,
/// or when the lock file cannot be opened or locked at all, the caller
/// proceeds unlocked and timedOut() says so.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_PERSIST_STORELOCK_H
#define ILDP_PERSIST_STORELOCK_H

#include <string>

namespace ildp {
namespace persist {

/// Scoped store lock: acquired in the constructor, released (if held) in
/// the destructor.
class StoreLock {
public:
  struct Options {
    /// Bound on waiting for a live holder, in milliseconds.
    unsigned MaxWaitMillis = 30'000;
    /// Poll interval while another holder has the lock, in milliseconds.
    unsigned PollMillis = 2;
  };

  explicit StoreLock(std::string LockPath);
  StoreLock(std::string LockPath, Options Opts);
  StoreLock(const StoreLock &) = delete;
  StoreLock &operator=(const StoreLock &) = delete;
  ~StoreLock();

  /// True when this object holds the lock.
  bool held() const { return Fd >= 0; }
  /// True when acquisition found the lock held at least once.
  bool contended() const { return Contended; }
  /// True when the caller is proceeding unlocked.
  bool timedOut() const { return TimedOut; }

private:
  std::string Path;
  int Fd = -1;
  bool Contended = false;
  bool TimedOut = false;
};

} // namespace persist
} // namespace ildp

#endif // ILDP_PERSIST_STORELOCK_H
