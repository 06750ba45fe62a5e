//===- persist/StoreLock.cpp - Store writer lock on flock(2) --------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "persist/StoreLock.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <thread>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace ildp::persist;

StoreLock::StoreLock(std::string LockPath)
    : StoreLock(std::move(LockPath), Options()) {}

#ifndef _WIN32

/// True when \p Path still names the inode \p Fd has open — false when a
/// holder released (unlinked) it after this process opened it.
static bool stillLinked(int Fd, const std::string &Path) {
  struct stat Mine, Named;
  return ::fstat(Fd, &Mine) == 0 && ::stat(Path.c_str(), &Named) == 0 &&
         Mine.st_ino == Named.st_ino && Mine.st_dev == Named.st_dev;
}

StoreLock::StoreLock(std::string LockPath, Options Opts)
    : Path(std::move(LockPath)) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(Opts.MaxWaitMillis);
  for (;;) {
    int F = ::open(Path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (F < 0)
      break; // No lock file possible here: degrade to unlocked.
    int Rc;
    do
      Rc = ::flock(F, LOCK_EX | LOCK_NB);
    while (Rc != 0 && errno == EINTR);
    int Err = Rc == 0 ? 0 : errno;
    if (Rc == 0 && stillLinked(F, Path)) {
      Fd = F;
      return;
    }
    ::close(F);
    if (Rc != 0 && Err != EWOULDBLOCK)
      break; // No flock on this file system: degrade to unlocked.
    Contended = true;
    if (Clock::now() >= Deadline)
      break;
    if (Rc != 0) // A live holder is polled; a stale inode retried at once.
      std::this_thread::sleep_for(std::chrono::milliseconds(Opts.PollMillis));
  }
  TimedOut = true;
}

StoreLock::~StoreLock() {
  if (Fd < 0)
    return;
  // Unlink while still locked: a waiter that opened this inode sees it
  // unlinked once it locks, and starts again on a fresh file.
  std::remove(Path.c_str());
  ::close(Fd);
}

#else // _WIN32: no lock support; callers proceed unlocked.

StoreLock::StoreLock(std::string LockPath, Options)
    : Path(std::move(LockPath)), TimedOut(true) {}
StoreLock::~StoreLock() = default;

#endif
