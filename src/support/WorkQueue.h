//===- support/WorkQueue.h - Bounded blocking work queue ------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded multi-producer/multi-consumer blocking queue: the transport
/// between the VM thread and the native compile workers. Producers block
/// while the queue is full (back-pressure) or use tryPush() to turn a full
/// queue into an immediate rejection (the VM never waits on a compile);
/// consumers block while it is empty. close() wakes
/// everyone: pop() drains the remaining items first and then reports
/// exhaustion, so a worker can either finish queued work or the owner can
/// discard it with closeAndClear().
///
/// MultiLaneQueue generalizes the shape for the overload-hardened fleet
/// scheduler: a small fixed set of independently bounded FIFO lanes
/// drained by one weighted-deficit round-robin pop, so a high-priority
/// lane is served ahead of — but never starves — a low-priority one.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_SUPPORT_WORKQUEUE_H
#define ILDP_SUPPORT_WORKQUEUE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace ildp {

/// Bounded blocking FIFO.
template <typename T> class WorkQueue {
public:
  explicit WorkQueue(size_t Capacity) : Capacity(Capacity ? Capacity : 1) {}

  /// Enqueues \p Item, blocking while the queue is full. Returns false if
  /// the queue was closed (the item is dropped).
  bool push(T Item) {
    std::unique_lock<std::mutex> Lock(M);
    NotFull.wait(Lock, [&] { return Items.size() < Capacity || Closed; });
    if (Closed)
      return false;
    Items.push_back(std::move(Item));
    Lock.unlock();
    NotEmpty.notify_one();
    return true;
  }

  /// Dequeues the oldest item, blocking while the queue is empty. Returns
  /// std::nullopt once the queue is closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> Lock(M);
    NotEmpty.wait(Lock, [&] { return !Items.empty() || Closed; });
    if (Items.empty())
      return std::nullopt;
    T Item = std::move(Items.front());
    Items.pop_front();
    Lock.unlock();
    NotFull.notify_one();
    return Item;
  }

  /// Non-blocking push: enqueues \p Item only when the queue has room and
  /// is still open. On failure \p Item is left untouched, so the caller
  /// can reject it in a typed way instead of losing it — the request
  /// scheduler turns a full queue into an ExecStatus::QueueFull response
  /// carrying the request's reply promise.
  bool tryPush(T &Item) {
    {
      std::unique_lock<std::mutex> Lock(M);
      if (Closed || Items.size() >= Capacity)
        return false;
      Items.push_back(std::move(Item));
    }
    NotEmpty.notify_one();
    return true;
  }

  /// Non-blocking pop. Returns std::nullopt when the queue is empty.
  std::optional<T> tryPop() {
    std::unique_lock<std::mutex> Lock(M);
    if (Items.empty())
      return std::nullopt;
    T Item = std::move(Items.front());
    Items.pop_front();
    Lock.unlock();
    NotFull.notify_one();
    return Item;
  }

  /// Stops accepting items. Queued items remain poppable (drain shutdown).
  void close() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Closed = true;
    }
    NotEmpty.notify_all();
    NotFull.notify_all();
  }

  /// Stops accepting items and discards everything queued (cancel
  /// shutdown). Returns the number of items dropped.
  size_t closeAndClear() {
    size_t Dropped;
    {
      std::lock_guard<std::mutex> Lock(M);
      Closed = true;
      Dropped = Items.size();
      Items.clear();
    }
    NotEmpty.notify_all();
    NotFull.notify_all();
    return Dropped;
  }

  bool closed() const {
    std::lock_guard<std::mutex> Lock(M);
    return Closed;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Items.size();
  }

  size_t capacity() const { return Capacity; }

private:
  const size_t Capacity;
  mutable std::mutex M;
  std::condition_variable NotEmpty;
  std::condition_variable NotFull;
  std::deque<T> Items;
  bool Closed = false;
};

/// A fixed set of independently bounded FIFO lanes behind one blocking
/// consumer interface. Producers tryPush() into a specific lane (a full
/// or closed lane is an immediate, typed-rejectable failure, never a
/// block); consumers pop() under weighted-deficit round-robin: each
/// refill round grants lane L up to Weights[L] dequeues, so over any
/// window the served mix approaches the weight ratio — a heavy lane can
/// delay a light one by at most one round, and an idle lane costs the
/// others nothing. close() has WorkQueue semantics: queued items remain
/// poppable (the owner drains or typed-rejects them), then pop() reports
/// exhaustion.
template <typename T> class MultiLaneQueue {
public:
  /// One dequeued item, tagged with the lane it came from.
  struct Popped {
    unsigned Lane;
    T Item;
  };

  /// \p Capacities bound each lane independently (0 -> 1); \p Weights are
  /// the per-round dequeue grants (0 -> 1). The two vectors fix the lane
  /// count and must be the same, nonzero size.
  MultiLaneQueue(std::vector<size_t> Capacities, std::vector<unsigned> Weights)
      : Caps(std::move(Capacities)), Weights(std::move(Weights)) {
    if (Caps.empty())
      Caps.push_back(1);
    this->Weights.resize(Caps.size(), 1);
    for (size_t &C : Caps)
      C = C ? C : 1;
    for (unsigned &W : this->Weights)
      W = W ? W : 1;
    Lanes.resize(Caps.size());
    Credit.assign(Caps.size(), 0);
  }

  /// Non-blocking push into \p Lane. On failure (full lane or closed
  /// queue) \p Item is left untouched so the caller can reject it typed.
  bool tryPush(unsigned Lane, T &Item) {
    {
      std::unique_lock<std::mutex> Lock(M);
      if (Closed || Lanes[Lane].size() >= Caps[Lane])
        return false;
      Lanes[Lane].push_back(std::move(Item));
    }
    NotEmpty.notify_one();
    return true;
  }

  /// Dequeues the next item under weighted-deficit round-robin, blocking
  /// while all lanes are empty. Returns std::nullopt once the queue is
  /// closed and fully drained.
  std::optional<Popped> pop() {
    std::unique_lock<std::mutex> Lock(M);
    NotEmpty.wait(Lock, [&] { return anyQueued() || Closed; });
    if (!anyQueued())
      return std::nullopt;
    unsigned Lane = pickLane();
    Popped P{Lane, std::move(Lanes[Lane].front())};
    Lanes[Lane].pop_front();
    return P;
  }

  /// Non-blocking pop (same lane policy). Returns std::nullopt when every
  /// lane is empty.
  std::optional<Popped> tryPop() {
    std::unique_lock<std::mutex> Lock(M);
    if (!anyQueued())
      return std::nullopt;
    unsigned Lane = pickLane();
    Popped P{Lane, std::move(Lanes[Lane].front())};
    Lanes[Lane].pop_front();
    return P;
  }

  /// Stops accepting items. Queued items remain poppable (drain shutdown).
  void close() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Closed = true;
    }
    NotEmpty.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> Lock(M);
    return Closed;
  }

  unsigned laneCount() const { return unsigned(Caps.size()); }
  size_t laneCapacity(unsigned Lane) const { return Caps[Lane]; }
  unsigned laneWeight(unsigned Lane) const { return Weights[Lane]; }

  size_t laneSize(unsigned Lane) const {
    std::lock_guard<std::mutex> Lock(M);
    return Lanes[Lane].size();
  }

  /// Total items queued across all lanes.
  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    size_t N = 0;
    for (const std::deque<T> &L : Lanes)
      N += L.size();
    return N;
  }

private:
  bool anyQueued() const {
    for (const std::deque<T> &L : Lanes)
      if (!L.empty())
        return true;
    return false;
  }

  /// Weighted-deficit scan (lock held; at least one lane nonempty): serve
  /// the first queued lane that still has round credit; when every queued
  /// lane's credit is spent, refill all credits from the weights and start
  /// the next round. Scanning always from lane 0 keeps the policy
  /// deterministic and priority-ordered within a round (lane 0 spends its
  /// grant first), while the refill keeps every lane's long-run share at
  /// its weight — no lane starves.
  unsigned pickLane() {
    for (;;) {
      for (unsigned L = 0; L != unsigned(Lanes.size()); ++L)
        if (!Lanes[L].empty() && Credit[L] > 0) {
          --Credit[L];
          return L;
        }
      for (unsigned L = 0; L != unsigned(Lanes.size()); ++L)
        Credit[L] = Weights[L];
    }
  }

  std::vector<size_t> Caps;
  std::vector<unsigned> Weights;
  mutable std::mutex M;
  std::condition_variable NotEmpty;
  std::vector<std::deque<T>> Lanes;
  std::vector<unsigned> Credit;
  bool Closed = false;
};

} // namespace ildp

#endif // ILDP_SUPPORT_WORKQUEUE_H
