//===- support/MultiLaneQueue.h - Bounded multi-lane work queue -----------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bounded multi-producer/multi-consumer queue behind both worker
/// pools: a small fixed set of independently bounded FIFO lanes drained
/// by one weighted-deficit round-robin pop, so a high-priority lane is
/// served ahead of — but never starves — a low-priority one. The fleet
/// scheduler uses one lane per request priority; the native compile pool
/// uses a single lane. Producers never block: tryPush() turns a full lane
/// into an immediate rejection (the VM never waits on a compile, and the
/// scheduler answers ExecStatus::QueueFull). Consumers block while every
/// lane is empty. close() wakes everyone: pop() drains the remaining
/// items first and then reports exhaustion, so either the workers finish
/// queued work or the owner discards it with closeAndClear().
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_SUPPORT_MULTILANEQUEUE_H
#define ILDP_SUPPORT_MULTILANEQUEUE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace ildp {

/// A fixed set of independently bounded FIFO lanes behind one blocking
/// consumer interface. Producers tryPush() into a specific lane (a full
/// or closed lane is an immediate, typed-rejectable failure, never a
/// block); consumers pop() under weighted-deficit round-robin: each
/// refill round grants lane L up to Weights[L] dequeues, so over any
/// window the served mix approaches the weight ratio — a heavy lane can
/// delay a light one by at most one round, and an idle lane costs the
/// others nothing. After close(), queued items remain poppable (the owner
/// drains or typed-rejects them), then pop() reports exhaustion.
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

  /// Stops accepting items and discards everything queued (cancel
  /// shutdown). Returns the number of items dropped.
  size_t closeAndClear() {
    size_t Dropped = 0;
    {
      std::lock_guard<std::mutex> Lock(M);
      Closed = true;
      for (std::deque<T> &L : Lanes) {
        Dropped += L.size();
        L.clear();
      }
    }
    NotEmpty.notify_all();
    return Dropped;
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

#endif // ILDP_SUPPORT_MULTILANEQUEUE_H
