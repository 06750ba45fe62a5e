//===- support/FixedRing.h - Fixed-capacity ring buffer -------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity double-ended ring buffer. Replaces the
/// vector-erase(begin()) anti-pattern for bounded windows and stacks (the
/// VM's dual-address RAS and its phase-detection window): all operations
/// are O(1) and no memory is allocated after construction.
///
/// pushBackEvict() drops the oldest element when the ring is full, which
/// is exactly the recency semantics both VM users want — a return-address
/// stack that forgets the deepest frame, and a sliding event window that
/// only ever needs the newest capacity() timestamps.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_SUPPORT_FIXEDRING_H
#define ILDP_SUPPORT_FIXEDRING_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace ildp {

/// Fixed-capacity deque backed by a circular buffer.
template <typename T> class FixedRing {
public:
  explicit FixedRing(size_t Capacity) : Buf(Capacity ? Capacity : 1) {}

  bool empty() const { return Count == 0; }
  bool full() const { return Count == Buf.size(); }
  size_t size() const { return Count; }
  size_t capacity() const { return Buf.size(); }

  /// Appends \p Value, evicting the oldest element if the ring is full.
  void pushBackEvict(const T &Value) {
    if (full())
      popFront();
    Buf[wrap(Head + Count)] = Value;
    ++Count;
  }

  const T &front() const {
    assert(Count && "front() on empty ring");
    return Buf[Head];
  }

  const T &back() const {
    assert(Count && "back() on empty ring");
    return Buf[wrap(Head + Count - 1)];
  }

  /// Element \p Index positions from the front (0 = oldest).
  const T &at(size_t Index) const {
    assert(Index < Count && "at() out of range");
    return Buf[wrap(Head + Index)];
  }

  void popFront() {
    assert(Count && "popFront() on empty ring");
    Head = wrap(Head + 1);
    --Count;
  }

  void popBack() {
    assert(Count && "popBack() on empty ring");
    --Count;
  }

  void clear() {
    Head = 0;
    Count = 0;
  }

private:
  /// Every caller passes Index < 2 * capacity(): Head < capacity() and
  /// the offset added to it is at most capacity(). A compare and subtract,
  /// not a division, since the dual-address RAS wraps on every push and pop.
  size_t wrap(size_t Index) const {
    assert(Index < 2 * Buf.size() && "wrap() index out of range");
    return Index >= Buf.size() ? Index - Buf.size() : Index;
  }

  std::vector<T> Buf;
  size_t Head = 0;
  size_t Count = 0;
};

} // namespace ildp

#endif // ILDP_SUPPORT_FIXEDRING_H
