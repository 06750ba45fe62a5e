//===- tests/support/FixedRingTest.cpp ------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/FixedRing.h"
#include "support/Rng.h"

#include <deque>
#include <gtest/gtest.h>
#include <string>

using namespace ildp;

TEST(FixedRing, StartsEmpty) {
  FixedRing<int> Ring(4);
  EXPECT_TRUE(Ring.empty());
  EXPECT_FALSE(Ring.full());
  EXPECT_EQ(Ring.size(), 0u);
  EXPECT_EQ(Ring.capacity(), 4u);
}

TEST(FixedRing, PushBackEvictFifoOrder) {
  FixedRing<int> Ring(3);
  Ring.pushBackEvict(1);
  Ring.pushBackEvict(2);
  Ring.pushBackEvict(3);
  EXPECT_TRUE(Ring.full());
  EXPECT_EQ(Ring.front(), 1);
  EXPECT_EQ(Ring.back(), 3);
  Ring.popFront();
  EXPECT_EQ(Ring.front(), 2);
  EXPECT_EQ(Ring.size(), 2u);
}

TEST(FixedRing, EvictsOldestWhenFull) {
  FixedRing<int> Ring(3);
  for (int I = 1; I <= 5; ++I)
    Ring.pushBackEvict(I);
  // 1 and 2 were evicted.
  EXPECT_EQ(Ring.size(), 3u);
  EXPECT_EQ(Ring.front(), 3);
  EXPECT_EQ(Ring.back(), 5);
}

TEST(FixedRing, PopBackActsAsStack) {
  FixedRing<int> Ring(4);
  Ring.pushBackEvict(10);
  Ring.pushBackEvict(20);
  Ring.pushBackEvict(30);
  EXPECT_EQ(Ring.back(), 30);
  Ring.popBack();
  EXPECT_EQ(Ring.back(), 20);
  Ring.popBack();
  EXPECT_EQ(Ring.back(), 10);
  Ring.popBack();
  EXPECT_TRUE(Ring.empty());
}

TEST(FixedRing, StackOverflowForgetsDeepestFrame) {
  // The dual-RAS use: push beyond capacity, then pop everything back —
  // the oldest (deepest) entries are the ones lost.
  FixedRing<int> Ring(3);
  for (int I = 1; I <= 5; ++I)
    Ring.pushBackEvict(I);
  EXPECT_EQ(Ring.back(), 5);
  Ring.popBack();
  EXPECT_EQ(Ring.back(), 4);
  Ring.popBack();
  EXPECT_EQ(Ring.back(), 3);
  Ring.popBack();
  EXPECT_TRUE(Ring.empty());
}

TEST(FixedRing, ClearResets) {
  FixedRing<int> Ring(2);
  Ring.pushBackEvict(1);
  Ring.pushBackEvict(2);
  Ring.clear();
  EXPECT_TRUE(Ring.empty());
  Ring.pushBackEvict(7);
  EXPECT_EQ(Ring.front(), 7);
  EXPECT_EQ(Ring.back(), 7);
}

TEST(FixedRing, WrapsManyTimes) {
  FixedRing<int> Ring(4);
  for (int I = 0; I != 1000; ++I) {
    Ring.pushBackEvict(I);
    if (I % 3 == 0 && !Ring.empty())
      Ring.popFront();
  }
  // Contents are the newest entries in order.
  ASSERT_FALSE(Ring.empty());
  int Prev = Ring.front();
  Ring.popFront();
  while (!Ring.empty()) {
    EXPECT_GT(Ring.front(), Prev);
    Prev = Ring.front();
    Ring.popFront();
  }
  EXPECT_EQ(Prev, 999);
}

TEST(FixedRing, ZeroCapacityClampsToOne) {
  FixedRing<int> Ring(0);
  EXPECT_EQ(Ring.capacity(), 1u);
  Ring.pushBackEvict(1);
  Ring.pushBackEvict(2);
  EXPECT_EQ(Ring.size(), 1u);
  EXPECT_EQ(Ring.front(), 2);
}

TEST(FixedRing, MatchesDequeOnRandomSequences) {
  // wrap() is a compare and subtract, valid because every index it sees
  // is below twice the capacity. Seeded random mixes of evicting pushes,
  // pops from both ends and clears, checked element by element against a
  // std::deque kept to the same capacity, cover every wrap position.
  for (size_t Capacity : {1u, 3u, 8u}) {
    for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
      SCOPED_TRACE("capacity " + std::to_string(Capacity) + " seed " +
                   std::to_string(Seed));
      Rng Rand(Seed);
      FixedRing<uint64_t> Ring(Capacity);
      std::deque<uint64_t> Ref;
      for (unsigned Step = 0; Step != 2'000; ++Step) {
        uint64_t Choice = Rand.nextBelow(64);
        if (Choice < 36) {
          uint64_t Value = Rand.next();
          Ring.pushBackEvict(Value);
          Ref.push_back(Value);
          if (Ref.size() > Capacity)
            Ref.pop_front();
        } else if (Choice < 49) {
          if (!Ref.empty()) {
            Ring.popBack();
            Ref.pop_back();
          }
        } else if (Choice < 63) {
          if (!Ref.empty()) {
            Ring.popFront();
            Ref.pop_front();
          }
        } else {
          Ring.clear();
          Ref.clear();
        }
        ASSERT_EQ(Ring.size(), Ref.size());
        ASSERT_EQ(Ring.empty(), Ref.empty());
        ASSERT_EQ(Ring.full(), Ref.size() == Capacity);
        for (size_t I = 0; I != Ref.size(); ++I)
          ASSERT_EQ(Ring.at(I), Ref[I]) << "at " << I << ", step " << Step;
        if (!Ref.empty()) {
          ASSERT_EQ(Ring.front(), Ref.front());
          ASSERT_EQ(Ring.back(), Ref.back());
        }
      }
    }
  }
}
