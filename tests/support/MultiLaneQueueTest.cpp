//===- tests/support/MultiLaneQueueTest.cpp -------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/MultiLaneQueue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

using namespace ildp;

// MultiLaneQueue: independently bounded lanes drained by weighted-deficit
// round-robin. A single lane is a plain bounded FIFO (the native compile
// pool's queue).

TEST(MultiLaneQueue, PushPopSingleThread) {
  MultiLaneQueue<int> Q({4}, {1});
  int V = 1;
  EXPECT_TRUE(Q.tryPush(0, V));
  V = 2;
  EXPECT_TRUE(Q.tryPush(0, V));
  EXPECT_EQ(Q.size(), 2u);
  EXPECT_EQ(Q.pop()->Item, 1);
  EXPECT_EQ(Q.pop()->Item, 2);
  EXPECT_EQ(Q.tryPop(), std::nullopt);
}

TEST(MultiLaneQueue, FullLaneAcceptsAgainAfterPop) {
  // Producers never block: a full lane rejects at once and takes items
  // again as soon as a consumer makes room.
  MultiLaneQueue<int> Q({2}, {1});
  int V = 1;
  ASSERT_TRUE(Q.tryPush(0, V));
  V = 2;
  ASSERT_TRUE(Q.tryPush(0, V));
  V = 3;
  EXPECT_FALSE(Q.tryPush(0, V));
  EXPECT_EQ(Q.pop()->Item, 1);
  EXPECT_TRUE(Q.tryPush(0, V));
  EXPECT_EQ(Q.pop()->Item, 2);
  EXPECT_EQ(Q.pop()->Item, 3);
}

TEST(MultiLaneQueue, LaneBoundsAreIndependent) {
  MultiLaneQueue<int> Q({2, 1, 1}, {1, 1, 1});
  int V = 0;
  EXPECT_TRUE(Q.tryPush(0, V));
  EXPECT_TRUE(Q.tryPush(0, V));
  EXPECT_FALSE(Q.tryPush(0, V)); // Lane 0 full...
  EXPECT_TRUE(Q.tryPush(1, V));  // ...but lane 1 still has room.
  EXPECT_FALSE(Q.tryPush(1, V));
  EXPECT_TRUE(Q.tryPush(2, V));
  EXPECT_EQ(Q.size(), 4u);
  EXPECT_EQ(Q.laneSize(0), 2u);
  EXPECT_EQ(Q.laneSize(1), 1u);
}

TEST(MultiLaneQueue, FailedTryPushLeavesItemUntouched) {
  MultiLaneQueue<std::string> Q({1}, {1});
  std::string A = "first", B = "second";
  EXPECT_TRUE(Q.tryPush(0, A));
  EXPECT_FALSE(Q.tryPush(0, B));
  EXPECT_EQ(B, "second"); // Rejected item stays with the caller.
  Q.close();
  EXPECT_FALSE(Q.tryPush(0, B)); // Closed queue also refuses...
  EXPECT_EQ(B, "second");        // ...without consuming.
}

TEST(MultiLaneQueue, WeightedDeficitServesLanesInWeightRatio) {
  // Weights 3:1 with both lanes saturated: each refill round serves three
  // from lane 0 then one from lane 1, deterministically.
  MultiLaneQueue<int> Q({16, 16}, {3, 1});
  int V;
  for (int I = 0; I != 6; ++I) {
    V = I;
    ASSERT_TRUE(Q.tryPush(0, V));
  }
  for (int I = 0; I != 2; ++I) {
    V = 100 + I;
    ASSERT_TRUE(Q.tryPush(1, V));
  }
  std::vector<unsigned> Lanes;
  for (int I = 0; I != 8; ++I) {
    auto P = Q.tryPop();
    ASSERT_TRUE(P.has_value());
    Lanes.push_back(P->Lane);
  }
  EXPECT_EQ(Lanes, (std::vector<unsigned>{0, 0, 0, 1, 0, 0, 0, 1}));
}

TEST(MultiLaneQueue, IdleHighPriorityLaneCostsNothing) {
  // Only the low-weight lane has work: it is served back to back, not
  // throttled to its share of an idle mix.
  MultiLaneQueue<int> Q({8, 8}, {7, 1});
  int V;
  for (int I = 0; I != 4; ++I) {
    V = I;
    ASSERT_TRUE(Q.tryPush(1, V));
  }
  for (int I = 0; I != 4; ++I) {
    auto P = Q.tryPop();
    ASSERT_TRUE(P.has_value());
    EXPECT_EQ(P->Lane, 1u);
    EXPECT_EQ(P->Item, I);
  }
}

TEST(MultiLaneQueue, LowPriorityLaneNeverStarves) {
  // Keep lane 0 saturated while draining: lane 1 must still receive its
  // one-per-round grant.
  MultiLaneQueue<int> Q({64, 64}, {8, 1});
  int V = 0;
  for (int I = 0; I != 32; ++I)
    ASSERT_TRUE(Q.tryPush(0, V));
  for (int I = 0; I != 3; ++I)
    ASSERT_TRUE(Q.tryPush(1, V));
  unsigned Lane1Seen = 0;
  for (int I = 0; I != 27; ++I) { // Three full rounds of 9.
    auto P = Q.tryPop();
    ASSERT_TRUE(P.has_value());
    if (P->Lane == 1)
      ++Lane1Seen;
  }
  EXPECT_EQ(Lane1Seen, 3u);
}

TEST(MultiLaneQueue, CloseDrainsThenReportsExhaustion) {
  MultiLaneQueue<int> Q({4, 4}, {1, 1});
  int V = 7;
  ASSERT_TRUE(Q.tryPush(1, V));
  Q.close();
  auto P = Q.pop();
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->Lane, 1u);
  EXPECT_EQ(P->Item, 7);
  EXPECT_EQ(Q.pop(), std::nullopt);
  EXPECT_TRUE(Q.closed());
}

TEST(MultiLaneQueue, CloseWakesBlockedConsumer) {
  MultiLaneQueue<int> Q({2}, {1});
  std::thread Consumer([&] { EXPECT_EQ(Q.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Q.close();
  Consumer.join();
}

TEST(MultiLaneQueue, ConcurrentLanesDeliverEverythingExactlyOnce) {
  constexpr int Producers = 3; // One per lane.
  constexpr int Consumers = 3;
  constexpr int PerProducer = 2000;
  MultiLaneQueue<int> Q({16, 16, 16}, {8, 3, 1});

  std::atomic<long long> Sum{0};
  std::atomic<int> Received{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C != Consumers; ++C)
    Threads.emplace_back([&] {
      while (auto P = Q.pop()) {
        Sum.fetch_add(P->Item);
        Received.fetch_add(1);
      }
    });
  for (int L = 0; L != Producers; ++L)
    Threads.emplace_back([&, L] {
      for (int I = 0; I != PerProducer; ++I) {
        int V = L * PerProducer + I;
        while (!Q.tryPush(unsigned(L), V)) // Spin: bounded lane, open queue.
          std::this_thread::yield();
      }
    });

  for (int L = 0; L != Producers; ++L)
    Threads[size_t(Consumers + L)].join();
  Q.close();
  for (int C = 0; C != Consumers; ++C)
    Threads[size_t(C)].join();

  constexpr long long Total = Producers * PerProducer;
  EXPECT_EQ(Received.load(), Total);
  EXPECT_EQ(Sum.load(), Total * (Total - 1) / 2);
}

TEST(MultiLaneQueue, CloseAndClearCancelsQueuedItems) {
  MultiLaneQueue<int> Q({8, 8}, {1, 1});
  int V = 1;
  ASSERT_TRUE(Q.tryPush(0, V));
  ASSERT_TRUE(Q.tryPush(0, V));
  ASSERT_TRUE(Q.tryPush(1, V));
  EXPECT_EQ(Q.closeAndClear(), 3u);
  EXPECT_EQ(Q.pop(), std::nullopt);
  EXPECT_TRUE(Q.closed());
  EXPECT_FALSE(Q.tryPush(0, V)); // Rejected after close.
}

TEST(MultiLaneQueue, CloseAndClearWakesBlockedConsumer) {
  MultiLaneQueue<int> Q({2}, {1});
  std::thread Consumer([&] { EXPECT_EQ(Q.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Q.closeAndClear();
  Consumer.join();
}

TEST(MultiLaneQueue, MultiProducerMultiConsumerDeliversEverything) {
  // One lane shared by every producer, as in the native compile pool.
  constexpr int Producers = 4;
  constexpr int Consumers = 4;
  constexpr int PerProducer = 2000;
  MultiLaneQueue<int> Q({16}, {1});

  std::atomic<long long> Sum{0};
  std::atomic<int> Received{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C != Consumers; ++C)
    Threads.emplace_back([&] {
      while (auto P = Q.pop()) {
        Sum.fetch_add(P->Item);
        Received.fetch_add(1);
      }
    });
  for (int P = 0; P != Producers; ++P)
    Threads.emplace_back([&, P] {
      for (int I = 0; I != PerProducer; ++I) {
        int V = P * PerProducer + I;
        while (!Q.tryPush(0, V)) // Spin: bounded lane, open queue.
          std::this_thread::yield();
      }
    });

  // Join producers (the back half of Threads), then close to release the
  // consumers once the queue drains.
  for (int P = 0; P != Producers; ++P)
    Threads[size_t(Consumers + P)].join();
  Q.close();
  for (int C = 0; C != Consumers; ++C)
    Threads[size_t(C)].join();

  constexpr long long Total = Producers * PerProducer;
  EXPECT_EQ(Received.load(), Total);
  EXPECT_EQ(Sum.load(), Total * (Total - 1) / 2);
}
