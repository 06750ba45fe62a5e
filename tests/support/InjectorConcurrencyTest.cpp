//===- tests/support/InjectorConcurrencyTest.cpp --------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One injector shared by several threads, as the VMs of a fleet share
/// one: the interleaving of fires is not deterministic, but the set of
/// fired hit indices is, so the fired total must equal a single-thread run
/// over the same number of hits. Lives in ildp_concurrency_tests so CI
/// reruns it under ThreadSanitizer.
///
//===----------------------------------------------------------------------===//

#include "support/Injector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace ildp;
using namespace ildp::support;

TEST(InjectorConcurrency, SharedRandomSiteFiresSameTotalAsOneThread) {
  constexpr unsigned Threads = 4;
  constexpr unsigned HitsPerThread = 5000;
  constexpr uint64_t Seed = 0xF1EE7;

  Injector Single;
  Single.armRandom(InjectSite::CodeGen, Seed, 1, 3);
  uint64_t Expected = 0;
  for (unsigned Hit = 0; Hit != Threads * HitsPerThread; ++Hit)
    Expected += Single.fire(InjectSite::CodeGen);
  ASSERT_GT(Expected, 0u);
  ASSERT_LT(Expected, uint64_t(Threads) * HitsPerThread);

  Injector Shared;
  Shared.armRandom(InjectSite::CodeGen, Seed, 1, 3);
  std::atomic<uint64_t> SeenFires{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&] {
      uint64_t Local = 0;
      for (unsigned Hit = 0; Hit != HitsPerThread; ++Hit)
        Local += Shared.fire(InjectSite::CodeGen);
      SeenFires.fetch_add(Local);
    });
  for (std::thread &T : Pool)
    T.join();

  EXPECT_EQ(Shared.hitCount(InjectSite::CodeGen),
            uint64_t(Threads) * HitsPerThread);
  EXPECT_EQ(Shared.firedCount(InjectSite::CodeGen), Expected);
  EXPECT_EQ(SeenFires.load(), Expected);
}
