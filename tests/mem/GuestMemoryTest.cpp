//===- tests/mem/GuestMemoryTest.cpp --------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "mem/GuestMemory.h"

#include <gtest/gtest.h>

#include <vector>

using namespace ildp;

TEST(GuestMemory, UnmappedFaults) {
  GuestMemory Mem;
  EXPECT_EQ(Mem.load(0x1000, 8).Fault, MemFaultKind::Unmapped);
  EXPECT_EQ(Mem.store(0x1000, 1, 8), MemFaultKind::Unmapped);
  EXPECT_FALSE(Mem.isMapped(0x1000));
}

TEST(GuestMemory, MapAndRoundTrip) {
  GuestMemory Mem;
  Mem.mapRegion(0x2000, 0x100);
  EXPECT_TRUE(Mem.isMapped(0x2000));
  EXPECT_EQ(Mem.store(0x2008, 0x1122334455667788ull, 8),
            MemFaultKind::None);
  MemAccessResult R = Mem.load(0x2008, 8);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Value, 0x1122334455667788ull);
}

TEST(GuestMemory, LittleEndianSubAccess) {
  GuestMemory Mem;
  Mem.mapRegion(0x3000, 64);
  Mem.store(0x3000, 0x1122334455667788ull, 8);
  EXPECT_EQ(Mem.load(0x3000, 1).Value, 0x88u);
  EXPECT_EQ(Mem.load(0x3001, 1).Value, 0x77u);
  EXPECT_EQ(Mem.load(0x3000, 2).Value, 0x7788u);
  EXPECT_EQ(Mem.load(0x3004, 4).Value, 0x11223344u);
}

TEST(GuestMemory, MisalignedFaults) {
  GuestMemory Mem;
  Mem.mapRegion(0x4000, 64);
  EXPECT_EQ(Mem.load(0x4001, 8).Fault, MemFaultKind::Unaligned);
  EXPECT_EQ(Mem.load(0x4002, 4).Fault, MemFaultKind::Unaligned);
  EXPECT_EQ(Mem.load(0x4001, 2).Fault, MemFaultKind::Unaligned);
  EXPECT_EQ(Mem.store(0x4004, 0, 8), MemFaultKind::Unaligned);
  // Byte accesses can never be misaligned.
  EXPECT_TRUE(Mem.load(0x4001, 1).ok());
}

TEST(GuestMemory, ZeroInitialized) {
  GuestMemory Mem;
  Mem.mapRegion(0x5000, GuestMemory::PageSize);
  EXPECT_EQ(Mem.load(0x5FF8, 8).Value, 0u);
}

TEST(GuestMemory, RegionSpansPages) {
  GuestMemory Mem;
  Mem.mapRegion(GuestMemory::PageSize - 8, 16);
  EXPECT_TRUE(Mem.isMapped(GuestMemory::PageSize - 1));
  EXPECT_TRUE(Mem.isMapped(GuestMemory::PageSize));
  EXPECT_EQ(Mem.mappedPageCount(), 2u);
}

TEST(GuestMemory, WriteBlobMapsOnDemand) {
  GuestMemory Mem;
  const uint8_t Data[] = {1, 2, 3, 4, 5};
  Mem.writeBlob(0x7FFE, Data, sizeof(Data)); // Crosses a page boundary.
  EXPECT_EQ(Mem.load(0x7FFE, 1).Value, 1u);
  EXPECT_EQ(Mem.load(0x8002, 1).Value, 5u);
}

TEST(GuestMemory, WriteBlobSpanningThreePagesFromUnalignedStart) {
  constexpr uint64_t Page = GuestMemory::PageSize;
  const uint64_t Base = 5 * Page + 0x123;
  // Ends inside the page after next: three pages touched, none whole.
  const uint64_t Size = 2 * Page - 0x100;
  std::vector<uint8_t> Data(Size);
  for (uint64_t I = 0; I != Size; ++I)
    Data[I] = uint8_t(I * 7 + 1);
  GuestMemory Mem;
  Mem.writeBlob(Base, Data.data(), Size);
  EXPECT_EQ(Mem.mappedPageBases(),
            (std::vector<uint64_t>{5 * Page, 6 * Page, 7 * Page}));
  for (uint64_t I = 0; I != Size; ++I)
    ASSERT_EQ(Mem.load(Base + I, 1).Value, Data[I]) << "byte " << I;
  // Bytes just outside the blob stay zero, to the page edges.
  EXPECT_EQ(Mem.load(Base - 1, 1).Value, 0u);
  EXPECT_EQ(Mem.load(5 * Page, 1).Value, 0u);
  EXPECT_EQ(Mem.load(Base + Size, 1).Value, 0u);
  EXPECT_EQ(Mem.load(8 * Page - 1, 1).Value, 0u);

  // A zero-length blob maps nothing, even at an unmapped address.
  Mem.writeBlob(20 * Page + 3, Data.data(), 0);
  EXPECT_EQ(Mem.mappedPageCount(), 3u);
  EXPECT_FALSE(Mem.isMapped(20 * Page));
}

TEST(GuestMemory, PokeHelpers) {
  GuestMemory Mem;
  Mem.poke32(0x9000, 0xCAFEBABE);
  Mem.poke64(0x9008, 0x0123456789ABCDEFull);
  EXPECT_EQ(Mem.load(0x9000, 4).Value, 0xCAFEBABEu);
  EXPECT_EQ(Mem.load(0x9008, 8).Value, 0x0123456789ABCDEFull);
}

TEST(GuestMemory, StoreDoesNotAllocate) {
  GuestMemory Mem;
  EXPECT_EQ(Mem.store(0xA000, 42, 8), MemFaultKind::Unmapped);
  EXPECT_EQ(Mem.mappedPageCount(), 0u);
}

// ---- Software TLB (load/store/fetch32 fast path) ----

namespace {

/// Two distinct page indices that share one TLB set.
std::pair<uint64_t, uint64_t> aliasingPages() {
  uint64_t First = 0x10000; // An ordinary code-region page index.
  for (uint64_t Other = First + 1;; ++Other)
    if (GuestMemory::tlbSet(Other) == GuestMemory::tlbSet(First))
      return {First, Other};
}

} // namespace

TEST(GuestMemoryTlb, AliasingPagesAlternateCorrectly) {
  auto [PageA, PageB] = aliasingPages();
  uint64_t A = PageA << GuestMemory::PageShift;
  uint64_t B = PageB << GuestMemory::PageShift;
  GuestMemory Mem;
  Mem.mapRegion(A, GuestMemory::PageSize);
  Mem.mapRegion(B, GuestMemory::PageSize);
  // Each access evicts the other page's entry; values must never leak
  // between the two pages.
  for (uint64_t I = 0; I != 64; ++I) {
    ASSERT_EQ(Mem.store(A + I * 8, 0xA000 + I, 8), MemFaultKind::None);
    ASSERT_EQ(Mem.store(B + I * 8, 0xB000 + I, 8), MemFaultKind::None);
  }
  for (uint64_t I = 0; I != 64; ++I) {
    EXPECT_EQ(Mem.load(A + I * 8, 8).Value, 0xA000 + I);
    EXPECT_EQ(Mem.load(B + I * 8, 8).Value, 0xB000 + I);
  }
  // Every access switched pages within one set: all of them missed.
  EXPECT_EQ(Mem.tlbMisses(), 4u * 64);
  // Same page, same set: hits after the first access.
  uint64_t Before = Mem.tlbMisses();
  for (uint64_t I = 0; I != 64; ++I)
    EXPECT_EQ(Mem.load(A + I * 8, 8).Value, 0xA000 + I);
  EXPECT_EQ(Mem.tlbMisses(), Before + 1);
}

TEST(GuestMemoryTlb, PageMappedAfterMissIsSeen) {
  GuestMemory Mem;
  EXPECT_EQ(Mem.load(0x40000, 8).Fault, MemFaultKind::Unmapped);
  EXPECT_EQ(Mem.store(0x40008, 7, 8), MemFaultKind::Unmapped);
  EXPECT_EQ(Mem.fetch32(0x40010).Fault, MemFaultKind::Unmapped);
  // The misses above must not have cached "unmapped".
  Mem.mapRegion(0x40000, 16);
  EXPECT_EQ(Mem.store(0x40008, 7, 8), MemFaultKind::None);
  EXPECT_EQ(Mem.load(0x40008, 8).Value, 7u);
  Mem.poke32(0x40010, 0x12345678);
  EXPECT_EQ(Mem.fetch32(0x40010).Value, 0x12345678u);
}

TEST(GuestMemoryTlb, PokeAfterCachedAccessIsVisible) {
  // poke*/writeBlob write the page directly; the TLB maps the same page.
  GuestMemory Mem;
  Mem.mapRegion(0x50000, 64);
  EXPECT_EQ(Mem.load(0x50000, 8).Value, 0u); // Fills the entry.
  Mem.poke64(0x50000, 0xFEEDull);
  EXPECT_EQ(Mem.load(0x50000, 8).Value, 0xFEEDull);
}

TEST(GuestMemoryTlb, MoveConstructHandsOverPages) {
  GuestMemory Src;
  Src.mapRegion(0x60000, 64);
  ASSERT_EQ(Src.store(0x60000, 0xABCDull, 8), MemFaultKind::None);
  ASSERT_EQ(Src.load(0x60000, 8).Value, 0xABCDull); // Warm Src's TLB.
  GuestMemory Dst(std::move(Src));
  EXPECT_EQ(Dst.load(0x60000, 8).Value, 0xABCDull);
  EXPECT_EQ(Dst.store(0x60008, 1, 8), MemFaultKind::None);
  // The moved-from image owns nothing: its warm TLB entry must be gone.
  EXPECT_EQ(Src.load(0x60000, 8).Fault, MemFaultKind::Unmapped); // NOLINT
  EXPECT_EQ(Src.store(0x60000, 1, 8), MemFaultKind::Unmapped);
  EXPECT_EQ(Src.mappedPageCount(), 0u);
}

TEST(GuestMemoryTlb, MoveAssignHandsOverPages) {
  GuestMemory Src;
  Src.mapRegion(0x70000, 64);
  ASSERT_EQ(Src.store(0x70000, 0x5151ull, 8), MemFaultKind::None);
  GuestMemory Dst;
  Dst.mapRegion(0x80000, 64);
  ASSERT_EQ(Dst.store(0x80000, 0x9999ull, 8), MemFaultKind::None);
  Dst = std::move(Src);
  EXPECT_EQ(Dst.load(0x70000, 8).Value, 0x5151ull);
  // Dst's old page went away with its old contents, cached entry included.
  EXPECT_EQ(Dst.load(0x80000, 8).Fault, MemFaultKind::Unmapped);
  EXPECT_EQ(Src.load(0x70000, 8).Fault, MemFaultKind::Unmapped); // NOLINT
}

TEST(GuestMemoryTlb, FaultsIdenticalOnHitAndMissPaths) {
  // BadSize -> Unaligned -> Unmapped, whether or not the page is cached.
  struct Probe {
    uint64_t Addr;
    unsigned Size;
  };
  const Probe Probes[] = {{0x90000, 3},  {0x90001, 3}, {0x90001, 8},
                          {0x90002, 4},  {0x90000, 0}, {0x90000, 16},
                          {0x900000, 3}, {0x900001, 8}, {0x900000, 8}};
  auto Results = [&](GuestMemory &Mem) {
    std::vector<MemFaultKind> Out;
    for (const Probe &P : Probes) {
      Out.push_back(Mem.load(P.Addr, P.Size).Fault);
      Out.push_back(Mem.store(P.Addr, 0, P.Size));
    }
    return Out;
  };
  GuestMemory Cold, Warm;
  Cold.mapRegion(0x90000, 64);
  Warm.mapRegion(0x90000, 64);
  ASSERT_TRUE(Warm.load(0x90000, 8).ok()); // Warm's entry is filled.
  std::vector<MemFaultKind> ColdFaults = Results(Cold);
  EXPECT_EQ(ColdFaults, Results(Warm));
  const std::vector<MemFaultKind> Expected = {
      MemFaultKind::BadSize,   MemFaultKind::BadSize,
      MemFaultKind::BadSize,   MemFaultKind::BadSize,
      MemFaultKind::Unaligned, MemFaultKind::Unaligned,
      MemFaultKind::Unaligned, MemFaultKind::Unaligned,
      MemFaultKind::BadSize,   MemFaultKind::BadSize,
      MemFaultKind::BadSize,   MemFaultKind::BadSize,
      MemFaultKind::BadSize,   MemFaultKind::BadSize,
      MemFaultKind::Unaligned, MemFaultKind::Unaligned,
      MemFaultKind::Unmapped,  MemFaultKind::Unmapped};
  EXPECT_EQ(ColdFaults, Expected);
  // Faulting accesses change nothing.
  EXPECT_EQ(Warm.load(0x90000, 8).Value, 0u);
}
