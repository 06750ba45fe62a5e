//===- tests/mem/GuestMemoryPropertyTest.cpp ------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized property sweeps over the guest memory: store/load
/// round-trips at every access size and alignment, little-endian overlap
/// consistency between sizes, page-boundary behaviour, and fault
/// precision (a faulting access has no side effects).
///
//===----------------------------------------------------------------------===//

#include "mem/GuestMemory.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ildp;

namespace {

constexpr uint64_t Base = 0x40000;
constexpr uint64_t RegionSize = 4 * GuestMemory::PageSize;

uint64_t truncateToSize(uint64_t Value, unsigned Size) {
  return Size == 8 ? Value : Value & ((uint64_t(1) << (Size * 8)) - 1);
}

} // namespace

class GuestMemSizeTest : public ::testing::TestWithParam<unsigned> {};

/// Misalignment, over the sizes an access can be misaligned at (not 1).
class GuestMemMisalignTest : public ::testing::TestWithParam<unsigned> {};

static std::string sizeName(const ::testing::TestParamInfo<unsigned> &Info) {
  // Appended: GCC 12 at -O3 raises a false-positive -Wrestrict on
  // "literal" + string.
  std::string Name = "B";
  Name += std::to_string(Info.param);
  return Name;
}

TEST_P(GuestMemSizeTest, RandomAlignedRoundTrips) {
  unsigned Size = GetParam();
  GuestMemory Mem;
  Mem.mapRegion(Base, RegionSize);
  Rng R(0x6E0 + Size);
  for (int Case = 0; Case != 400; ++Case) {
    uint64_t Offset = R.nextBelow(RegionSize - 8) & ~uint64_t(Size - 1);
    uint64_t Value = R.next();
    ASSERT_EQ(Mem.store(Base + Offset, Value, Size), MemFaultKind::None);
    MemAccessResult Load = Mem.load(Base + Offset, Size);
    ASSERT_TRUE(Load.ok());
    EXPECT_EQ(Load.Value, truncateToSize(Value, Size))
        << "size " << Size << " offset " << Offset;
  }
}

TEST_P(GuestMemMisalignTest, MisalignedAccessesFaultWithoutSideEffects) {
  unsigned Size = GetParam();
  GuestMemory Mem;
  Mem.mapRegion(Base, RegionSize);
  // Pre-fill a window, then attempt misaligned stores over it: each must
  // fault and leave the window untouched.
  for (unsigned I = 0; I != 16; ++I)
    Mem.poke8(Base + I, uint8_t(0xA0 + I));
  for (unsigned Mis = 1; Mis != Size; ++Mis) {
    EXPECT_EQ(Mem.store(Base + Mis, ~uint64_t(0), Size),
              MemFaultKind::Unaligned);
    MemAccessResult Load = Mem.load(Base + Mis, Size);
    EXPECT_EQ(Load.Fault, MemFaultKind::Unaligned);
  }
  for (unsigned I = 0; I != 16; ++I) {
    MemAccessResult Byte = Mem.load(Base + I, 1);
    ASSERT_TRUE(Byte.ok());
    EXPECT_EQ(Byte.Value, uint64_t(0xA0 + I));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GuestMemSizeTest,
                         ::testing::Values(1u, 2u, 4u, 8u), sizeName);
INSTANTIATE_TEST_SUITE_P(Sizes, GuestMemMisalignTest,
                         ::testing::Values(2u, 4u, 8u), sizeName);

TEST(GuestMemoryProperty, SubAccessesAgreeWithContainingQuadword) {
  // Little-endian consistency: for a random quadword, every smaller
  // aligned load inside it must equal the corresponding byte slice.
  GuestMemory Mem;
  Mem.mapRegion(Base, RegionSize);
  Rng R(0x11EE);
  for (int Case = 0; Case != 200; ++Case) {
    uint64_t Addr = Base + (R.nextBelow(RegionSize - 8) & ~uint64_t(7));
    uint64_t Value = R.next();
    ASSERT_EQ(Mem.store(Addr, Value, 8), MemFaultKind::None);
    for (unsigned Size : {1u, 2u, 4u}) {
      for (unsigned Off = 0; Off != 8; Off += Size) {
        MemAccessResult Load = Mem.load(Addr + Off, Size);
        ASSERT_TRUE(Load.ok());
        EXPECT_EQ(Load.Value, truncateToSize(Value >> (Off * 8), Size));
      }
    }
  }
}

TEST(GuestMemoryProperty, ByteWritesComposeIntoWiderReads) {
  // The dual direction: bytes written individually must assemble into the
  // little-endian wider value.
  GuestMemory Mem;
  Mem.mapRegion(Base, GuestMemory::PageSize);
  Rng R(0xBEEF);
  for (int Case = 0; Case != 200; ++Case) {
    uint64_t Addr = Base + (R.nextBelow(GuestMemory::PageSize - 8) &
                            ~uint64_t(7));
    uint64_t Value = R.next();
    for (unsigned I = 0; I != 8; ++I)
      Mem.poke8(Addr + I, uint8_t(Value >> (I * 8)));
    MemAccessResult Load = Mem.load(Addr, 8);
    ASSERT_TRUE(Load.ok());
    EXPECT_EQ(Load.Value, Value);
  }
}

TEST(GuestMemoryProperty, PageBoundaryAlignedAccessesWork) {
  // Aligned accesses never straddle a page, including the last slot of a
  // page and the first slot of the next.
  GuestMemory Mem;
  Mem.mapRegion(Base, 2 * GuestMemory::PageSize);
  uint64_t Boundary = Base + GuestMemory::PageSize;
  for (unsigned Size : {1u, 2u, 4u, 8u}) {
    uint64_t LastSlot = Boundary - Size;
    ASSERT_EQ(Mem.store(LastSlot, 0x1111111111111111ull, Size),
              MemFaultKind::None);
    ASSERT_EQ(Mem.store(Boundary, 0x2222222222222222ull, Size),
              MemFaultKind::None);
    EXPECT_EQ(Mem.load(LastSlot, Size).Value,
              truncateToSize(0x1111111111111111ull, Size));
    EXPECT_EQ(Mem.load(Boundary, Size).Value,
              truncateToSize(0x2222222222222222ull, Size));
  }
}

TEST(GuestMemoryProperty, UnmappedEdgesFaultPrecisely) {
  // Accesses just below and just above a mapped region fault as
  // Unmapped; the region's own edges work.
  GuestMemory Mem;
  Mem.mapRegion(Base, GuestMemory::PageSize);
  EXPECT_EQ(Mem.load(Base - 8, 8).Fault, MemFaultKind::Unmapped);
  EXPECT_EQ(Mem.load(Base + GuestMemory::PageSize, 8).Fault,
            MemFaultKind::Unmapped);
  EXPECT_TRUE(Mem.load(Base, 8).ok());
  EXPECT_TRUE(Mem.load(Base + GuestMemory::PageSize - 8, 8).ok());
  // Faulting loads report the address class, not stale data.
  MemAccessResult Below = Mem.load(Base - 8, 8);
  EXPECT_FALSE(Below.ok());
}

TEST(GuestMemoryProperty, MapRegionIsIdempotentAndPreservesContents) {
  GuestMemory Mem;
  Mem.mapRegion(Base, GuestMemory::PageSize);
  Mem.poke64(Base + 64, 0xFEEDFACECAFEBEEFull);
  // Re-mapping the same (or an overlapping) region must not zero what is
  // already there.
  Mem.mapRegion(Base, 2 * GuestMemory::PageSize);
  EXPECT_EQ(Mem.load(Base + 64, 8).Value, 0xFEEDFACECAFEBEEFull);
  EXPECT_TRUE(Mem.load(Base + GuestMemory::PageSize, 8).ok());
}

TEST(GuestMemoryProperty, SparsePagesAllocateOnlyWhatIsTouched) {
  GuestMemory Mem;
  size_t Before = Mem.mappedPageCount();
  // Touch two pages a gigabyte apart: exactly two pages materialize.
  Mem.poke64(0x1000000000ull, 1);
  Mem.poke64(0x2000000000ull, 2);
  EXPECT_EQ(Mem.mappedPageCount(), Before + 2);
  EXPECT_EQ(Mem.load(0x1000000000ull, 8).Value, 1u);
  EXPECT_EQ(Mem.load(0x2000000000ull, 8).Value, 2u);
}
