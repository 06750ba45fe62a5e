//===- tests/persist/Crc32Test.cpp ----------------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The slicing-by-8 CRC-32 against the standard check value and against a
/// byte-at-a-time reference kept here, over random lengths, alignments and
/// incremental split points. Store keys and fingerprints are CRCs, so any
/// difference would silently orphan every saved store.
///
//===----------------------------------------------------------------------===//

#include "persist/Crc32.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace ildp;
using namespace ildp::persist;

namespace {

/// The textbook bitwise CRC-32 (reflected 0xEDB88320), one byte at a time.
uint32_t referenceCrc(const uint8_t *Data, size_t Size) {
  uint32_t C = 0xFFFFFFFFu;
  for (size_t I = 0; I != Size; ++I) {
    C ^= Data[I];
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
  }
  return ~C;
}

} // namespace

TEST(Crc32, KnownAnswer) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, MatchesByteAtATimeReference) {
  Rng R(0xC3C32);
  std::vector<uint8_t> Buf(4096 + 16);
  for (uint8_t &B : Buf)
    B = uint8_t(R.next());
  for (unsigned Trial = 0; Trial != 500; ++Trial) {
    size_t Start = R.nextBelow(16); // Unaligned starts too.
    size_t Size = R.nextBelow(Buf.size() - Start + 1);
    const uint8_t *Data = Buf.data() + Start;
    uint32_t Want = referenceCrc(Data, Size);
    ASSERT_EQ(crc32(Data, Size), Want) << "start " << Start << " size " << Size;
    // Fed in up to three pieces, the running checksum is the same.
    size_t Split1 = R.nextBelow(Size + 1);
    size_t Split2 = Split1 + R.nextBelow(Size - Split1 + 1);
    Crc32 C;
    C.update(Data, Split1);
    C.update(Data + Split1, Split2 - Split1);
    C.update(Data + Split2, Size - Split2);
    ASSERT_EQ(C.value(), Want)
        << "size " << Size << " split " << Split1 << "/" << Split2;
  }
}

TEST(Crc32, IntegralHelpersFoldLittleEndianBytes) {
  const uint8_t Bytes[] = {0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
                           0xEF, 0xBE, 0xAD, 0xDE, 0x7F};
  Crc32 C;
  C.updateU64(0x1122334455667788ull);
  C.updateU32(0xDEADBEEFu);
  C.updateU8(0x7F);
  EXPECT_EQ(C.value(), referenceCrc(Bytes, sizeof(Bytes)));
}
