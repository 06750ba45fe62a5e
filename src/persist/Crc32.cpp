//===- persist/Crc32.cpp - CRC-32 checksums -------------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#include "persist/Crc32.h"

#include <array>

using namespace ildp;
using namespace ildp::persist;

namespace {

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: T[0] is
/// the byte-at-a-time table, and T[K][B] is the CRC of byte B followed by
/// K zero bytes, so eight table lookups fold eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables makeTables() {
  Tables T{};
  for (uint32_t I = 0; I != 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K != 8; ++K)
      C = (C & 1) ? 0xEDB88320u ^ (C >> 1) : C >> 1;
    T[0][I] = C;
  }
  for (uint32_t I = 0; I != 256; ++I)
    for (size_t K = 1; K != T.size(); ++K)
      T[K][I] = T[0][T[K - 1][I] & 0xFF] ^ (T[K - 1][I] >> 8);
  return T;
}

const Tables &tables() {
  static const Tables T = makeTables();
  return T;
}

} // namespace

void Crc32::update(const void *Data, size_t Size) {
  const auto *Bytes = static_cast<const uint8_t *>(Data);
  const Tables &T = tables();
  uint32_t C = State;
  for (; Size >= 8; Bytes += 8, Size -= 8) {
    // Little-endian assembly, so the result is independent of host order.
    uint32_t Lo = C ^ (uint32_t(Bytes[0]) | uint32_t(Bytes[1]) << 8 |
                       uint32_t(Bytes[2]) << 16 | uint32_t(Bytes[3]) << 24);
    uint32_t Hi = uint32_t(Bytes[4]) | uint32_t(Bytes[5]) << 8 |
                  uint32_t(Bytes[6]) << 16 | uint32_t(Bytes[7]) << 24;
    C = T[7][Lo & 0xFF] ^ T[6][(Lo >> 8) & 0xFF] ^ T[5][(Lo >> 16) & 0xFF] ^
        T[4][Lo >> 24] ^ T[3][Hi & 0xFF] ^ T[2][(Hi >> 8) & 0xFF] ^
        T[1][(Hi >> 16) & 0xFF] ^ T[0][Hi >> 24];
  }
  for (; Size != 0; ++Bytes, --Size)
    C = T[0][(C ^ *Bytes) & 0xFF] ^ (C >> 8);
  State = C;
}

void Crc32::updateU64(uint64_t Value) {
  uint8_t Bytes[8];
  for (int I = 0; I != 8; ++I)
    Bytes[I] = uint8_t(Value >> (8 * I));
  update(Bytes, 8);
}

void Crc32::updateU32(uint32_t Value) {
  uint8_t Bytes[4];
  for (int I = 0; I != 4; ++I)
    Bytes[I] = uint8_t(Value >> (8 * I));
  update(Bytes, 4);
}

void Crc32::updateU8(uint8_t Value) { update(&Value, 1); }

uint32_t persist::crc32(const void *Data, size_t Size) {
  Crc32 C;
  C.update(Data, Size);
  return C.value();
}
