//===- support/BitUtil.h - Bit manipulation helpers -----------------------===//
//
// Part of the ILDP-DBT project: a reproduction of Kim & Smith, "Dynamic
// Binary Translation for Accumulator-Oriented Architectures" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small bit-twiddling helpers shared by the instruction-set encoders,
/// decoders, and microarchitecture models.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_SUPPORT_BITUTIL_H
#define ILDP_SUPPORT_BITUTIL_H

#include <cassert>
#include <cstdint>

namespace ildp {

/// Extracts the bit-field [Lo, Lo+Width) of \p Value.
constexpr uint64_t extractBits(uint64_t Value, unsigned Lo, unsigned Width) {
  assert(Width >= 1 && Width <= 64 && "Invalid field width");
  assert(Lo < 64 && "Invalid field position");
  uint64_t Mask = Width == 64 ? ~uint64_t(0) : ((uint64_t(1) << Width) - 1);
  return (Value >> Lo) & Mask;
}

/// Sign-extends the low \p Width bits of \p Value to a signed 64-bit value.
constexpr int64_t signExtend(uint64_t Value, unsigned Width) {
  assert(Width >= 1 && Width <= 64 && "Invalid width");
  if (Width == 64)
    return static_cast<int64_t>(Value);
  uint64_t SignBit = uint64_t(1) << (Width - 1);
  uint64_t Mask = (uint64_t(1) << Width) - 1;
  Value &= Mask;
  return static_cast<int64_t>((Value ^ SignBit) - SignBit);
}

/// Returns true if \p Value fits in a signed field of \p Width bits.
constexpr bool fitsSigned(int64_t Value, unsigned Width) {
  assert(Width >= 1 && Width < 64 && "Invalid width");
  int64_t Lo = -(int64_t(1) << (Width - 1));
  int64_t Hi = (int64_t(1) << (Width - 1)) - 1;
  return Value >= Lo && Value <= Hi;
}

/// Returns true if \p Value fits in an unsigned field of \p Width bits.
constexpr bool fitsUnsigned(uint64_t Value, unsigned Width) {
  assert(Width >= 1 && Width <= 64 && "Invalid width");
  return Width == 64 || Value < (uint64_t(1) << Width);
}

/// Returns true if \p Value is a power of two (zero is not).
constexpr bool isPowerOf2(uint64_t Value) {
  return Value != 0 && (Value & (Value - 1)) == 0;
}

/// Returns floor(log2(Value)); \p Value must be nonzero.
constexpr unsigned log2Floor(uint64_t Value) {
  assert(Value != 0 && "log2 of zero");
  unsigned Result = 0;
  while (Value >>= 1)
    ++Result;
  return Result;
}

} // namespace ildp

#endif // ILDP_SUPPORT_BITUTIL_H
