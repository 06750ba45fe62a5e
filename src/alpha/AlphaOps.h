//===- alpha/AlphaOps.h - Single-source Alpha operation semantics ---------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The one definition of every Alpha integer operation, branch predicate
// and conditional-move predicate, shared by every execution tier:
//
//   - alpha/Semantics.h includes this header, so the interpreter and the
//     I-ISA executor evaluate through these functions;
//   - the build embeds this file verbatim into the preamble of every
//     natively compiled fragment (native/NativeAbi.h), and the emitted C
//     calls ildp_op_ADDQ(a0, g3), ildp_br_BEQ(a1), ...
//
// So it is written in the common subset of C and C++: static inline
// functions, no namespaces, no other headers. The includer supplies
// uint8_t, int8_t, int16_t, int32_t, int64_t and uint64_t.
//
// Naming: ildp_op_<M>(a, b) computes operate opcode M on Ra (or the base
// register for LDA/LDAH) and Rb (or the zero-extended literal, or the
// pre-scaled displacement); ildp_br_<M>(a) and ildp_cmov_<M>(a) test the
// Ra value of conditional branch / conditional move M. <M> is the
// alpha::Opcode enumerator, and each group has an X-macro list naming
// exactly the opcodes it defines.
//
//===----------------------------------------------------------------------===//

#ifndef ILDP_ALPHA_ALPHAOPS_H
#define ILDP_ALPHA_ALPHAOPS_H

#define ILDP_INT_OPS(X)                                                        \
  X(LDA) X(LDAH)                                                               \
  X(ADDL) X(ADDQ) X(SUBL) X(SUBQ)                                              \
  X(S4ADDL) X(S4ADDQ) X(S8ADDL) X(S8ADDQ)                                      \
  X(S4SUBL) X(S4SUBQ) X(S8SUBL) X(S8SUBQ)                                      \
  X(CMPEQ) X(CMPLT) X(CMPLE) X(CMPULT) X(CMPULE) X(CMPBGE)                     \
  X(AND) X(BIC) X(BIS) X(ORNOT) X(XOR) X(EQV)                                  \
  X(SLL) X(SRL) X(SRA) X(ZAP) X(ZAPNOT)                                        \
  X(EXTBL) X(EXTWL) X(INSBL) X(MSKBL)                                          \
  X(MULL) X(MULQ) X(UMULH)                                                     \
  X(SEXTB) X(SEXTW) X(CTPOP) X(CTLZ) X(CTTZ)

#define ILDP_BRANCH_OPS(X)                                                     \
  X(BEQ) X(BNE) X(BLT) X(BLE) X(BGT) X(BGE) X(BLBC) X(BLBS)

#define ILDP_CMOV_OPS(X)                                                       \
  X(CMOVEQ) X(CMOVNE) X(CMOVLT) X(CMOVGE)                                      \
  X(CMOVLE) X(CMOVGT) X(CMOVLBS) X(CMOVLBC)

// Sign-extends the low longword (the *L opcodes and LDL).
static inline uint64_t ildp_sextl(uint64_t x) {
  return (uint64_t)(int64_t)(int32_t)x;
}

// Address formation (memory format, but pure arithmetic).
static inline uint64_t ildp_op_LDA(uint64_t a, uint64_t b) { return a + b; }
static inline uint64_t ildp_op_LDAH(uint64_t a, uint64_t b) {
  return a + (b << 16);
}

// INTA.
static inline uint64_t ildp_op_ADDL(uint64_t a, uint64_t b) {
  return ildp_sextl(a + b);
}
static inline uint64_t ildp_op_ADDQ(uint64_t a, uint64_t b) { return a + b; }
static inline uint64_t ildp_op_SUBL(uint64_t a, uint64_t b) {
  return ildp_sextl(a - b);
}
static inline uint64_t ildp_op_SUBQ(uint64_t a, uint64_t b) { return a - b; }
static inline uint64_t ildp_op_S4ADDL(uint64_t a, uint64_t b) {
  return ildp_sextl(a * 4 + b);
}
static inline uint64_t ildp_op_S4ADDQ(uint64_t a, uint64_t b) {
  return a * 4 + b;
}
static inline uint64_t ildp_op_S8ADDL(uint64_t a, uint64_t b) {
  return ildp_sextl(a * 8 + b);
}
static inline uint64_t ildp_op_S8ADDQ(uint64_t a, uint64_t b) {
  return a * 8 + b;
}
static inline uint64_t ildp_op_S4SUBL(uint64_t a, uint64_t b) {
  return ildp_sextl(a * 4 - b);
}
static inline uint64_t ildp_op_S4SUBQ(uint64_t a, uint64_t b) {
  return a * 4 - b;
}
static inline uint64_t ildp_op_S8SUBL(uint64_t a, uint64_t b) {
  return ildp_sextl(a * 8 - b);
}
static inline uint64_t ildp_op_S8SUBQ(uint64_t a, uint64_t b) {
  return a * 8 - b;
}
static inline uint64_t ildp_op_CMPEQ(uint64_t a, uint64_t b) {
  return a == b;
}
static inline uint64_t ildp_op_CMPLT(uint64_t a, uint64_t b) {
  return (int64_t)a < (int64_t)b;
}
static inline uint64_t ildp_op_CMPLE(uint64_t a, uint64_t b) {
  return (int64_t)a <= (int64_t)b;
}
static inline uint64_t ildp_op_CMPULT(uint64_t a, uint64_t b) {
  return a < b;
}
static inline uint64_t ildp_op_CMPULE(uint64_t a, uint64_t b) {
  return a <= b;
}
static inline uint64_t ildp_op_CMPBGE(uint64_t a, uint64_t b) {
  uint64_t m = 0;
  unsigned i;
  for (i = 0; i != 8; ++i)
    if ((uint8_t)(a >> (8 * i)) >= (uint8_t)(b >> (8 * i)))
      m |= (uint64_t)1 << i;
  return m;
}

// INTL.
static inline uint64_t ildp_op_AND(uint64_t a, uint64_t b) { return a & b; }
static inline uint64_t ildp_op_BIC(uint64_t a, uint64_t b) { return a & ~b; }
static inline uint64_t ildp_op_BIS(uint64_t a, uint64_t b) { return a | b; }
static inline uint64_t ildp_op_ORNOT(uint64_t a, uint64_t b) {
  return a | ~b;
}
static inline uint64_t ildp_op_XOR(uint64_t a, uint64_t b) { return a ^ b; }
static inline uint64_t ildp_op_EQV(uint64_t a, uint64_t b) { return a ^ ~b; }

// INTS.
static inline uint64_t ildp_op_SLL(uint64_t a, uint64_t b) {
  return a << (b & 63);
}
static inline uint64_t ildp_op_SRL(uint64_t a, uint64_t b) {
  return a >> (b & 63);
}
static inline uint64_t ildp_op_SRA(uint64_t a, uint64_t b) {
  return (uint64_t)((int64_t)a >> (b & 63));
}
static inline uint64_t ildp_op_ZAP(uint64_t a, uint64_t b) {
  uint64_t r = a;
  unsigned i;
  for (i = 0; i != 8; ++i)
    if (b & ((uint64_t)1 << i))
      r &= ~((uint64_t)0xFF << (8 * i));
  return r;
}
static inline uint64_t ildp_op_ZAPNOT(uint64_t a, uint64_t b) {
  uint64_t r = 0;
  unsigned i;
  for (i = 0; i != 8; ++i)
    if (b & ((uint64_t)1 << i))
      r |= a & ((uint64_t)0xFF << (8 * i));
  return r;
}
static inline uint64_t ildp_op_EXTBL(uint64_t a, uint64_t b) {
  return (a >> (8 * (b & 7))) & 0xFF;
}
static inline uint64_t ildp_op_EXTWL(uint64_t a, uint64_t b) {
  return (a >> (8 * (b & 7))) & 0xFFFF;
}
static inline uint64_t ildp_op_INSBL(uint64_t a, uint64_t b) {
  return (a & 0xFF) << (8 * (b & 7));
}
static inline uint64_t ildp_op_MSKBL(uint64_t a, uint64_t b) {
  return a & ~((uint64_t)0xFF << (8 * (b & 7)));
}

// INTM.
static inline uint64_t ildp_op_MULL(uint64_t a, uint64_t b) {
  return ildp_sextl(a * b);
}
static inline uint64_t ildp_op_MULQ(uint64_t a, uint64_t b) { return a * b; }
static inline uint64_t ildp_op_UMULH(uint64_t a, uint64_t b) {
  return (uint64_t)(((unsigned __int128)a * (unsigned __int128)b) >> 64);
}

// CIX / sign extension: Rb only.
static inline uint64_t ildp_op_SEXTB(uint64_t a, uint64_t b) {
  (void)a;
  return (uint64_t)(int64_t)(int8_t)b;
}
static inline uint64_t ildp_op_SEXTW(uint64_t a, uint64_t b) {
  (void)a;
  return (uint64_t)(int64_t)(int16_t)b;
}
static inline uint64_t ildp_op_CTPOP(uint64_t a, uint64_t b) {
  uint64_t n = 0;
  (void)a;
  for (; b; b &= b - 1)
    ++n;
  return n;
}
static inline uint64_t ildp_op_CTLZ(uint64_t a, uint64_t b) {
  uint64_t n = 0, bit;
  (void)a;
  if (b == 0)
    return 64;
  for (bit = (uint64_t)1 << 63; !(b & bit); bit >>= 1)
    ++n;
  return n;
}
static inline uint64_t ildp_op_CTTZ(uint64_t a, uint64_t b) {
  uint64_t n = 0, bit;
  (void)a;
  if (b == 0)
    return 64;
  for (bit = 1; !(b & bit); bit <<= 1)
    ++n;
  return n;
}

// Conditional-branch predicates on the Ra value.
static inline int ildp_br_BEQ(uint64_t a) { return a == 0; }
static inline int ildp_br_BNE(uint64_t a) { return a != 0; }
static inline int ildp_br_BLT(uint64_t a) { return (int64_t)a < 0; }
static inline int ildp_br_BLE(uint64_t a) { return (int64_t)a <= 0; }
static inline int ildp_br_BGT(uint64_t a) { return (int64_t)a > 0; }
static inline int ildp_br_BGE(uint64_t a) { return (int64_t)a >= 0; }
static inline int ildp_br_BLBC(uint64_t a) { return (a & 1) == 0; }
static inline int ildp_br_BLBS(uint64_t a) { return (a & 1) != 0; }

// Conditional-move predicates on the Ra value.
static inline int ildp_cmov_CMOVEQ(uint64_t a) { return a == 0; }
static inline int ildp_cmov_CMOVNE(uint64_t a) { return a != 0; }
static inline int ildp_cmov_CMOVLT(uint64_t a) { return (int64_t)a < 0; }
static inline int ildp_cmov_CMOVGE(uint64_t a) { return (int64_t)a >= 0; }
static inline int ildp_cmov_CMOVLE(uint64_t a) { return (int64_t)a <= 0; }
static inline int ildp_cmov_CMOVGT(uint64_t a) { return (int64_t)a > 0; }
static inline int ildp_cmov_CMOVLBS(uint64_t a) { return (a & 1) != 0; }
static inline int ildp_cmov_CMOVLBC(uint64_t a) { return (a & 1) == 0; }

#endif // ILDP_ALPHA_ALPHAOPS_H
