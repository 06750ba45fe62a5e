//===- persist/FragmentCodec.h - Fragment binary encode/decode ------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization of translation-cache fragments: the decoded I-ISA
/// body, the PEI side table (Section 2.2's precise-trap metadata) and the
/// source-address map. No linkage is persisted: a direct exit is chained
/// exactly when its target is resident in the importing cache. Encoding is
/// byte-exact and deterministic (a fragment always encodes to the same
/// bytes), which lets round-trip tests compare encodings directly and lets
/// cache files carry flat CRCs.
///
/// Decoding validates every enum, register number, and table index against
/// the structural invariants the rest of the system assumes (the executor
/// indexes Body with exit InstIndex values, trap recovery indexes the PEI
/// table with PeiIndex, ...). A fragment that decodes successfully is safe
/// to install; anything else fails the reader without partial effects
/// beyond the scratch fragment.
///
/// Installation-time state (IBase, ExecCount) is NOT serialized: imported
/// fragments go through TranslationCache::install() again, which reassigns
/// I-PCs and rebuilds every derived field.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_PERSIST_FRAGMENTCODEC_H
#define ILDP_PERSIST_FRAGMENTCODEC_H

#include "core/Fragment.h"
#include "persist/ByteStream.h"

namespace ildp {
namespace persist {

/// Appends the serialized form of \p Frag to \p W.
void encodeFragment(const dbt::Fragment &Frag, ByteWriter &W);

/// Decodes one fragment from \p R into \p Out. Returns true on success;
/// on failure the reader is failed and \p Out is unspecified.
bool decodeFragment(ByteReader &R, dbt::Fragment &Out);

/// Convenience: the canonical encoding of \p Frag as a byte vector
/// (round-trip tests compare these for byte identity).
std::vector<uint8_t> encodedBytes(const dbt::Fragment &Frag);

} // namespace persist
} // namespace ildp

#endif // ILDP_PERSIST_FRAGMENTCODEC_H
