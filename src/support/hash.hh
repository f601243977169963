/**
 * @file
 * FNV-1a, the one hash behind every measurement, sealing MAC, digest
 * and trace signature in the tree.
 *
 * Two steps fold a 64-bit word:
 *  - fnvBytesStep is textbook FNV-1a over the word's eight
 *    little-endian bytes (flight-record and state digests, fuzz
 *    signatures);
 *  - fnvWordStep xors the whole word in and multiplies once, the
 *    cheaper word-wide variant (enclave measurement, sealing MAC,
 *    scheduler and SMP-executor signatures).
 * The two give different values for the same input, so each caller
 * keeps the step it has always used: golden-corpus file names carry
 * the signatures.
 */

#ifndef HEV_SUPPORT_HASH_HH
#define HEV_SUPPORT_HASH_HH

#include "support/types.hh"

namespace hev
{

/** FNV-1a 64-bit offset basis: the hash of the empty input. */
constexpr u64 fnvOffsetBasis = 0xcbf29ce484222325ull;

/** FNV-1a 64-bit prime. */
constexpr u64 fnvPrime = 0x100000001b3ull;

/** One FNV-1a round over a single byte. */
constexpr u64
fnvByteStep(u64 hash, u8 byte)
{
    return (hash ^ byte) * fnvPrime;
}

/** FNV-1a over the eight little-endian bytes of a word. */
constexpr u64
fnvBytesStep(u64 hash, u64 word)
{
    for (int i = 0; i < 8; ++i)
        hash = fnvByteStep(hash, u8(word >> (8 * i)));
    return hash;
}

/** Word-wide FNV-1a variant: the whole word in one round. */
constexpr u64
fnvWordStep(u64 hash, u64 word)
{
    return (hash ^ word) * fnvPrime;
}

} // namespace hev

#endif // HEV_SUPPORT_HASH_HH
