/**
 * @file
 * The shared FNV-1a helpers against the published FNV-1a-64 test
 * vectors, and the two word steps against their byte-level definition.
 */

#include <gtest/gtest.h>

#include <string_view>

#include "support/hash.hh"

namespace hev
{
namespace
{

constexpr u64
fnvOfString(std::string_view text)
{
    u64 hash = fnvOffsetBasis;
    for (const char c : text)
        hash = fnvByteStep(hash, u8(c));
    return hash;
}

TEST(HashTest, PublishedFnv1a64Vectors)
{
    static_assert(fnvOfString("") == 0xcbf29ce484222325ull);
    EXPECT_EQ(fnvOfString(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnvOfString("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnvOfString("foobar"), 0x85944171f73967e8ull);
}

TEST(HashTest, BytesStepFoldsLittleEndianBytes)
{
    const u64 word = 0x0807060504030201ull;
    u64 by_byte = fnvOffsetBasis;
    for (u8 b = 1; b <= 8; ++b)
        by_byte = fnvByteStep(by_byte, b);
    EXPECT_EQ(fnvBytesStep(fnvOffsetBasis, word), by_byte);
    // "a" padded with seven zero bytes is not "a".
    EXPECT_NE(fnvBytesStep(fnvOffsetBasis, 'a'), fnvOfString("a"));
}

TEST(HashTest, WordStepIsOneRoundOverTheWholeWord)
{
    // A word below 256 is a single byte: one round either way.
    EXPECT_EQ(fnvWordStep(fnvOffsetBasis, 'a'), fnvOfString("a"));
    const u64 word = 0xdeadbeefcafebabeull;
    EXPECT_EQ(fnvWordStep(fnvOffsetBasis, word),
              (fnvOffsetBasis ^ word) * fnvPrime);
    EXPECT_NE(fnvWordStep(fnvOffsetBasis, word),
              fnvBytesStep(fnvOffsetBasis, word));
}

} // namespace
} // namespace hev
