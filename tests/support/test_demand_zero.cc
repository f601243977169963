/**
 * @file
 * Unit tests for the demand-zero word array that backs physical memory
 * and the flat abstract state: contents are those of a zero-initialised
 * array, and copy, move and comparison stay exact although they visit
 * only touched pages.
 */

#include <gtest/gtest.h>

#include <utility>

#include "support/demand_zero.hh"

namespace hev
{
namespace
{

constexpr u64 wpp = DemandZeroWords::wordsPerPage;

TEST(DemandZeroWords, FreshArrayReadsAllZero)
{
    const DemandZeroWords words(8 * wpp);
    EXPECT_EQ(words.size(), 8 * wpp);
    for (u64 w : words)
        ASSERT_EQ(w, 0ull);
    EXPECT_EQ(words, DemandZeroWords(8 * wpp));
}

TEST(DemandZeroWords, WritesThroughSetAndPagePointers)
{
    DemandZeroWords words(8 * wpp);
    words.set(3 * wpp + 7, 0xabc);
    EXPECT_EQ(words[3 * wpp + 7], 0xabcull);
    EXPECT_EQ(words[3 * wpp + 8], 0ull);
    words.pageMut(5)[1] = 1;
    EXPECT_EQ(words[5 * wpp + 1], 1ull);
    EXPECT_EQ(words.page(5), words.begin() + 5 * wpp);
    // A page written through its pointer is seen by copies.
    EXPECT_EQ(DemandZeroWords(words)[5 * wpp + 1], 1ull);
}

TEST(DemandZeroWords, ReusedMappingsStartZero)
{
    // Arrays dropped on this thread hand their mappings to the next
    // array of the same size; it must still read all zero.
    for (int round = 0; round < 3; ++round) {
        DemandZeroWords words(4 * wpp);
        for (u64 w : words)
            ASSERT_EQ(w, 0ull) << "round " << round;
        EXPECT_EQ(words, DemandZeroWords(4 * wpp));
        for (u64 i = 0; i < 4 * wpp; i += 7)
            words.set(i, i + 1);
    }
}

TEST(DemandZeroWords, PageWrittenThenZeroedEqualsFresh)
{
    const DemandZeroWords fresh(4 * wpp);
    DemandZeroWords words(4 * wpp);
    for (u64 i = 0; i < wpp; ++i)
        words.set(2 * wpp + i, i + 1);
    EXPECT_NE(words, fresh);
    words.zeroPage(2);
    for (u64 w : words)
        ASSERT_EQ(w, 0ull);
    EXPECT_EQ(words, fresh);
    EXPECT_EQ(fresh, words);
    // Zeroing a page never touched is a no-op.
    words.zeroPage(0);
    EXPECT_EQ(words, fresh);
}

TEST(DemandZeroWords, EqualityIsOfFullContents)
{
    DemandZeroWords a(4 * wpp), b(4 * wpp);
    a.set(wpp + 1, 5);
    b.set(wpp + 1, 5);
    EXPECT_EQ(a, b);
    // A difference on a page only one side touched.
    b.set(3 * wpp, 9);
    EXPECT_NE(a, b);
    EXPECT_NE(b, a);
    // A zero written to an untouched page changes nothing.
    a.set(3 * wpp + 1, 0);
    a.set(3 * wpp, 9);
    EXPECT_EQ(a, b);
    // Sizes must match.
    EXPECT_NE(DemandZeroWords(wpp), DemandZeroWords(2 * wpp));
}

TEST(DemandZeroWords, CopiesMovesAndSelfAssignmentStayEqual)
{
    DemandZeroWords src(6 * wpp);
    src.set(0, 1);
    src.set(4 * wpp + 3, 2);

    DemandZeroWords copy(src);
    EXPECT_EQ(copy, src);
    EXPECT_EQ(copy[4 * wpp + 3], 2ull);
    // Copies are independent.
    copy.set(0, 7);
    EXPECT_EQ(src[0], 1ull);
    EXPECT_NE(copy, src);

    // Assignment over an array touching other pages zeroes those pages.
    DemandZeroWords dst(6 * wpp);
    dst.set(2 * wpp, 0x55);
    dst.set(4 * wpp + 3, 0x66);
    dst = src;
    EXPECT_EQ(dst, src);
    EXPECT_EQ(dst[2 * wpp], 0ull);
    EXPECT_EQ(dst[4 * wpp + 3], 2ull);

    // Assignment across sizes.
    DemandZeroWords other_size(wpp);
    other_size = src;
    EXPECT_EQ(other_size, src);

    DemandZeroWords &alias = dst;
    dst = alias;
    EXPECT_EQ(dst, src);

    DemandZeroWords moved(std::move(dst));
    EXPECT_EQ(moved, src);
    DemandZeroWords move_assigned(wpp);
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, src);
    DemandZeroWords &self = move_assigned;
    move_assigned = std::move(self);
    EXPECT_EQ(move_assigned, src);
}

TEST(DemandZeroWords, PartialLastPage)
{
    DemandZeroWords a(wpp + 3), b(wpp + 3);
    a.set(wpp + 2, 4);
    EXPECT_NE(a, b);
    b = a;
    EXPECT_EQ(a, b);
    a.zeroPage(1);
    EXPECT_EQ(a, DemandZeroWords(wpp + 3));
}

TEST(DemandZeroWords, EmptyArray)
{
    DemandZeroWords empty;
    EXPECT_EQ(empty.size(), 0ull);
    EXPECT_EQ(empty.begin(), empty.end());
    EXPECT_EQ(empty, DemandZeroWords());
    DemandZeroWords copy(empty);
    EXPECT_EQ(copy, empty);
}

} // namespace
} // namespace hev
