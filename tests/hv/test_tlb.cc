/**
 * @file
 * Unit tests for the tagged TLB model.
 */

#include <gtest/gtest.h>

#include "hv/tlb.hh"

namespace hev::hv
{
namespace
{

TEST(TlbTest, MissThenHit)
{
    Tlb tlb;
    EXPECT_FALSE(tlb.lookup(normalVmDomain, 0x1000).has_value());
    tlb.insert(normalVmDomain, 0x1000, {0x9000, true});
    auto hit = tlb.lookup(normalVmDomain, 0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->hpaPage, 0x9000ull);
    EXPECT_TRUE(hit->writable);
    EXPECT_EQ(tlb.hits(), 1ull);
    EXPECT_EQ(tlb.misses(), 1ull);
}

TEST(TlbTest, SamePageDifferentOffsetHits)
{
    Tlb tlb;
    tlb.insert(normalVmDomain, 0x1000, {0x9000, false});
    EXPECT_TRUE(tlb.lookup(normalVmDomain, 0x1abc).has_value());
    EXPECT_FALSE(tlb.lookup(normalVmDomain, 0x2000).has_value());
}

TEST(TlbTest, DomainsAreIsolated)
{
    Tlb tlb;
    tlb.insert(normalVmDomain, 0x1000, {0x9000, true});
    tlb.insert(7, 0x1000, {0xa000, false});

    auto normal = tlb.lookup(normalVmDomain, 0x1000);
    auto enclave = tlb.lookup(7, 0x1000);
    ASSERT_TRUE(normal && enclave);
    EXPECT_EQ(normal->hpaPage, 0x9000ull);
    EXPECT_EQ(enclave->hpaPage, 0xa000ull);
    EXPECT_FALSE(tlb.lookup(8, 0x1000).has_value());
}

TEST(TlbTest, FlushDomainRemovesOnlyThatDomain)
{
    Tlb tlb;
    tlb.insert(normalVmDomain, 0x1000, {0x9000, true});
    tlb.insert(3, 0x1000, {0xa000, true});
    tlb.insert(3, 0x2000, {0xb000, true});
    tlb.flushDomain(3);
    EXPECT_TRUE(tlb.lookup(normalVmDomain, 0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(3, 0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(3, 0x2000).has_value());
    EXPECT_EQ(tlb.size(), 1ull);
}

TEST(TlbTest, FlushAllEmpties)
{
    Tlb tlb;
    tlb.insert(0, 0x1000, {0x9000, true});
    tlb.insert(1, 0x2000, {0xa000, true});
    tlb.flushAll();
    EXPECT_EQ(tlb.size(), 0ull);
    EXPECT_FALSE(tlb.lookup(0, 0x1000).has_value());
}

TEST(TlbTest, InsertOverwritesExisting)
{
    Tlb tlb;
    tlb.insert(0, 0x1000, {0x9000, false});
    tlb.insert(0, 0x1000, {0xc000, true});
    auto hit = tlb.lookup(0, 0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->hpaPage, 0xc000ull);
    EXPECT_TRUE(hit->writable);
    EXPECT_EQ(tlb.size(), 1ull);
}

TEST(TlbTest, InvalidatePageOnNonPresentEntryIsANoOp)
{
    Tlb tlb;
    // On an empty TLB...
    tlb.invalidatePage(normalVmDomain, 0x1000);
    EXPECT_EQ(tlb.size(), 0ull);

    // ...and on a miss next to live entries: neither the same page in
    // another domain nor another page in the same domain is touched.
    tlb.insert(3, 0x1000, {0x9000, true});
    tlb.insert(normalVmDomain, 0x2000, {0xa000, false});
    tlb.invalidatePage(normalVmDomain, 0x1000);
    EXPECT_EQ(tlb.size(), 2ull);
    EXPECT_TRUE(tlb.lookup(3, 0x1000).has_value());
    EXPECT_TRUE(tlb.lookup(normalVmDomain, 0x2000).has_value());
}

TEST(TlbTest, InvalidatePageLeavesSiblingPagesOfTheDomain)
{
    // The batched-evict maintenance discipline: per-page invalidation
    // drops exactly the named page, unlike flushDomain.
    Tlb tlb;
    for (u64 page = 0; page < 4; ++page)
        tlb.insert(5, 0x10'0000 + page * pageSize, {0x9000, true});
    tlb.invalidatePage(5, 0x10'1000 + 0x2c0); // offset within the page
    EXPECT_EQ(tlb.countDomain(5), 3ull);
    EXPECT_FALSE(tlb.lookup(5, 0x10'1000).has_value());
    EXPECT_TRUE(tlb.lookup(5, 0x10'0000).has_value());
    EXPECT_TRUE(tlb.lookup(5, 0x10'2000).has_value());
    EXPECT_TRUE(tlb.lookup(5, 0x10'3000).has_value());
}

TEST(TlbTest, DomainTagReuseAfterFlushStartsEmpty)
{
    // If a domain tag were ever recycled (the monitor's enclave ids are
    // monotonic, but the model must not depend on that), a flush must
    // leave nothing for the next tenant to inherit.
    Tlb tlb;
    tlb.insert(9, 0x1000, {0x9000, true});
    tlb.insert(9, 0x2000, {0xa000, false});
    tlb.flushDomain(9);
    EXPECT_EQ(tlb.countDomain(9), 0ull);
    EXPECT_FALSE(tlb.lookup(9, 0x1000).has_value());

    // The reused tag accumulates only its own fresh entries.
    tlb.insert(9, 0x3000, {0xb000, true});
    EXPECT_EQ(tlb.countDomain(9), 1ull);
    EXPECT_FALSE(tlb.lookup(9, 0x1000).has_value());
    auto hit = tlb.lookup(9, 0x3000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->hpaPage, 0xb000ull);
}

TEST(TlbTest, FlushDomainOnEmptyDomainCountsNoFlushWork)
{
    Tlb tlb;
    tlb.insert(2, 0x1000, {0x9000, true});
    const u64 size_before = tlb.size();
    tlb.flushDomain(7); // no entries tagged 7
    EXPECT_EQ(tlb.size(), size_before);
    EXPECT_TRUE(tlb.lookup(2, 0x1000).has_value());
}

TEST(TlbTest, DomainTagsAboveTwelveBitsDoNotAlias)
{
    // Enclave ids are never reused, so a long-running host passes 4096.
    // 8193 and 4097 agree in their low 12 bits: a tag that keeps only
    // those would let one enclave hit the other's translation.
    Tlb tlb;
    tlb.insert(4097, 0x40'0000, {0x9000, true});
    EXPECT_FALSE(tlb.lookup(8193, 0x40'0000).has_value());
    EXPECT_FALSE(tlb.lookup(1, 0x40'0000).has_value());
    tlb.insert(8193, 0x40'0000, {0xa000, false});
    EXPECT_EQ(tlb.countDomain(4097), 1ull);
    EXPECT_EQ(tlb.countDomain(8193), 1ull);

    tlb.flushDomain(4097);
    EXPECT_FALSE(tlb.lookup(4097, 0x40'0000).has_value());
    EXPECT_EQ(tlb.countDomain(4097), 0ull);
    auto hit = tlb.lookup(8193, 0x40'0000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->hpaPage, 0xa000ull);
}

TEST(TlbTest, ForEachDecodesFullDomainAndAddress)
{
    // The largest tag and a VA whose page number needs all 52 bits.
    Tlb tlb;
    const DomainId domain = ~DomainId(0);
    const u64 va = ~0ull & ~(pageSize - 1);
    tlb.insert(domain, va, {0xb000, true});
    tlb.insert(4096, 0x1000, {0xc000, false});
    u64 visited = 0;
    tlb.forEach([&](DomainId d, u64 va_page, const TlbEntry &entry) {
        ++visited;
        if (d == domain) {
            EXPECT_EQ(va_page, va);
            EXPECT_EQ(entry.hpaPage, 0xb000ull);
        } else {
            EXPECT_EQ(d, 4096u);
            EXPECT_EQ(va_page, 0x1000ull);
        }
    });
    EXPECT_EQ(visited, 2ull);
    EXPECT_EQ(tlb.countDomain(0), 0ull);
}

} // namespace
} // namespace hev::hv
