/**
 * @file
 * Amortized TLB shootdown for the batched hypercalls: one ack
 * generation per batch regardless of size, vectored (per-page, not
 * whole-domain) invalidation on the targets, all-or-nothing batch
 * validation, the ShootdownInFlight reload fence, and the planted
 * skip-middle-invalidate bug's deterministic SMP residue.
 */

#include <gtest/gtest.h>

#include <vector>

#include "smp/smp_invariants.hh"
#include "smp/smp_monitor.hh"
#include "smp_test_util.hh"

using namespace hev;
using namespace hev::smp;
using namespace hev::smp::test;

namespace
{

/** Map `count` private pages at 0x300'0000 and warm them everywhere. */
std::vector<u64>
mapAndWarmSlots(SmpMonitor &smp, u64 count)
{
    std::vector<u64> vas;
    for (u64 i = 0; i < count; ++i) {
        const u64 va = 0x300'0000 + i * pageSize;
        const auto page = smp.machine().os().allocPage();
        EXPECT_TRUE(page);
        EXPECT_TRUE(smp.osMap(0, va, *page));
        for (VcpuId v = 0; v < smp.vcpuCount(); ++v)
            EXPECT_TRUE(smp.memLoad(v, Gva(va)));
        vas.push_back(va);
    }
    return vas;
}

} // namespace

TEST(SmpBatch, BatchedUnmapUsesExactlyOneAckGeneration)
{
    SmpMonitor smp(smallConfig(3));
    installServiceAllDriver(smp);
    const std::vector<u64> vas = mapAndWarmSlots(smp, 8);

    const u64 epochBefore = smp.shootdownEpoch();
    const u64 sentBefore = smp.stats().ipisSent.load();
    ASSERT_TRUE(smp.osUnmapBatch(0, vas));

    // One generation and one IPI per remote vCPU for the whole
    // eight-page batch — not one per page.
    EXPECT_EQ(smp.shootdownEpoch(), epochBefore + 1);
    EXPECT_EQ(smp.stats().ipisSent.load(), sentBefore + 2);
    EXPECT_EQ(smp.stats().ipisAcked.load(), smp.stats().ipisSent.load());
    EXPECT_FALSE(smp.shootdownInFlight(hv::normalVmDomain));

    // Every page is gone on every vCPU: no stale read anywhere.
    for (VcpuId v = 0; v < smp.vcpuCount(); ++v)
        for (const u64 va : vas) {
            const auto load = smp.memLoad(v, Gva(va));
            ASSERT_FALSE(load);
            EXPECT_EQ(load.error(), HvError::NotMapped);
        }
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
    EXPECT_TRUE(checkSmpInvariants(smp).empty());
}

TEST(SmpBatch, BatchedUnmapInvalidationIsVectoredNotDomainWide)
{
    SmpMonitor smp(smallConfig(2));
    installServiceAllDriver(smp);
    const std::vector<u64> vas = mapAndWarmSlots(smp, 3);

    // vCPU 1 also caches an unrelated kernel translation.
    ASSERT_TRUE(smp.memLoad(1, Gva(0x2000)));
    const u64 unrelated = smp.tlbOf(1).countDomain(hv::normalVmDomain);
    ASSERT_GE(unrelated, 4u); // 3 slots + 0x2000

    ASSERT_TRUE(smp.osUnmapBatch(0, vas));

    // The IPI carried the batch's page vector: the unrelated entry
    // survived on the target while every batch page was dropped.
    EXPECT_TRUE(
        smp.tlbOf(1).lookup(hv::normalVmDomain, 0x2000).has_value());
    for (const u64 va : vas)
        EXPECT_FALSE(
            smp.tlbOf(1).lookup(hv::normalVmDomain, va).has_value())
            << "stale entry for batched va " << std::hex << va;
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
}

TEST(SmpBatch, BatchedUnmapValidationIsAllOrNothing)
{
    SmpMonitor smp(smallConfig(2));
    installServiceAllDriver(smp);
    const std::vector<u64> vas = mapAndWarmSlots(smp, 3);
    const u64 epochBefore = smp.shootdownEpoch();

    // Unmapped element: nothing happens, not even a shootdown.
    std::vector<u64> bad = vas;
    bad.push_back(0x600'0000);
    auto verdict = smp.osUnmapBatch(0, bad);
    ASSERT_FALSE(verdict);
    EXPECT_EQ(verdict.error(), HvError::NotMapped);

    // Misaligned element.
    bad = vas;
    bad[1] += 0x100;
    verdict = smp.osUnmapBatch(0, bad);
    ASSERT_FALSE(verdict);
    EXPECT_EQ(verdict.error(), HvError::NotAligned);

    // Duplicate element.
    bad = vas;
    bad.push_back(vas[0]);
    verdict = smp.osUnmapBatch(0, bad);
    ASSERT_FALSE(verdict);
    EXPECT_EQ(verdict.error(), HvError::InvalidParam);

    // No page was touched and no generation burned.
    EXPECT_EQ(smp.shootdownEpoch(), epochBefore);
    for (const u64 va : vas)
        EXPECT_TRUE(smp.memLoad(0, Gva(va)));
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
}

TEST(SmpBatch, BatchedProtectRoDowngradesAllPagesInOneGeneration)
{
    SmpMonitor smp(smallConfig(3));
    installServiceAllDriver(smp);
    std::vector<std::pair<u64, Gpa>> elems;
    std::vector<u64> vas;
    for (u64 i = 0; i < 4; ++i) {
        const u64 va = 0x300'0000 + i * pageSize;
        const auto page = smp.machine().os().allocPage();
        ASSERT_TRUE(page);
        ASSERT_TRUE(smp.osMap(0, va, *page));
        // Warm *writable* entries on a remote vCPU.
        ASSERT_TRUE(smp.memStore(2, Gva(va), 0x40 + i));
        elems.push_back({va, *page});
        vas.push_back(va);
    }

    const u64 epochBefore = smp.shootdownEpoch();
    ASSERT_TRUE(smp.osProtectRoBatch(0, elems));
    EXPECT_EQ(smp.shootdownEpoch(), epochBefore + 1);

    // The downgrade is immediately visible on every vCPU for every
    // element: stores fault, loads still see the old contents.
    for (VcpuId v = 0; v < smp.vcpuCount(); ++v)
        for (u64 i = 0; i < vas.size(); ++i) {
            const auto st = smp.memStore(v, Gva(vas[i]), 0xbad);
            ASSERT_FALSE(st);
            EXPECT_EQ(st.error(), HvError::PermissionDenied);
            const auto load = smp.memLoad(v, Gva(vas[i]));
            ASSERT_TRUE(load);
            EXPECT_EQ(*load, 0x40 + i);
        }
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
}

TEST(SmpBatch, BatchedEvictSealsAllPagesUnderOneGeneration)
{
    SmpMonitor smp(smallConfig(3));
    installServiceAllDriver(smp);
    const auto enc = makeMultiTcsEnclave(smp, 0, 0x10'0000, 3, 2);
    ASSERT_TRUE(enc);

    // vCPU 1 sits inside the enclave with all three pages cached.
    ASSERT_TRUE(smp.hcEnclaveEnter(1, *enc));
    for (u64 i = 0; i < 3; ++i)
        ASSERT_TRUE(smp.memLoad(1, Gva(0x10'0000 + i * pageSize)));
    ASSERT_EQ(smp.tlbOf(1).countDomain(hv::DomainId(*enc)), 3u);

    std::vector<Gva> gvas;
    for (u64 i = 0; i < 3; ++i)
        gvas.push_back(Gva(0x10'0000 + i * pageSize));

    const u64 epochBefore = smp.shootdownEpoch();
    const u64 sentBefore = smp.stats().ipisSent.load();
    auto blobs = smp.hcEnclaveEvictPagesBatch(0, *enc, gvas);
    ASSERT_TRUE(blobs);
    ASSERT_EQ(blobs->size(), 3u);

    // One generation, one IPI per remote vCPU, three sealed pages.
    EXPECT_EQ(smp.shootdownEpoch(), epochBefore + 1);
    EXPECT_EQ(smp.stats().ipisSent.load(), sentBefore + 2);
    EXPECT_EQ(smp.monitor().stats().pagesEvicted.load(), 3u);

    // The resident vCPU faults on every evicted page (no staleness).
    for (const Gva &gva : gvas) {
        const auto load = smp.memLoad(1, gva);
        ASSERT_FALSE(load);
        EXPECT_EQ(load.error(), HvError::NotMapped);
    }
    EXPECT_TRUE(checkTlbCoherence(smp).empty());

    // Reload restores the pages; the resident vCPU reads them again.
    for (const hv::SealedBlob &blob : *blobs)
        ASSERT_TRUE(smp.hcEnclaveReloadPage(0, *enc, blob));
    const auto word = smp.memLoad(1, Gva(0x10'1000));
    ASSERT_TRUE(word);
    EXPECT_EQ(*word, 0x5e7ull + 1000);
    ASSERT_TRUE(smp.hcEnclaveExit(1));
    EXPECT_TRUE(checkSmpInvariants(smp).empty());
}

TEST(SmpBatch, ReloadIntoInFlightBatchedShootdownIsRefused)
{
    SmpMonitor smp(smallConfig(3));
    installServiceAllDriver(smp);
    const auto enc = makeMultiTcsEnclave(smp, 0, 0x10'0000, 2, 1);
    ASSERT_TRUE(enc);

    // Seal two pages up front: one whose gva will sit inside the
    // in-flight batch (the enclave's base happens to also be a mapped
    // kernel va) and one outside it.
    auto blobIn = smp.hcEnclaveEvictPage(0, *enc, Gva(0x10'0000));
    auto blobOut = smp.hcEnclaveEvictPage(0, *enc, Gva(0x10'1000));
    ASSERT_TRUE(blobIn);
    ASSERT_TRUE(blobOut);
    const u64 freeBefore = smp.monitor().epcm().freePages();

    // Warm the kernel mapping of the batch vas so the unmap has remote
    // entries to retire.
    ASSERT_TRUE(smp.memLoad(1, Gva(0x10'0000)));
    ASSERT_TRUE(smp.memLoad(2, Gva(0x2000)));

    // The driver fires inside the batch's ack wait: the reload of the
    // in-batch page must be fenced off, the unrelated one sails
    // through, and only then do the targets get serviced.
    int probes = 0;
    HvError fencedError = HvError::None;
    bool inFlightSeen = false;
    bool unrelatedReloadOk = false;
    smp.setIpiDriver([&](VcpuId, u64) {
        if (probes++ == 0) {
            inFlightSeen = smp.shootdownPageInFlight(0x10'0000);
            const auto fenced = smp.hcEnclaveReloadPage(0, *enc, *blobIn);
            fencedError = fenced ? HvError::None : fenced.error();
            unrelatedReloadOk =
                bool(smp.hcEnclaveReloadPage(0, *enc, *blobOut));
        }
        for (VcpuId w = 0; w < smp.vcpuCount(); ++w)
            smp.serviceIpis(w);
    });
    ASSERT_TRUE(smp.osUnmapBatch(0, {0x10'0000, 0x2000}));

    EXPECT_GT(probes, 0);
    EXPECT_TRUE(inFlightSeen);
    EXPECT_EQ(fencedError, HvError::ShootdownInFlight);
    EXPECT_TRUE(unrelatedReloadOk);

    // The refusal left no partial state: the page is still evicted
    // (exactly one EPC page re-occupied, by the unrelated reload)...
    EXPECT_FALSE(smp.shootdownPageInFlight(0x10'0000));
    EXPECT_EQ(smp.monitor().epcm().freePages(), freeBefore - 1);
    EXPECT_TRUE(checkSmpInvariants(smp).empty());

    // ...and once the batch has completed the same blob reloads fine.
    ASSERT_TRUE(smp.hcEnclaveReloadPage(0, *enc, *blobIn));
    ASSERT_TRUE(smp.hcEnclaveEnter(1, *enc));
    const auto word = smp.memLoad(1, Gva(0x10'0000));
    ASSERT_TRUE(word);
    EXPECT_EQ(*word, 0x5e7ull);
    ASSERT_TRUE(smp.hcEnclaveExit(1));
    EXPECT_TRUE(checkTlbCoherence(smp).empty());

    // A single osUnmap is the one-element batch, so its page is fenced
    // too.  Seal the page again, restore the kernel mapping the batch
    // removed, warm it remotely, then unmap it alone.
    auto blobAgain = smp.hcEnclaveEvictPage(0, *enc, Gva(0x10'0000));
    ASSERT_TRUE(blobAgain);
    ASSERT_TRUE(smp.osMap(0, 0x10'0000, Gpa(0x10'0000)));
    ASSERT_TRUE(smp.memLoad(1, Gva(0x10'0000)));
    probes = 0;
    inFlightSeen = false;
    fencedError = HvError::None;
    smp.setIpiDriver([&](VcpuId, u64) {
        if (probes++ == 0) {
            inFlightSeen = smp.shootdownPageInFlight(0x10'0000);
            const auto fenced =
                smp.hcEnclaveReloadPage(0, *enc, *blobAgain);
            fencedError = fenced ? HvError::None : fenced.error();
        }
        for (VcpuId w = 0; w < smp.vcpuCount(); ++w)
            smp.serviceIpis(w);
    });
    const u64 epochBefore = smp.shootdownEpoch();
    ASSERT_TRUE(smp.osUnmap(0, 0x10'0000));
    EXPECT_EQ(smp.shootdownEpoch(), epochBefore + 1);
    EXPECT_GT(probes, 0);
    EXPECT_TRUE(inFlightSeen);
    EXPECT_EQ(fencedError, HvError::ShootdownInFlight);
    EXPECT_FALSE(smp.shootdownPageInFlight(0x10'0000));
    ASSERT_TRUE(smp.hcEnclaveReloadPage(0, *enc, *blobAgain));
    EXPECT_TRUE(checkSmpInvariants(smp).empty());
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
}

TEST(SmpBatch, UnmapNeedsAGptLeafNotAnEptBackedTarget)
{
    // The rule single and batched unmap share: an element is valid iff
    // the GPT holds a present 4 KiB leaf for it.  Where the leaf points
    // does not matter — a target the normal EPT leaves unmapped (here
    // the secure region) is still the OS's own entry to remove.
    SmpMonitor smp(smallConfig(2));
    installServiceAllDriver(smp);
    const Gpa secure(smp.monitor().config().layout.secureBase());
    const u64 vaA = 0x300'0000;
    const u64 vaB = 0x300'1000;
    ASSERT_TRUE(smp.osMap(0, vaA, secure));
    ASSERT_TRUE(smp.osMap(0, vaB, secure + pageSize));
    const auto fault = smp.memLoad(1, Gva(vaA));
    ASSERT_FALSE(fault);
    EXPECT_EQ(fault.error(), HvError::NotMapped);

    const u64 epochBefore = smp.shootdownEpoch();
    EXPECT_TRUE(smp.osUnmap(0, vaA));
    EXPECT_TRUE(smp.osUnmapBatch(0, {vaB}));
    EXPECT_EQ(smp.shootdownEpoch(), epochBefore + 2);

    // Both leaves are gone: a second unmap of either, alone or in a
    // batch, fails the same way and burns no generation.
    const auto again = smp.osUnmap(0, vaA);
    ASSERT_FALSE(again);
    EXPECT_EQ(again.error(), HvError::NotMapped);
    const auto againBatch = smp.osUnmapBatch(0, {vaB});
    ASSERT_FALSE(againBatch);
    EXPECT_EQ(againBatch.error(), HvError::NotMapped);
    EXPECT_EQ(smp.shootdownEpoch(), epochBefore + 2);
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
}

TEST(SmpBatch, ProtectRoWithUnalignedTargetTouchesNothing)
{
    // The remap's target check runs in validation, before any entry is
    // unmapped: a bad last element leaves every page writable.
    SmpMonitor smp(smallConfig(2));
    installServiceAllDriver(smp);
    const std::vector<u64> vas = mapAndWarmSlots(smp, 2);
    const auto page = smp.machine().os().allocPage();
    ASSERT_TRUE(page);
    const u64 epochBefore = smp.shootdownEpoch();

    const auto single = smp.osProtectRo(0, vas[0], *page + 0x100);
    ASSERT_FALSE(single);
    EXPECT_EQ(single.error(), HvError::NotAligned);
    const auto batch = smp.osProtectRoBatch(
        0, {{vas[0], *page}, {vas[1], *page + 0x100}});
    ASSERT_FALSE(batch);
    EXPECT_EQ(batch.error(), HvError::NotAligned);

    EXPECT_EQ(smp.shootdownEpoch(), epochBefore);
    for (VcpuId v = 0; v < smp.vcpuCount(); ++v)
        for (const u64 va : vas)
            EXPECT_TRUE(smp.memStore(v, Gva(va), 0x77));
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
}

TEST(SmpBatch, PlantedSkipMiddleLeavesExactlyTheMiddleStale)
{
    SmpConfig cfg = smallConfig(2);
    cfg.monitor.planted.batchSkipMiddleInvalidate = true;
    SmpMonitor smp(cfg);
    installServiceAllDriver(smp);
    const auto enc = makeMultiTcsEnclave(smp, 0, 0x10'0000, 3, 2);
    ASSERT_TRUE(enc);

    ASSERT_TRUE(smp.hcEnclaveEnter(1, *enc));
    for (u64 i = 0; i < 3; ++i)
        ASSERT_TRUE(smp.memLoad(1, Gva(0x10'0000 + i * pageSize)));

    std::vector<Gva> gvas;
    for (u64 i = 0; i < 3; ++i)
        gvas.push_back(Gva(0x10'0000 + i * pageSize));
    ASSERT_TRUE(smp.hcEnclaveEvictPagesBatch(0, *enc, gvas));

    // The endpoints were retired on the resident sibling; the middle
    // page's translation survived as inexcusable staleness.
    const hv::DomainId domain(*enc);
    EXPECT_FALSE(smp.tlbOf(1).lookup(domain, 0x10'0000).has_value());
    EXPECT_TRUE(smp.tlbOf(1).lookup(domain, 0x10'1000).has_value());
    EXPECT_FALSE(smp.tlbOf(1).lookup(domain, 0x10'2000).has_value());

    const auto violations = checkTlbCoherence(smp);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations[0].find("vcpu 1"), std::string::npos);

    // Exit flushes the resident vCPU's domain: the residue is gone,
    // pinning the defect to the batch's invalidation vector alone.
    ASSERT_TRUE(smp.hcEnclaveExit(1));
    EXPECT_TRUE(checkTlbCoherence(smp).empty());
}

TEST(SmpBatch, EmptyBatchesBurnNoGeneration)
{
    SmpMonitor smp(smallConfig(2));
    installServiceAllDriver(smp);
    const auto enc = makeMultiTcsEnclave(smp, 0, 0x10'0000, 1, 1);
    ASSERT_TRUE(enc);
    const u64 epochBefore = smp.shootdownEpoch();
    EXPECT_TRUE(smp.osUnmapBatch(0, {}));
    EXPECT_TRUE(smp.osProtectRoBatch(0, {}));
    auto blobs = smp.hcEnclaveEvictPagesBatch(0, *enc, {});
    ASSERT_TRUE(blobs);
    EXPECT_TRUE(blobs->empty());
    EXPECT_EQ(smp.shootdownEpoch(), epochBefore);
}
