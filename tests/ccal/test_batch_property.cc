/**
 * @file
 * Randomized batch ≡ fold sweep over the spec-side batched hypercalls,
 * run as campaign shards: batch sizes 1–512, mixed Reg/Tcs elements,
 * deliberate failure injections (misaligned and out-of-ELRANGE
 * elements, secure sources, duplicate targets, frame and EPC
 * exhaustion at a random element k), each instance discharged by
 * checkAddBatchFold / checkEvictBatchFold: refinement R of the lifted
 * tables and the tree-level batch against the lift of the flat result
 * (see docs/BATCHING.md).  The flat half needs no check: the batch
 * specs are defined as the fold.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <vector>

#include "ccal/specs.hh"
#include "check/campaign.hh"

namespace hev::ccal
{
namespace
{

using namespace spec;

/** One randomized batch≡fold instance; nullopt = equivalent. */
std::optional<std::string>
sweepOnce(check::ShardContext &ctx)
{
    Rng &rng = ctx.rng();

    // Geometry sized by the shard: small machines make exhaustion
    // likely, a big EPC admits the 512-element batches.
    Geometry geo;
    const bool big = rng.chance(1, 4);
    geo.epcCount = big ? 520 + rng.below(16) : 4 + rng.below(40);
    geo.frameCount = 24 + rng.below(48);
    FlatState s(geo);

    // Frame-exhaustion injection: burn the frame area down to a few
    // spare frames so the batch's own page-table construction dies at
    // some element k.
    if (rng.chance(1, 5)) {
        const u64 spare = 6 + rng.below(6);
        std::vector<u64> burned;
        for (u64 f = specFrameAlloc(s); f != 0; f = specFrameAlloc(s))
            burned.push_back(f);
        for (u64 i = 0; i < spare && i < burned.size(); ++i)
            (void)specFrameFree(s, burned[burned.size() - 1 - i]);
    }

    const u64 el_pages = big ? 512 : 1 + rng.below(24);
    const u64 el_start = 0x10'0000;
    const IntResult init =
        specHcInit(s, el_start, el_start + el_pages * pageSize,
                   0x50'0000, 1, 0x8000);
    if (!init.isOk)
        return std::nullopt; // init starved of frames: nothing to fold
    const i64 id = i64(init.value);

    // Sometimes pre-add a few pages so AlreadyMapped can fire mid-batch.
    const u64 preAdds = rng.below(3);
    for (u64 i = 0; i < preAdds; ++i)
        (void)specHcAddPage(s, id, el_start + i * pageSize,
                            0x4000 + i * pageSize, epcStateReg);

    // The add batch: size 1..512, elements mostly clean, occasionally
    // twisted into one of the failure modes.
    const u64 count = big ? 256 + rng.below(257) : 1 + rng.below(16);
    std::vector<SpecAddPageOp> ops;
    for (u64 i = 0; i < count; ++i) {
        SpecAddPageOp op;
        op.gva = el_start + ((preAdds + i) % (el_pages + 2)) * pageSize;
        op.src = 0x4000 + (i % 8) * pageSize;
        op.kind = rng.chance(1, 6) ? epcStateTcs : epcStateReg;
        switch (rng.below(12)) {
        case 0:
            op.gva += 0x100; // misaligned
            break;
        case 1:
            op.gva = el_start + (el_pages + 4) * pageSize; // outside
            break;
        case 2:
            op.src = geo.epcBase; // secure source: isolation violation
            break;
        case 3:
            if (!ops.empty())
                op.gva = ops[rng.below(ops.size())].gva; // duplicate
            break;
        default:
            break;
        }
        ops.push_back(op);
    }

    const BatchEquivalence add = checkAddBatchFold(s, id, ops);
    ctx.tick();
    if (!add.equivalent) {
        std::ostringstream detail;
        detail << "add batch/fold diverged (" << ops.size()
               << " ops): " << add.detail;
        return detail.str();
    }

    // Evolve the state with the real batch (whatever its verdict), get
    // it enterable, and sweep the evict batch over a mix of resident,
    // missing, duplicate and out-of-range targets.
    (void)specHcAddPagesBatch(s, id, ops);
    (void)specHcAddPage(s, id, el_start, 0x4000, epcStateReg);
    (void)specHcAddPage(s, id, el_start + pageSize, 0x5000,
                        epcStateTcs);
    (void)specHcInitFinish(s, id);

    const u64 evictCount = 1 + rng.below(big ? 512 : 12);
    std::vector<u64> gvas;
    for (u64 i = 0; i < evictCount; ++i) {
        u64 gva = el_start + (i % (el_pages + 1)) * pageSize;
        switch (rng.below(10)) {
        case 0:
            gva += 0x100;
            break;
        case 1:
            gva = el_start + (el_pages + 8) * pageSize;
            break;
        case 2:
            if (!gvas.empty())
                gva = gvas[rng.below(gvas.size())];
            break;
        default:
            break;
        }
        gvas.push_back(gva);
    }

    const BatchEquivalence evict = checkEvictBatchFold(s, id, gvas);
    ctx.tick();
    if (!evict.equivalent) {
        std::ostringstream detail;
        detail << "evict batch/fold diverged (" << gvas.size()
               << " gvas): " << evict.detail;
        return detail.str();
    }
    return std::nullopt;
}

std::vector<check::Scenario>
batchFoldScenarios(int shards, int iterations)
{
    std::vector<check::Scenario> scenarios;
    for (int i = 0; i < shards; ++i) {
        check::Scenario scenario;
        scenario.name = "ccal/batch-fold/" + std::to_string(i);
        scenario.kind = "batch";
        scenario.layer = 14;
        scenario.body =
            [iterations](
                check::ShardContext &ctx) -> std::optional<std::string> {
            for (int iter = 0; iter < iterations; ++iter)
                if (auto failed = sweepOnce(ctx))
                    return failed;
            return std::nullopt;
        };
        scenarios.push_back(std::move(scenario));
    }
    return scenarios;
}

check::CampaignReport
runSweep(u64 seed, unsigned threads)
{
    check::CampaignConfig cfg;
    cfg.seed = seed;
    cfg.threads = threads;
    check::Campaign campaign(cfg);
    campaign.add(batchFoldScenarios(6, 8));
    return campaign.run();
}

TEST(BatchFoldProperty, RandomizedSweepHoldsUnderSharding)
{
    const check::CampaignReport report = runSweep(0xba7c4, 2);
    EXPECT_EQ(report.failures, 0u)
        << (report.first ? report.first->detail : "");
    EXPECT_EQ(report.scenarios, 6u);
    EXPECT_GT(report.checks, 0u);
    ASSERT_TRUE(report.scenariosByKind.count("batch"));
    EXPECT_EQ(report.scenariosByKind.at("batch"), 6u);
}

TEST(BatchFoldProperty, SweepIsThreadCountInvariant)
{
    const check::CampaignReport one = runSweep(0xba7c4, 1);
    const check::CampaignReport four = runSweep(0xba7c4, 4);
    EXPECT_EQ(check::renderResultJson(one), check::renderResultJson(four));
}

TEST(BatchFoldProperty, FiveTwelveElementBatchFoldsExactly)
{
    // The headline size, deterministic: a full 512-page add batch and a
    // full 512-page evict batch both fold exactly.
    Geometry geo;
    geo.epcCount = 520;
    geo.frameCount = 64;
    FlatState s(geo);
    const IntResult init = specHcInit(s, 0x10'0000,
                                      0x10'0000 + 512 * pageSize,
                                      0x50'0000, 1, 0x8000);
    ASSERT_TRUE(init.isOk);
    const i64 id = i64(init.value);

    std::vector<SpecAddPageOp> ops;
    for (u64 i = 0; i < 512; ++i)
        ops.push_back({0x10'0000 + i * pageSize, 0x4000,
                       i + 1 == 512 ? epcStateTcs : epcStateReg});
    const BatchEquivalence add = checkAddBatchFold(s, id, ops);
    EXPECT_TRUE(add.equivalent) << add.detail;

    ASSERT_EQ(specHcAddPagesBatch(s, id, ops), 0);
    ASSERT_EQ(specHcInitFinish(s, id), 0);
    std::vector<u64> gvas;
    for (u64 i = 0; i < 512; ++i)
        gvas.push_back(0x10'0000 + i * pageSize);
    const BatchEquivalence evict = checkEvictBatchFold(s, id, gvas);
    EXPECT_TRUE(evict.equivalent) << evict.detail;
}

TEST(BatchFoldProperty, EpcExhaustionAtElementKRestoresPreState)
{
    // Four EPC pages, six-element batch: the fold dies at element 4
    // with errOutOfEpc and the batch must land bit-identically on the
    // pre state.
    Geometry geo;
    geo.epcCount = 4;
    FlatState s(geo);
    const IntResult init = specHcInit(s, 0x10'0000,
                                      0x10'0000 + 8 * pageSize,
                                      0x50'0000, 1, 0x8000);
    ASSERT_TRUE(init.isOk);
    const i64 id = i64(init.value);

    std::vector<SpecAddPageOp> ops;
    for (u64 i = 0; i < 6; ++i)
        ops.push_back({0x10'0000 + i * pageSize, 0x4000, epcStateReg});
    const BatchEquivalence verdict = checkAddBatchFold(s, id, ops);
    EXPECT_TRUE(verdict.equivalent) << verdict.detail;

    const FlatState pre = s;
    EXPECT_EQ(specHcAddPagesBatch(s, id, ops), errOutOfEpc);
    EXPECT_EQ(s, pre);
}

TEST(BatchFoldProperty, FrameExhaustionMidBatchRestoresPreState)
{
    // Elements strided 2 MiB apart each demand a fresh leaf table, so
    // a 40-element batch starves the 24-frame area partway through:
    // same all-or-nothing obligation, different resource than the EPC.
    Geometry geo;
    geo.frameCount = 24;
    geo.epcCount = 64;
    FlatState s(geo);
    const u64 stride = 0x20'0000;
    const IntResult init = specHcInit(s, 0x10'0000,
                                      0x10'0000 + 40 * stride,
                                      0x5000'0000, 1, 0x8000);
    ASSERT_TRUE(init.isOk);
    const i64 id = i64(init.value);

    std::vector<SpecAddPageOp> ops;
    for (u64 i = 0; i < 40; ++i)
        ops.push_back({0x10'0000 + i * stride, 0x4000, epcStateReg});
    const BatchEquivalence verdict = checkAddBatchFold(s, id, ops);
    EXPECT_TRUE(verdict.equivalent) << verdict.detail;

    const FlatState pre = s;
    EXPECT_EQ(specHcAddPagesBatch(s, id, ops), errOutOfMemory);
    EXPECT_EQ(s, pre);
    // The rollback really freed the mid-batch tables: a small batch
    // still fits.
    EXPECT_EQ(specHcAddPagesBatch(
                  s, id, {{0x10'0000, 0x4000, epcStateReg}}),
              0);
}

} // namespace
} // namespace hev::ccal
