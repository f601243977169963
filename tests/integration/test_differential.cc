/**
 * @file
 * Differential validation: the concrete monitor (src/hv) against the
 * abstract specification model (src/ccal) under identical hypercall
 * sequences.
 *
 * The paper's development has the same two artifacts — the Rust
 * hypervisor and the Coq abstract model — connected by the code
 * proofs.  Here the connection is checked end to end at the system
 * level: both sides must make the same accept/reject decisions, agree
 * on error classes, and produce equivalent translations for every
 * enclave address.
 */

#include <gtest/gtest.h>

#include "ccal/specs.hh"
#include "fuzz/error_class.hh"
#include "hv/machine.hh"
#include "support/rng.hh"

namespace hev
{
namespace
{

using namespace ccal;
using namespace ccal::spec;
using fuzz::classifyHv;
using fuzz::classifySpec;
using hv::AddPageKind;
using hv::EnclaveConfig;
using hv::Machine;
using hv::MonitorConfig;

/** The hv layout and the matching abstract geometry. */
MonitorConfig
concreteConfig()
{
    MonitorConfig cfg;
    cfg.layout.totalBytes = 32 * 1024 * 1024;
    cfg.layout.ptAreaBytes = 4 * 1024 * 1024;
    cfg.layout.epcBytes = 8 * 1024 * 1024;
    return cfg;
}

Geometry
abstractGeometry()
{
    const MonitorConfig cfg = concreteConfig();
    Geometry geo;
    geo.frameBase = cfg.layout.secureBase();
    geo.frameCount = cfg.layout.ptAreaBytes / pageSize;
    geo.epcBase = cfg.layout.epcRange().start.value;
    geo.epcCount = cfg.layout.epcBytes / pageSize;
    geo.normalLimit = cfg.layout.secureBase();
    return geo;
}

struct DifferentialRig
{
    Machine machine{concreteConfig()};
    FlatState abstractState{abstractGeometry()};
    /** hv enclave id -> spec enclave id for created enclaves. */
    std::map<EnclaveId, i64> idMap;
    /**
     * After any removal the two allocators' scan positions diverge
     * (hv uses a search hint, the spec restarts at zero), so exact
     * EPC page indices are no longer comparable — membership still is.
     */
    bool removesHappened = false;

    /** Issue remove on both sides; verdicts must agree. */
    void
    remove(EnclaveId hv_id, const std::string &context)
    {
        auto st = machine.monitor().hcEnclaveRemove(hv_id);
        auto it = idMap.find(hv_id);
        const i64 spec_id = it == idMap.end() ? 9999 : it->second;
        const i64 rc = spec::specHcRemove(abstractState, spec_id);
        ASSERT_EQ(st.ok(), rc == 0)
            << context << ": remove verdicts differ (hv="
            << hvErrorName(st.error()) << ", spec=" << rc << ")";
        if (st.ok())
            removesHappened = true;
    }

    /** Issue init on both sides; verdicts must agree. */
    void
    init(u64 el_start, u64 el_end, u64 mbuf_gva, u64 mbuf_pages,
         u64 backing, const std::string &context)
    {
        EnclaveConfig cfg;
        cfg.elrange = {Gva(el_start), Gva(el_end)};
        cfg.mbufGva = Gva(mbuf_gva);
        cfg.mbufPages = mbuf_pages;
        cfg.mbufBacking = Gpa(backing);
        cfg.creatorGptRoot = machine.vcpu().gptRoot;
        auto hv_id = machine.monitor().hcEnclaveInit(cfg);

        const IntResult spec_id =
            specHcInit(abstractState, el_start, el_end, mbuf_gva,
                       mbuf_pages, backing);

        ASSERT_EQ(hv_id.ok(), spec_id.isOk)
            << context << ": init verdicts differ (hv="
            << hvErrorName(hv_id.error()) << ", spec err "
            << spec_id.errCode << ")";
        if (hv_id.ok()) {
            idMap[*hv_id] = i64(spec_id.value);
        } else {
            ASSERT_EQ(classifyHv(hv_id.error()),
                      classifySpec(spec_id.errCode))
                << context << ": init error classes differ (hv="
                << hvErrorName(hv_id.error()) << ", spec="
                << spec_id.errCode << ")";
        }
    }

    /** Issue add_page on both sides; verdicts must agree. */
    void
    addPage(EnclaveId hv_id, u64 gva, u64 src, bool tcs,
            const std::string &context)
    {
        auto st = machine.monitor().hcEnclaveAddPage(
            hv_id, Gva(gva), Gpa(src),
            tcs ? AddPageKind::Tcs : AddPageKind::Reg);
        auto it = idMap.find(hv_id);
        const i64 spec_id = it == idMap.end() ? 9999 : it->second;
        const i64 rc = specHcAddPage(abstractState, spec_id, gva, src,
                                     tcs ? epcStateTcs : epcStateReg);
        ASSERT_EQ(st.ok(), rc == 0)
            << context << ": add_page verdicts differ (hv="
            << hvErrorName(st.error()) << ", spec=" << rc << ")";
        if (!st.ok()) {
            ASSERT_EQ(classifyHv(st.error()), classifySpec(rc))
                << context << ": add_page error classes differ (hv="
                << hvErrorName(st.error()) << ", spec=" << rc << ")";
        }
    }

    /** Issue init_finish on both sides. */
    void
    finish(EnclaveId hv_id, const std::string &context)
    {
        auto st = machine.monitor().hcEnclaveInitFinish(hv_id);
        auto it = idMap.find(hv_id);
        const i64 spec_id = it == idMap.end() ? 9999 : it->second;
        const i64 rc = specHcInitFinish(abstractState, spec_id);
        ASSERT_EQ(st.ok(), rc == 0) << context;
        if (!st.ok()) {
            ASSERT_EQ(classifyHv(st.error()), classifySpec(rc))
                << context;
        }
    }

    /** Compare the composed translation of an enclave VA. */
    void
    compareTranslation(EnclaveId hv_id, u64 va,
                       const std::string &context)
    {
        const hv::Enclave *enclave =
            machine.monitor().findEnclave(hv_id);
        auto it = idMap.find(hv_id);
        if (!enclave || it == idMap.end())
            return;
        const AbsEnclave &abs = abstractState.enclaves.at(it->second);

        auto hv_hpa = machine.monitor().translateEnclaveUncached(
            enclave->gptRoot, enclave->eptRoot, Gva(va), false);
        const QueryResult spec_q = specMemTranslate(
            abstractState, abs.gptHandle, abs.eptHandle, va, false);

        ASSERT_EQ(hv_hpa.ok(), spec_q.isSome)
            << context << ": translation presence differs at va "
            << std::hex << va;
        if (hv_hpa.ok()) {
            // Page tables are placed differently, but the *meaning*
            // must agree: both land in the EPC (same page index, both
            // allocate first-fit) or both land on the same marshalling
            // backing address.
            const bool hv_epc = machine.monitor().config()
                                    .layout.epcRange()
                                    .contains(*hv_hpa);
            const bool spec_epc =
                abstractState.geo.inEpc(spec_q.physAddr);
            ASSERT_EQ(hv_epc, spec_epc) << context;
            if (hv_epc && !removesHappened) {
                const u64 hv_index =
                    (hv_hpa->value -
                     machine.monitor().config().layout.epcRange()
                         .start.value) / pageSize;
                const u64 spec_index =
                    (spec_q.physAddr - abstractState.geo.epcBase) /
                    pageSize;
                ASSERT_EQ(hv_index, spec_index)
                    << context << ": EPC page choice diverged";
            } else {
                ASSERT_EQ(hv_hpa->value, spec_q.physAddr)
                    << context << ": mbuf backing diverged";
            }
        }
    }
};

TEST(DifferentialTest, ScriptedLifecycleAgrees)
{
    DifferentialRig rig;
    rig.init(0x10'0000, 0x14'0000, 0x20'0000, 2, 0x8000, "ok init");
    ASSERT_FALSE(rig.idMap.empty());
    const EnclaveId id = rig.idMap.begin()->first;

    rig.addPage(id, 0x10'0000, 0x4000, false, "page 0");
    rig.addPage(id, 0x10'1000, 0x5000, false, "page 1");
    rig.addPage(id, 0x10'1000, 0x5000, false, "dup page");
    rig.addPage(id, 0x20'0000, 0x5000, false, "outside elrange");
    rig.addPage(id, 0x10'2000, 0x5000, true, "tcs page");
    rig.finish(id, "finish");
    rig.addPage(id, 0x10'3000, 0x5000, false, "post-finish add");

    for (const u64 va : {0x10'0000ull, 0x10'1000ull, 0x10'2000ull,
                         0x10'3000ull, 0x20'0000ull, 0x20'1000ull}) {
        rig.compareTranslation(id, va, "translation sweep");
    }

    // Removal: verdicts agree, double-remove rejected identically,
    // and a successor can be created on both sides (no frame leak).
    rig.remove(id, "remove");
    rig.remove(id, "double remove");
    rig.init(0x10'0000, 0x14'0000, 0x20'0000, 2, 0x8000,
             "recreate after remove");
}

TEST(DifferentialTest, RejectionMatrixAgrees)
{
    DifferentialRig rig;
    const u64 secure = concreteConfig().layout.secureBase();
    // Every init rejection case, both sides.
    rig.init(0x14'0000, 0x10'0000, 0x20'0000, 2, 0x8000, "reversed");
    rig.init(0x10'0100, 0x14'0000, 0x20'0000, 2, 0x8000, "unaligned");
    rig.init(0x10'0000, 0x14'0000, 0x20'0000, 0, 0x8000, "no mbuf");
    rig.init(0x10'0000, 0x14'0000, 0x13'f000, 2, 0x8000, "overlap");
    rig.init(0x10'0000, 0x14'0000, 0x20'0000, 2, secure,
             "secure backing");
    rig.init(0x10'0000, 0x14'0000, 0x20'0000, 2, secure - pageSize,
             "straddling backing");
    rig.init(0x10'0000, 0x14'0000, 0x20'0000, 2, 0x8100,
             "unaligned backing");
    EXPECT_TRUE(rig.idMap.empty()) << "a rejection case was accepted";
    // Unknown-enclave operations.
    rig.addPage(77, 0x10'0000, 0x4000, false, "no such enclave");
    rig.finish(77, "finish unknown");
}

TEST(DifferentialTest, RandomizedLifecycleSoak)
{
    DifferentialRig rig;
    Rng rng(0xd1ff);
    std::vector<EnclaveId> created;

    for (int step = 0; step < 200; ++step) {
        switch (rng.below(5)) {
          case 0: {
            const u64 base = rng.below(16) * 0x10'0000;
            const u64 el_end = base + rng.below(6) * pageSize;
            const u64 gva = rng.below(64) * 0x8'0000;
            const u64 backing = rng.below(6000) * pageSize;
            rig.init(base, el_end, gva, rng.below(3), backing,
                     "soak init @" + std::to_string(step));
            if (::testing::Test::HasFatalFailure())
                return;
            if (!rig.idMap.empty())
                created.push_back(rig.idMap.rbegin()->first);
            break;
          }
          case 1: {
            const EnclaveId id =
                created.empty() ? EnclaveId(rng.below(4))
                                : created[rng.below(created.size())];
            rig.addPage(id, rng.below(256) * pageSize,
                        rng.below(6000) * pageSize, rng.chance(1, 4),
                        "soak add @" + std::to_string(step));
            break;
          }
          case 2: {
            const EnclaveId id =
                created.empty() ? EnclaveId(rng.below(4))
                                : created[rng.below(created.size())];
            rig.finish(id, "soak finish @" + std::to_string(step));
            break;
          }
          case 3: {
            if (created.empty())
                break;
            const EnclaveId id =
                created[rng.below(created.size())];
            rig.compareTranslation(id, rng.below(512) * pageSize,
                                   "soak translate @" +
                                       std::to_string(step));
            break;
          }
          default: {
            if (created.empty() || !rng.chance(1, 4))
                break;
            const u64 victim = rng.below(created.size());
            rig.remove(created[victim],
                       "soak remove @" + std::to_string(step));
            if (::testing::Test::HasFatalFailure())
                return;
            created.erase(created.begin() + victim);
            // hv ids die permanently; drop the mapping so later ops
            // target it as an unknown enclave on both sides.
            break;
          }
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace
} // namespace hev
