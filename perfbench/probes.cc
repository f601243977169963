/**
 * @file
 * Layer probes of the traced run: single calls into one layer's public
 * functions, timed on states the benchmark builds with the geometry
 * and sizes the workloads use.  Each probe reports the median of
 * several repetitions.
 */

#include "bench.hh"
#include "ccal/specs.hh"
#include "ccal/tree_state.hh"
#include "fuzz/executor.hh"
#include "hv/hv_invariants.hh"
#include "hv/machine.hh"
#include "sec/invariants.hh"

namespace hev::perfbench
{

namespace
{

/** Enclave pages of the probe states: the size fuzz traces build. */
constexpr u64 probePages = 4;
constexpr u64 probeElStart = 0x10'0000;

template <typename F>
double
medianNs(u32 reps, F &&body)
{
    Samples s;
    for (u32 r = 0; r < reps; ++r) {
        const u64 t0 = nowNs();
        body();
        s.add(nowNs() - t0);
    }
    return s.percentile(0.5);
}

/** The abstract geometry of an hv layout (same addresses). */
ccal::Geometry
geometryOf(const hv::MonitorConfig &cfg)
{
    ccal::Geometry geo;
    geo.frameBase = cfg.layout.secureBase();
    geo.frameCount = cfg.layout.ptAreaBytes / pageSize;
    geo.epcBase = cfg.layout.epcRange().start.value;
    geo.epcCount = cfg.layout.epcBytes / pageSize;
    geo.normalLimit = cfg.layout.secureBase();
    return geo;
}

} // namespace

void
runProbes(const hv::MonitorConfig &workload_geometry, Checks &checks,
          std::vector<Metric> &out)
{
    namespace spec = ccal::spec;
    const hv::MonitorConfig fuzz_geo = fuzz::ExecOptions::standard().monitor;

    out.push_back({"hv.machine_ctor_ms",
                   medianNs(3, [&] { hv::Machine m(workload_geometry); }) / 1e6,
                   "ms", 3});
    out.push_back({"hv.machine_ctor_us.fuzz",
                   medianNs(15, [&] { hv::Machine m(fuzz_geo); }) / 1e3, "us",
                   15});

    hv::Machine machine(fuzz_geo);
    checks.check(
        bool(machine.setupEnclave(probeElStart, probePages, 1, 0x5eed)),
        "probe: setupEnclave failed");
    bool hv_clean = true;
    out.push_back({"hv.check_monitor_invariants_us", medianNs(50, [&] {
                       hv_clean &= hv::checkMonitorInvariants(machine.monitor())
                                       .empty();
                   }) / 1e3,
                   "us", 50});
    checks.check(hv_clean, "probe: monitor invariants violated");

    // The spec side of the same enclave: init, then add_page per page.
    ccal::FlatState base(geometryOf(fuzz_geo));
    const u64 mbuf_backing = 8 * pageSize;
    const u64 src = 9 * pageSize;
    const auto id = spec::specHcInit(base, probeElStart,
                                     probeElStart + (probePages + 1) * pageSize,
                                     probeElStart + 64 * pageSize, 1,
                                     mbuf_backing);
    if (!checks.check(id.isOk, "probe: specHcInit failed"))
        return;
    Samples add;
    ccal::FlatState full = base;
    for (u32 r = 0; r < 25; ++r) {
        ccal::FlatState s = base;
        const u64 t0 = nowNs();
        i64 rc = 0;
        for (u64 p = 0; p < probePages; ++p)
            rc |= spec::specHcAddPage(s, i64(id.value),
                                      probeElStart + p * pageSize, src,
                                      ccal::epcStateReg);
        add.add((nowNs() - t0) / probePages);
        checks.check(rc == 0, "probe: specHcAddPage failed");
        full = std::move(s);
    }
    out.push_back({"ccal.spec_add_page_us", add.percentile(0.5) / 1e3, "us",
                   add.size()});

    const u64 root = full.rootOf(full.enclaves.at(i64(id.value)).gptHandle);
    bool refines = true;
    out.push_back({"ccal.tree_lift_us", medianNs(50, [&] {
                       const ccal::TreeState tree =
                           ccal::treeFromFlat(full, root);
                       refines &= ccal::refinesFlat(tree, full, root);
                   }) / 1e3,
                   "us", 50});
    checks.check(refines, "probe: tree lift does not refine the flat table");

    bool sec_clean = true;
    out.push_back({"sec.check_invariants_us", medianNs(50, [&] {
                       sec_clean &= sec::checkInvariants(full).empty();
                   }) / 1e3,
                   "us", 50});
    checks.check(sec_clean, "probe: security invariants violated");
}

} // namespace hev::perfbench
