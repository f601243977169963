/**
 * @file
 * The `churn` workload: a multi-tenant host with EPC oversubscribed
 * about 2x, the write side of the hv, smp and migrate layers.
 *
 * Tenants live in fixed slots.  8 long-lived tenants of 64 pages are
 * forked and live-migrated; 24 churning slots are launched and
 * destroyed, with template sizes 16, 64 and 256 pages.  The benchmark
 * plays the OS driver on vCPU 0, which never enters an enclave: it
 * launches, destroys, evicts and reloads; enclaves run on vCPUs 1-3.
 *
 * Events (one op each):
 *  - request: like serve, but a touched page may be evicted; then the
 *    driver batch-evicts victims from non-resident enclaves (LRU) and
 *    reloads the touched pages first (a "fault");
 *  - launch: init, add_pages_batch, the TCS page, init_finish, then
 *    enter + report to check the measurement against the slot's first
 *    launch;
 *  - destroy;
 *  - unmap: osUnmapBatch of app pages, then map them back;
 *  - fork: snapshot (Fork) + restore a clone, check it, destroy it;
 *  - migrate: live migration to a second host and back.
 *
 * Forks and migrations only touch long-lived tenants: each has one
 * instance whose seal versions only grow, so the restore ledgers'
 * anti-rollback rule never rejects an image the workload makes.
 *
 * The event mix, the template sizes and the live-slot counts are a
 * chosen stress pattern, not measured traffic: every write-side path
 * runs often enough to show in a 30 s run.  The traced run reports the
 * share of wall time each event kind takes (churn.time_frac.*).
 */

#include <algorithm>
#include <array>

#include "bench.hh"
#include "migrate/migrate.hh"
#include "smp/smp_monitor.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace hev::perfbench
{

namespace
{

constexpr u32 vcpuCount = 4;
constexpr smp::VcpuId osVcpu = 0;
constexpr u32 longLivedCount = 8;
constexpr u64 longLivedPages = 64;
/** Template sizes of the churning slots: 10 x 16, 9 x 64, 5 x 256. */
constexpr u64 churnSizes[] = {16, 16, 16, 16, 16, 16, 16, 16, 16, 16,
                              64, 64, 64, 64, 64, 64, 64, 64, 64,
                              256, 256, 256, 256, 256};
constexpr u32 churnSlotCount = std::size(churnSizes);
constexpr u32 slotCount = longLivedCount + churnSlotCount;
constexpr u32 initialLiveChurn = 18;
constexpr u32 minLiveChurn = 12;
constexpr u64 appPages = 64;
constexpr u64 appVaBase = 0x300'0000;
constexpr u64 minLoads = 4;
constexpr u64 maxLoads = 32;
/** Extra pages a fault evicts beyond its need (a low watermark). */
constexpr u64 evictSlack = 16;
constexpr u64 wordsPerPage = pageSize / sizeof(u64);
constexpr u64 digestOps = 4096;

enum class Event : u8
{
    Request,
    Launch,
    Destroy,
    Unmap,
    Fork,
    Migrate,
    Fault, //!< a request that evicts and reloads first (not drawn)
    Count,
};

constexpr const char *eventNames[] = {"request", "launch", "destroy", "unmap",
                                      "fork",    "migrate", "fault"};
static_assert(std::size(eventNames) == size_t(Event::Count));

/** Event weights, out of 100: a chosen mix, see the file comment. */
Event
eventOf(u64 draw)
{
    const u64 d = draw % 100;
    if (d < 74)
        return Event::Request;
    if (d < 82)
        return Event::Launch;
    if (d < 90)
        return Event::Destroy;
    if (d < 94)
        return Event::Unmap;
    if (d < 97)
        return Event::Fork;
    return Event::Migrate;
}

hv::MonitorConfig
churnLayout()
{
    hv::MonitorConfig cfg;
    cfg.layout.totalBytes = 32 * 1024 * 1024;
    cfg.layout.ptAreaBytes = 4 * 1024 * 1024;
    cfg.layout.epcBytes = 4 * 1024 * 1024;
    return cfg;
}

u64
slotBase(u32 slot)
{
    return 0x10'0000 + u64(slot) * 0x20'0000;
}

struct Tenant
{
    u32 slot = 0;
    bool longLived = false;
    u64 pages = 0;
    u64 fill = 0;
    std::vector<Gpa> stage; //!< staged template pages, TCS page last
    hv::EnclaveHandle handle;
    u64 measurement = 0;    //!< of the slot's first launch (0 = none)

    bool live = false;
    int vcpu = -1;          //!< vCPU resident in it, -1 = none
    u64 lastUse = 0;
    u64 residentCount = 0;  //!< Reg pages in EPC (the TCS page always is)
    std::vector<u8> resident;
    std::vector<u64> word0; //!< shadow of word 0 of every page
    std::vector<hv::SealedBlob> blobs; //!< OS custody, by page index

    u64
    content(u64 p, u64 w) const
    {
        return w == 0 ? word0[p] : fill + p * 1000 + w;
    }
    Gva
    pageVa(u64 p, u64 w = 0) const
    {
        return Gva(slotBase(slot) + p * pageSize + w * sizeof(u64));
    }
};

class Churn final : public Workload
{
  public:
    explicit Churn(u64 workload_seed)
        : seed(workload_seed), popularity(slotCount)
    {
        Rng rng(seed);
        std::vector<u64> sizes(std::begin(churnSizes), std::end(churnSizes));
        for (u32 i = churnSlotCount - 1; i > 0; --i)
            std::swap(sizes[i], sizes[rng.below(i + 1)]);
        for (u32 s = 0; s < slotCount; ++s) {
            Tenant t;
            t.slot = s;
            t.longLived = s < longLivedCount;
            t.pages = t.longLived ? longLivedPages
                                  : sizes[s - longLivedCount];
            t.fill = rng.next() & 0xffff'ffff'0000'0000ull;
            templates.push_back(t);
        }
        for (u32 s = 0; s < slotCount; ++s)
            byRank.push_back(s);
        for (u32 i = slotCount - 1; i > 0; --i)
            std::swap(byRank[i], byRank[rng.below(i + 1)]);
        std::vector<u32> churning;
        for (u32 s = longLivedCount; s < slotCount; ++s)
            churning.push_back(s);
        for (u32 i = churnSlotCount - 1; i > 0; --i)
            std::swap(churning[i], churning[rng.below(i + 1)]);
        initialLive.assign(churning.begin(),
                           churning.begin() + initialLiveChurn);
    }

    u64
    inputDigest() const override
    {
        u64 h = digestInit;
        for (const Tenant &t : templates) {
            h = digestStep(h, t.pages);
            h = digestStep(h, t.fill);
        }
        for (const u32 s : byRank)
            h = digestStep(h, s);
        for (const u32 s : initialLive)
            h = digestStep(h, s);
        for (u64 i = 0; i < digestOps; ++i) {
            OpRng rng(seed, i);
            for (int k = 0; k < 4; ++k)
                h = digestStep(h, rng.next());
        }
        return h;
    }

    void
    setup() override
    {
        smp.reset();
        hostB.reset();
        smp = std::make_unique<smp::SmpMonitor>(smpConfig());
        installServiceAllDriver(*smp);
        hostB = std::make_unique<hv::Machine>(churnLayout());
        tenants = templates;
        epcUsed = 0;
        opIndex = 0;
        hv::PrimaryOs &os = smp->machine().os();
        for (Tenant &t : tenants) {
            auto mbuf = os.allocPage();
            if (!mbuf)
                fatal("churn setup: mbuf page");
            t.handle.mbufBacking = *mbuf;
            t.handle.mbufPages = 1;
            const u64 base = slotBase(t.slot);
            t.handle.mbufGva = Gva(base + (t.pages + 64) * pageSize);
            t.handle.elrange = {Gva(base),
                                Gva(base + (t.pages + 1) * pageSize)};
            for (u64 p = 0; p <= t.pages; ++p) {
                auto page = os.allocPage();
                if (!page)
                    fatal("churn setup: staging page");
                for (u64 w = 0; w < wordsPerPage; ++w) {
                    // The TCS page's first word is the entry point.
                    const u64 value = p == t.pages
                                          ? (w == 0 ? slotBase(t.slot) : 0)
                                          : t.fill + p * 1000 + w;
                    if (!os.physWrite(*page + w * sizeof(u64), value))
                        fatal("churn setup: staging write");
                }
                t.stage.push_back(*page);
            }
        }
        appBacking.clear();
        for (u64 j = 0; j < appPages; ++j) {
            auto page = os.allocPage();
            if (!page || !os.physWrite(*page, appValue(j)) ||
                !smp->osMap(osVcpu, appVaBase + j * pageSize, *page))
                fatal("churn setup: app page %llu", (unsigned long long)j);
            appBacking.push_back(*page);
        }
        vcpuTenant.assign(vcpuCount, -1);
        Checks setup_checks;
        Tracer untraced;
        for (u32 s = 0; s < longLivedCount; ++s)
            launch(tenants[s], setup_checks, untraced);
        for (const u32 s : initialLive)
            launch(tenants[s], setup_checks, untraced);
        if (setup_checks.failedChecks() != 0)
            fatal("churn setup: %s", setup_checks.messages().front().c_str());
    }

    void
    resetPhase() override
    {
        eventNs.fill(0);
        evictNs = 0;
        launchLat = Samples();
        faultLat = Samples();
        downtime = Samples();
        switchover = Samples();
        migrations = 0;
        precopyRounds = 0;
        downtimePages = 0;
    }

    u64
    runOp(u64 i, Checks &checks, Tracer &tracer) override
    {
        opIndex = i;
        OpRng rng(seed, i);
        Event ev = eventOf(rng.next());
        const u64 pick = rng.next();
        const u64 live_churn = liveChurnCount();
        if (ev == Event::Destroy && live_churn <= minLiveChurn)
            ev = Event::Launch;
        if (ev == Event::Launch && live_churn == churnSlotCount)
            ev = Event::Request;

        tracer.beginOp();
        const u64 start = nowNs();
        const u64 latency = runEvent(ev, pick, rng, checks, tracer);
        if (i < countWindow())
            eventNs[size_t(lastFault ? Event::Fault : ev)] += nowNs() - start;
        return latency;
    }

    u64
    runEvent(Event ev, u64 pick, OpRng &rng, Checks &checks, Tracer &tracer)
    {
        lastFault = false;
        switch (ev) {
          case Event::Request:
            return request(pickLive(rng), rng, checks, tracer);
          case Event::Launch: {
            Tenant &t = nthChurn(false, pick);
            Span op(tracer, SpanKind::Launch);
            const u64 t0 = nowNs();
            launch(t, checks, tracer);
            return nowNs() - t0;
          }
          case Event::Destroy: {
            Tenant &t = nthChurn(true, pick);
            Span op(tracer, SpanKind::Destroy);
            const u64 t0 = nowNs();
            destroy(t, checks, tracer);
            return nowNs() - t0;
          }
          case Event::Unmap:
            return unmap(rng, checks, tracer);
          case Event::Fork:
            return fork(tenants[pick % longLivedCount], checks, tracer);
          case Event::Migrate:
            return migrate(tenants[pick % longLivedCount], rng, checks,
                           tracer);
          case Event::Fault:
          case Event::Count:
            break;
        }
        return 0;
    }

    void
    finalChecks(Checks &checks) override
    {
        checkSmpMachine(*smp, checks);
        // The OS-side accounting must agree with the monitor's EPCM.
        const u64 epc_pages = churnLayout().layout.epcPages();
        checks.check(smp->monitor().epcm().freePages() == epc_pages - epcUsed,
                     "churn: EPC accounting disagrees with the EPCM");
    }

    u64 countWindow() const override { return 1500; }

    hv::MonitorConfig geometry() const override { return churnLayout(); }

    void
    endToEnd(std::vector<Metric> &out) const override
    {
        out.push_back({"launch_p50_us", launchLat.percentile(0.5) / 1e3,
                       "us", launchLat.size()});
        out.push_back({"launch_p99_us", launchLat.percentile(0.99) / 1e3,
                       "us", launchLat.size()});
        out.push_back({"fault_p50_us", faultLat.percentile(0.5) / 1e3, "us",
                       faultLat.size()});
        out.push_back({"fault_p99_us", faultLat.percentile(0.99) / 1e3, "us",
                       faultLat.size()});
        out.push_back({"downtime_p99_us", downtime.percentile(0.99) / 1e3,
                       "us", downtime.size()});
    }

    /**
     * Migration legs, and the share of wall time each event kind and
     * the evict batches took, over the count window.
     */
    void
    perLayer(std::vector<Metric> &out, double window_s, Checks &) override
    {
        for (size_t k = 0; k < size_t(Event::Count); ++k)
            out.push_back({std::string("churn.time_frac.") + eventNames[k],
                           double(eventNs[k]) / (window_s * 1e9), "ratio",
                           countWindow()});
        out.push_back({"churn.evict_busy_frac",
                       double(evictNs) / (window_s * 1e9), "ratio",
                       countWindow()});
        const double legs = double(migrations ? migrations : 1);
        out.push_back({"migrate.precopy_rounds_mean",
                       double(precopyRounds) / legs, "count", migrations});
        out.push_back({"migrate.downtime_pages_mean",
                       double(downtimePages) / legs, "count", migrations});
        out.push_back({"migrate.switchover_us.p50",
                       switchover.percentile(0.5) / 1e3, "us",
                       switchover.size()});
    }

  private:
    static smp::SmpConfig
    smpConfig()
    {
        smp::SmpConfig cfg;
        cfg.monitor = churnLayout();
        cfg.vcpus = vcpuCount;
        return cfg;
    }

    static u64 appValue(u64 j) { return 0xa990'0000 + j; }

    u64
    liveChurnCount() const
    {
        u64 n = 0;
        for (const Tenant &t : tenants)
            n += !t.longLived && t.live;
        return n;
    }

    /** The n-th (mod count) churning slot that is live (or dead). */
    Tenant &
    nthChurn(bool live, u64 n)
    {
        std::vector<Tenant *> match;
        for (Tenant &t : tenants)
            if (!t.longLived && t.live == live)
                match.push_back(&t);
        return *match[n % match.size()];
    }

    /** A Zipf-popular slot; a dead pick moves on to the next live slot. */
    Tenant &
    pickLive(OpRng &rng)
    {
        u32 rank = popularity.sample(rng.unit());
        while (!tenants[byRank[rank]].live)
            rank = (rank + 1) % slotCount;
        return tenants[byRank[rank]];
    }

    u64
    epcFree() const
    {
        return churnLayout().layout.epcPages() - epcUsed;
    }

    bool
    exitVcpu(smp::VcpuId v, Checks &checks, Tracer &tracer)
    {
        if (vcpuTenant[v] < 0)
            return true;
        Span s(tracer, SpanKind::SmpExit);
        const bool ok = checks.check(bool(smp->hcEnclaveExit(v)),
                                     "churn: exit failed");
        tenants[vcpuTenant[v]].vcpu = -1;
        vcpuTenant[v] = -1;
        return ok;
    }

    /**
     * Make room for `need` EPC pages (plus the slack): batch-evict the
     * least recently used non-resident tenants' pages, never the
     * excluded tenant's; exit an idle vCPU if every candidate is
     * resident.
     */
    void
    ensureFree(u64 need, const Tenant *exclude, Checks &checks,
               Tracer &tracer)
    {
        const u64 target = need + evictSlack;
        while (epcFree() < target) {
            Tenant *victim = nullptr;
            Tenant *busy = nullptr;
            for (Tenant &t : tenants) {
                if (!t.live || &t == exclude || t.residentCount == 0)
                    continue;
                Tenant *&slot = t.vcpu < 0 ? victim : busy;
                if (!slot || t.lastUse < slot->lastUse)
                    slot = &t;
            }
            if (!victim) {
                if (epcFree() >= need)
                    return;
                if (!busy) {
                    checks.check(false, "churn: nothing left to evict");
                    return;
                }
                if (!exitVcpu(smp::VcpuId(busy->vcpu), checks, tracer))
                    return;
                continue;
            }
            std::vector<Gva> gvas;
            const u64 want = target - epcFree();
            for (u64 p = 0; p < victim->pages && gvas.size() < want; ++p)
                if (victim->resident[p])
                    gvas.push_back(victim->pageVa(p));
            const u64 t0 = nowNs();
            auto blobs = inSpan(tracer, SpanKind::SmpEvictBatch, [&] {
                return smp->hcEnclaveEvictPagesBatch(osVcpu,
                                                     victim->handle.id, gvas);
            });
            if (opIndex < countWindow())
                evictNs += nowNs() - t0;
            if (!checks.check(bool(blobs), "churn: evict batch failed"))
                return;
            for (hv::SealedBlob &blob : *blobs) {
                const u64 p =
                    (blob.gva.value - slotBase(victim->slot)) / pageSize;
                victim->resident[p] = 0;
                victim->blobs[p] = std::move(blob);
            }
            victim->residentCount -= gvas.size();
            epcUsed -= gvas.size();
        }
    }

    /** Reload evicted pages of a tenant (room must exist). */
    void
    reload(Tenant &t, const std::vector<u64> &pages, Checks &checks,
           Tracer &tracer)
    {
        for (const u64 p : pages) {
            Span s(tracer, SpanKind::SmpReload);
            if (!checks.check(bool(smp->hcEnclaveReloadPage(
                                  osVcpu, t.handle.id, t.blobs[p])),
                              "churn: reload failed"))
                continue;
            t.resident[p] = 1;
            ++t.residentCount;
            ++epcUsed;
        }
    }

    std::vector<u64>
    evictedPages(const Tenant &t) const
    {
        std::vector<u64> out;
        for (u64 p = 0; p < t.pages; ++p)
            if (!t.resident[p])
                out.push_back(p);
        return out;
    }

    /** Bring every evicted page of a tenant back (before snapshot). */
    void
    reloadAll(Tenant &t, Checks &checks, Tracer &tracer)
    {
        const std::vector<u64> missing = evictedPages(t);
        if (missing.empty())
            return;
        ensureFree(missing.size(), &t, checks, tracer);
        reload(t, missing, checks, tracer);
    }

    /** Every page index of a tenant. */
    static std::vector<u64>
    allPages(const Tenant &t)
    {
        std::vector<u64> out(t.pages);
        for (u64 p = 0; p < t.pages; ++p)
            out[p] = p;
        return out;
    }

    /**
     * Check word 0 and one other word of each listed page of an enclave
     * against the tenant's shadow copy.
     */
    void
    checkContents(const hv::Monitor &mon, EnclaveId id, const Tenant &t,
                  const std::vector<u64> &pages, const char *what,
                  Checks &checks)
    {
        for (const u64 p : pages) {
            const u64 w = 1 + (p * 7 + t.slot) % (wordsPerPage - 1);
            auto v0 = mon.enclaveLoad(id, t.pageVa(p, 0));
            auto vw = mon.enclaveLoad(id, t.pageVa(p, w));
            if (!checks.check(v0 && *v0 == t.content(p, 0) && vw &&
                                  *vw == t.content(p, w),
                              std::string("churn: wrong content after ") +
                                  what))
                return;
        }
    }

    smp::VcpuId
    enterVcpu(Tenant &t, Checks &checks, Tracer &tracer)
    {
        if (t.vcpu >= 0)
            return smp::VcpuId(t.vcpu);
        const smp::VcpuId v = 1 + t.slot % (vcpuCount - 1);
        exitVcpu(v, checks, tracer);
        Span s(tracer, SpanKind::SmpEnter);
        if (checks.check(bool(smp->hcEnclaveEnter(v, t.handle.id)),
                         "churn: enter failed")) {
            t.vcpu = int(v);
            vcpuTenant[v] = int(t.slot);
        }
        return v;
    }

    void
    launch(Tenant &t, Checks &checks, Tracer &tracer)
    {
        ensureFree(t.pages + 1, nullptr, checks, tracer);
        hv::EnclaveConfig cfg;
        cfg.elrange = t.handle.elrange;
        cfg.mbufGva = t.handle.mbufGva;
        cfg.mbufPages = t.handle.mbufPages;
        cfg.mbufBacking = t.handle.mbufBacking;
        cfg.creatorGptRoot = smp->archOf(osVcpu).gptRoot;
        std::vector<hv::AddPageRequest> reqs;
        for (u64 p = 0; p < t.pages; ++p)
            reqs.push_back({t.pageVa(p), t.stage[p], hv::AddPageKind::Reg});

        const u64 t0 = nowNs();
        auto id = inSpan(tracer, SpanKind::SmpInit, [&] {
            return smp->hcEnclaveInit(osVcpu, cfg);
        });
        if (!checks.check(bool(id), "churn: init failed"))
            return;
        bool ok = true;
        {
            Span s(tracer, SpanKind::SmpAddPagesBatch);
            ok &= bool(smp->hcEnclaveAddPagesBatch(osVcpu, *id, reqs));
        }
        {
            Span s(tracer, SpanKind::SmpAddPage);
            ok &= bool(smp->hcEnclaveAddPage(osVcpu, *id, t.pageVa(t.pages),
                                             t.stage[t.pages],
                                             hv::AddPageKind::Tcs));
        }
        {
            Span s(tracer, SpanKind::SmpInitFinish);
            ok &= bool(smp->hcEnclaveInitFinish(osVcpu, *id));
        }
        launchLat.add(nowNs() - t0);
        if (!checks.check(ok, "churn: launch hypercall failed"))
            return;

        t.handle.id = *id;
        t.live = true;
        t.lastUse = opIndex;
        t.resident.assign(t.pages, 1);
        t.residentCount = t.pages;
        t.blobs.assign(t.pages, hv::SealedBlob{});
        t.word0.clear();
        for (u64 p = 0; p < t.pages; ++p)
            t.word0.push_back(t.fill + p * 1000);
        epcUsed += t.pages + 1;

        const smp::VcpuId v = enterVcpu(t, checks, tracer);
        auto report = inSpan(tracer, SpanKind::SmpReport, [&] {
            return smp->hcEnclaveReport(v);
        });
        if (!checks.check(report && report->addedPages == t.pages + 1,
                          "churn: report after launch"))
            return;
        if (t.measurement == 0)
            t.measurement = report->measurement;
        checks.check(report->measurement == t.measurement,
                     "churn: relaunch measurement differs");
    }

    void
    destroy(Tenant &t, Checks &checks, Tracer &tracer)
    {
        if (t.vcpu >= 0)
            exitVcpu(smp::VcpuId(t.vcpu), checks, tracer);
        Span s(tracer, SpanKind::SmpDestroy);
        if (!checks.check(bool(smp->hcEnclaveDestroy(osVcpu, t.handle.id)),
                          "churn: destroy failed"))
            return;
        t.live = false;
        epcUsed -= t.residentCount + 1;
        t.residentCount = 0;
        t.blobs.clear();
    }

    u64
    request(Tenant &t, OpRng &rng, Checks &checks, Tracer &tracer)
    {
        const u64 loads = std::min<u64>(
            minLoads + rng.below(maxLoads - minLoads + 1), t.pages);
        std::vector<u64> page(loads), word(loads);
        const u64 nonce = rng.next();
        u64 expected = nonce;
        for (u64 j = 0; j < loads; ++j) {
            page[j] = rng.below(t.pages);
            word[j] = rng.below(wordsPerPage);
            expected += t.content(page[j], word[j]);
        }
        std::vector<u64> missing;
        for (const u64 p : page)
            if (!t.resident[p] &&
                std::find(missing.begin(), missing.end(), p) == missing.end())
                missing.push_back(p);
        const bool fault = !missing.empty();
        lastFault = fault;

        Span op(tracer, fault ? SpanKind::Fault : SpanKind::Request);
        const u64 t0 = nowNs();
        bool ok = true;
        {
            Span s(tracer, SpanKind::HvMbufWrite);
            ok &= bool(smp->machine().mbufWrite(t.handle, 0, nonce));
        }
        if (fault) {
            ensureFree(missing.size(), &t, checks, tracer);
            reload(t, missing, checks, tracer);
        }
        const smp::VcpuId v = enterVcpu(t, checks, tracer);
        u64 acc = 0;
        {
            Span s(tracer, SpanKind::SmpMemLoad);
            auto got = smp->memLoad(v, t.handle.mbufGva);
            ok &= bool(got);
            acc += got ? *got : 0;
        }
        for (u64 j = 0; j < loads; ++j) {
            Span s(tracer, SpanKind::SmpMemLoad);
            auto got = smp->memLoad(v, t.pageVa(page[j], word[j]));
            ok &= bool(got);
            acc += got ? *got : 0;
        }
        // The enclave also writes: word 0 of its first touched page.
        {
            Span s(tracer, SpanKind::SmpMemStore);
            ok &= bool(smp->memStore(v, t.pageVa(page[0]), nonce));
            ok &= bool(smp->memStore(v, t.handle.mbufGva + sizeof(u64), acc));
        }
        auto reply = inSpan(tracer, SpanKind::HvMbufRead, [&] {
            return smp->machine().mbufRead(t.handle, 1);
        });
        const u64 latency = nowNs() - t0;
        if (fault)
            faultLat.add(latency);
        t.word0[page[0]] = nonce;
        t.lastUse = opIndex;
        checks.check(ok, "churn: request access failed");
        checks.check(reply && *reply == expected, "churn: wrong reply");
        checkContents(smp->monitor(), t.handle.id, t, missing, "reload",
                      checks);
        return latency;
    }

    u64
    unmap(OpRng &rng, Checks &checks, Tracer &tracer)
    {
        const u64 count = 8 + rng.below(25);
        const u64 first = rng.below(appPages);
        std::vector<u64> idx, vas;
        for (u64 j = 0; j < count; ++j) {
            idx.push_back((first + j) % appPages);
            vas.push_back(appVaBase + idx.back() * pageSize);
        }
        Span op(tracer, SpanKind::Unmap);
        const u64 t0 = nowNs();
        bool loads_ok = true;
        for (u64 j = 0; j < count; ++j) {
            Span s(tracer, SpanKind::SmpMemLoad);
            auto got = smp->memLoad(osVcpu, Gva(vas[j]));
            loads_ok &= got && *got == appValue(idx[j]);
        }
        bool unmapped;
        {
            Span s(tracer, SpanKind::SmpOsUnmapBatch);
            unmapped = bool(smp->osUnmapBatch(osVcpu, vas));
        }
        // The unmapped page must fault now: a typed NotMapped is the
        // expected outcome, not a failure.
        auto gone = smp->memLoad(osVcpu, Gva(vas[0]));
        bool mapped = true;
        for (u64 j = 0; j < count; ++j) {
            Span s(tracer, SpanKind::SmpOsMap);
            mapped &= bool(smp->osMap(osVcpu, vas[j], appBacking[idx[j]]));
        }
        auto back = smp->memLoad(osVcpu, Gva(vas[0]));
        const u64 latency = nowNs() - t0;
        checks.check(loads_ok && unmapped && mapped,
                     "churn: app page load/unmap/map failed");
        checks.check(!gone && gone.error() == HvError::NotMapped,
                     "churn: unmapped app page still readable");
        checks.check(back && *back == appValue(idx[0]),
                     "churn: remapped app page has wrong content");
        return latency;
    }

    u64
    fork(Tenant &t, Checks &checks, Tracer &tracer)
    {
        Span op(tracer, SpanKind::Fork);
        const u64 t0 = nowNs();
        if (t.vcpu >= 0)
            exitVcpu(smp::VcpuId(t.vcpu), checks, tracer);
        reloadAll(t, checks, tracer);
        ensureFree(t.pages + 1, &t, checks, tracer);
        auto image = inSpan(tracer, SpanKind::SmpSnapshot, [&] {
            return smp->hcEnclaveSnapshot(osVcpu, t.handle.id,
                                          hv::SnapshotMode::Fork);
        });
        if (!checks.check(bool(image), "churn: fork snapshot failed"))
            return nowNs() - t0;
        auto clone = inSpan(tracer, SpanKind::SmpRestore, [&] {
            return smp->hcEnclaveRestoreImage(osVcpu, *image);
        });
        if (!checks.check(bool(clone), "churn: fork restore failed"))
            return nowNs() - t0;
        const u64 mid = nowNs();
        checkContents(smp->monitor(), *clone, t, allPages(t), "fork", checks);
        const u64 resume = nowNs();
        {
            Span s(tracer, SpanKind::SmpDestroy);
            checks.check(bool(smp->hcEnclaveDestroy(osVcpu, *clone)),
                         "churn: destroying the fork failed");
        }
        t.lastUse = opIndex;
        return (mid - t0) + (nowNs() - resume);
    }

    u64
    migrate(Tenant &t, OpRng &rng, Checks &checks, Tracer &tracer)
    {
        Span op(tracer, SpanKind::Migrate);
        const u64 t0 = nowNs();
        if (t.vcpu >= 0)
            exitVcpu(smp::VcpuId(t.vcpu), checks, tracer);
        reloadAll(t, checks, tracer);

        migrate::MigrateOptions opts;
        opts.dirtyThreshold = 1;
        hv::Machine *source = nullptr;
        EnclaveId moving = t.handle.id;
        // The enclave keeps running between pre-copy rounds: round r
        // dirties 4, 2, then 1 page, so every leg copies twice and
        // ships one page inside the downtime window.
        const auto workload = [&](u64 round) {
            const u64 pages = round == 0 ? 4 : round == 1 ? 2 : 1;
            for (u64 k = 0; k < pages; ++k) {
                const u64 p = rng.below(t.pages);
                const u64 value = rng.next();
                if (source->monitor().enclaveStore(moving, t.pageVa(p), value))
                    t.word0[p] = value;
                else
                    checks.check(false, "churn: store during migration failed");
            }
        };
        bool ok = true;
        for (int leg = 0; leg < 2 && ok; ++leg) {
            source = leg == 0 ? &smp->machine() : hostB.get();
            hv::Machine &dest = leg == 0 ? *hostB : smp->machine();
            auto res = inSpan(tracer, SpanKind::MigrateLive, [&] {
                return migrate::migrateLive(*source, moving, dest, workload,
                                            opts);
            });
            ok = checks.check(bool(res), "churn: live migration failed");
            if (!ok)
                break;
            moving = res->dstId;
            downtime.add(res->downtimeNs + res->switchoverNs);
            if (opIndex < countWindow()) {
                switchover.add(res->switchoverNs);
                ++migrations;
                precopyRounds += res->precopyRounds;
                downtimePages += res->downtimePages;
            }
        }
        const u64 latency = nowNs() - t0;
        if (!ok) {
            // The tenant is stranded; stop tracking it.
            t.live = false;
            return latency;
        }
        t.handle.id = moving;
        t.lastUse = opIndex;
        checkContents(smp->monitor(), moving, t, allPages(t), "migration",
                      checks);
        return latency;
    }

    u64 seed;
    Zipf popularity;
    std::vector<Tenant> templates;
    std::vector<u32> byRank;
    std::vector<u32> initialLive;

    std::unique_ptr<smp::SmpMonitor> smp;
    std::unique_ptr<hv::Machine> hostB;
    std::vector<Tenant> tenants;
    std::vector<Gpa> appBacking;
    std::vector<int> vcpuTenant;
    u64 epcUsed = 0;
    u64 opIndex = 0;
    bool lastFault = false;

    /** Wall time per event kind and in evict batches, count window. */
    std::array<u64, size_t(Event::Count)> eventNs{};
    u64 evictNs = 0;

    Samples launchLat, faultLat, downtime, switchover;
    u64 migrations = 0;
    u64 precopyRounds = 0;
    u64 downtimePages = 0;
};

} // namespace

std::unique_ptr<Workload>
makeChurn(u64 seed)
{
    return std::make_unique<Churn>(seed);
}

} // namespace hev::perfbench
