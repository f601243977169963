/**
 * @file
 * The `serve` workload: steady request serving, the read side of the
 * hv layer.  16 long-lived enclaves of 64 pages sit on a 4-vCPU
 * SmpMonitor, all resident in EPC.  Enclave popularity follows a Zipf
 * law over a seed-permuted order; the enclave of popularity rank r is
 * served on vCPU r % 4.
 *
 * A request: the host writes a nonce into the enclave's marshalling
 * buffer; the driver enters the enclave unless the vCPU is already
 * resident in it; the enclave loads 4-32 words of its pages, reads the
 * nonce and stores a reply; the host reads the reply and checks it
 * against the known page contents.  There is no frame allocation,
 * sealing, shootdown or checker on this path.
 */

#include "bench.hh"
#include "smp/smp_monitor.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace hev::perfbench
{

namespace
{

constexpr u32 enclaveCount = 16;
constexpr u64 enclavePages = 64;
constexpr u32 vcpuCount = 4;
constexpr u64 minLoads = 4;
constexpr u64 maxLoads = 32;
constexpr u64 wordsPerPage = pageSize / sizeof(u64);
/** Requests hashed into the input digest. */
constexpr u64 digestOps = 4096;

u64
enclaveBase(u32 e)
{
    return 0x10'0000 + u64(e) * 0x20'0000;
}

smp::SmpConfig
serveConfig()
{
    smp::SmpConfig cfg;
    cfg.monitor.layout.totalBytes = 32 * 1024 * 1024;
    cfg.monitor.layout.ptAreaBytes = 4 * 1024 * 1024;
    cfg.monitor.layout.epcBytes = 8 * 1024 * 1024;
    cfg.vcpus = vcpuCount;
    return cfg;
}

/** One generated request. */
struct Request
{
    u32 enclave = 0;
    u64 nonce = 0;
    u32 loads = 0;
    u32 page[maxLoads] = {};
    u32 word[maxLoads] = {};
};

class Serve final : public Workload
{
  public:
    explicit Serve(u64 workload_seed)
        : seed(workload_seed), popularity(enclaveCount)
    {
        Rng rng(seed);
        for (u32 e = 0; e < enclaveCount; ++e)
            byRank.push_back(e);
        for (u32 i = enclaveCount - 1; i > 0; --i)
            std::swap(byRank[i], byRank[rng.below(i + 1)]);
        // Popularity rank r is served on vCPU r % 4, so every seed
        // spreads the hot enclaves over the vCPUs the same way.
        vcpuOf.resize(enclaveCount);
        for (u32 r = 0; r < enclaveCount; ++r)
            vcpuOf[byRank[r]] = r % vcpuCount;
        for (u32 e = 0; e < enclaveCount; ++e)
            fill.push_back(rng.next() & 0xffff'ffff'0000'0000ull);
    }

    u64
    inputDigest() const override
    {
        u64 h = digestInit;
        for (const u32 e : byRank)
            h = digestStep(h, e);
        for (const u64 f : fill)
            h = digestStep(h, f);
        for (u64 i = 0; i < digestOps; ++i) {
            const Request r = request(i);
            h = digestStep(h, r.enclave);
            h = digestStep(h, r.nonce);
            for (u32 j = 0; j < r.loads; ++j)
                h = digestStep(h, u64(r.page[j]) << 32 | r.word[j]);
        }
        return h;
    }

    void
    setup() override
    {
        smp.reset();
        handles.clear();
        smp = std::make_unique<smp::SmpMonitor>(serveConfig());
        installServiceAllDriver(*smp);
        for (u32 e = 0; e < enclaveCount; ++e) {
            auto handle = smp->machine().setupEnclave(
                enclaveBase(e), enclavePages, 1, fill[e]);
            if (!handle)
                fatal("serve setup: enclave %u: %s", e,
                      hvErrorName(handle.error()));
            handles.push_back(*handle);
        }
        resident.assign(vcpuCount, enclaveCount);
    }

    u64
    runOp(u64 i, Checks &checks, Tracer &tracer) override
    {
        const Request r = request(i);
        const hv::EnclaveHandle &h = handles[r.enclave];
        u64 expected = r.nonce;
        for (u32 j = 0; j < r.loads; ++j)
            expected += content(r.enclave, r.page[j], r.word[j]);
        const smp::VcpuId v = vcpuOf[r.enclave];

        tracer.beginOp();
        Span op(tracer, SpanKind::Request);
        const u64 t0 = nowNs();
        bool ok = true;
        {
            Span s(tracer, SpanKind::HvMbufWrite);
            ok &= bool(smp->machine().mbufWrite(h, 0, r.nonce));
        }
        if (resident[v] != r.enclave) {
            if (resident[v] != enclaveCount) {
                Span s(tracer, SpanKind::SmpExit);
                ok &= bool(smp->hcEnclaveExit(v));
            }
            Span s(tracer, SpanKind::SmpEnter);
            ok &= bool(smp->hcEnclaveEnter(v, h.id));
            resident[v] = r.enclave;
        }
        // The enclave side: read the request, load its pages, reply.
        u64 acc = 0;
        {
            Span s(tracer, SpanKind::SmpMemLoad);
            auto nonce = smp->memLoad(v, h.mbufGva);
            ok &= bool(nonce);
            acc += nonce ? *nonce : 0;
        }
        for (u32 j = 0; j < r.loads; ++j) {
            Span s(tracer, SpanKind::SmpMemLoad);
            auto val = smp->memLoad(
                v, Gva(enclaveBase(r.enclave) + r.page[j] * pageSize +
                       r.word[j] * sizeof(u64)));
            ok &= bool(val);
            acc += val ? *val : 0;
        }
        {
            Span s(tracer, SpanKind::SmpMemStore);
            ok &= bool(smp->memStore(v, h.mbufGva + sizeof(u64), acc));
        }
        auto reply = inSpan(tracer, SpanKind::HvMbufRead, [&] {
            return smp->machine().mbufRead(h, 1);
        });
        const u64 latency = nowNs() - t0;
        checks.check(ok, "serve: a hypercall or access failed");
        checks.check(reply && *reply == expected, "serve: wrong reply");
        return latency;
    }

    void
    finalChecks(Checks &checks) override
    {
        checkSmpMachine(*smp, checks);
    }

    u64 countWindow() const override { return 4000; }

    hv::MonitorConfig
    geometry() const override
    {
        return serveConfig().monitor;
    }

  private:
    /** Initial content of page p, word w (Machine::setupEnclave's fill). */
    u64
    content(u32 e, u64 p, u64 w) const
    {
        return fill[e] + p * 1000 + w;
    }

    Request
    request(u64 i) const
    {
        OpRng rng(seed, i);
        Request r;
        r.enclave = byRank[popularity.sample(rng.unit())];
        r.nonce = rng.next();
        r.loads = u32(minLoads + rng.below(maxLoads - minLoads + 1));
        for (u32 j = 0; j < r.loads; ++j) {
            r.page[j] = u32(rng.below(enclavePages));
            r.word[j] = u32(rng.below(wordsPerPage));
        }
        return r;
    }

    u64 seed;
    Zipf popularity;
    std::vector<u32> byRank;
    std::vector<smp::VcpuId> vcpuOf;
    std::vector<u64> fill;
    std::unique_ptr<smp::SmpMonitor> smp;
    std::vector<hv::EnclaveHandle> handles;
    /** Enclave each vCPU is resident in (enclaveCount = none). */
    std::vector<u32> resident;
};

} // namespace

std::unique_ptr<Workload>
makeServe(u64 seed)
{
    return std::make_unique<Serve>(seed);
}

} // namespace hev::perfbench
