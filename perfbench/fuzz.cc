/**
 * @file
 * The `fuzz` workload: the checker as its users run it.  Every op
 * executes a fresh trace built from the seed and the op index: one of
 * the fuzzer's seed skeletons, one in four from the 4-vCPU SMP set,
 * mutated (and one in four single-vCPU ones spliced) to at most 24
 * ops.  Each op is one fuzz::executeTrace with
 * ExecOptions::standard(), the full oracle set and MIR lockstep on.
 * On the clean tree no trace may diverge; typed rejections a trace
 * provokes are part of its expected behaviour, not failures.
 */

#include <cstdio>

#include "bench.hh"
#include "fuzz/executor.hh"
#include "fuzz/mutate.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace hev::perfbench
{

namespace
{

/**
 * Ops in a block: a timing slice, the traced count window and the span
 * over which skeletons are dealt round-robin.
 */
constexpr u32 traceCount = 1000;
constexpr u32 maxOps = 24;
constexpr u32 smpVcpus = 4;
/** Traces re-run with MIR lockstep off for fuzz.exec_no_mir_us. */
constexpr u32 noMirTraces = 300;

fuzz::ExecOptions
execOptions()
{
    fuzz::ExecOptions opts = fuzz::ExecOptions::standard();
    opts.smpVcpus = smpVcpus;
    return opts;
}

class Fuzz final : public Workload
{
  public:
    explicit Fuzz(u64 workload_seed)
        : seed(workload_seed), singles(fuzz::seedTraces()),
          smps(fuzz::smpSeedTraces(smpVcpus))
    {}

    u64
    inputDigest() const override
    {
        u64 h = digestInit;
        for (u64 i = 0; i < traceCount; ++i)
            for (const char c : fuzz::serializeTrace(traceFor(i)))
                h = digestStep(h, u8(c));
        return h;
    }

    /**
     * Execute the empty trace: one executor world (machine, specs, MIR
     * harnesses) built and torn down, which every exec pays today.
     */
    void
    setup() override
    {
        const fuzz::ExecResult r = fuzz::executeTrace(opts, fuzz::Trace{});
        if (r.divergence)
            fatal("fuzz setup: empty trace diverged: %s", r.detail.c_str());
    }

    void
    resetPhase() override
    {
        executed = 0;
        opsInWindow = 0;
        signatures = digestInit;
    }

    u64
    runOp(u64 i, Checks &checks, Tracer &tracer) override
    {
        const fuzz::Trace trace = traceFor(i);
        tracer.beginOp();
        fuzz::ExecResult r;
        u64 latency;
        {
            Span op(tracer, SpanKind::Exec);
            Span s(tracer, SpanKind::FuzzExecuteTrace);
            const u64 t0 = nowNs();
            r = fuzz::executeTrace(opts, trace);
            latency = nowNs() - t0;
        }
        checks.check(!r.divergence,
                     "fuzz: trace " + std::to_string(i) +
                         " diverged at op " + std::to_string(r.failedOp) +
                         ": " + r.detail);
        if (i < traceCount) {
            signatures = digestStep(signatures, r.signature);
            opsInWindow += r.opsExecuted;
            ++executed;
        }
        return latency;
    }

    void finalChecks(Checks &) override {}

    u64 countWindow() const override { return traceCount; }

    /** A timing slice is at least one block of ops. */
    u64 sliceOps() const override { return traceCount; }

    hv::MonitorConfig geometry() const override { return opts.monitor; }

    void
    perLayer(std::vector<Metric> &out, double, Checks &checks) override
    {
        out.push_back({"fuzz.ops_per_exec",
                       executed ? double(opsInWindow) / double(executed) : 0.0,
                       "1/op", executed});
        fuzz::ExecOptions no_mir = opts;
        no_mir.mirLockstep = false;
        Samples lat;
        for (u32 i = 0; i < noMirTraces; ++i) {
            const fuzz::Trace trace = traceFor(i);
            const u64 t0 = nowNs();
            const fuzz::ExecResult r = fuzz::executeTrace(no_mir, trace);
            lat.add(nowNs() - t0);
            checks.check(!r.divergence, "fuzz: trace " + std::to_string(i) +
                                            " diverged without MIR: " +
                                            r.detail);
        }
        out.push_back({"fuzz.exec_no_mir_us.p50", lat.percentile(0.5) / 1e3,
                       "us", lat.size()});
    }

    std::string
    outputDigest() const override
    {
        char buf[96];
        std::snprintf(buf, sizeof buf, "0x%016llx over %llu execs",
                      (unsigned long long)signatures,
                      (unsigned long long)executed);
        return buf;
    }

  private:
    /**
     * The trace op i executes, a pure function of (seed, i).  A fuzzer
     * executes a fresh mutant each time, so every op gets its own.
     * Skeletons are dealt round-robin within each block of traceCount
     * ops, so every block has the same mix of trace kinds; the seed
     * drives the splices and mutations.
     */
    fuzz::Trace
    traceFor(u64 i) const
    {
        Rng rng(digestStep(digestStep(digestInit, seed), i));
        const u64 k = i % traceCount;
        if (k % 4 == 3)
            return fuzz::mutateTrace(smps[(k / 4) % smps.size()], rng, maxOps,
                                     smpVcpus);
        const u64 single = k - k / 4;
        fuzz::Trace t = singles[single % singles.size()];
        if (single % 4 == 0)
            t = fuzz::spliceTraces(t, singles[rng.below(singles.size())], rng,
                                   maxOps);
        return fuzz::mutateTrace(t, rng, maxOps, 1);
    }

    u64 seed;
    std::vector<fuzz::Trace> singles;
    std::vector<fuzz::Trace> smps;
    fuzz::ExecOptions opts = execOptions();
    u64 executed = 0;
    u64 opsInWindow = 0;
    u64 signatures = digestInit;
};

} // namespace

std::unique_ptr<Workload>
makeFuzz(u64 seed)
{
    return std::make_unique<Fuzz>(seed);
}

} // namespace hev::perfbench
