/**
 * @file
 * The benchmark driver: one workload per invocation, untraced or
 * traced.
 *
 *   perfbench --workload serve|churn|fuzz --seed N --seconds S
 *             --trace 0|1 [--trace-out FILE] [--first-op I]
 *             [--inputs-only]
 *
 * Untraced (--trace 0): set up at least three times (setup_s is the
 * median), then run the op stream for S seconds and report the
 * end-to-end metrics over timing slices; --first-op starts the op
 * stream at index I (perfbench/run.py runs fuzz in several processes,
 * each on its own stretch of ops).  Traced (--trace 1): two
 * phases of S/2 seconds, each on a fresh machine, the first untraced
 * and the second with the span tracer on.  Each phase starts with the
 * same fixed window of ops, so the count metrics (taken from
 * obs::snapshotStats() deltas over the untraced window) repeat exactly
 * for a seed; spans of the traced window are kept and written as a
 * Chrome trace.  A traced serve or fuzz run then measures the write
 * side on churn's count window (churnProbe).  The last line of
 * stdout is a JSON object with every metric, its unit and its sample
 * count.  The exit code is 1 if any check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "bench.hh"

using namespace hev;
using namespace hev::perfbench;

namespace
{

/**
 * Set-up repeats; setup_s is their median.  A fixed count, so that the
 * heap a run's ops start from does not depend on the host's speed.
 */
constexpr u64 setupRepeats = 5;

struct Args
{
    std::string workload;
    u64 seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut = "perfbench-trace.json";
    u64 firstOp = 0;
    bool inputsOnly = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload serve|churn|fuzz "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--first-op I] [--inputs-only]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--inputs-only") {
            a.inputsOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = std::strtoull(value.c_str(), nullptr, 0);
        else if (flag == "--seconds")
            a.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            a.trace = value == "1";
        else if (flag == "--trace-out")
            a.traceOut = value;
        else if (flag == "--first-op")
            a.firstOp = std::strtoull(value.c_str(), nullptr, 0);
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    if (a.trace && a.firstOp != 0)
        usage("--first-op applies to untraced runs only");
    return a;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

/**
 * Timing slices of a phase: a slice closes once it is 0.1 s long and
 * holds the workload's sliceOps() (at least 1000 ops, so its p99 has
 * ten samples beyond it).  The end-to-end timings take each slice's
 * value and report the level nine slices in ten meet: the 10th
 * percentile of the slice throughputs, the 90th of the slice
 * latencies.  A shared host's speed switches between an uncontended
 * and a contended level, for seconds to minutes at a time; a slow-side
 * decile of many slices tracks the contended level and depends less
 * than the median on how long each level lasted (perfbench/README.md).
 */
constexpr u64 sliceMinNs = 100'000'000;
constexpr double slowSide = 0.1;

/** Linearly interpolated quantile, q in [0, 1]; 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double k = q * double(v.size() - 1);
    const size_t lo = size_t(k);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (k - double(lo));
}

/** What one phase of the op loop measured. */
struct Phase
{
    u64 ops = 0;
    u64 failedOps = 0;
    u64 failedChecks = 0; //!< checks failed inside this phase's ops
    double seconds = 0.0;
    /** Per slice: throughput (1/s) and latency p50/p99 (ns). */
    std::vector<double> sliceRate, sliceP50, sliceP99;
    /** obs stats delta and wall time over the fixed window. */
    obs::Snapshot window;
    double windowSeconds = 0.0;
};

/**
 * Run ops from index `first_op` on until `seconds` have passed and at
 * least `window` ops ran.  With a window (first_op 0), the stats delta
 * over ops [0, window) is kept and span retention stops after it.
 */
Phase
runPhase(Workload &w, Checks &checks, Tracer &tracer, double seconds,
         u64 window, u64 first_op = 0)
{
    Phase ph;
    w.resetPhase();
    const obs::Snapshot before = obs::snapshotStats();
    const u64 checks_before = checks.failedChecks();
    const u64 start = nowNs();
    const u64 deadline = start + u64(seconds * 1e9);
    Samples slice;
    u64 slice_start = start;
    const auto close_slice = [&](u64 now) {
        ph.sliceRate.push_back(double(slice.size()) * 1e9 /
                               double(now - slice_start));
        ph.sliceP50.push_back(slice.percentile(0.5));
        ph.sliceP99.push_back(slice.percentile(0.99));
        slice = Samples();
        slice_start = now;
    };
    for (u64 i = first_op;; ++i) {
        if (i == window && window != 0) {
            ph.window = obs::snapshotStats().minus(before);
            ph.windowSeconds = double(nowNs() - start) / 1e9;
            tracer.setRetain(false);
        }
        const u64 now = nowNs();
        if (now - slice_start >= sliceMinNs && slice.size() >= w.sliceOps())
            close_slice(now);
        if (i >= window && now >= deadline)
            break;
        checks.beginOp();
        slice.add(w.runOp(i, checks, tracer));
        ++ph.ops;
        ph.failedOps += !checks.opOk();
    }
    const u64 end = nowNs();
    if (ph.sliceRate.empty() && slice.size() != 0)
        close_slice(end);
    ph.seconds = double(end - start) / 1e9;
    ph.failedChecks = checks.failedChecks() - checks_before;
    return ph;
}

u64
counter(const obs::Snapshot &s, const char *name)
{
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
}

obs::HistogramData
histogram(const obs::Snapshot &s, const char *name)
{
    const auto it = s.histograms.find(name);
    return it == s.histograms.end() ? obs::HistogramData{} : it->second;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** The per-layer count and busy metrics of a stats window. */
void
windowMetrics(const obs::Snapshot &d, u64 ops, double wall_s,
              std::vector<Metric> &out)
{
    const auto c = [&](const char *name) { return double(counter(d, name)); };
    const auto per_op = [&](double count) { return ratio(count, double(ops)); };
    const auto busy = [&](const obs::HistogramData &h) {
        return ratio(double(h.sum), wall_s * 1e9);
    };
    const obs::HistogramData sd_ns = histogram(d, "smp.shootdown_ns");
    const obs::HistogramData spins = histogram(d, "smp.shootdown_wait_spins");
    const obs::HistogramData hc_ns = histogram(d, "hv.hypercall_ns");
    const obs::HistogramData depth = histogram(d, "hv.pt.walk_depth");
    const obs::HistogramData harness = histogram(d, "ccal.harness_run_ns");
    const double shootdowns = c("smp.shootdowns");
    const double allocs = c("smp.cache.local_hits") + c("smp.cache.refills");
    const double lookups = c("hv.tlb.hits") + c("hv.tlb.misses");

    out.push_back({"smp.world_switches_per_op",
                   per_op(c("smp.enters") + c("smp.exits")), "1/op", ops});
    out.push_back({"smp.shootdowns_per_op", per_op(shootdowns), "1/op", ops});
    out.push_back({"smp.ipis_per_shootdown",
                   ratio(c("smp.ipis_sent"), shootdowns), "count",
                   u64(shootdowns)});
    out.push_back({"smp.shootdown_ns.p99",
                   sd_ns.count ? sd_ns.percentile(0.99) : 0.0, "ns",
                   sd_ns.count});
    out.push_back({"smp.shootdown_busy_frac", busy(sd_ns), "ratio",
                   sd_ns.count});
    out.push_back({"smp.shootdown_wait_spins_per_shootdown",
                   ratio(double(spins.sum), double(spins.count)), "count",
                   spins.count});
    out.push_back({"smp.cache.local_hit_ratio",
                   ratio(c("smp.cache.local_hits"), allocs), "ratio",
                   u64(allocs)});

    out.push_back({"hv.hypercall_busy_frac", busy(hc_ns), "ratio",
                   hc_ns.count});
    out.push_back({"hv.hypercalls_rejected_frac",
                   ratio(c("hv.hypercalls_rejected"), c("hv.hypercalls")),
                   "ratio", counter(d, "hv.hypercalls")});
    out.push_back({"hv.pt.walks_per_op", per_op(double(depth.count)), "1/op",
                   ops});
    out.push_back({"hv.pt.walk_depth_mean", depth.mean(), "count",
                   depth.count});
    out.push_back({"hv.translations_per_op", per_op(c("hv.translations")),
                   "1/op", ops});
    out.push_back({"hv.tlb.hit_ratio", ratio(c("hv.tlb.hits"), lookups),
                   "ratio", u64(lookups)});
    out.push_back({"hv.tlb.flushes_per_op", per_op(c("hv.tlb.flushes")),
                   "1/op", ops});
    out.push_back({"hv.pt.maps_per_op", per_op(c("hv.pt.maps")), "1/op", ops});
    out.push_back({"hv.pt.unmaps_per_op", per_op(c("hv.pt.unmaps")), "1/op",
                   ops});

    out.push_back({"ccal.harness_busy_frac", busy(harness), "ratio",
                   harness.count});
    out.push_back({"ccal.harness_runs_per_exec", per_op(c("ccal.harness_runs")),
                   "1/op", ops});
    out.push_back({"mir.steps_per_exec", per_op(c("mir.steps")), "1/op", ops});
    out.push_back({"mir.prim_calls_per_exec", per_op(c("mir.prim_calls")),
                   "1/op", ops});
    out.push_back({"fuzz.unattributed_frac", 1.0 - busy(hc_ns) - busy(harness),
                   "ratio", ops});
}

/**
 * Per-span-kind p50s of a retained traced window: the read side
 * (enter, exit, loads) or the write side (launch, evict/reload, fork,
 * destroy, live migration) of smp and migrate.
 */
void
spanMetrics(const Tracer &tracer, bool write_side, std::vector<Metric> &out)
{
    const struct
    {
        const char *metric;
        SpanKind kind;
        bool writeSide;
        double scale;
        const char *unit;
    } table[] = {
        {"smp.enter_ns.p50", SpanKind::SmpEnter, false, 1.0, "ns"},
        {"smp.exit_ns.p50", SpanKind::SmpExit, false, 1.0, "ns"},
        {"smp.mem_load_ns.p50", SpanKind::SmpMemLoad, false, 1.0, "ns"},
        {"smp.evict_batch_ns.p50", SpanKind::SmpEvictBatch, true, 1.0, "ns"},
        {"smp.reload_ns.p50", SpanKind::SmpReload, true, 1.0, "ns"},
        {"smp.init_ns.p50", SpanKind::SmpInit, true, 1.0, "ns"},
        {"smp.add_pages_batch_ns.p50", SpanKind::SmpAddPagesBatch, true, 1.0,
         "ns"},
        {"smp.init_finish_ns.p50", SpanKind::SmpInitFinish, true, 1.0, "ns"},
        {"smp.snapshot_ns.p50", SpanKind::SmpSnapshot, true, 1.0, "ns"},
        {"smp.restore_ns.p50", SpanKind::SmpRestore, true, 1.0, "ns"},
        {"smp.destroy_ns.p50", SpanKind::SmpDestroy, true, 1.0, "ns"},
        {"migrate.live_ms.p50", SpanKind::MigrateLive, true, 1e-6, "ms"},
    };
    for (const auto &row : table) {
        if (row.writeSide != write_side)
            continue;
        const Samples s = tracer.retainedDurations(row.kind);
        out.push_back({row.metric, s.percentile(0.5) * row.scale, row.unit,
                       s.size()});
    }
}

/**
 * The write side as churn drives it: the write-side span p50s of
 * `spans`, and the shootdowns of churn's count window `d`.
 */
void
writeSideMetrics(const obs::Snapshot &d, u64 ops, double wall_s,
                 const Tracer &spans, std::vector<Metric> &out)
{
    spanMetrics(spans, true, out);
    const double shootdowns = double(counter(d, "smp.shootdowns"));
    const obs::HistogramData sd_ns = histogram(d, "smp.shootdown_ns");
    out.push_back({"churn.shootdowns_per_op", ratio(shootdowns, double(ops)),
                   "1/op", ops});
    out.push_back({"churn.ipis_per_shootdown",
                   ratio(double(counter(d, "smp.ipis_sent")), shootdowns),
                   "count", u64(shootdowns)});
    out.push_back({"churn.shootdown_busy_frac",
                   ratio(double(sd_ns.sum), wall_s * 1e9), "ratio",
                   sd_ns.count});
}

/**
 * The write-side probe of the workloads other than churn.  Launch,
 * evict/reload, fork, destroy and live migration run only on churn,
 * and every full churn run fails on a monitor defect (perfbench/
 * README.md), so churn is not a listed workload.  The probe measures
 * its layers anyway: a fresh churn machine, built from the same seed,
 * runs churn's fixed count window once with the span tracer on.
 * Returns that phase, whose ops count as attempted.
 */
Phase
churnProbe(u64 seed, Checks &checks, std::vector<Metric> &out)
{
    const std::unique_ptr<Workload> churn = makeChurn(seed);
    Tracer spans;
    churn->setup();
    spans.setEnabled(true);
    spans.setRetain(true);
    const Phase ph =
        runPhase(*churn, checks, spans, 0.0, churn->countWindow());
    spans.setEnabled(false);
    churn->finalChecks(checks);
    churn->perLayer(out, ph.windowSeconds, checks);
    writeSideMetrics(ph.window, churn->countWindow(), ph.windowSeconds, spans,
                     out);
    return ph;
}

/** Self time per layer over the whole traced phase, in us per op. */
void
selfTimeMetrics(const Tracer &tracer, u64 ops, double traced_s,
                std::vector<Metric> &out)
{
    std::map<std::string, u64> by_layer = {
        {"bench", 0}, {"hv", 0}, {"smp", 0}, {"migrate", 0}, {"fuzz", 0}};
    for (u32 k = 0; k < spanKindCount; ++k)
        by_layer[spanLayer(SpanKind(k))] += tracer.selfNs()[k];
    std::printf("\nself time by layer (traced phase, %llu ops, %.2f s):\n",
                (unsigned long long)ops, traced_s);
    for (const auto &[layer, ns] : by_layer) {
        std::printf("  %-8s %10.3f ms  %6.2f%% of wall  %10.3f us/op\n",
                    layer.c_str(), double(ns) / 1e6,
                    100.0 * ratio(double(ns), traced_s * 1e9),
                    ratio(double(ns) / 1e3, double(ops)));
        out.push_back({"self." + layer + "_us_per_op",
                       ratio(double(ns) / 1e3, double(ops)), "us", ops});
    }
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-42s %14.6g %-6s (n=%llu)\n", m.name.c_str(), m.value,
                    m.unit.c_str(), (unsigned long long)m.samples);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (u8(c) < 0x20)
            continue;
        out += c;
    }
    return out;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, u64 seed)
{
    if (name == "serve")
        return makeServe(seed);
    if (name == "churn")
        return makeChurn(seed);
    if (name == "fuzz")
        return makeFuzz(seed);
    usage(("unknown workload " + name).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    std::unique_ptr<Workload> w = makeWorkload(args.workload, args.seed);
    const u64 input_digest = w->inputDigest();
    std::printf("perfbench: workload %s, seed %llu, %s, input digest "
                "0x%016llx\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                args.trace ? "traced" : "untraced",
                (unsigned long long)input_digest);
    if (args.inputsOnly) {
        std::printf("{\"input_digest\": \"0x%016llx\"}\n",
                    (unsigned long long)input_digest);
        return 0;
    }

    Checks checks;
    Tracer tracer;
    std::vector<Metric> metrics;
    u64 attempted = 0;
    u64 failed = 0;
    u64 op_check_failures = 0;
    std::string output_digest;

    if (!args.trace) {
        Samples setup;
        for (u64 k = 0; k < setupRepeats; ++k) {
            const u64 t0 = nowNs();
            w->setup();
            setup.add(nowNs() - t0);
        }
        const Phase ph =
            runPhase(*w, checks, tracer, args.seconds, 0, args.firstOp);
        const double rss = peakRssMib();
        output_digest = w->outputDigest();
        w->finalChecks(checks);
        attempted = ph.ops;
        failed = ph.failedOps;
        op_check_failures = ph.failedChecks;
        metrics.push_back({"setup_s", setup.percentile(0.5) / 1e9, "s",
                           setup.size()});
        metrics.push_back({"ops_per_s", quantile(ph.sliceRate, slowSide),
                           "1/s", ph.ops});
        metrics.push_back({"op_p50_us",
                           quantile(ph.sliceP50, 1 - slowSide) / 1e3, "us",
                           ph.ops});
        metrics.push_back({"op_p99_us",
                           quantile(ph.sliceP99, 1 - slowSide) / 1e3, "us",
                           ph.ops});
        w->endToEnd(metrics);
        metrics.push_back({"peak_rss_mib", rss, "MiB", 1});
        std::printf("\nend-to-end metrics (%.2f s measured; timings are "
                    "slow-side deciles over %zu slices):\n",
                    ph.seconds, ph.sliceRate.size());
    } else {
        const double half = args.seconds / 2.0;
        const u64 window = w->countWindow();
        w->setup();
        const Phase plain = runPhase(*w, checks, tracer, half, window);
        w->finalChecks(checks);
        std::vector<Metric> workload_layer;
        w->perLayer(workload_layer, plain.windowSeconds, checks);

        w->setup();
        tracer.setEnabled(true);
        tracer.setRetain(true);
        const Phase traced = runPhase(*w, checks, tracer, half, window);
        tracer.setEnabled(false);
        output_digest = w->outputDigest();
        w->finalChecks(checks);
        // Both phases replay the same window: its counts must agree.
        checks.check(plain.window.counters == traced.window.counters,
                     "count window differs between the untraced and traced "
                     "phase");

        windowMetrics(plain.window, window, plain.windowSeconds, metrics);
        spanMetrics(tracer, false, metrics);
        metrics.insert(metrics.end(), workload_layer.begin(),
                       workload_layer.end());
        Phase probe;
        if (args.workload == "churn")
            writeSideMetrics(plain.window, window, plain.windowSeconds,
                             tracer, metrics);
        else
            probe = churnProbe(args.seed, checks, metrics);
        // The fuzz layer's own metrics read 0 (0 samples) on the other
        // workloads, so every traced run reports the same set.
        for (const Metric &own :
             {Metric{"fuzz.ops_per_exec", 0, "1/op"},
              Metric{"fuzz.exec_no_mir_us.p50", 0, "us"}}) {
            const auto same = [&](const Metric &m) {
                return m.name == own.name;
            };
            if (std::none_of(metrics.begin(), metrics.end(), same))
                metrics.push_back(own);
        }
        runProbes(w->geometry(), checks, metrics);
        const double rate_plain = double(plain.ops) / plain.seconds;
        const double rate_traced = double(traced.ops) / traced.seconds;
        metrics.push_back({"obs.trace_overhead_frac",
                           1.0 - rate_traced / rate_plain, "ratio",
                           traced.ops});
        selfTimeMetrics(tracer, traced.ops, traced.seconds, metrics);
        if (!tracer.writeChromeTrace(args.traceOut))
            checks.check(false, "cannot write " + args.traceOut);
        attempted = plain.ops + traced.ops + probe.ops;
        failed = plain.failedOps + traced.failedOps + probe.failedOps;
        op_check_failures =
            plain.failedChecks + traced.failedChecks + probe.failedChecks;
        std::printf("\nspans: %zu retained of the first %llu ops, written "
                    "to %s\n",
                    tracer.retained().size(), (unsigned long long)window,
                    args.traceOut.c_str());
        std::printf("\nper-layer metrics (window %llu ops; %llu untraced "
                    "ops in %.2f s, %llu traced ops in %.2f s):\n",
                    (unsigned long long)window, (unsigned long long)plain.ops,
                    plain.seconds, (unsigned long long)traced.ops,
                    traced.seconds);
    }
    // The checks outside the ops (after-run invariants, the count
    // window, probes) count as one more attempted op.
    attempted += 1;
    failed += checks.failedChecks() != op_check_failures;
    if (!args.trace)
        metrics.push_back({"fail_frac",
                           ratio(double(failed), double(attempted)), "ratio",
                           attempted});
    printMetrics(metrics);
    if (!output_digest.empty())
        std::printf("output digest (signatures): %s\n", output_digest.c_str());

    const bool correct = checks.failedChecks() == 0;
    for (const std::string &m : checks.messages())
        std::printf("CHECK FAILED: %s\n", m.c_str());

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"input_digest\": \"0x%016llx\", \"output_digest\": \"%s\", "
                "\"build_type\": \"%s\", \"nproc\": %u, \"metrics\": {",
                args.workload.c_str(), (unsigned long long)args.seed,
                int(args.trace), correct ? "true" : "false",
                (unsigned long long)attempted, (unsigned long long)failed,
                (unsigned long long)input_digest,
                jsonEscape(output_digest).c_str(), PERFBENCH_BUILD_TYPE,
                std::thread::hardware_concurrency());
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                    "\"samples\": %llu}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str(),
                    (unsigned long long)metrics[i].samples);
    std::printf("}}\n");
    return correct ? 0 : 1;
}
