/**
 * @file
 * Fuzzer throughput: sustained differential executions per second on
 * the clean tree, with and without MIR lockstep, plus the fuzz
 * campaign shards' aggregate rate.  A clean tree must produce zero
 * divergences — the bench double-checks the oracles' false-positive
 * rate while measuring.  It also times the fixed world-building cost
 * every exec pays: one hv::Machine construction, and one empty-trace
 * exec (machine, abstract states and oracles built and torn down).
 * Writes BENCH_fuzz.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_report.hh"
#include "check/campaign.hh"
#include "fuzz/fuzzer.hh"
#include "hv/machine.hh"

using namespace hev;
using namespace hev::fuzz;

namespace
{

struct RunMetrics
{
    u64 execs = 0;
    double elapsed = 0.0;
    u64 corpusEntries = 0;
    u64 featuresCovered = 0;
    u64 divergences = 0;
};

RunMetrics
measure(u64 execs, bool mir_lockstep)
{
    FuzzConfig cfg;
    cfg.seed = 0xbe9c;
    cfg.maxExecs = execs;
    cfg.exec.mirLockstep = mir_lockstep;
    Fuzzer fuzzer(cfg);
    const auto start = std::chrono::steady_clock::now();
    const auto failure = fuzzer.run();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    RunMetrics metrics;
    metrics.execs = fuzzer.stats().execs;
    metrics.elapsed = elapsed.count();
    metrics.corpusEntries = fuzzer.stats().corpusEntries;
    metrics.featuresCovered = fuzzer.stats().featuresCovered;
    metrics.divergences = fuzzer.stats().divergences;
    if (failure)
        std::printf("UNEXPECTED DIVERGENCE: %s\n",
                    failure->result.detail.c_str());
    return metrics;
}

/** Median wall time of `reps` calls of body, in microseconds. */
template <typename F>
double
medianUs(int reps, F &&body)
{
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        body();
        const std::chrono::duration<double, std::micro> took =
            std::chrono::steady_clock::now() - start;
        samples.push_back(took.count());
    }
    std::nth_element(samples.begin(), samples.begin() + reps / 2,
                     samples.end());
    return samples[reps / 2];
}

} // namespace

int
main()
{
    std::printf("=== Differential fuzzer throughput ===\n\n");

    u64 execs = 3000;
    if (const char *env = std::getenv("HEV_BENCH_FUZZ_EXECS"))
        execs = std::strtoull(env, nullptr, 0);

    bench::JsonReport report("fuzz");
    report.metric("execs", execs);

    // The world every exec builds before its first op.
    const ExecOptions standard = ExecOptions::standard();
    bool empty_clean = true;
    const double exec_empty_us = medianUs(201, [&] {
        empty_clean &= !executeTrace(standard, Trace{}).divergence;
    });
    if (!empty_clean)
        return 1;
    const double machine_ctor_us =
        medianUs(201, [&] { hv::Machine machine(standard.monitor); });
    std::printf("empty-trace exec: %8.1f us   machine ctor: %8.1f us\n",
                exec_empty_us, machine_ctor_us);
    report.metric("exec_empty_us", exec_empty_us);
    report.metric("machine_ctor_us", machine_ctor_us);

    const RunMetrics full = measure(execs, true);
    if (full.divergences != 0)
        return 1;
    std::printf("full oracle set:  %6llu execs in %6.2f s = %8.0f "
                "execs/s\n",
                (unsigned long long)full.execs, full.elapsed,
                double(full.execs) / full.elapsed);
    std::printf("                  corpus %llu, features %llu, "
                "divergences %llu\n",
                (unsigned long long)full.corpusEntries,
                (unsigned long long)full.featuresCovered,
                (unsigned long long)full.divergences);
    report.metric("elapsed_seconds", full.elapsed);
    report.metric("execs_per_sec", double(full.execs) / full.elapsed);
    report.metric("corpus_entries", full.corpusEntries);
    report.metric("features_covered", full.featuresCovered);
    report.metric("divergences", full.divergences);

    const RunMetrics concrete = measure(execs, false);
    if (concrete.divergences != 0)
        return 1;
    std::printf("without MIR:      %6llu execs in %6.2f s = %8.0f "
                "execs/s\n",
                (unsigned long long)concrete.execs, concrete.elapsed,
                double(concrete.execs) / concrete.elapsed);
    report.metric("execs_per_sec_no_mir",
                  double(concrete.execs) / concrete.elapsed);

    // The campaign packaging: shards through the parallel runner.
    FuzzCampaignOptions opts;
    opts.shards = 4;
    opts.execsPerShard = execs / 8;
    check::CampaignConfig cfg;
    cfg.seed = 0xbe9c;
    cfg.threads = 4;
    check::Campaign campaign(cfg);
    campaign.add(fuzzScenarios(opts));
    const check::CampaignReport camp = campaign.run();
    if (camp.failures != 0) {
        std::printf("UNEXPECTED CAMPAIGN FAILURE: %s\n",
                    camp.first->detail.c_str());
        return 1;
    }
    std::printf("campaign shards:  %6llu execs in %6.2f s = %8.0f "
                "execs/s (4 shards, 4 threads)\n",
                (unsigned long long)camp.checks, camp.elapsedSeconds,
                camp.checksPerSecond);
    report.metric("campaign_execs_per_sec", camp.checksPerSecond);

    if (!report.write())
        return 1;
    std::printf("\nreport written to BENCH_fuzz.json\n");
    return 0;
}
