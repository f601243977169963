/**
 * @file
 * Shared pieces of the end-to-end benchmark: latency samples, the
 * in-memory span tracer, the metric report and the workload interface
 * the phase driver (main.cc) runs.
 *
 * Every workload is a closed loop with one client: one driver thread
 * issues an op, waits for it to complete, checks it, and issues the
 * next.  The simulated vCPUs of an SmpMonitor are served on that same
 * thread by the service-all IPI driver.
 */

#ifndef HEV_PERFBENCH_BENCH_HH
#define HEV_PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "hv/monitor.hh"
#include "obs/stats.hh"
#include "support/types.hh"

namespace hev::smp
{
class SmpMonitor;
}

namespace hev::perfbench
{

inline u64
nowNs()
{
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count());
}

/** FNV-1a over 64-bit words: the digest of generated inputs/outputs. */
constexpr u64 digestInit = 0xcbf29ce484222325ull;

inline u64
digestStep(u64 hash, u64 value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * The per-op input stream: op i of a run draws from its own splitmix64
 * stream keyed by (seed, i), so any op is a pure function of the seed
 * and its index.
 */
class OpRng
{
  public:
    OpRng(u64 seed, u64 op)
        : state(digestStep(digestStep(digestInit, seed), op))
    {}

    u64
    next()
    {
        u64 z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    u64 below(u64 bound) { return next() % bound; }
    double unit() { return double(next() >> 11) * 0x1.0p-53; }

  private:
    u64 state;
};

/** Zipf(s = 1) over ranks 0..n-1; rank 0 is the most popular. */
class Zipf
{
  public:
    explicit Zipf(u32 n);
    u32 sample(double unit) const;

  private:
    std::vector<double> cdf;
};

/**
 * A set of latency samples in nanoseconds (saturating at ~4.3 s).  A
 * deque grows in small blocks, so a long run never holds two copies of
 * its samples while growing: peak_rss_mib stays the system's.
 */
class Samples
{
  public:
    void add(u64 ns) { values.push_back(u32(std::min<u64>(ns, ~u32(0)))); }
    u64 size() const { return values.size(); }
    /** Nearest-rank percentile, p in [0, 1]; 0 when empty. */
    double percentile(double p) const;

  private:
    mutable std::deque<u32> values;
    mutable bool sorted = false;
};

/**
 * The spans the benchmark records around its own calls into each
 * layer's public functions.  The text before the first '.' of a name
 * is the layer its self time is charged to; "bench" is the
 * benchmark's own op bookkeeping.
 */
enum class SpanKind : u8
{
    Request,        //!< bench.request: one serve/churn request
    Fault,          //!< bench.fault: a churn request that evicts+reloads
    Launch,         //!< bench.launch
    Destroy,        //!< bench.destroy
    Unmap,          //!< bench.unmap
    Fork,           //!< bench.fork
    Migrate,        //!< bench.migrate
    Exec,           //!< bench.exec: one fuzz trace
    HvMbufWrite,    //!< hv.mbuf_write (host side)
    HvMbufRead,     //!< hv.mbuf_read (host side)
    SmpEnter,
    SmpExit,
    SmpMemLoad,
    SmpMemStore,
    SmpReport,
    SmpInit,
    SmpAddPagesBatch,
    SmpAddPage,
    SmpInitFinish,
    SmpDestroy,
    SmpEvictBatch,
    SmpReload,
    SmpSnapshot,
    SmpRestore,
    SmpOsUnmapBatch,
    SmpOsMap,
    MigrateLive,
    FuzzExecuteTrace,
    Count,
};

constexpr u32 spanKindCount = u32(SpanKind::Count);

const char *spanName(SpanKind kind);

/** The layer name of a span (its name up to the first '.'). */
std::string spanLayer(SpanKind kind);

/**
 * In-memory span tracer.  Disabled, a span costs one branch.  Enabled,
 * every span's self time (its duration minus its children's) is
 * charged to its layer; while retaining, spans are also kept whole
 * (name, start, end, parent, op id) for the Chrome trace export and
 * the per-span percentiles.
 */
class Tracer
{
  public:
    struct Record
    {
        u64 id = 0;
        u64 parent = 0; //!< 0 = root
        u64 op = 0;
        u64 startNs = 0;
        u64 endNs = 0;
        SpanKind kind = SpanKind::Request;
    };

    bool enabled() const { return on; }
    void setEnabled(bool enable) { on = enable; }
    void setRetain(bool enable) { retain = enable; }
    /** Start a new op: spans opened until the next call share its id. */
    void beginOp() { ++opId; }

    void begin(SpanKind kind);
    void end();

    const std::vector<Record> &retained() const { return records; }
    /** Durations (ns) of the retained spans of one kind. */
    Samples retainedDurations(SpanKind kind) const;
    /** Self time per span kind over every traced span, in ns. */
    const std::vector<u64> &selfNs() const { return selfByKind; }

    /** Write the retained spans as a Chrome trace_event document. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Frame
    {
        u64 id;
        u64 startNs;
        u64 childNs;
        SpanKind kind;
    };

    bool on = false;
    bool retain = false;
    u64 opId = 0;
    u64 nextId = 1;
    std::vector<Frame> stack;
    std::vector<Record> records;
    std::vector<u64> selfByKind = std::vector<u64>(spanKindCount, 0);
};

/** RAII span; a no-op while the tracer is disabled. */
class Span
{
  public:
    Span(Tracer &tracer, SpanKind kind)
        : t(tracer.enabled() ? &tracer : nullptr)
    {
        if (t)
            t->begin(kind);
    }
    ~Span()
    {
        if (t)
            t->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *t;
};

/** Call `f` inside a span of `kind` and return what it returns. */
template <typename F>
auto
inSpan(Tracer &tracer, SpanKind kind, F &&f)
{
    Span s(tracer, kind);
    return f();
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    u64 samples = 0;
};

/**
 * Outcome bookkeeping of one op: the workload calls check() for every
 * output it verifies; a false check fails the op and keeps the first
 * few messages for the report.
 */
class Checks
{
  public:
    bool check(bool ok, const std::string &what);
    void beginOp() { opFailed = false; }
    bool opOk() const { return !opFailed; }
    u64 failedChecks() const { return failures; }
    const std::vector<std::string> &messages() const { return firstMessages; }

  private:
    bool opFailed = false;
    u64 failures = 0;
    std::vector<std::string> firstMessages;
};

/**
 * A workload: generated inputs, a machine it builds in set-up, and an
 * op stream.  Op i is a pure function of (seed, i) and of the machine
 * state the earlier ops left, so any prefix replays exactly.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Digest of the generated inputs (schedule or trace set). */
    virtual u64 inputDigest() const = 0;
    /** Machine construction plus provisioning; replaces any old state. */
    virtual void setup() = 0;
    /**
     * Run op i, recording its outcome checks, and return its latency in
     * ns: the time inside the system, without input generation and
     * without the checks that follow the op.
     */
    virtual u64 runOp(u64 i, Checks &checks, Tracer &tracer) = 0;
    /** Whole-machine invariant checks after a phase. */
    virtual void finalChecks(Checks &checks) = 0;
    /** Ops in the traced run's fixed count window. */
    virtual u64 countWindow() const = 0;
    /** Fewest ops in a timing slice (see main.cc). */
    virtual u64 sliceOps() const { return 1000; }
    /** The hv geometry of the workload's machine (for the probes). */
    virtual hv::MonitorConfig geometry() const = 0;
    /** Workload-specific end-to-end metrics of the last phase. */
    virtual void endToEnd(std::vector<Metric> &) const {}
    /**
     * Workload-specific per-layer metrics of the last untraced phase,
     * whose count window took `window_s` seconds.
     */
    virtual void perLayer(std::vector<Metric> &, double window_s, Checks &)
    {}
    /** Reset per-phase sample sets (called before each phase). */
    virtual void resetPhase() {}
    /** Output digest line(s) to print (fuzz signatures). */
    virtual std::string outputDigest() const { return ""; }
};

/** Serve every vCPU's IPI mailbox on the driver thread. */
void installServiceAllDriver(smp::SmpMonitor &smp);

/** The after-run invariant checks of an SMP machine. */
void checkSmpMachine(const smp::SmpMonitor &smp, Checks &checks);

std::unique_ptr<Workload> makeServe(u64 seed);
std::unique_ptr<Workload> makeChurn(u64 seed);
std::unique_ptr<Workload> makeFuzz(u64 seed);

/** Layer probes, timed on states built like the workload's. */
void runProbes(const hv::MonitorConfig &workload_geometry, Checks &checks,
               std::vector<Metric> &out);

} // namespace hev::perfbench

#endif // HEV_PERFBENCH_BENCH_HH
