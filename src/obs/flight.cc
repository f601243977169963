#include "obs/flight.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/stats.hh"
#include "support/hash.hh"
#include "support/thread_annotations.hh"
#include "obs/trace.hh"

/** Stamped by the build system; hev_obs carries the provenance. */
#ifndef HEV_GIT_SHA
#define HEV_GIT_SHA "unknown"
#endif

namespace hev::obs
{

namespace
{

/** A thread's flight ring.  Only the owner writes; head publishes. */
struct FlightRing
{
    u32 tid = 0;
    std::atomic<u64> head{0}; //!< records ever written
    std::vector<FlightRecord> slots{flightRingCapacity};

    FlightRing();
    ~FlightRing();

    void
    push(const FlightRecord &record)
    {
        const u64 h = head.load(std::memory_order_relaxed);
        slots[h % flightRingCapacity] = record;
        head.store(h + 1, std::memory_order_release);
    }
};

/** Copy a ring's surviving records in emission order (quiescent). */
FlightDump
drain(const FlightRing &ring)
{
    FlightDump out;
    out.tid = ring.tid;
    const u64 head = ring.head.load(std::memory_order_acquire);
    const u64 kept =
        head < flightRingCapacity ? head : flightRingCapacity;
    out.dropped = head - kept;
    out.records.reserve(kept);
    for (u64 i = head - kept; i < head; ++i)
        out.records.push_back(ring.slots[i % flightRingCapacity]);
    return out;
}

struct Recorder
{
    Mutex mu;
    u32 nextTid HEV_GUARDED_BY(mu) = 1;
    std::vector<FlightRing *> rings HEV_GUARDED_BY(mu);
    std::vector<FlightDump> retired HEV_GUARDED_BY(mu);
    /** Lock-free by design: tags are drawn without taking mu. */
    std::atomic<u16> nextRunTag{1};
};

Recorder &
recorder()
{
    static Recorder r;
    return r;
}

FlightRing::FlightRing()
{
    Recorder &rec = recorder();
    MutexGuard lock(rec.mu);
    tid = rec.nextTid++;
    rec.rings.push_back(this);
}

FlightRing::~FlightRing()
{
    Recorder &rec = recorder();
    MutexGuard lock(rec.mu);
    FlightDump last = drain(*this);
    if (last.dropped || !last.records.empty())
        rec.retired.push_back(std::move(last));
    std::erase(rec.rings, this);
}

FlightRing &
localRing()
{
    thread_local FlightRing ring;
    return ring;
}

} // namespace

namespace detail
{

void
flightRecordSlow(const FlightRecord &record)
{
    FlightRecord stamped = record;
    stamped.ts = traceNowNs();
    localRing().push(stamped);
}

} // namespace detail

u16
newFlightRunTag()
{
    Recorder &rec = recorder();
    u16 tag = rec.nextRunTag.fetch_add(1, std::memory_order_relaxed);
    // Tag 0 means "no filter" in flightTail; never hand it out.  The
    // 16-bit wrap is harmless: rings hold 256 records, so a reused
    // tag's old records were evicted tens of thousands of runs ago.
    while (tag == 0)
        tag = rec.nextRunTag.fetch_add(1, std::memory_order_relaxed);
    return tag;
}

std::vector<FlightDump>
collectFlight()
{
    Recorder &rec = recorder();
    MutexGuard lock(rec.mu);
    std::vector<FlightDump> out = rec.retired;
    for (const FlightRing *ring : rec.rings) {
        FlightDump slice = drain(*ring);
        if (slice.dropped || !slice.records.empty())
            out.push_back(std::move(slice));
    }
    return out;
}

void
clearFlight()
{
    Recorder &rec = recorder();
    MutexGuard lock(rec.mu);
    rec.retired.clear();
    for (FlightRing *ring : rec.rings)
        ring->head.store(0, std::memory_order_release);
}

std::vector<FlightRecord>
flightTail(u16 run_tag, u64 last_per_thread)
{
    std::vector<FlightRecord> merged;
    for (const FlightDump &dump : collectFlight()) {
        std::vector<FlightRecord> kept;
        for (const FlightRecord &record : dump.records) {
            if (run_tag == 0 || record.runTag == run_tag)
                kept.push_back(record);
        }
        if (last_per_thread && kept.size() > last_per_thread)
            kept.erase(kept.begin(),
                       kept.end() - ptrdiff_t(last_per_thread));
        merged.insert(merged.end(), kept.begin(), kept.end());
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const FlightRecord &a, const FlightRecord &b) {
                         return a.ts < b.ts;
                     });
    return merged;
}

u64
flightArgsDigest(const FlightRecord &record)
{
    u64 hash = fnvOffsetBasis;
    for (u64 word : {record.a, record.b, record.c, record.d})
        hash = fnvBytesStep(hash, word);
    return hash;
}

namespace
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (u8(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
opLabel(const ForensicsBundle &bundle, u16 op)
{
    if (bundle.opName) {
        std::string label = bundle.opName(op);
        if (!label.empty())
            return label;
    }
    return "op" + std::to_string(op);
}

} // namespace

std::string
renderForensicsJson(const ForensicsBundle &bundle)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"forensics_schema_version\": " << forensicsSchemaVersion
        << ",\n"
        << "  \"git_sha\": \"" << HEV_GIT_SHA << "\",\n"
        << "  \"kind\": \"" << jsonEscape(bundle.kind) << "\",\n"
        << "  \"scenario\": \"" << jsonEscape(bundle.scenario)
        << "\",\n"
        << "  \"detail\": \"" << jsonEscape(bundle.detail) << "\",\n"
        << "  \"failed_op\": " << bundle.failedOp << ",\n";

    out << "  \"digests\": {";
    bool first = true;
    for (const auto &[name, value] : bundle.digests) {
        out << (first ? "" : ",") << "\n    \"" << jsonEscape(name)
            << "\": " << value;
        first = false;
    }
    out << (first ? "" : "\n  ") << "},\n";

    out << "  \"flight\": [";
    first = true;
    for (const FlightRecord &record : bundle.tail) {
        out << (first ? "" : ",") << "\n    {\"ts\": " << record.ts
            << ", \"op\": \"" << jsonEscape(opLabel(bundle, record.op))
            << "\", \"opcode\": " << record.op
            << ", \"vcpu\": " << u32(record.vcpu)
            << ", \"step\": " << record.step << ", \"args\": ["
            << record.a << ", " << record.b << ", " << record.c << ", "
            << record.d
            << "], \"args_digest\": " << flightArgsDigest(record)
            << ", \"result\": " << record.result << ", \"replayable\": "
            << ((record.flags & flightReplayable) ? "true" : "false")
            << "}";
        first = false;
    }
    out << (first ? "" : "\n  ") << "],\n";

    out << "  \"stats\": " << renderStatsJson(snapshotStats(), "  ")
        << ",\n";
    out << "  \"trace_tail\": \"" << jsonEscape(bundle.traceTail)
        << "\"\n}\n";
    return out.str();
}

bool
writeForensicsBundle(const ForensicsBundle &bundle,
                     const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << renderForensicsJson(bundle);
    if (!out)
        return false;
    if (!bundle.traceTail.empty()) {
        std::ofstream trace(path + ".trace");
        if (!trace)
            return false;
        trace << bundle.traceTail;
        if (!trace)
            return false;
    }
    return true;
}

std::string
forensicsPathOrEnv(const std::string &configured)
{
    if (!configured.empty())
        return configured;
    const char *env = std::getenv("HEV_FORENSICS");
    return env ? env : "";
}

} // namespace hev::obs
