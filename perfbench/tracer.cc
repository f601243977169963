/**
 * @file
 * The in-memory span tracer and its Chrome trace_event export.
 */

#include <algorithm>
#include <cstdio>

#include "bench.hh"

namespace hev::perfbench
{

const char *
spanName(SpanKind kind)
{
    static const char *const names[spanKindCount] = {
        "bench.request",       "bench.fault",
        "bench.launch",        "bench.destroy",
        "bench.unmap",         "bench.fork",
        "bench.migrate",       "bench.exec",
        "hv.mbuf_write",       "hv.mbuf_read",
        "smp.enter",           "smp.exit",
        "smp.mem_load",        "smp.mem_store",
        "smp.report",          "smp.init",
        "smp.add_pages_batch", "smp.add_page",
        "smp.init_finish",     "smp.destroy",
        "smp.evict_batch",     "smp.reload",
        "smp.snapshot",        "smp.restore",
        "smp.os_unmap_batch",  "smp.os_map",
        "migrate.live",        "fuzz.execute_trace",
    };
    return names[u32(kind)];
}

std::string
spanLayer(SpanKind kind)
{
    const std::string name = spanName(kind);
    return name.substr(0, name.find('.'));
}

void
Tracer::begin(SpanKind kind)
{
    stack.push_back({nextId++, nowNs(), 0, kind});
}

void
Tracer::end()
{
    const u64 end_ns = nowNs();
    const Frame frame = stack.back();
    stack.pop_back();
    const u64 dur = end_ns - frame.startNs;
    // Children nest strictly on the one driver thread, so the part of
    // this span they cover is the sum of their durations.
    selfByKind[u32(frame.kind)] +=
        dur > frame.childNs ? dur - frame.childNs : 0;
    if (!stack.empty())
        stack.back().childNs += dur;
    if (retain)
        records.push_back({frame.id, stack.empty() ? 0 : stack.back().id,
                           opId, frame.startNs, end_ns, frame.kind});
}

Samples
Tracer::retainedDurations(SpanKind kind) const
{
    Samples out;
    for (const Record &r : records)
        if (r.kind == kind)
            out.add(r.endNs - r.startNs);
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    // Spans are recorded when they end (children first); the format
    // wants timestamps non-decreasing per thread, parents before
    // the children they enclose.
    std::vector<const Record *> order;
    order.reserve(records.size());
    for (const Record &r : records)
        order.push_back(&r);
    std::sort(order.begin(), order.end(),
              [](const Record *a, const Record *b) {
                  if (a->startNs != b->startNs)
                      return a->startNs < b->startNs;
                  return a->endNs > b->endNs;
              });
    const u64 base = order.empty() ? 0 : order.front()->startNs;
    std::fprintf(f, "{\"schemaVersion\": 1, \"displayTimeUnit\": \"ns\", "
                    "\"traceEvents\": [");
    bool first = true;
    for (const Record *r : order) {
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                     "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                     "\"tid\": 1, \"args\": {\"span\": %llu, \"parent\": "
                     "%llu, \"op\": %llu}}",
                     first ? "" : ",", spanName(r->kind),
                     spanLayer(r->kind).c_str(),
                     double(r->startNs - base) / 1000.0,
                     double(r->endNs - r->startNs) / 1000.0,
                     (unsigned long long)r->id,
                     (unsigned long long)r->parent,
                     (unsigned long long)r->op);
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace hev::perfbench
