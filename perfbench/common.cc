/**
 * @file
 * Helpers the workloads share: samples, checks, the Zipf sampler and
 * the SMP machine's IPI driver and after-run invariant checks.
 */

#include <algorithm>

#include "bench.hh"
#include "hv/hv_invariants.hh"
#include "smp/smp_invariants.hh"
#include "smp/smp_monitor.hh"

namespace hev::perfbench
{

double
Samples::percentile(double p) const
{
    if (values.empty())
        return 0.0;
    if (!sorted) {
        std::sort(values.begin(), values.end());
        sorted = true;
    }
    u64 rank = u64(p * double(values.size()));
    if (rank >= values.size())
        rank = values.size() - 1;
    return double(values[rank]);
}

bool
Checks::check(bool ok, const std::string &what)
{
    if (ok)
        return true;
    opFailed = true;
    ++failures;
    if (firstMessages.size() < 8)
        firstMessages.push_back(what);
    return false;
}

Zipf::Zipf(u32 n)
{
    double sum = 0.0;
    for (u32 r = 0; r < n; ++r) {
        sum += 1.0 / double(r + 1);
        cdf.push_back(sum);
    }
    for (double &c : cdf)
        c /= sum;
}

u32
Zipf::sample(double unit) const
{
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), unit);
    return it == cdf.end() ? u32(cdf.size() - 1) : u32(it - cdf.begin());
}

void
installServiceAllDriver(smp::SmpMonitor &smp)
{
    smp.setIpiDriver([&smp](smp::VcpuId, u64) {
        for (smp::VcpuId w = 0; w < smp.vcpuCount(); ++w)
            smp.serviceIpis(w);
    });
}

void
checkSmpMachine(const smp::SmpMonitor &smp, Checks &checks)
{
    for (const auto &v : hv::checkMonitorInvariants(smp.monitor()))
        checks.check(false, "checkMonitorInvariants: " + v);
    for (const auto &v : smp::checkSmpInvariants(smp))
        checks.check(false, "checkSmpInvariants: " + v);
    for (const auto &v : smp::checkTlbCoherence(smp))
        checks.check(false, "checkTlbCoherence: " + v);
}

} // namespace hev::perfbench
