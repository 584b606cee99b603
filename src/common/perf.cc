#include "common/perf.h"

#include <chrono>
#include <thread>

#include <sys/resource.h>
#include <sys/utsname.h>

namespace mempod {

std::uint64_t
perfNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
perfMaxRssKib()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // Linux reports ru_maxrss in KiB already.
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

PerfHostInfo
perfHostInfo()
{
    PerfHostInfo info;
    struct utsname u;
    if (uname(&u) == 0) {
        info.sysname = u.sysname;
        info.machine = u.machine;
    }
    info.cpus = std::thread::hardware_concurrency();
    return info;
}

void
PerfMonitor::phaseAddNs(const std::string &phase, std::uint64_t ns)
{
    for (auto &[name, total] : phases_) {
        if (name == phase) {
            total += ns;
            return;
        }
    }
    phases_.emplace_back(phase, ns);
}

std::uint64_t
PerfMonitor::phaseNs(const std::string &phase) const
{
    for (const auto &[name, total] : phases_)
        if (name == phase)
            return total;
    return 0;
}

bool
PerfMonitor::heartbeatDue(std::uint64_t interval_ns)
{
    const std::uint64_t now = perfNowNs();
    if (lastHeartbeatNs_ == 0)
        lastHeartbeatNs_ = startNs_;
    if (now - lastHeartbeatNs_ < interval_ns)
        return false;
    lastHeartbeatNs_ = now;
    return true;
}

PerfReport
PerfMonitor::report(std::uint64_t sim_time_ps, std::uint64_t events) const
{
    PerfReport r;
    r.wallSeconds =
        static_cast<double>(perfNowNs() - startNs_) / 1e9;
    r.maxRssKib = perfMaxRssKib();
    r.simTimePs = sim_time_ps;
    r.eventsExecuted = events;
    const std::uint64_t run_ns = phaseNs("run");
    const double denom =
        run_ns ? static_cast<double>(run_ns) / 1e9 : r.wallSeconds;
    r.eventsPerSecond =
        denom > 0 ? static_cast<double>(events) / denom : 0.0;
    r.phasesNs = phases_;
    r.counters = counters_;
    r.gauges = gauges_;
    for (const auto &[name, h] : histograms_)
        r.histograms.emplace(name, h.buckets());
    return r;
}

void
PerfReport::merge(const PerfReport &other)
{
    wallSeconds += other.wallSeconds;
    maxRssKib = std::max(maxRssKib, other.maxRssKib);
    simTimePs += other.simTimePs;
    eventsExecuted += other.eventsExecuted;
    for (const auto &[name, ns] : other.phasesNs) {
        bool found = false;
        for (auto &[mine, total] : phasesNs) {
            if (mine == name) {
                total += ns;
                found = true;
                break;
            }
        }
        if (!found)
            phasesNs.emplace_back(name, ns);
    }
    for (const auto &[name, v] : other.counters)
        counters[name] += v;
    // Gauges don't sum meaningfully across runs; keep the last value.
    for (const auto &[name, v] : other.gauges)
        gauges[name] = v;
    for (const auto &[name, b] : other.histograms) {
        std::vector<std::uint64_t> &mine = histograms[name];
        if (mine.size() < b.size())
            mine.resize(b.size(), 0);
        for (std::size_t i = 0; i < b.size(); ++i)
            mine[i] += b[i];
    }
    // Recompute the aggregate rate from the merged totals.
    std::uint64_t run_ns = 0;
    for (const auto &[name, ns] : phasesNs)
        if (name == "run")
            run_ns = ns;
    const double denom =
        run_ns ? static_cast<double>(run_ns) / 1e9 : wallSeconds;
    eventsPerSecond =
        denom > 0 ? static_cast<double>(eventsExecuted) / denom : 0.0;
}

void
PerfReport::printTable(std::FILE *out, const std::string &title) const
{
    std::fprintf(out, "\n-- host profile: %s --\n", title.c_str());
    std::fprintf(out,
                 "wall %.3f s  peak RSS %.1f MiB  sim %.3f ms  "
                 "events %llu  (%.2f M ev/s, %.2f ms sim/s)\n",
                 wallSeconds,
                 static_cast<double>(maxRssKib) / 1024.0,
                 static_cast<double>(simTimePs) / 1e9,
                 static_cast<unsigned long long>(eventsExecuted),
                 eventsPerSecond / 1e6,
                 wallSeconds > 0
                     ? static_cast<double>(simTimePs) / 1e9 / wallSeconds
                     : 0.0);
    if (!phasesNs.empty()) {
        std::uint64_t total = 0;
        for (const auto &[name, ns] : phasesNs)
            total += ns;
        std::fprintf(out, "phases:\n");
        for (const auto &[name, ns] : phasesNs) {
            std::fprintf(out, "  %-10s %10.3f ms  %5.1f%%\n",
                         name.c_str(), static_cast<double>(ns) / 1e6,
                         total ? 100.0 * static_cast<double>(ns) /
                                     static_cast<double>(total)
                               : 0.0);
        }
    }
    if (!counters.empty()) {
        std::fprintf(out, "counters:\n");
        for (const auto &[name, v] : counters)
            std::fprintf(out, "  %-36s %llu\n", name.c_str(),
                         static_cast<unsigned long long>(v));
    }
    if (!gauges.empty()) {
        std::fprintf(out, "gauges:\n");
        for (const auto &[name, v] : gauges)
            std::fprintf(out, "  %-36s %.6g\n", name.c_str(), v);
    }
    for (const auto &[name, buckets] : histograms) {
        std::uint64_t n = 0;
        for (const std::uint64_t b : buckets)
            n += b;
        std::fprintf(out, "histogram %s (%llu samples):", name.c_str(),
                     static_cast<unsigned long long>(n));
        for (std::size_t b = 0; b < buckets.size(); ++b)
            if (buckets[b])
                std::fprintf(out, " [2^%zu)=%llu", b,
                             static_cast<unsigned long long>(buckets[b]));
        std::fprintf(out, "\n");
    }
    std::fflush(out);
}

} // namespace mempod
