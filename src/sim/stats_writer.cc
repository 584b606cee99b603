#include "sim/stats_writer.h"

#include <cstdio>
#include <stdexcept>

#include <unistd.h>

#include "common/json.h"

namespace mempod {

namespace {

using json::Wrap;

/** Stats and perf layout: `": "` after a key only before an object. */
constexpr json::Layout kLayout{json::ColonSpace::kBeforeObjects};

/** Write `"kind":...,<payload fields>` into the open object. */
void
writeMetricValue(json::Writer &w, const MetricValue &v)
{
    w.member("kind", metricKindName(v.kind));
    switch (v.kind) {
      case MetricKind::kCounter:
        w.member("value", v.count);
        break;
      case MetricKind::kGauge:
        w.member("value", v.real);
        break;
      case MetricKind::kScalar:
        w.member("count", v.count)
            .member("sum", v.real)
            .member("min", v.min)
            .member("max", v.max)
            .member("mean", v.mean)
            .member("stddev", v.stddev);
        break;
      case MetricKind::kRatio:
        w.member("hits", v.hits)
            .member("total", v.count)
            .member("rate", v.rate());
        break;
      case MetricKind::kHistogram:
        w.member("count", v.count).key("buckets").beginArray();
        for (const std::uint64_t b : v.buckets)
            w.value(b);
        w.endArray();
        break;
    }
}

void
writePercentiles(json::Writer &w, const LatencyPercentiles &p)
{
    w.beginObject()
        .member("p50", p.p50Ns)
        .member("p95", p.p95Ns)
        .member("p99", p.p99Ns)
        .endObject();
}

} // namespace

// One-line forwards kept because perfbench/harness.cc builds against
// these signatures; new code calls json:: directly.
std::string
StatsWriter::jsonEscape(const std::string &s)
{
    return json::escape(s);
}

std::string
StatsWriter::formatDouble(double v)
{
    return json::formatDouble(v);
}

std::string
StatsWriter::toJson(const MetricRegistry &reg, const MetricSnapshot &snap,
                    const RunResult &r)
{
    std::string out;
    out.reserve(16 * 1024);
    json::Writer w(out, kLayout);
    w.beginObject(Wrap::kLines)
        .member("schema", "mempod-stats-v1")
        .member("workload", r.workload)
        .member("mechanism", r.mechanism)
        .member("sim_time_ps", snap.simTimePs)
        .key("summary")
        .beginObject(Wrap::kLines)
        .member("ammat_ns", r.ammatNs);
    // Sampled-simulation keys appear only on sampled runs so detailed
    // goldens stay byte-identical.
    if (r.sampled) {
        w.member("sampled_ammat_ns", r.sampledAmmatNs)
            .member("sampled_ci_ns", r.sampledCiNs)
            .member("sample_windows", r.sampleWindows);
    }
    const MigrationStats &m = r.migration;
    w.member("demand_requests", r.demandRequests)
        .member("completed", r.completed)
        .member("fast_service_fraction", r.fastServiceFraction)
        .member("row_hit_rate", r.rowHitRate)
        .member("row_hit_rate_fast", r.rowHitRateFast)
        .member("simulated_ps", r.simulatedPs)
        .member("events_executed", r.eventsExecuted)
        .member("migrations", m.migrations)
        .member("bytes_moved", m.bytesMoved)
        .member("data_moved_mib", r.dataMovedMiB())
        .member("blocked_requests", m.blockedRequests)
        .member("intervals", m.intervals)
        .member("candidates_skipped", m.candidatesSkipped)
        .member("wasted_migrations", m.wastedMigrations)
        .member("meta_cache_hits", m.metaCacheHits)
        .member("meta_cache_misses", m.metaCacheMisses)
        .member("pod_local_migrations", r.podLocalMigrations)
        .key("per_core_ammat_ns")
        .beginArray();
    for (const double ns : r.perCoreAmmatNs)
        w.value(ns);
    const AmmatAttribution &a = r.attribution;
    w.endArray()
        .key("attribution_ns")
        .beginObject()
        .member("mshr_wait", a.mshrWaitNs)
        .member("metadata", a.metadataNs)
        .member("blocked", a.blockedNs)
        .member("queue_wait", a.queueWaitNs)
        .member("service", a.serviceNs)
        .member("total", a.totalNs())
        .endObject()
        .key("latency_ns");
    writePercentiles(w, r.latency);
    w.key("per_core_latency_ns").beginArray();
    for (const LatencyPercentiles &p : r.perCoreLatency)
        writePercentiles(w, p);
    w.endArray().endObject().key("metrics").beginObject(Wrap::kLines);
    for (const auto &[name, value] : snap.values) {
        w.key(name).beginObject().member("desc", reg.description(name));
        writeMetricValue(w, value);
        w.endObject();
    }
    w.endObject().endObject();
    out += '\n';
    return out;
}

std::string
StatsWriter::toJsonl(const std::vector<IntervalRecord> &records)
{
    std::string out;
    json::Writer w(out);
    for (const IntervalRecord &rec : records) {
        w.beginObject()
            .member("interval", rec.index)
            .member("start_ps", rec.startPs)
            .member("end_ps", rec.endPs)
            .key("counters")
            .beginObject();
        for (const auto &[name, v] : rec.delta.values)
            if (v.kind == MetricKind::kCounter && v.count != 0)
                w.member(name, v.count);
        w.endObject().key("gauges").beginObject();
        for (const auto &[name, v] : rec.delta.values)
            if (v.kind == MetricKind::kGauge)
                w.member(name, v.real);
        w.endObject().endObject();
        out += '\n';
    }
    return out;
}

std::string
StatsWriter::decisionsToJsonl(const DecisionLog &log,
                              const std::string &workload,
                              const std::string &mechanism)
{
    std::string out;
    out.reserve(128 + 160 * log.size());
    json::Writer w(out);
    w.beginObject()
        .member("schema", "mempod-decisions-v1")
        .member("workload", workload)
        .member("mechanism", mechanism)
        .member("epoch_ps", log.epochPs())
        .member("benefit_per_touch_ns", log.benefitPerTouchNs())
        .member("decisions", log.size())
        .member("committed", log.committedCount())
        .member("aborted", log.abortedCount())
        .member("ping_pongs", log.pingPongCount())
        .endObject();
    out += '\n';
    for (const DecisionLog::Record &d : log.records()) {
        w.beginObject()
            .member("seq", d.seq)
            .member("time_ps", d.timePs)
            .member("epoch", d.epoch)
            .key("pod");
        if (d.pod == DecisionLog::kNoPod)
            w.null(); // centralized mechanism, no Pod identity
        else
            w.value(d.pod);
        w.member("page", d.page)
            .member("victim", d.victim)
            .member("tracker_count", d.trackerCount)
            .member("predicted_benefit_ns", d.predictedBenefitNs)
            .member("outcome", DecisionLog::outcomeName(d.outcome))
            .member("commit_ps", d.commitPs)
            .member("ping_pong", d.pingPong)
            .member("realized_near_hits", d.realizedNearHits)
            .endObject();
        out += '\n';
    }
    return out;
}

std::string
StatsWriter::jobFileStem(std::size_t index, const std::string &label,
                         const std::string &workload)
{
    auto sanitize = [](const std::string &s) {
        std::string out;
        out.reserve(s.size());
        for (const char c : s) {
            const bool ok = (c >= 'a' && c <= 'z') ||
                            (c >= 'A' && c <= 'Z') ||
                            (c >= '0' && c <= '9') || c == '.' ||
                            c == '_' || c == '-';
            out += ok ? c : '-';
        }
        return out;
    };
    char buf[32];
    std::snprintf(buf, sizeof(buf), "job%03zu", index);
    std::string stem = buf;
    if (!label.empty())
        stem += "_" + sanitize(label);
    if (!workload.empty())
        stem += "_" + sanitize(workload);
    return stem;
}

std::string
StatsWriter::perfToJson(const PerfReport &r)
{
    const PerfHostInfo host = perfHostInfo();
    std::string out;
    out.reserve(4 * 1024);
    json::Writer w(out, kLayout);
    w.beginObject(Wrap::kLines)
        .member("schema", "mempod-perf-v1")
        .key("host")
        .beginObject()
        .member("sysname", host.sysname)
        .member("machine", host.machine)
        .member("cpus", host.cpus)
        .endObject()
        .member("wall_seconds", r.wallSeconds)
        .member("max_rss_kib", r.maxRssKib)
        .member("sim_time_ps", r.simTimePs)
        .member("events_executed", r.eventsExecuted)
        .member("events_per_second", r.eventsPerSecond)
        .key("phases_ns")
        .beginObject();
    for (const auto &[name, ns] : r.phasesNs)
        w.member(name, ns);
    w.endObject().key("counters").beginObject();
    for (const auto &[name, v] : r.counters)
        w.member(name, v);
    w.endObject().key("gauges").beginObject();
    for (const auto &[name, v] : r.gauges)
        w.member(name, v);
    w.endObject().key("histograms").beginObject();
    for (const auto &[name, buckets] : r.histograms) {
        w.key(name).beginArray();
        for (const std::uint64_t b : buckets)
            w.value(b);
        w.endArray();
    }
    w.endObject().endObject();
    out += '\n';
    return out;
}

void
StatsWriter::writeFile(const std::string &path,
                       const std::string &content)
{
    // Temp-then-rename in the same directory: rename(2) is atomic on
    // POSIX when source and target share a filesystem, so a crash at
    // any point leaves either the previous file or the complete new
    // one. The pid keeps concurrent writers of *different* paths in
    // one directory from colliding on the temp name.
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(getpid()));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw std::runtime_error("cannot open stats file: " + tmp);
    const std::size_t n =
        std::fwrite(content.data(), 1, content.size(), f);
    const bool write_ok = n == content.size();
    if (std::fclose(f) != 0 || !write_ok) {
        std::remove(tmp.c_str());
        throw std::runtime_error("short write on stats file: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot rename stats file into place: " +
                                 path);
    }
}

} // namespace mempod
