/**
 * @file
 * Trace utility: record workload traces to disk, inspect saved
 * traces, and print per-core composition — so experiments can be run
 * repeatedly against identical frozen inputs.
 *
 * Usage:
 *   trace_tool record  <workload> <file.trc> [requests] [seed]
 *                      [--manifest traces.json]...
 *   trace_tool convert <in.trc> <out-stem> champsim|sift
 *                      [--timing ip|period] [--period-ps N]
 *                      [--addr-bias N]
 *   trace_tool info    <file.trc>
 *   trace_tool summary <file.trace.json> [topk] [--json]
 *
 * `record` streams any catalog workload (synthetic, or external after
 * --manifest) into the versioned native trace format; `convert` splits
 * a native trace into per-core ChampSim or SIFT files and prints the
 * manifest entry that replays them. `summary --json` replaces the
 * human tables with one machine-readable JSON object (event counts,
 * span totals, top-k longest spans) so scripts and CI can digest a
 * trace without scraping table output.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/footprint.h"
#include "common/json.h"
#include "trace/catalog.h"
#include "trace/champsim.h"
#include "trace/native.h"
#include "trace/sift.h"

namespace {

using namespace mempod;

int
cmdRecord(int argc, char **argv)
{
    std::vector<const char *> pos;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--manifest") && i + 1 < argc)
            WorkloadCatalog::global().loadManifest(argv[++i]);
        else
            pos.push_back(argv[i]);
    }
    if (pos.size() < 2) {
        std::fprintf(stderr,
                     "usage: trace_tool record <workload> <file.trc> "
                     "[requests] [seed] [--manifest traces.json]...\n");
        return 2;
    }
    GeneratorConfig gc;
    gc.totalRequests =
        pos.size() > 2 ? std::strtoull(pos[2], nullptr, 10) : 1'000'000;
    gc.seed = pos.size() > 3 ? std::strtoull(pos[3], nullptr, 10) : 42;

    const auto source = WorkloadCatalog::global().open(pos[0], gc);
    source->reset();
    NativeTraceWriter writer(pos[1]);
    TraceRecord rec;
    while (source->next(rec))
        writer.append(rec);
    writer.close();
    std::printf("recorded %llu records to %s (peak mapped %llu KiB)\n",
                static_cast<unsigned long long>(writer.recordsWritten()),
                pos[1],
                static_cast<unsigned long long>(
                    source->maxResidentBytes() / 1024));
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    ChampSimTiming timing = ChampSimTiming::kIp;
    TimePs period_ps = 1000;
    std::uint64_t addr_bias = champsim::kDefaultAddrBias;
    std::vector<const char *> pos;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--timing") && i + 1 < argc) {
            const std::string t = argv[++i];
            if (t == "ip")
                timing = ChampSimTiming::kIp;
            else if (t == "period")
                timing = ChampSimTiming::kPeriod;
            else {
                std::fprintf(stderr,
                             "--timing must be ip or period, got "
                             "'%s'\n",
                             t.c_str());
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--period-ps") &&
                   i + 1 < argc) {
            period_ps = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--addr-bias") &&
                   i + 1 < argc) {
            addr_bias = std::strtoull(argv[++i], nullptr, 10);
        } else {
            pos.push_back(argv[i]);
        }
    }
    if (pos.size() < 3) {
        std::fprintf(stderr,
                     "usage: trace_tool convert <in.trc> <out-stem> "
                     "champsim|sift [--timing ip|period] "
                     "[--period-ps N] [--addr-bias N]\n");
        return 2;
    }

    NativeTraceSource source(pos[0]);
    const std::string fmt = pos[2];
    if (fmt != "champsim" && fmt != "sift") {
        std::fprintf(stderr,
                     "unknown convert format '%s' (use champsim or "
                     "sift)\n",
                     fmt.c_str());
        return 2;
    }
    // The traces.json entry that replays the converted files.
    std::string entry;
    json::Writer w(entry, {json::ColonSpace::kAlways});
    w.beginObject(json::Wrap::kLines)
        .member("name", "NAME")
        .member("format", fmt);
    std::vector<std::pair<std::string, unsigned>> files;
    if (fmt == "champsim") {
        const ChampSimConvertResult res =
            convertToChampSim(source, pos[1], timing, addr_bias);
        for (const auto &f : res.files)
            files.emplace_back(f.path, f.core);
        std::printf("converted %llu records into %zu ChampSim "
                    "file(s)\n",
                    static_cast<unsigned long long>(res.records),
                    files.size());
        w.member("timing",
                 timing == ChampSimTiming::kIp ? "ip" : "period")
            .member("addr_bias", addr_bias);
    } else {
        const SiftConvertResult res =
            convertToSift(source, pos[1], period_ps);
        for (const auto &f : res.files)
            files.emplace_back(f.path, f.core);
        std::printf("converted %llu records into %zu SIFT file(s)\n",
                    static_cast<unsigned long long>(res.records),
                    files.size());
        w.member("period_ps", period_ps);
    }
    w.key("files").beginArray(json::Wrap::kLines);
    for (const auto &[path, core] : files)
        w.beginObject().member("path", path).member("core", core)
            .endObject();
    w.endArray().endObject();
    std::printf("manifest entry (append it to the \"traces\" array of "
                "traces.json):\n%s\n",
                entry.c_str());
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "usage: trace_tool info <file.trc>\n");
        return 2;
    }
    const Trace trace = loadTrace(argv[2]);
    const TraceSummary s = summarize(trace);
    std::printf("records:      %llu\n",
                static_cast<unsigned long long>(s.records));
    std::printf("reads/writes: %llu / %llu (%.1f%% writes)\n",
                static_cast<unsigned long long>(s.reads),
                static_cast<unsigned long long>(s.writes),
                s.records ? 100.0 * s.writes / s.records : 0.0);
    std::printf("duration:     %.3f ms (%.1f req/us)\n",
                static_cast<double>(s.duration) / 1e9, s.requestsPerUs);
    std::printf("pages:        %llu distinct (core, page) pairs\n",
                static_cast<unsigned long long>(s.touchedPages));

    std::unordered_map<int, std::uint64_t> per_core;
    for (const auto &r : trace)
        ++per_core[r.core];
    const FootprintStats f = analyzeFootprint(trace);
    std::printf("concentration: hottest 1/10/100/1k/10k pages absorb "
                "%.1f/%.1f/%.1f/%.1f/%.1f %% of accesses\n",
                100 * f.concentration[0], 100 * f.concentration[1],
                100 * f.concentration[2], 100 * f.concentration[3],
                100 * f.concentration[4]);
    std::printf("skew index:   %.3f; single-touch pages: %.1f %%; "
                "mean 5500-req working set: %.0f pages\n",
                f.skewIndex, 100 * f.singleTouchFraction,
                f.meanWindowWorkingSet());
    std::printf("per core:    ");
    for (int c = 0; c < 256; ++c) {
        auto it = per_core.find(c);
        if (it != per_core.end())
            std::printf(" c%d=%llu", c,
                        static_cast<unsigned long long>(it->second));
    }
    std::printf("\n");
    return 0;
}

int
cmdSummary(int argc, char **argv)
{
    bool as_json = false;
    std::vector<const char *> pos;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json"))
            as_json = true;
        else
            pos.push_back(argv[i]);
    }
    if (pos.empty()) {
        std::fprintf(stderr, "usage: trace_tool summary "
                             "<file.trace.json> [topk] [--json]\n");
        return 2;
    }
    const std::size_t topk =
        pos.size() > 1 ? std::strtoull(pos[1], nullptr, 10) : 10;
    std::ifstream in(pos[0]);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", pos[0]);
        return 2;
    }

    struct Span
    {
        std::string id;
        double beginUs = 0, endUs = 0;
        double durUs() const { return endUs - beginUs; }
    };
    // Open async spans keyed by cat/id/name until their 'e' arrives.
    std::unordered_map<std::string, Span> open;
    std::map<std::string, std::uint64_t> counts; // per (ph,name)
    std::vector<Span> demands, migrations, blocked;
    std::uint64_t events = 0, unmatched = 0;
    std::map<std::string, std::uint64_t> instants;

    // Tracer::toJson writes one event object per line, each but the
    // last followed by ','. Parsing a line at a time keeps memory flat
    // on big traces; the "traceEvents" opener and closer are skipped.
    std::string line;
    std::size_t line_at = 0; // file offset of `line`
    for (; std::getline(in, line); line_at += line.size() + 1) {
        std::string_view text = line;
        if (!text.empty() && text.back() == ',')
            text.remove_suffix(1);
        if (text.empty() || text.front() != '{' || text.back() != '}')
            continue;
        const json::Parsed ev = json::parse(text);
        if (ev.error) {
            std::fprintf(stderr,
                         "trace_tool: '%s' is not valid JSON (error near "
                         "byte %zu: %s)\n",
                         pos[0], line_at + ev.error->offset,
                         ev.error->what.c_str());
            return 2;
        }
        // A string member of the event; "" when absent.
        auto field = [&ev](const char *key) {
            const json::Value *v = ev.value.find(key);
            return v && v->is(json::Value::Kind::kString) ? v->text() : "";
        };
        const std::string ph = field("ph");
        if (ph.empty() || ph == "M")
            continue;
        ++events;
        const std::string name = field("name");
        ++counts[ph + " " + name];
        if (ph == "i")
            ++instants[name];
        if (ph != "b" && ph != "e")
            continue;
        const std::string id = field("id");
        const std::string key = field("cat") + "/" + id + "/" + name;
        const json::Value *ts_v = ev.value.find("ts");
        const double ts = ts_v ? ts_v->asDouble() : -1.0;
        if (ph == "b") {
            open[key] = Span{id, ts, ts};
        } else {
            auto it = open.find(key);
            if (it == open.end()) {
                ++unmatched;
                continue;
            }
            Span s = it->second;
            s.endUs = ts;
            open.erase(it);
            if (name == "demand")
                demands.push_back(s);
            else if (name == "migration")
                migrations.push_back(s);
            else if (name == "blocked")
                blocked.push_back(s);
        }
    }

    auto byDur = [](const Span &a, const Span &b) {
        return a.durUs() > b.durUs();
    };
    std::sort(demands.begin(), demands.end(), byDur);
    std::sort(migrations.begin(), migrations.end(), byDur);
    auto totalUs = [](const std::vector<Span> &v) {
        double t = 0;
        for (const Span &s : v)
            t += s.durUs();
        return t;
    };
    if (as_json) {
        std::string out;
        json::Writer w(out);
        // Each group's count, total span time and (for `top`) its
        // topk longest spans, into the open object.
        auto spans = [&](const std::vector<Span> &v, bool top) {
            w.member("complete", v.size())
                .key("total_us")
                .fixed(totalUs(v), 3);
            if (!top)
                return;
            w.key("top").beginArray();
            for (std::size_t i = 0; i < std::min(topk, v.size()); ++i)
                w.beginObject()
                    .member("id", v[i].id)
                    .key("begin_us")
                    .fixed(v[i].beginUs, 3)
                    .key("dur_us")
                    .fixed(v[i].durUs(), 3)
                    .endObject();
            w.endArray();
        };
        w.beginObject()
            .member("schema", "mempod-trace-summary-v1")
            .member("events", events)
            .member("unmatched_ends", unmatched)
            .member("open_spans", open.size())
            .key("counts")
            .beginObject();
        for (const auto &[k, n] : counts)
            w.member(k, n);
        w.endObject().key("markers").beginObject();
        for (const auto &[k, n] : instants)
            w.member(k, n);
        w.endObject().key("demands").beginObject();
        spans(demands, true);
        w.endObject().key("migrations").beginObject();
        spans(migrations, true);
        w.endObject().key("blocked").beginObject();
        spans(blocked, false);
        w.endObject().endObject();
        std::printf("%s\n", out.c_str());
        return 0;
    }

    std::printf("events: %llu  (unmatched async ends: %llu, "
                "still-open spans: %zu)\n",
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(unmatched),
                open.size());
    std::printf("\nevent counts by phase+name:\n");
    for (const auto &[k, n] : counts)
        std::printf("  %-24s %llu\n", k.c_str(),
                    static_cast<unsigned long long>(n));

    std::printf("\ntop %zu longest sampled demand requests:\n",
                std::min(topk, demands.size()));
    for (std::size_t i = 0; i < std::min(topk, demands.size()); ++i)
        std::printf("  id=%-10s start=%12.3f us  latency=%9.3f us\n",
                    demands[i].id.c_str(), demands[i].beginUs,
                    demands[i].durUs());

    // Interference windows: for each migration, how many sampled
    // demand spans overlap it in time (they contended for the same
    // banks or were parked behind its page locks).
    std::printf("\nmigrations: %zu complete, total span %.3f us\n",
                migrations.size(), totalUs(migrations));
    for (std::size_t i = 0; i < std::min(topk, migrations.size());
         ++i) {
        const Span &m = migrations[i];
        std::uint64_t overlap = 0;
        for (const Span &d : demands)
            if (d.beginUs < m.endUs && m.beginUs < d.endUs)
                ++overlap;
        std::printf("  flow=%-12s start=%12.3f us  dur=%9.3f us  "
                    "overlapping sampled demands=%llu\n",
                    m.id.c_str(), m.beginUs, m.durUs(),
                    static_cast<unsigned long long>(overlap));
    }
    std::printf("\nblocked windows: %zu sampled demands parked behind "
                "migrations, total %.3f us\n",
                blocked.size(), totalUs(blocked));
    if (!instants.empty()) {
        std::printf("\nmarkers:");
        for (const auto &[k, n] : instants)
            std::printf(" %s=%llu", k.c_str(),
                        static_cast<unsigned long long>(n));
        std::printf("\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: trace_tool "
                             "record|convert|info|summary ...\n");
        return 2;
    }
    if (!std::strcmp(argv[1], "record"))
        return cmdRecord(argc, argv);
    if (!std::strcmp(argv[1], "convert"))
        return cmdConvert(argc, argv);
    if (!std::strcmp(argv[1], "info"))
        return cmdInfo(argc, argv);
    if (!std::strcmp(argv[1], "summary"))
        return cmdSummary(argc, argv);
    std::fprintf(stderr, "unknown subcommand '%s'\n", argv[1]);
    return 2;
}
