#include "bench_util.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <algorithm>

#include "common/json.h"
#include "common/log.h"
#include "sim/stats_writer.h"
#include "trace/generator.h"

namespace mempod::bench {

namespace {

/** Harness start, stamped in parseOptions; total-wall reference. */
std::uint64_t g_harnessStartNs = 0;

/** Value below which fraction `q` of `sorted` falls (linear interp). */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t comma = s.find(',', start);
        if (comma == std::string::npos) {
            if (start < s.size())
                out.push_back(s.substr(start));
            break;
        }
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

void
listWorkloads()
{
    const WorkloadCatalog &cat = WorkloadCatalog::global();
    std::printf("homogeneous (8 copies of one benchmark):\n ");
    for (const auto &name : cat.homogeneousNames())
        std::printf(" %s", name.c_str());
    std::printf("\n\nmixed (Table 3, normalized to 8 cores):\n");
    for (const auto &name : cat.mixedNames()) {
        const CatalogEntry &e = cat.find(name);
        if (e.kind == CatalogEntry::Kind::kExternal)
            continue; // listed below with its source
        std::printf("  %-6s:", name.c_str());
        for (const auto &b : e.synthetic.benchmarks)
            std::printf(" %s", b.c_str());
        std::printf("\n");
    }
    bool headed = false;
    for (const auto &name : cat.names()) {
        const CatalogEntry &e = cat.find(name);
        if (e.kind != CatalogEntry::Kind::kExternal)
            continue;
        if (!headed) {
            std::printf("\nexternal traces (from --manifest):\n");
            headed = true;
        }
        std::printf("  %-12s %s (%zu file%s)\n", name.c_str(),
                    e.external.format.c_str(), e.external.files.size(),
                    e.external.files.size() == 1 ? "" : "s");
    }
}

/** Strict decimal parse; exits(2) on trailing garbage or overflow. */
std::uint64_t
parseUint(const char *what, const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) {
        std::fprintf(stderr, "%s: %s expects an unsigned integer, got "
                             "'%s'\n",
                     what, flag, text);
        std::exit(2);
    }
    return v;
}

} // namespace

Options
parseOptions(int argc, char **argv, const char *what)
{
    if (g_harnessStartNs == 0)
        g_harnessStartNs = perfNowNs();
    Options opt;
    std::string emit_list;
    bool emit_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n", what,
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--full") {
            opt.full = true;
        } else if (arg == "--requests") {
            opt.requests = parseUint(what, "--requests", next());
        } else if (arg == "--seed") {
            opt.seed = parseUint(what, "--seed", next());
        } else if (arg == "--jobs") {
            const std::uint64_t n = parseUint(what, "--jobs", next());
            if (n == 0 || n > 1024) {
                std::fprintf(stderr,
                             "%s: --jobs must be in [1, 1024], got "
                             "%llu\n",
                             what, static_cast<unsigned long long>(n));
                std::exit(2);
            }
            opt.jobs = static_cast<unsigned>(n);
        } else if (arg == "--workloads") {
            opt.workloads = splitCommas(next());
        } else if (arg == "--manifest") {
            const char *path = next();
            // Load immediately: later flags (--list-workloads, the
            // --workloads validation below) see the external traces.
            WorkloadCatalog::global().loadManifest(path);
            opt.manifests.push_back(path);
        } else if (arg == "--out") {
            opt.artifacts.root = next();
            if (opt.artifacts.root.empty()) {
                std::fprintf(stderr, "%s: --out needs a directory\n",
                             what);
                std::exit(2);
            }
        } else if (arg == "--emit") {
            emit_list = next();
            emit_given = true;
            std::string bad;
            if (!applyEmitList(emit_list, opt.artifacts, &bad)) {
                std::fprintf(stderr,
                             "%s: --emit: unknown artifact kind '%s' "
                             "(use stats,traces,decisions,perf)\n",
                             what, bad.c_str());
                std::exit(2);
            }
            if (opt.artifacts.perf)
                opt.perf = true; // a perf sidecar implies profiling
        } else if (arg == "--interval-us") {
            opt.intervalUs = parseUint(what, "--interval-us", next());
        } else if (arg == "--trace-sample") {
            opt.traceSample =
                parseUint(what, "--trace-sample", next());
            if (opt.traceSample == 0) {
                std::fprintf(stderr,
                             "%s: --trace-sample must be >= 1 (1 = "
                             "trace every request)\n",
                             what);
                std::exit(2);
            }
        } else if (arg == "--perf") {
            opt.perf = true;
        } else if (arg == "--fidelity") {
            opt.fidelity = next();
            if (opt.fidelity != "detailed" && opt.fidelity != "fast" &&
                opt.fidelity != "sampled") {
                std::fprintf(stderr,
                             "%s: --fidelity must be detailed, fast "
                             "or sampled, got '%s'\n",
                             what, opt.fidelity.c_str());
                std::exit(2);
            }
        } else if (arg == "--set") {
            const std::string kv = next();
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0) {
                std::fprintf(stderr,
                             "%s: --set expects key=value, got '%s'\n",
                             what, kv.c_str());
                std::exit(2);
            }
            opt.sets.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
        } else if (arg == "--paranoid") {
            opt.paranoid = true;
        } else if (arg == "--bench-out") {
            opt.benchOut = next();
            if (opt.benchOut.empty()) {
                std::fprintf(stderr,
                             "%s: --bench-out needs a directory\n",
                             what);
                std::exit(2);
            }
        } else if (arg == "--list-workloads") {
            listWorkloads();
            std::exit(0);
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "%s\noptions: --full | --requests N | --seed N |"
                " --jobs N | --workloads a,b,c |"
                " --manifest FILE |"
                " --out DIR | --emit stats,traces,decisions,perf |"
                " --interval-us N | --trace-sample N | --perf |"
                " --fidelity detailed|fast|sampled | --set key=value |"
                " --paranoid | --bench-out DIR | --list-workloads\n",
                what);
            std::exit(0);
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", what,
                         arg.c_str());
            std::exit(2);
        }
    }
    for (const auto &w : opt.workloads)
        WorkloadCatalog::global().find(w); // fatal on typo, up front
    if (emit_given && !opt.artifacts.enabled()) {
        std::fprintf(stderr, "%s: --emit requires --out DIR\n", what);
        std::exit(2);
    }
    if (opt.artifacts.enabled())
        ensureWritableDir(opt.artifacts.root, "--out", what);
    if (opt.benchOut != ".")
        ensureWritableDir(opt.benchOut, "--bench-out", what);
    return opt;
}

void
ensureWritableDir(const std::string &dir, const char *flag,
                  const char *what)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr, "%s: %s: cannot create directory '%s': "
                             "%s\n",
                     what, flag, dir.c_str(), ec.message().c_str());
        std::exit(2);
    }
    // create_directories succeeds silently when `dir` already exists —
    // even as a plain file; a write probe catches that and read-only
    // mounts in one check.
    if (!std::filesystem::is_directory(dir, ec) || ec) {
        std::fprintf(stderr, "%s: %s: '%s' is not a directory\n", what,
                     flag, dir.c_str());
        std::exit(2);
    }
    const std::string probe = dir + "/.write-probe";
    std::FILE *f = std::fopen(probe.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "%s: %s: directory '%s' is not writable: "
                             "%s\n",
                     what, flag, dir.c_str(), std::strerror(errno));
        std::exit(2);
    }
    std::fclose(f);
    std::filesystem::remove(probe, ec);
}

std::vector<std::string>
Options::sweepWorkloads() const
{
    if (!workloads.empty())
        return workloads;
    if (full)
        return WorkloadCatalog::global().names();
    return WorkloadCatalog::representativeNames();
}

std::vector<std::string>
Options::suiteWorkloads() const
{
    if (!workloads.empty())
        return workloads;
    return WorkloadCatalog::global().names();
}

TraceCache &
traceCache()
{
    static TraceCache cache;
    return cache;
}

std::shared_ptr<const TraceStore>
makeTrace(const std::string &workload, std::uint64_t requests,
          std::uint64_t seed)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.seed = seed;
    return traceCache().get(workload, gc);
}

RunnerOptions
runnerOptions(const Options &opt)
{
    RunnerOptions ro;
    ro.jobs = opt.jobs;
    ro.progress = true;
    ro.cache = &traceCache();
    ro.artifacts = opt.artifacts;
    return ro;
}

BatchJob
timingJob(const SimConfig &config, const std::string &workload,
          const Options &opt, std::string label)
{
    BatchJob job;
    job.kind = JobKind::kTiming;
    job.config = config;
    job.config.statsIntervalPs = opt.statsIntervalPs();
    job.config.tracer.enabled = opt.artifacts.wantTraces();
    job.config.tracer.sampleEvery = opt.traceSample;
    job.config.tracer.seed = opt.seed;
    job.config.perfEnabled = opt.perf;
    job.config.validateParanoid = opt.paranoid;
    // Fidelity first, then --set, so window lengths etc. can fine-tune
    // the mode a run selected.
    if (opt.fidelity == "fast")
        job.config.set("dram.model", "fast");
    else if (opt.fidelity == "sampled")
        job.config.set("sim.sampling.enabled", "true");
    for (const auto &[key, value] : opt.sets)
        job.config.set(key, value);
    job.workload = workload;
    job.gen.totalRequests = opt.timingRequests();
    job.gen.seed = opt.seed;
    job.label = std::move(label);
    return job;
}

BatchJob
studyJob(const IntervalStudyConfig &study, const std::string &workload,
         const Options &opt)
{
    BatchJob job;
    job.kind = JobKind::kIntervalStudy;
    job.study = study;
    job.workload = workload;
    job.gen.totalRequests = opt.offlineRequests();
    job.gen.seed = opt.seed;
    return job;
}

const RunResult &
need(const JobResult &r)
{
    if (!r.ok)
        MEMPOD_FATAL("job %s/%s failed: %s", r.label.c_str(),
                     r.workload.c_str(), r.error.c_str());
    return r.result;
}

const IntervalStudyResult &
needStudy(const JobResult &r)
{
    if (!r.ok)
        MEMPOD_FATAL("study job %s failed: %s", r.workload.c_str(),
                     r.error.c_str());
    return r.study;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double sum = 0;
    for (double x : v)
        sum += x;
    return sum / static_cast<double>(v.size());
}

void
banner(const char *figure, const char *caption, const Options &opt)
{
    std::printf("=== %s — %s ===\n", figure, caption);
    std::printf("mode: %s (use --full for the paper-scale sweep)\n\n",
                opt.full ? "FULL" : "reduced");
}

BenchReport::BenchReport(std::string name, std::string out_dir)
    : name_(std::move(name)), dir_(std::move(out_dir))
{
}

void
BenchReport::addResults(const std::vector<JobResult> &results)
{
    for (const JobResult &r : results) {
        if (!r.ok)
            continue;
        jobWallSeconds_.push_back(r.wallSeconds);
        events_ += r.result.eventsExecuted;
        simulatedPs_ += r.result.simulatedPs;
        const std::string entry =
            r.label.empty() ? r.workload : r.label + "/" + r.workload;
        entries_.emplace_back(entry, r.wallSeconds * 1e3);
        if (r.hasPerf) {
            mergedPerf_.merge(r.perf);
            havePerf_ = true;
        }
    }
}

void
BenchReport::addEntry(const std::string &name, double wall_ms)
{
    jobWallSeconds_.push_back(wall_ms / 1e3);
    entries_.emplace_back(name, wall_ms);
}

std::string
BenchReport::write()
{
    const PerfHostInfo host = perfHostInfo();
    std::vector<double> sorted = jobWallSeconds_;
    std::sort(sorted.begin(), sorted.end());
    double total_wall = 0.0;
    for (const double w : jobWallSeconds_)
        total_wall += w;
    const double harness_wall =
        g_harnessStartNs
            ? static_cast<double>(perfNowNs() - g_harnessStartNs) / 1e9
            : total_wall;

    // Counts go out as doubles, as they always have, so each leaf
    // keeps its text (a round 12000000 reads "1.2e+07").
    const auto num = [](auto v) { return static_cast<double>(v); };
    std::string out;
    out.reserve(4 * 1024);
    json::Writer w(out, {json::ColonSpace::kBeforeObjects});
    w.beginObject(json::Wrap::kLines)
        .member("schema", "mempod-bench-v1")
        .member("name", name_)
        .key("host")
        .beginObject()
        .member("sysname", host.sysname)
        .member("machine", host.machine)
        .member("cpus", num(host.cpus))
        .endObject()
        .member("jobs", num(jobWallSeconds_.size()))
        .key("wall_seconds")
        .beginObject()
        .member("total", harness_wall)
        .member("sum", total_wall)
        .member("median", quantile(sorted, 0.50))
        .member("p10", quantile(sorted, 0.10))
        .member("p90", quantile(sorted, 0.90))
        .endObject()
        .member("events_executed", num(events_))
        .member("events_per_second",
                total_wall > 0 ? num(events_) / total_wall : 0.0)
        // Fidelity-fair throughput: simulated milliseconds retired per
        // host second (events/s rewards models that spend *more*
        // events per request). Wall-clock based, so noisy on shared
        // runners.
        .member("sim_ms_per_second",
                total_wall > 0 ? num(simulatedPs_) / 1e9 / total_wall
                               : 0.0)
        // Simulation cost: events executed per simulated millisecond —
        // a pure function of the configs and traces, so
        // byte-deterministic across hosts. The sampled-speedup CI gate
        // compares this leaf (perf_tool diff --require-speedup):
        // sampling's whole point is retiring the same simulated time
        // in ~10x fewer events.
        .member("events_per_sim_ms",
                simulatedPs_ > 0
                    ? num(events_) / (num(simulatedPs_) / 1e9)
                    : 0.0)
        .key("phases_ns")
        .beginObject();
    for (const auto &[phase, ns] : mergedPerf_.phasesNs)
        w.member(phase, num(ns));
    w.endObject().key("benchmarks").beginArray(json::Wrap::kLines);
    for (const auto &[name, wall_ms] : entries_)
        w.beginObject()
            .member("name", name)
            .member("wall_ms", wall_ms)
            .endObject();
    w.endArray().endObject();
    out += '\n';

    const std::string path = dir_ + "/BENCH_" + name_ + ".json";
    StatsWriter::writeFile(path, out);
    return path;
}

void
finishBench(const char *name, const Options &opt,
            const std::vector<JobResult> &results)
{
    BenchReport report(name, opt.benchOut);
    report.addResults(results);
    const std::string path = report.write();
    std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    if (opt.perf && report.havePerf())
        report.mergedPerf().printTable(stderr, name);
}

} // namespace mempod::bench
