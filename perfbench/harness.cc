/**
 * @file
 * Benchmark harness: runs one named workload's cells (mechanism x trace,
 * configured as bench/fig8_comparison.cc configures them) one at a
 * time, times every call it makes into a simulator layer, and writes a
 * raw JSON report. perfbench/run.py builds this program, runs it, checks
 * the simulated outputs and turns the report into metrics.
 *
 *   perfbench_harness --workload W --seed N --seconds S --trace 0|1
 *                     --demands N --cache DIR --rundir DIR --report FILE
 *
 * Passes. A pass runs every cell of the workload once, serially, with a
 * fresh trace cache, so each pass pays trace set-up again. With
 * --trace 0, "base" passes repeat while another one fits into
 * --seconds (at least two run). With --trace 1, an untimed warm-up pass
 * runs first; then rounds of one untraced ("base") and one traced
 * ("traced": perf.enabled plus spans from this file) pass, in ABBA
 * order, repeat while another round fits (at least one runs); then one
 * ablation round (decisions.enabled off, base, validate.enabled off),
 * so each ablation has a base pass beside it; then the isolated
 * per-layer loops. Last, untimed, the detailed live cells that serve as
 * the check reference run through BatchRunner: fig8-sampled's accuracy
 * reference, and replay-artifacts' twins, which write the same
 * artifact kinds as the replayed cells.
 *
 * Host gauge. Right before each cell of a pass, and after its last
 * cell, a fixed kernel that uses none of the simulator's code runs and
 * is timed ("calib_s", "calib_end_s"). On a shared host the speed of
 * such code drifts by up to 1.8x over tens of seconds; run.py scales a
 * pass's times by the gauge's readings in it to report them at one
 * reference speed.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/perf.h"
#include "common/tracer.h"
#include "core/remap_table.h"
#include "mem/address_map.h"
#include "sim/artifacts.h"
#include "sim/runner.h"
#include "sim/simulation.h"
#include "sim/stats_writer.h"
#include "trace/catalog.h"
#include "trace/champsim.h"
#include "trace/native.h"
#include "tracking/mea.h"

namespace {

using namespace mempod;
namespace fs = std::filesystem;

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t demands = 400'000;
    std::string cacheDir;
    std::string runDir;
    std::string report;
};

/** What a workload runs: its traces, fidelity and whether it replays. */
struct Workload
{
    std::vector<std::string> traces;
    bool sampled = false;
    bool replay = false;
};

Workload
lookupWorkload(const std::string &name)
{
    if (name == "fig8-detailed")
        return {{"xalanc", "mix5"}, false, false};
    if (name == "fig8-sampled")
        return {{"xalanc", "mix5"}, true, false};
    if (name == "replay-artifacts")
        return {{"mix5"}, false, true};
    throw std::invalid_argument("unknown workload '" + name + "'");
}

struct MechConfig
{
    std::string label;
    SimConfig cfg;
};

/** bench/fig8_comparison.cc's configurations, TLM baseline first. */
std::vector<MechConfig>
fig8Mechanisms()
{
    std::vector<MechConfig> m;
    m.push_back({"TLM", SimConfig::paper(Mechanism::kNoMigration)});
    m.push_back({"MemPod", SimConfig::paper(Mechanism::kMemPod)});
    SimConfig hma = SimConfig::paper(Mechanism::kHma);
    hma.scaleHmaEpoch(40.0);
    m.push_back({"HMA", hma});
    m.push_back({"THM", SimConfig::paper(Mechanism::kThm)});
    m.push_back({"CAMEO", SimConfig::paper(Mechanism::kCameo)});
    m.push_back({"HBM-only", SimConfig::fastOnly()});
    return m;
}

/** One kind of pass and the switches it flips. */
struct PassSpec
{
    std::string kind; //!< base | traced | no_decisions | no_validate
    bool perf = false;
    bool decisions = true;
    bool validate = true;
};

/** Per-cell configuration, following bench_util.cc's timingJob(). */
SimConfig
cellConfig(const SimConfig &base, const Workload &w, const PassSpec &p,
           std::uint64_t seed)
{
    SimConfig cfg = base;
    cfg.shards = 0;
    // replay-artifacts emits stats (JSONL at 50 us), traces, decisions.
    cfg.statsIntervalPs = w.replay ? 50ull * 1'000'000 : 0;
    cfg.tracer.enabled = w.replay;
    cfg.tracer.sampleEvery = 64;
    cfg.tracer.seed = seed;
    cfg.perfEnabled = p.perf;
    cfg.decisionsEnabled = p.decisions;
    cfg.validateEnabled = p.validate;
    if (w.sampled)
        cfg.set("sim.sampling.enabled", "true");
    return cfg;
}

/** Benchmark-side spans around layer calls; kept in memory. */
struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1;
    int cell = -1;
    int pass = -1;
};

class SpanLog
{
  public:
    /** Open a span when recording; returns its id, or -1. */
    int
    open(const char *name, int parent, int cell)
    {
        if (!on)
            return -1;
        spans.push_back({name, perfNowNs(), 0, parent, cell, pass});
        return static_cast<int>(spans.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans[static_cast<std::size_t>(id)].endNs = perfNowNs();
    }

    bool on = false;
    int pass = -1;
    std::vector<Span> spans;
};

/** Adds the scope's duration to `acc` and records it as a span. */
class Timed
{
  public:
    Timed(SpanLog &log, const char *name, int parent, int cell,
          double &acc)
        : log_(log), acc_(acc), id_(log.open(name, parent, cell)),
          t0_(perfNowNs())
    {
    }

    ~Timed()
    {
        acc_ += static_cast<double>(perfNowNs() - t0_) * 1e-9;
        log_.close(id_);
    }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    double &acc_;
    int id_;
    std::uint64_t t0_;
};

/** Size and FNV-1a digest of one artifact file. */
struct ArtifactFile
{
    std::uint64_t bytes = 0;
    std::uint64_t digest = 0;
    bool operator==(const ArtifactFile &) const = default;
};

struct CellOut
{
    std::string trace;
    std::string label;
    bool ok = false;
    std::string error;
    double buildS = 0, openS = 0, setupS = 0, runS = 0;
    double serializeS = 0, writeS = 0, wallS = 0;
    double calibS = 0; //!< host gauge, timed just before the cell
    /** Files the cell wrote, keyed "<kind>/<file name>"; perf excluded. */
    std::map<std::string, ArtifactFile> artifacts;
    RunResult r;
    std::uint64_t decisions = 0;
    bool hasPerf = false;
    PerfReport perf;
};

struct PassOut
{
    std::string kind;
    int round = -1;       //!< passes of one round ran next to each other
    double wallS = 0;
    double manifestS = 0; //!< replay: traces.json load
    double calibEndS = 0; //!< host gauge after the last cell
    std::vector<CellOut> cells;
};

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t
fnv1a(const char *p, std::size_t n, std::uint64_t h = kFnvBasis)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(p[i]);
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
fnv1a(const std::string &s)
{
    return fnv1a(s.data(), s.size());
}

ArtifactFile
digestFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<char> buf(1 << 20);
    ArtifactFile f;
    f.digest = kFnvBasis;
    while (in) {
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        const auto n = static_cast<std::size_t>(in.gcount());
        f.digest = fnv1a(buf.data(), n, f.digest);
        f.bytes += n;
    }
    if (!in.eof())
        throw std::runtime_error("cannot read " + path.string());
    return f;
}

/**
 * The stats, traces and decisions files of job `index` in a run
 * directory, whoever wrote them: this harness or BatchRunner.
 */
std::map<std::string, ArtifactFile>
cellArtifacts(const ArtifactSink &sink, std::size_t index,
              const std::string &label, const std::string &trace)
{
    const std::string prefix =
        StatsWriter::jobFileStem(index, label, trace) + ".";
    std::map<std::string, ArtifactFile> files;
    for (const auto &[kind, dir] :
         {std::pair{"stats", sink.statsDir()},
          std::pair{"traces", sink.tracesDir()},
          std::pair{"decisions", sink.decisionsDir()}}) {
        if (dir.empty())
            continue;
        for (const auto &e : fs::directory_iterator(dir)) {
            const std::string name = e.path().filename().string();
            if (name.starts_with(prefix))
                files[std::string(kind) + "/" + name] =
                    digestFile(e.path());
        }
    }
    return files;
}

/**
 * BatchRunner::execute's artifact step, one call at a time so each
 * StatsWriter call is timed. The check reference for replay-artifacts
 * runs through BatchRunner itself, and run.py requires its files to
 * equal these byte for byte.
 */
void
writeArtifacts(Simulation &sim, CellOut &out, std::size_t index,
               const ArtifactSink &sink, SpanLog &spans, int parent,
               int cell)
{
    const std::string stem =
        StatsWriter::jobFileStem(index, out.label, out.trace);
    auto emit = [&](const char *what, const std::string &path,
                    auto &&render) {
        std::string doc;
        {
            Timed t(spans, what, parent, cell, out.serializeS);
            doc = render();
        }
        Timed t(spans, "sim.stats_writer.write", parent, cell,
                out.writeS);
        StatsWriter::writeFile(path, doc);
    };
    if (sink.wantStats()) {
        const std::string base = sink.statsDir() + "/" + stem;
        emit("sim.stats_writer.to_json", base + ".json", [&] {
            return StatsWriter::toJson(sim.registry(),
                                       sim.finalSnapshot(), out.r);
        });
        if (sim.sampler())
            emit("sim.stats_writer.to_jsonl", base + ".jsonl", [&] {
                return StatsWriter::toJsonl(sim.sampler()->records());
            });
    }
    if (sink.wantDecisions() && sim.decisionLog())
        emit("sim.stats_writer.decisions_to_jsonl",
             sink.decisionsDir() + "/" + stem + ".decisions.jsonl", [&] {
                 return StatsWriter::decisionsToJsonl(
                     *sim.decisionLog(), out.trace, out.r.mechanism);
             });
    if (sink.wantTraces() && sim.tracer())
        emit("common.tracer.to_json",
             sink.tracesDir() + "/" + stem + ".trace.json",
             [&] { return sim.tracer()->toJson(); });
    if (sink.wantPerf() && sim.perfReport())
        emit("sim.stats_writer.perf_to_json",
             sink.perfDir() + "/" + stem + ".perf.json",
             [&] { return StatsWriter::perfToJson(*sim.perfReport()); });
}

/**
 * Host-speed gauge: a fixed, deterministic kernel shaped like the
 * simulator's host work: dependent random reads over a 1 MiB table and
 * a bounded binary heap used as an event queue. Its time tracks the
 * simulator's under the host's drift (correlation about 0.9 per pass
 * on the first host), mostly through the heap's branchy work. It
 * shares no code with src/, so a change to the simulator never moves
 * it; only the host's speed does.
 */
class HostGauge
{
  public:
    HostGauge() : table_(1u << 18)
    {
        for (std::uint32_t i = 0; i < table_.size(); ++i)
            table_[i] = i * 2654435761u;
    }

    /** Runs the kernel once; returns its wall time in seconds. */
    double
    measure()
    {
        // Untimed: bring the table back into cache after the cell
        // before evicted it, so the reading is the host's speed and
        // not that cell's footprint.
        for (std::size_t i = 0; i < table_.size(); i += 16)
            checksum += table_[i];
        const std::uint64_t t0 = perfNowNs();
        std::uint64_t x = 88172645463325252ull;
        std::uint64_t acc = checksum;
        heap_.clear();
        for (int i = 0; i < 200'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += table_[(x ^ acc) & (table_.size() - 1)];
            heap_.push_back(x);
            std::push_heap(heap_.begin(), heap_.end());
            if (heap_.size() > 4096) {
                std::pop_heap(heap_.begin(), heap_.end());
                heap_.pop_back();
            }
        }
        checksum = acc;
        return static_cast<double>(perfNowNs() - t0) * 1e-9;
    }

    std::uint64_t checksum = 0; //!< written out so the kernel stays live

  private:
    std::vector<std::uint32_t> table_;
    std::vector<std::uint64_t> heap_;
};

class Bench
{
  public:
    explicit Bench(const Args &a)
        : args_(a), w_(lookupWorkload(a.workload)), mechs_(fig8Mechanisms())
    {
    }

    /** Build the replay fixture (untimed) if the cache lacks it. */
    void prepareFixture();

    PassOut runPass(const PassSpec &p, int pass_index, int round);

    /** Set-up alone (trace build/open, Simulation construction). */
    double setupRound();

    /** Detailed live cells on four threads: the check reference. */
    PassOut detailedReference();

    struct Isolated
    {
        double traceNsPerRecord = 0;
        std::uint64_t traceRecords = 0;
        std::uint64_t traceResidentKib = 0;
        double meaTouchNs = 0;
        double remapLookupNs = 0;
        std::uint64_t checksum = 0;
    };
    Isolated isolatedLoops();

    const Workload &workload() const { return w_; }
    SpanLog spans;
    HostGauge gauge;

  private:
    GeneratorConfig
    gen() const
    {
        GeneratorConfig g;
        g.totalRequests = args_.demands;
        g.seed = args_.seed;
        return g;
    }

    std::string
    fixtureDir() const
    {
        return args_.cacheDir + "/replay/mix5-" +
               std::to_string(args_.demands) + "-" +
               std::to_string(args_.seed);
    }

    /** On replay, register the fixture's manifest; adds its time. */
    void
    loadCatalog(WorkloadCatalog &cat, double &acc)
    {
        if (!w_.replay)
            return;
        Timed t(spans, "trace.open.manifest", -1, -1, acc);
        cat.loadManifest(fixtureDir() + "/traces.json");
    }

    CellOut runCell(const MechConfig &m, const std::string &trace,
                    std::size_t index, const PassSpec &p,
                    TraceCache &cache, const ArtifactSink &sink);

    Args args_;
    Workload w_;
    std::vector<MechConfig> mechs_;
};

void
Bench::prepareFixture()
{
    if (!w_.replay)
        return;
    const std::string dir = fixtureDir();
    if (fs::exists(dir + "/traces.json"))
        return;
    // Build beside the final directory and rename, so an interrupted
    // build never leaves a half-written fixture behind.
    const std::string tmp = dir + ".tmp" + std::to_string(::getpid());
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    const Trace trace = WorkloadCatalog().build("mix5", gen());
    writeNativeTrace(trace, tmp + "/mix5.trc");
    NativeTraceSource native(tmp + "/mix5.trc");
    const ChampSimConvertResult conv =
        convertToChampSim(native, tmp + "/mix5", ChampSimTiming::kIp);
    if (conv.records != trace.size())
        throw std::runtime_error("replay fixture: converted record count "
                                 "differs from the trace");
    std::ofstream m(tmp + "/traces.json");
    m << "{\"version\": 1, \"traces\": [{\"name\": \"mix5\", "
         "\"format\": \"champsim\", \"timing\": \"ip\", \"addr_bias\": "
      << champsim::kDefaultAddrBias << ", \"files\": [";
    for (std::size_t i = 0; i < conv.files.size(); ++i)
        m << (i ? ", " : "") << "{\"path\": \""
          << fs::path(conv.files[i].path).filename().string()
          << "\", \"core\": " << unsigned(conv.files[i].core) << "}";
    m << "]}]}\n";
    m.close();
    if (!m)
        throw std::runtime_error("replay fixture: cannot write manifest");
    fs::create_directories(fs::path(dir).parent_path());
    fs::remove_all(dir);
    fs::rename(tmp, dir);
}

CellOut
Bench::runCell(const MechConfig &m, const std::string &trace,
               std::size_t index, const PassSpec &p, TraceCache &cache,
               const ArtifactSink &sink)
{
    CellOut out;
    out.trace = trace;
    out.label = m.label;
    const int cell = static_cast<int>(index);
    double wall = 0;
    {
        Timed c(spans, "cell", -1, cell, wall);
        try {
            std::shared_ptr<const TraceStore> store;
            {
                // Generates a synthetic trace; validates replay files.
                Timed t(spans, "trace.build", c.id(), cell, out.buildS);
                store = cache.get(trace, gen());
            }
            std::unique_ptr<TraceSource> source;
            {
                Timed t(spans, "trace.open", c.id(), cell, out.openS);
                source = store->open();
            }
            std::unique_ptr<Simulation> sim;
            {
                Timed t(spans, "sim.setup", c.id(), cell, out.setupS);
                sim = std::make_unique<Simulation>(
                    cellConfig(m.cfg, w_, p, args_.seed));
            }
            {
                Timed t(spans, "sim.run", c.id(), cell, out.runS);
                out.r = sim->run(*source, trace);
            }
            if (sink.enabled())
                writeArtifacts(*sim, out, index, sink, spans, c.id(),
                               cell);
            if (sim->decisionLog())
                out.decisions = sim->decisionLog()->size();
            if (const PerfReport *pr = sim->perfReport()) {
                out.perf = *pr;
                out.hasPerf = true;
            }
            out.ok = true;
        } catch (const std::exception &e) {
            out.error = e.what();
        }
    }
    out.wallS = wall;
    return out;
}

PassOut
Bench::runPass(const PassSpec &p, int pass_index, int round)
{
    PassOut out;
    out.kind = p.kind;
    out.round = round;
    spans.on = p.kind == "traced";
    spans.pass = pass_index;

    WorkloadCatalog catalog;
    TraceCache cache(&catalog);
    // replay-artifacts emits stats, traces and decisions; a traced pass
    // also writes the host-profile sidecar, as `--emit perf` would.
    ArtifactSink sink;
    sink.stats = sink.traces = sink.decisions = w_.replay;
    sink.perf = p.perf;
    if (w_.replay || p.perf) {
        sink.root = args_.runDir + "/pass" + std::to_string(pass_index);
        fs::remove_all(sink.root);
        sink.prepare();
    }
    loadCatalog(catalog, out.manifestS);
    out.wallS = out.manifestS;
    std::size_t index = 0;
    for (const std::string &trace : w_.traces)
        for (const MechConfig &m : mechs_) {
            const double calib = gauge.measure();
            out.cells.push_back(runCell(m, trace, index++, p, cache, sink));
            out.cells.back().calibS = calib;
            out.wallS += out.cells.back().wallS;
        }
    out.calibEndS = gauge.measure();
    spans.on = false;

    if (sink.enabled()) {
        for (std::size_t i = 0; i < out.cells.size(); ++i)
            out.cells[i].artifacts = cellArtifacts(
                sink, i, out.cells[i].label, out.cells[i].trace);
        fs::remove_all(sink.root);
    }
    return out;
}

double
Bench::setupRound()
{
    WorkloadCatalog catalog;
    TraceCache cache(&catalog);
    double s = 0;
    loadCatalog(catalog, s);
    for (const std::string &trace : w_.traces)
        for (const MechConfig &m : mechs_) {
            std::unique_ptr<Simulation> sim; // destroyed untimed
            Timed t(spans, "setup", -1, -1, s);
            auto source = cache.get(trace, gen())->open();
            sim = std::make_unique<Simulation>(
                cellConfig(m.cfg, w_, PassSpec{"base"}, args_.seed));
        }
    return s;
}

PassOut
Bench::detailedReference()
{
    PassOut out;
    out.kind = w_.replay ? "twin" : "reference";
    // Live (generated, not replayed) detailed cells. replay-artifacts'
    // twins keep the replay configuration and artifact kinds; two
    // workers bound the memory CAMEO's trace JSON takes.
    RunnerOptions ro;
    ro.jobs = w_.replay ? 2 : 4;
    ro.artifacts.stats = ro.artifacts.traces = ro.artifacts.decisions =
        w_.replay;
    if (w_.replay) {
        ro.artifacts.root = args_.runDir + "/twin";
        fs::remove_all(ro.artifacts.root);
    }
    BatchRunner runner(ro);
    const Workload live{w_.traces, false, w_.replay};
    for (const std::string &trace : w_.traces)
        for (const MechConfig &m : mechs_) {
            BatchJob job;
            job.config = cellConfig(m.cfg, live, PassSpec{"reference"},
                                    args_.seed);
            job.workload = trace;
            job.gen = gen();
            job.label = m.label;
            runner.add(std::move(job));
        }
    for (const JobResult &jr : runner.runAll()) {
        CellOut c;
        c.trace = jr.workload;
        c.label = jr.label;
        c.ok = jr.ok;
        c.error = jr.error;
        c.r = jr.result;
        c.wallS = jr.wallSeconds;
        if (ro.artifacts.enabled())
            c.artifacts = cellArtifacts(ro.artifacts, out.cells.size(),
                                        c.label, c.trace);
        out.cells.push_back(std::move(c));
    }
    if (ro.artifacts.enabled())
        fs::remove_all(ro.artifacts.root);
    return out;
}

Bench::Isolated
Bench::isolatedLoops()
{
    Isolated iso;
    WorkloadCatalog catalog;
    TraceCache cache(&catalog);
    double ignored = 0;
    loadCatalog(catalog, ignored);

    // MemPod's paper configuration. Each record is placed as the
    // simulation places it (LogicalToPhysical, then the Pod's view of
    // the physical page), so the loops see the workload's own stream.
    const SimConfig cfg = SimConfig::paper(Mechanism::kMemPod);
    const PodParams &pp = cfg.mempod.pod;
    const LogicalToPhysical placement(cfg.geom.totalPages(), cfg.numCores,
                                      cfg.placementSeed);
    const AddressMap map(cfg.geom, cfg.near.org, cfg.far.org);
    const std::uint32_t pods = cfg.geom.numPods;

    // One pass over each of the workload's sources, as the frontend
    // would pull it; also collects the page stream for MEA and remap.
    std::vector<std::uint32_t> pod;
    std::vector<std::uint64_t> local;
    std::vector<std::uint8_t> epochEnd;
    double readS = 0;
    for (const std::string &trace : w_.traces) {
        auto store = cache.get(trace, gen());
        auto source = store->open();
        TraceRecord rec;
        std::uint64_t n = 0, sum = 0;
        {
            Timed t(spans, "isolated.trace.read", -1, -1, readS);
            while (source->next(rec)) {
                sum += rec.time ^ rec.coreLocal;
                ++n;
            }
        }
        iso.checksum += sum;
        iso.traceRecords += n;
        const std::uint64_t resident =
            store->external()
                ? source->maxResidentBytes()
                : store->trace()->size() * sizeof(TraceRecord);
        iso.traceResidentKib =
            std::max(iso.traceResidentKib, resident / 1024);

        // Epochs follow the trace's own timestamps.
        source->reset();
        TimePs nextEpoch = cfg.mempod.interval;
        while (source->next(rec)) {
            const PageId page = AddressMap::pageOf(
                placement.physicalAddr(rec.core, rec.coreLocal));
            bool boundary = false;
            while (rec.time >= nextEpoch) {
                nextEpoch += cfg.mempod.interval;
                boundary = true;
            }
            if (boundary && !epochEnd.empty())
                epochEnd.back() = 1;
            pod.push_back(map.podOfPage(page));
            local.push_back(map.podLocalOfPage(page));
            epochEnd.push_back(0);
        }
        if (!epochEnd.empty())
            epochEnd.back() = 1; // a trace's last epoch ends with it
    }
    iso.traceNsPerRecord =
        iso.traceRecords ? readS * 1e9 / iso.traceRecords : 0.0;

    // Per Pod an MEA and a remap table sized as Pod builds them. At each
    // epoch the MEA's hot pages (count >= minHotCount) are swapped into
    // fast slots with round-robin victims, as a Pod's migration would,
    // so lookups see a remapped table; only touch() and locationOf()
    // are timed.
    std::uint32_t idBits = 0;
    while ((1ull << idBits) < cfg.geom.pagesPerPod())
        ++idBits;
    std::vector<MeaTracker> meas;
    std::vector<RemapTable> remaps;
    std::vector<std::uint64_t> victim(pods, 0);
    for (std::uint32_t p = 0; p < pods; ++p) {
        meas.emplace_back(pp.meaEntries, pp.meaCounterBits, idBits);
        remaps.emplace_back(cfg.geom.pagesPerPod(),
                            cfg.geom.fastPagesPerPod());
    }
    double meaS = 0, remapS = 0;
    std::uint64_t sum = 0;
    const std::size_t n = pod.size();
    std::size_t begin = 0;
    while (begin < n) {
        std::size_t end = begin;
        while (end < n && !epochEnd[end])
            ++end;
        end = std::min(n, end + 1);
        {
            Timed t(spans, "isolated.mea.touch", -1, -1, meaS);
            for (std::size_t i = begin; i < end; ++i)
                meas[pod[i]].touch(local[i]);
        }
        {
            Timed t(spans, "isolated.remap.lookup", -1, -1, remapS);
            for (std::size_t i = begin; i < end; ++i)
                sum += remaps[pod[i]].locationOf(local[i]);
        }
        for (std::uint32_t p = 0; p < pods; ++p) {
            const std::uint32_t minHot =
                std::min(pp.minHotCount, meas[p].counterMax());
            for (const TrackedEntry &e : meas[p].snapshot()) {
                RemapTable &rt = remaps[p];
                if (e.count < minHot)
                    break; // sorted by count
                if (rt.inFast(e.id))
                    continue;
                const std::uint64_t slot = victim[p]++ % rt.fastSlots();
                rt.swap(e.id, rt.residentOf(slot));
            }
            meas[p].reset();
        }
        begin = end;
    }
    iso.checksum += sum;
    iso.meaTouchNs = n ? meaS * 1e9 / n : 0.0;
    iso.remapLookupNs = n ? remapS * 1e9 / n : 0.0;
    return iso;
}

// ---------------------------------------------------------------- JSON

std::string
num(double v)
{
    return StatsWriter::formatDouble(v);
}

std::string
str(const std::string &s)
{
    return "\"" + StatsWriter::jsonEscape(s) + "\"";
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "\"%016llx\"",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
counter(const PerfReport &p, const char *name)
{
    const auto it = p.counters.find(name);
    return it == p.counters.end() ? 0 : it->second;
}

std::uint64_t
phaseNs(const PerfReport &p, const char *name)
{
    for (const auto &[phase, ns] : p.phasesNs)
        if (phase == name)
            return ns;
    return 0;
}

void
writeCell(std::ostream &o, const CellOut &c)
{
    const RunResult &r = c.r;
    o << "{\"trace\": " << str(c.trace) << ", \"label\": " << str(c.label)
      << ", \"ok\": " << (c.ok ? "true" : "false")
      << ", \"error\": " << str(c.error) << ", \"build_s\": " << num(c.buildS)
      << ", \"open_s\": " << num(c.openS) << ", \"setup_s\": "
      << num(c.setupS) << ", \"run_s\": " << num(c.runS)
      << ", \"serialize_s\": " << num(c.serializeS)
      << ", \"write_s\": " << num(c.writeS) << ", \"wall_s\": "
      << num(c.wallS) << ", \"calib_s\": " << num(c.calibS)
      << ", \"decisions\": " << c.decisions
      << ", \"stats\": {\"ammat_ns\": " << num(r.ammatNs)
      << ", \"demands\": " << r.demandRequests
      << ", \"completed\": " << r.completed
      << ", \"migrations\": " << r.migration.migrations
      << ", \"bytes_moved\": " << r.migration.bytesMoved
      << ", \"row_hit_rate\": " << num(r.rowHitRate)
      << ", \"row_hit_rate_fast\": " << num(r.rowHitRateFast)
      << ", \"simulated_ps\": " << r.simulatedPs
      << ", \"events\": " << r.eventsExecuted
      << ", \"sampled_ammat_ns\": " << num(r.sampledAmmatNs)
      << ", \"sampled_ci_ns\": " << num(r.sampledCiNs)
      << ", \"sample_windows\": " << r.sampleWindows
      << ", \"digest\": " << hex(fnv1a(serializeRunResult(r))) << "}";
    o << ", \"artifacts\": {";
    const char *sep = "";
    for (const auto &[name, f] : c.artifacts) {
        o << sep << str(name) << ": {\"bytes\": " << f.bytes
          << ", \"digest\": " << hex(f.digest) << "}";
        sep = ", ";
    }
    o << "}";
    if (c.hasPerf) {
        const PerfReport &p = c.perf;
        o << ", \"perf\": {\"setup_ns\": " << phaseNs(p, "setup")
          << ", \"run_ns\": " << phaseNs(p, "run")
          << ", \"report_ns\": " << phaseNs(p, "report")
          << ", \"events\": " << p.eventsExecuted
          << ", \"eq_cascades\": " << counter(p, "eq.cascades")
          << ", \"channel_ticks\": " << counter(p, "channel.ticks")
          << ", \"channel_arb_passes\": "
          << counter(p, "channel.arb_passes")
          << ", \"channel_issued\": " << counter(p, "channel.issued")
          << "}";
    }
    o << "}";
}

void
writeReport(const Args &a, const std::vector<PassOut> &passes,
            const std::vector<double> &setups, std::uint64_t peak_rss_kib,
            std::uint64_t gauge_checksum,
            const Bench::Isolated *iso, const SpanLog &spans)
{
    std::ofstream o(a.report);
    const PerfHostInfo host = perfHostInfo();
    o << "{\"workload\": " << str(a.workload) << ", \"seed\": " << a.seed
      << ", \"demands\": " << a.demands << ", \"trace\": " << a.trace
      << ", \"peak_rss_kib\": " << peak_rss_kib << ", \"host\": {\"sysname\": "
      << str(host.sysname) << ", \"machine\": " << str(host.machine)
      << ", \"cpus\": " << host.cpus << "}, \"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const PassOut &p = passes[i];
        o << (i ? ",\n" : "\n") << "{\"kind\": " << str(p.kind)
          << ", \"round\": " << p.round << ", \"wall_s\": "
          << num(p.wallS) << ", \"manifest_s\": " << num(p.manifestS)
          << ", \"calib_end_s\": " << num(p.calibEndS)
          << ", \"cells\": [";
        for (std::size_t c = 0; c < p.cells.size(); ++c) {
            o << (c ? ",\n  " : "\n  ");
            writeCell(o, p.cells[c]);
        }
        o << "]}";
    }
    o << "],\n\"setup_rounds_s\": [";
    for (std::size_t i = 0; i < setups.size(); ++i)
        o << (i ? ", " : "") << num(setups[i]);
    o << "],\n\"gauge_checksum\": " << gauge_checksum;
    if (iso)
        o << ",\n\"isolated\": {\"trace_ns_per_record\": "
          << num(iso->traceNsPerRecord)
          << ", \"trace_records\": " << iso->traceRecords
          << ", \"trace_max_resident_kib\": " << iso->traceResidentKib
          << ", \"mea_touch_ns\": " << num(iso->meaTouchNs)
          << ", \"remap_lookup_ns\": " << num(iso->remapLookupNs)
          << ", \"checksum\": " << iso->checksum << "}";
    o << ",\n\"spans\": [";
    for (std::size_t i = 0; i < spans.spans.size(); ++i) {
        const Span &s = spans.spans[i];
        o << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": "
          << str(s.name) << ", \"start_ns\": " << s.startNs
          << ", \"end_ns\": " << s.endNs << ", \"parent\": " << s.parent
          << ", \"cell\": " << s.cell << ", \"pass\": " << s.pass << "}";
    }
    o << "]}\n";
    o.close();
    if (!o)
        throw std::runtime_error("cannot write report " + a.report);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--demands")
            a.demands = std::stoull(v);
        else if (k == "--cache")
            a.cacheDir = v;
        else if (k == "--rundir")
            a.runDir = v;
        else if (k == "--report")
            a.report = v;
        else
            throw std::invalid_argument("unknown option " + k);
    }
    if (a.workload.empty() || a.cacheDir.empty() || a.runDir.empty() ||
        a.report.empty())
        throw std::invalid_argument(
            "need --workload, --cache, --rundir and --report");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        Bench bench(args);
        bench.prepareFixture();

        // More set-up samples than passes give setup_s a steadier median.
        // They run first, after one untimed round, while the heap is in
        // the same state in every run: after the passes, rounds took
        // either about 0.11 s or 0.18 s on fig8-detailed, by process.
        bench.setupRound();
        std::vector<double> setups;
        for (int i = 0; i < 5; ++i)
            setups.push_back(bench.setupRound());

        std::vector<PassOut> passes;
        auto run = [&](const PassSpec &p, int round) {
            passes.push_back(
                bench.runPass(p, static_cast<int>(passes.size()), round));
        };
        const PassSpec base{"base"}, traced{"traced", true};
        // A traced run compares passes with each other: an untimed
        // warm-up pass first keeps the process's cold start out of them.
        if (args.trace)
            bench.runPass(base, -1, -1);

        const std::uint64_t t0 = perfNowNs();
        auto elapsed = [&] {
            return static_cast<double>(perfNowNs() - t0) * 1e-9;
        };
        // Rounds repeat while another one fits in --seconds: one base
        // pass, or a base/traced pair in ABBA order. At least two base
        // passes, or one pair, always run.
        double last = 0;
        for (int r = 0; (args.trace ? r < 1 : r < 2) ||
                        elapsed() + last <= args.seconds;
             ++r) {
            const double start = elapsed();
            if (!args.trace) {
                run(base, r);
            } else if (r % 2 == 0) {
                run(base, r);
                run(traced, r);
            } else {
                run(traced, r);
                run(base, r);
            }
            last = elapsed() - start;
        }
        const std::uint64_t peak = perfMaxRssKib();
        Bench::Isolated iso;
        if (args.trace) {
            // One ablation round: each ablation runs beside a base pass.
            const int r = passes.back().round + 1;
            run({"no_decisions", false, false}, r);
            run(base, r);
            run({"no_validate", false, true, false}, r);
            iso = bench.isolatedLoops();
        }
        if (bench.workload().sampled || bench.workload().replay)
            passes.push_back(bench.detailedReference());

        writeReport(args, passes, setups, peak, bench.gauge.checksum,
                    args.trace ? &iso : nullptr, bench.spans);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
}
