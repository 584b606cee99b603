/**
 * @file
 * Shared scaffolding for the figure/table harnesses: CLI options
 * (scale control, workload selection, worker count), workload-set
 * helpers, the process-wide trace cache, and BatchRunner glue.
 *
 * Every harness accepts:
 *   --full           paper-scale run (all workloads, long traces)
 *   --requests N     trace length override (also caps external traces)
 *   --workloads a,b  explicit workload list
 *   --manifest FILE  load a traces.json corpus manifest; its traces
 *                    become named workloads (an entry reusing a
 *                    synthetic name replays the capture instead of
 *                    generating — record-and-replay)
 *   --list-workloads print the suite (incl. Table 3 mixes and loaded
 *                    external traces) and exit
 *   --seed N         generator seed
 *   --jobs N         worker threads (default: hardware concurrency)
 *   --out DIR        run directory for every per-job artifact; fixed
 *                    subdirs stats/ (JSON + JSONL registry exports),
 *                    traces/ (Chrome trace-event JSON), decisions/
 *                    ("mempod-decisions-v1" ledgers) and perf/
 *                    (host-profile sidecars)
 *   --emit LIST      comma list of artifact kinds to write under
 *                    --out (stats,traces,decisions,perf); default
 *                    stats,traces,decisions. "perf" implies --perf.
 *   --interval-us N  JSONL sampling period in simulated µs (default
 *                    50, the migration epoch; 0 = summary JSON only)
 *   --trace-sample N trace 1 in N demand requests (default 64)
 *   --fidelity M     detailed (default) | fast (fixed-latency DRAM
 *                    model, dram.model=fast) | sampled (SMARTS-style
 *                    alternating fidelity, sim.sampling.enabled)
 *   --set key=value  dotted-key config override applied to every
 *                    timing job after --fidelity (repeatable; e.g.
 *                    --set sim.sampling.measure_ps=20000000)
 *   --paranoid       deep invariant scans every epoch (O(pages) remap
 *                    walks); for CI smokes, not perf runs
 *
 * Results are identical at any --jobs value (same seed => same
 * numbers); only wall-clock time changes. The run directory is
 * validated up front (created if missing, probed for writability) so a
 * bad path fails before hours of simulation, not after.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/perf.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "trace/catalog.h"
#include "trace/record.h"

namespace mempod::bench {

/** Parsed harness options. */
struct Options
{
    bool full = false;
    std::uint64_t requests = 0; //!< 0 = pick by mode
    std::uint64_t seed = 42;
    unsigned jobs = 0; //!< worker threads; 0 = hardware concurrency
    std::vector<std::string> workloads; //!< empty = pick by mode
    std::vector<std::string> manifests; //!< traces.json paths loaded
    ArtifactSink artifacts; //!< --out run dir + --emit enable bits
    std::uint64_t intervalUs = 50; //!< JSONL period (µs); 0 = off
    std::uint64_t traceSample = 64; //!< trace 1 in N demand requests
    bool perf = false;      //!< host profiling + one-page table (stderr)
    std::string fidelity = "detailed"; //!< detailed | fast | sampled
    //! dotted-key overrides applied to every timing job, in order
    std::vector<std::pair<std::string, std::string>> sets;
    bool paranoid = false;  //!< deep invariant scans every epoch
    std::string benchOut = "."; //!< where BENCH_<name>.json lands

    /**
     * Sampling period in picoseconds for timing jobs: 0 unless the
     * sink emits stats (the sampler adds events, so it stays off when
     * nobody consumes the records).
     */
    TimePs
    statsIntervalPs() const
    {
        return artifacts.wantStats() ? intervalUs * 1'000'000 : 0;
    }

    /** Trace length for timing simulations. */
    std::uint64_t
    timingRequests() const
    {
        if (requests)
            return requests;
        return full ? 8'000'000 : 800'000;
    }

    /** Trace length for the offline (Section 3) studies. */
    std::uint64_t
    offlineRequests() const
    {
        if (requests)
            return requests;
        return full ? 4'000'000 : 600'000;
    }

    /** Workload set for timing sweeps (small unless --full). */
    std::vector<std::string> sweepWorkloads() const;

    /** Full suite (all 27) unless the user narrowed it. */
    std::vector<std::string> suiteWorkloads() const;
};

/** Parse argv; prints usage and exits on --help / bad input. */
Options parseOptions(int argc, char **argv, const char *what);

/**
 * Create `dir` if missing and prove it is writable by creating and
 * removing a probe file. On any failure prints a clear error naming
 * the flag and exits(2) — output directories must fail fast, before
 * simulations run, not at the first write hours later.
 */
void ensureWritableDir(const std::string &dir, const char *flag,
                       const char *what);

/**
 * The harness-wide trace cache: mutex-guarded, build-once per
 * (workload, requests, seed). Shared by makeTrace() and every runner
 * built via runnerOptions(), so a synthetic trace is never generated
 * twice — and an external trace is never duplicated — even across a
 * harness's separate batches.
 */
TraceCache &traceCache();

/** Fetch/build the shared trace store through the harness cache. */
std::shared_ptr<const TraceStore> makeTrace(const std::string &workload,
                                            std::uint64_t requests,
                                            std::uint64_t seed);

/** RunnerOptions honoring --jobs, progress on stderr, shared cache. */
RunnerOptions runnerOptions(const Options &opt);

/** A timing job at the harness's scale (timingRequests, seed). */
BatchJob timingJob(const SimConfig &config, const std::string &workload,
                   const Options &opt, std::string label = {});

/** An offline interval-study job (offlineRequests, seed). */
BatchJob studyJob(const IntervalStudyConfig &study,
                  const std::string &workload, const Options &opt);

/** Unwrap a timing result; fatal (with job context) on failure. */
const RunResult &need(const JobResult &r);

/**
 * The run's measured AMMAT: the SMARTS window estimate on sampled
 * runs (the full-run average is meaningless there — fast-forwarded
 * demands complete without stall accounting), the exact full-run
 * average otherwise. Figure harnesses normalize with this so every
 * --fidelity mode produces comparable tables.
 */
inline double
measuredAmmat(const RunResult &r)
{
    return r.sampled ? r.sampledAmmatNs : r.ammatNs;
}

/** Unwrap an interval-study result; fatal on failure. */
const IntervalStudyResult &needStudy(const JobResult &r);

/** Mean of a vector. */
double mean(const std::vector<double> &v);

/** Print the standard harness banner. */
void banner(const char *figure, const char *caption,
            const Options &opt);

/**
 * Accumulator behind BENCH_<name>.json ("mempod-bench-v1"): per-job
 * (or per-benchmark) wall times, summed event counts and merged host
 * profiles, rendered with median/p10/p90 wall statistics and host
 * info so the repo accumulates a comparable perf trajectory run over
 * run (tools/perf_tool.cc diffs two of these).
 */
class BenchReport
{
  public:
    BenchReport(std::string name, std::string out_dir);

    /** Fold a harness batch in: wall, events, perf (when enabled). */
    void addResults(const std::vector<JobResult> &results);

    /** One named timing entry (microbenchmark medians etc.). */
    void addEntry(const std::string &name, double wall_ms);

    /** Render + atomically write BENCH_<name>.json; returns the path. */
    std::string write();

    const PerfReport &mergedPerf() const { return mergedPerf_; }
    bool havePerf() const { return havePerf_; }

  private:
    std::string name_;
    std::string dir_;
    std::vector<double> jobWallSeconds_;
    std::vector<std::pair<std::string, double>> entries_;
    std::uint64_t events_ = 0;
    std::uint64_t simulatedPs_ = 0;
    PerfReport mergedPerf_;
    bool havePerf_ = false;
};

/**
 * Standard harness epilogue: write BENCH_<name>.json (always) and,
 * under --perf, print the merged one-page host-profile table to
 * stderr (stdout stays byte-identical to a perf-disabled run).
 */
void finishBench(const char *name, const Options &opt,
                 const std::vector<JobResult> &results);

} // namespace mempod::bench
