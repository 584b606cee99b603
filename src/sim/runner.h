/**
 * @file
 * Parallel batch execution of independent simulation and interval-
 * study jobs. Every figure/table harness is a cross product of
 * workloads and configurations whose runs share nothing but the input
 * traces, so the BatchRunner executes them on a fixed-size worker
 * pool: each job builds its own Simulation (own EventQueue, own RNG
 * state) and the generated traces are shared read-only through a
 * mutex-guarded, generate-once TraceCache. Results come back in
 * submission order regardless of completion order, and a job that
 * throws is captured as a per-job failure instead of killing the
 * batch — so a 27-workload x 6-configuration sweep reports the one
 * broken cell and still fills in the other 161.
 *
 * Determinism guarantee: the simulator is bit-reproducible given
 * (config, trace), and trace generation is bit-reproducible given
 * (workload, GeneratorConfig), no matter which worker thread runs
 * either. Hence the results of a batch are identical at any worker
 * count, including 1.
 */
#pragma once

#include <cstdint>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/interval_study.h"
#include "common/perf.h"
#include "sim/artifacts.h"
#include "sim/config.h"
#include "sim/report.h"
#include "trace/catalog.h"
#include "trace/generator.h"
#include "trace/record.h"

namespace mempod {

/**
 * Keyed store cache: at most one TraceStore per catalog entry +
 * generator/scaling params (workload, requests, seed, footprintScale,
 * rateScale), safe to hit from many threads. The first requester of a
 * key builds the store while the lock is released; concurrent
 * requesters of the same key block on its future instead of
 * duplicating the work, and requesters of other keys build in
 * parallel. For synthetic workloads the store holds the
 * generated-once trace; for manifest-declared external traces it
 * holds the validated recipe and each job opens a cheap streaming
 * cursor — the trace bytes are never duplicated per job.
 */
class TraceCache
{
  public:
    /** Resolves names through this catalog; default is the global. */
    explicit TraceCache(const WorkloadCatalog *catalog = nullptr)
        : catalog_(catalog)
    {
    }

    /**
     * Fetch (or build) the shared store for `workload` under `gen`.
     * Throws std::invalid_argument for an unknown workload name.
     */
    std::shared_ptr<const TraceStore> get(const std::string &workload,
                                          const GeneratorConfig &gen);

    /** Number of distinct stores built so far. */
    std::size_t size() const;

  private:
    using Key = std::tuple<std::string, std::uint64_t, std::uint64_t,
                           double, double>;

    const WorkloadCatalog *catalog_;
    mutable std::mutex mu_;
    std::map<Key, std::shared_future<std::shared_ptr<const TraceStore>>>
        entries_;
};

/** What a BatchJob asks the worker to run over its trace. */
enum class JobKind
{
    kTiming,        //!< full timing simulation -> RunResult
    kIntervalStudy, //!< Section 3 offline study -> IntervalStudyResult
};

/** One unit of work: a configuration plus a trace (or its recipe). */
struct BatchJob
{
    JobKind kind = JobKind::kTiming;

    SimConfig config;          //!< used by kTiming jobs
    IntervalStudyConfig study; //!< used by kIntervalStudy jobs

    /** Workload name; keys trace generation and labels the result. */
    std::string workload;

    /** Trace recipe (requests, seed, scales) for the cache. */
    GeneratorConfig gen;

    /** Explicit pre-built trace; bypasses the cache when set. */
    std::shared_ptr<const Trace> trace;

    /** Display label for progress/error reports (e.g. "MemPod"). */
    std::string label;
};

/** Outcome of one job; exactly one payload is meaningful. */
struct JobResult
{
    bool ok = false;
    std::string error; //!< exception message when !ok

    std::string workload; //!< copied from the job, for reporting
    std::string label;

    RunResult result;          //!< kTiming payload
    IntervalStudyResult study; //!< kIntervalStudy payload

    double wallSeconds = 0.0;

    /** Host profile of the run; set when the job's config enabled it. */
    bool hasPerf = false;
    PerfReport perf;
};

/** Worker-pool knobs. */
struct RunnerOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /** Print a line per completed job (from the main thread only). */
    bool progress = false;

    /** Progress destination; nullptr = stderr. */
    std::FILE *progressStream = nullptr;

    /** Share a cache across runners; nullptr = runner-private cache. */
    TraceCache *cache = nullptr;

    /**
     * Run-directory sink for every per-job artifact. When its root is
     * non-empty, each timing job writes the enabled kinds under fixed
     * subdirectories:
     *
     *   stats/      "job<NNN>[_<label>]_<workload>.json" (plus
     *               ".jsonl" when the job's config armed the interval
     *               sampler); NNN is the submission index, so the file
     *               set and its bytes are identical at any worker
     *               count.
     *   traces/     "<same stem>.trace.json" (Chrome trace-event
     *               JSON) when the job's config armed the tracer;
     *               deterministic sampling keeps the bytes identical
     *               at any worker count.
     *   decisions/  "<same stem>.decisions.jsonl"
     *               ("mempod-decisions-v1") when the job's config
     *               enabled the ledger; deterministic and safe to
     *               `diff -r` across --jobs settings.
     *   perf/       "<same stem>.perf.json" when the job's config
     *               enabled the host profiler. Deliberately a sibling
     *               of stats/: perf sidecars carry wall times and are
     *               *not* byte-deterministic, so determinism checks
     *               diff the other subdirectories and skip this one.
     */
    ArtifactSink artifacts;
};

/**
 * Fixed-size worker pool over a list of independent jobs.
 *
 *   BatchRunner runner({.jobs = 4});
 *   for (...) runner.add({...});
 *   std::vector<JobResult> results = runner.runAll();
 *
 * runAll() blocks until every job finished and returns results in
 * submission order. It may be called repeatedly; each call runs the
 * jobs added since the previous one.
 */
class BatchRunner
{
  public:
    explicit BatchRunner(RunnerOptions opt = {});

    /** Enqueue a job; returns its index into runAll()'s result. */
    std::size_t add(BatchJob job);

    /** Jobs queued for the next runAll(). */
    std::size_t pending() const { return jobs_.size(); }

    /** Worker-thread count runAll() will use. */
    unsigned workerCount() const;

    /** The cache jobs resolve their traces through. */
    TraceCache &traceCache();

    /** Run everything; blocking. Results are in submission order. */
    std::vector<JobResult> runAll();

  private:
    JobResult execute(const BatchJob &job, std::size_t index);

    RunnerOptions opt_;
    TraceCache own_cache_;
    std::vector<BatchJob> jobs_;
    std::size_t statsIndexBase_ = 0; //!< jobs run by prior runAll()s
};

/**
 * Canonical textual form of a RunResult with bit-exact floating-point
 * fields (hex-float rendering) — the determinism tests compare these
 * across worker counts, and it is handy for debugging goldens.
 */
std::string serializeRunResult(const RunResult &r);

} // namespace mempod
