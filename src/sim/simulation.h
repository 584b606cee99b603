/**
 * @file
 * The top-level simulation driver: builds the memory system, the
 * configured migration manager and the trace frontend over one event
 * queue, runs a trace to completion (including draining in-flight
 * migrations), and returns the measured statistics.
 */
#pragma once

#include <memory>
#include <string>

#include "common/decision_log.h"
#include "common/event_queue.h"
#include "common/metrics.h"
#include "common/perf.h"
#include "common/tracer.h"
#include "mem/frontend.h"
#include "mem/manager.h"
#include "mem/memory_system.h"
#include "sim/config.h"
#include "sim/fidelity.h"
#include "sim/report.h"
#include "sim/validate.h"
#include "trace/record.h"
#include "trace/source.h"

namespace mempod {

/** One configured system instance; run one trace through it. */
class Simulation
{
  public:
    explicit Simulation(const SimConfig &config);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /**
     * Replay a record stream to completion and collect statistics.
     * Streaming sources (disk-backed replays) run in O(1) memory; the
     * frontend keeps only a one-record lookahead.
     */
    RunResult run(TraceSource &source,
                  const std::string &workload_name = "");

    /** Convenience: replay an in-memory trace. */
    RunResult run(const Trace &trace,
                  const std::string &workload_name = "");

    EventQueue &eq() { return eq_; }
    MemorySystem &mem() { return *mem_; }
    MemoryManager &manager() { return *manager_; }
    TraceFrontend &frontend() { return *frontend_; }
    const SimConfig &config() const { return config_; }

    /** Every instrument registered by this simulation's components. */
    const MetricRegistry &registry() const { return registry_; }

    /** Snapshot taken after the last run() drained; empty before. */
    const MetricSnapshot &finalSnapshot() const { return finalSnapshot_; }

    /** Interval sampler, or nullptr when statsIntervalPs == 0. */
    const IntervalSampler *sampler() const { return sampler_.get(); }

    /** Event tracer, or nullptr when config.tracer.enabled is false. */
    const Tracer *tracer() const { return tracer_.get(); }

    /** Host profiler, or nullptr when config.perfEnabled is false. */
    PerfMonitor *perf() { return perf_.get(); }

    /**
     * Migration decision ledger, or nullptr when
     * config.decisionsEnabled is false. Its contents are
     * byte-identical at any --jobs setting.
     */
    const DecisionLog *decisionLog() const { return decisions_.get(); }

    /** Invariant checker, or nullptr when validation is disabled. */
    const InvariantChecker *validator() const { return validator_.get(); }

    /** Sampling controller, or nullptr when sampling is disabled. */
    const FidelityController *fidelity() const { return fidelity_.get(); }

    /**
     * The per-touch fast-vs-slow latency gap (ns) used to price
     * predicted migration benefit: the difference in tRCD+tCL+tBL
     * between the far and near device specs. Exposed for tests.
     */
    static double benefitPerTouchNs(const SimConfig &config);

    /**
     * Host profile of the last run(), or nullptr before the first run
     * or when profiling is disabled. Wall times/RSS here are host
     * facts — everything simulation-visible stays byte-identical
     * whether or not this exists.
     */
    const PerfReport *
    perfReport() const
    {
        return havePerfReport_ ? &perfReport_ : nullptr;
    }

  private:
    void registerAllMetrics();
    /** Fold every layer's host counters into perfReport_ after run(). */
    void collectPerf(const RunResult &r);

    SimConfig config_;
    EventQueue eq_;
    std::unique_ptr<PerfMonitor> perf_;
    std::unique_ptr<Tracer> tracer_;
    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<LogicalToPhysical> placement_;
    std::unique_ptr<MemoryManager> manager_;
    std::unique_ptr<TraceFrontend> frontend_;
    std::unique_ptr<DecisionLog> decisions_;
    std::unique_ptr<InvariantChecker> validator_;
    std::unique_ptr<FidelityController> fidelity_;
    MetricRegistry registry_;
    std::unique_ptr<IntervalSampler> sampler_;
    MetricSnapshot finalSnapshot_;
    PerfReport perfReport_;
    bool havePerfReport_ = false;
};

/** Convenience: build + run in one call. */
RunResult runSimulation(const SimConfig &config, const Trace &trace,
                        const std::string &workload_name = "");
RunResult runSimulation(const SimConfig &config, TraceSource &source,
                        const std::string &workload_name = "");

} // namespace mempod
