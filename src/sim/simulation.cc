#include "sim/simulation.h"

#include <algorithm>

#include "common/log.h"
#include "mem/manager_factory.h"

namespace mempod {

double
Simulation::benefitPerTouchNs(const SimConfig &config)
{
    const auto access_ps = [](const DramSpec &s) {
        return static_cast<double>(s.timing.tRCD + s.timing.tCL +
                                   s.timing.tBL);
    };
    return (access_ps(config.far) - access_ps(config.near)) / 1000.0;
}

Simulation::Simulation(const SimConfig &config) : config_(config)
{
    if (config_.perfEnabled)
        perf_ = std::make_unique<PerfMonitor>();
    PerfScope setup_scope(perf_.get(), "setup");

    config_.geom.validate();
    if (config_.dramModel == DramModel::kFunctional) {
        MEMPOD_PANIC("dram.model=functional is not a measurement "
                     "model; use it as sim.sampling.fastfwd_model");
    }
    if (config_.shards != 0) {
        MEMPOD_PANIC("SimConfig::shards=%u is not supported: the "
                     "serial event kernel is the only kernel; run "
                     "cells in parallel with --jobs instead",
                     static_cast<unsigned>(config_.shards));
    }
    if (config_.tracer.enabled) {
        tracer_ = std::make_unique<Tracer>(config_.tracer);
        eq_.setTracer(tracer_.get());
    }
    ModelPlan models;
    models.primary = config_.dramModel;
    models.warmEnabled = config_.sampling.enabled;
    models.warm = config_.sampling.fastfwdModel;
    mem_ = std::make_unique<MemorySystem>(eq_, config_.geom, config_.near,
                                          config_.far,
                                          config_.extraLatencyPs,
                                          config_.controller, models);
    placement_ = std::make_unique<LogicalToPhysical>(
        config_.geom.totalPages(), config_.numCores,
        config_.placementSeed);

    manager_ = ManagerFactory::build(config_, eq_, *mem_);

    frontend_ = std::make_unique<TraceFrontend>(
        eq_, *manager_, *placement_, config_.maxOutstanding);

    // Mechanisms whose bookkeeping pauses the cores (HMA's epoch sort)
    // override the hook; for everyone else this is a no-op.
    manager_->setCoreStallHook(
        [this](TimePs duration) { frontend_->suspendCores(duration); });

    // Decision epochs use the MemPod interval uniformly, so ledgers
    // from different mechanisms line up when compared.
    const TimePs epoch_ps = std::max<TimePs>(config_.mempod.interval, 1);
    if (config_.decisionsEnabled) {
        decisions_ = std::make_unique<DecisionLog>(
            epoch_ps, benefitPerTouchNs(config_));
        manager_->setDecisionLog(decisions_.get());
    }
    if (config_.validateEnabled) {
        validator_ = std::make_unique<InvariantChecker>(
            config_, *frontend_, *mem_, *manager_, decisions_.get(),
            epoch_ps);
    }
    if (config_.sampling.enabled) {
        fidelity_ = std::make_unique<FidelityController>(
            eq_, *mem_, *frontend_, config_.sampling,
            config_.dramModel);
    }

    registerAllMetrics();
}

void
Simulation::registerAllMetrics()
{
    registry_.addCounterFn("sim.events_executed",
                           "events executed by the queue",
                           [this] { return eq_.executed(); });
    mem_->registerMetrics(registry_);
    manager_->registerMetrics(registry_);
    frontend_->registerMetrics(registry_, config_.numCores);
    if (config_.statsIntervalPs > 0) {
        sampler_ = std::make_unique<IntervalSampler>(
            eq_, registry_, config_.statsIntervalPs);
    }
}

Simulation::~Simulation() = default;

RunResult
Simulation::run(const Trace &trace, const std::string &workload_name)
{
    VectorTraceSource source(trace);
    return run(source, workload_name);
}

RunResult
Simulation::run(TraceSource &source, const std::string &workload_name)
{
    PerfScope run_scope(perf_.get(), "run");
    const std::uint64_t trace_records = source.size();
    frontend_->setSource(source);
    manager_->start();
    frontend_->start();
    if (sampler_)
        sampler_->start();
    if (fidelity_)
        fidelity_->begin();

    auto drained = [&] {
        return frontend_->done() && mem_->inFlight() == 0 &&
               manager_->pendingWork() == 0;
    };
    // Heartbeat progress lines (stderr; stdout stays byte-identical):
    // a cheap countdown amortizes the wall-clock reads, then the
    // monitor rate-limits actual printing to one line per 5 s.
    constexpr std::uint64_t kHeartbeatStride = 4096;
    std::uint64_t hb_countdown = kHeartbeatStride;
    const auto heartbeat = [&] {
        if (!perf_) // disabled: one branch per progress check
            return;
        if (--hb_countdown != 0)
            return;
        hb_countdown = kHeartbeatStride;
        if (!perf_->heartbeatDue(5'000'000'000ull))
            return;
        const double wall =
            static_cast<double>(perfNowNs() - perf_->startNs()) / 1e9;
        const std::uint64_t events = eq_.executed();
        const std::uint64_t done_n = frontend_->completed();
        const double frac =
            trace_records ? static_cast<double>(done_n) /
                                static_cast<double>(trace_records)
                          : 0.0;
        const double sim_ms = static_cast<double>(eq_.now()) / 1e9;
        std::fprintf(
            stderr,
            "[perf]%s%s sim %.3f ms | %llu/%llu demands | %.2f M ev/s | "
            "%.2f ms sim/s | ETA %.0f s\n",
            workload_name.empty() ? "" : " ",
            workload_name.c_str(), sim_ms,
            static_cast<unsigned long long>(done_n),
            static_cast<unsigned long long>(trace_records),
            wall > 0 ? static_cast<double>(events) / wall / 1e6 : 0.0,
            wall > 0 ? sim_ms / wall : 0.0,
            frac > 0.0 ? wall * (1.0 - frac) / frac : 0.0);
        std::fflush(stderr);
    };
    // Watchdog: recurring timers keep the queue non-empty forever, so
    // a stuck drain would otherwise spin silently. One simulated
    // second without any forward progress is a bug.
    std::uint64_t last_progress = 0;
    TimePs progress_at = 0;
    const auto check_progress = [&] {
        // Timer self-rescheduling executes events without advancing
        // the workload; only demand completions count as progress.
        const std::uint64_t progress = frontend_->completed();
        if (progress != last_progress || progress_at == 0) {
            last_progress = progress;
            progress_at = eq_.now();
        } else if (eq_.now() > progress_at + 1'000'000'000'000ull) {
            MEMPOD_PANIC("simulation livelock: no progress for 1 s of "
                         "simulated time (pending=%llu)",
                         static_cast<unsigned long long>(
                             manager_->pendingWork()));
        }
        // Read-only conservation checks, self-rate-limited to one pass
        // per epoch of *simulated* time; a read-and-panic probe cannot
        // perturb any output.
        if (validator_)
            validator_->periodicCheck(eq_.now());
        heartbeat();
    };
    const auto panic_deadlock = [&] {
        MEMPOD_PANIC(
            "simulation deadlock: frontend done=%d inflight=%llu "
            "managerPending=%llu",
            frontend_->done() ? 1 : 0,
            static_cast<unsigned long long>(mem_->inFlight()),
            static_cast<unsigned long long>(manager_->pendingWork()));
    };
    while (!drained()) {
        if (!eq_.runOne())
            panic_deadlock();
        check_progress();
    }

    if (sampler_)
        sampler_->finalize(eq_.now());
    finalSnapshot_ = registry_.snapshot(eq_.now());
    // "run" ends when the queue drains; derivation below is "report".
    run_scope.close();
    PerfScope report_scope(perf_.get(), "report");

    // The RunResult is *derived from the snapshot* so the registry
    // export and the printed tables can never disagree. Every gauge
    // below reads the exact function the old direct path called, so
    // the derivation is bit-identical.
    const MetricSnapshot &s = finalSnapshot_;
    RunResult r;
    r.workload = workload_name;
    r.mechanism = manager_->name();
    r.ammatNs = s.real("frontend.ammat_ps") / 1000.0;
    r.demandRequests = trace_records;
    r.completed = s.u64("frontend.completed");
    const std::uint64_t demand_fast = s.u64("mem.demand_fast");
    const std::uint64_t demand_total =
        demand_fast + s.u64("mem.demand_slow");
    r.fastServiceFraction =
        demand_total
            ? static_cast<double>(demand_fast) / demand_total
            : 0.0;
    r.rowHitRate = s.real("mem.row_hit_rate");
    r.rowHitRateFast = s.real("mem.fast.row_hit_rate");
    r.simulatedPs = s.simTimePs;
    r.eventsExecuted = s.u64("sim.events_executed");
    r.migration.migrations = s.u64("migration.migrations");
    r.migration.bytesMoved = s.u64("migration.bytes_moved");
    r.migration.blockedRequests = s.u64("migration.blocked_requests");
    r.migration.intervals = s.u64("migration.intervals");
    r.migration.candidatesSkipped = s.u64("migration.candidates_skipped");
    r.migration.wastedMigrations = s.u64("migration.wasted");
    r.migration.metaCacheHits = s.u64("migration.meta_cache_hits");
    r.migration.metaCacheMisses = s.u64("migration.meta_cache_misses");
    r.migration.blockedPs = s.u64("migration.blocked_ps");
    r.migration.metadataPs = s.u64("migration.metadata_ps");
    r.memStats.demandFast = demand_fast;
    r.memStats.demandSlow = s.u64("mem.demand_slow");
    r.memStats.migrationFast = s.u64("mem.migration_fast");
    r.memStats.migrationSlow = s.u64("mem.migration_slow");
    r.memStats.bookkeepingFast = s.u64("mem.bookkeeping_fast");
    r.memStats.bookkeepingSlow = s.u64("mem.bookkeeping_slow");
    r.podLocalMigrations = config_.mechanism == Mechanism::kMemPod;

    // AMMAT attribution: the per-stage picosecond sums partition every
    // completed demand's arrival-to-finish interval, so dividing by the
    // AMMAT denominator (the trace length) makes them sum to ammatNs.
    if (trace_records != 0) {
        const double denom =
            static_cast<double>(trace_records) * 1000.0; // ps -> ns
        r.attribution.mshrWaitNs =
            static_cast<double>(s.u64("frontend.mshr_wait_ps")) / denom;
        r.attribution.metadataNs =
            static_cast<double>(s.u64("migration.metadata_ps")) / denom;
        r.attribution.blockedNs =
            static_cast<double>(s.u64("migration.blocked_ps")) / denom;
        r.attribution.queueWaitNs =
            static_cast<double>(s.u64("mem.demand_queue_wait_ps")) /
            denom;
        r.attribution.serviceNs =
            static_cast<double>(s.u64("mem.demand_service_ps")) / denom;
    }
    r.latency.p50Ns = s.real("frontend.latency_p50_ns");
    r.latency.p95Ns = s.real("frontend.latency_p95_ns");
    r.latency.p99Ns = s.real("frontend.latency_p99_ns");

    if (fidelity_) {
        fidelity_->finish();
        const WindowStats &w = fidelity_->windowStats();
        r.sampled = true;
        r.sampledAmmatNs = w.mean() / 1000.0;
        r.sampledCiNs = w.ciHalfWidth() / 1000.0;
        r.sampleWindows = w.count();
    }

    // Per-core metrics are registered for [0, numCores); a trace with
    // out-of-range core ids still gets its AMMAT from the frontend.
    const std::size_t cores_seen = frontend_->coresSeen();
    for (std::size_t c = 0; c < cores_seen; ++c) {
        const std::string cp = "core" + std::to_string(c);
        if (s.has(cp + ".ammat_ps")) {
            r.perCoreAmmatNs.push_back(s.real(cp + ".ammat_ps") /
                                       1000.0);
        } else {
            r.perCoreAmmatNs.push_back(frontend_->perCoreAmmatPs()[c] /
                                       1000.0);
        }
        LatencyPercentiles lp;
        if (s.has(cp + ".latency_p50_ns")) {
            lp.p50Ns = s.real(cp + ".latency_p50_ns");
            lp.p95Ns = s.real(cp + ".latency_p95_ns");
            lp.p99Ns = s.real(cp + ".latency_p99_ns");
        } else if (const Log2Histogram *h =
                       frontend_->coreLatencyHistogramNs(c)) {
            lp.p50Ns = static_cast<double>(h->percentile(0.50));
            lp.p95Ns = static_cast<double>(h->percentile(0.95));
            lp.p99Ns = static_cast<double>(h->percentile(0.99));
        }
        r.perCoreLatency.push_back(lp);
    }

    // End-of-run audit over the fully assembled result (includes the
    // paranoid-depth mechanism scan; the run is over, so it is free).
    if (validator_)
        validator_->finalCheck(r);

    report_scope.close();
    collectPerf(r);
    return r;
}

void
Simulation::collectPerf(const RunResult &r)
{
    if (!perf_)
        return;
    PerfMonitor &pm = *perf_;

    // Timing-wheel mechanics. All deterministic sim-side counts.
    const EventQueue::HostStats &h = eq_.hostStats();
    for (unsigned l = 0; l < EventQueue::kWheels; ++l)
        pm.counterAdd("eq.placed_level" + std::to_string(l),
                      h.placedAtLevel[l]);
    pm.counterAdd("eq.front_spills", h.frontSpills);
    pm.counterAdd("eq.drain_inserts", h.drainInserts);
    pm.counterAdd("eq.list_allocs", h.listAllocs);
    pm.counterAdd("eq.list_reuses", h.listReuses);
    pm.counterMax("eq.peak_pending", h.peakPending);
    pm.counterAdd("eq.cascades", eq_.cascades());
    pm.counterAdd("eq.ladder_deferred", eq_.ladderDeferred());
    // FR-FCFS arbiter density across every channel controller.
    std::uint64_t ticks = 0, arb = 0, issued = 0, work_banks = 0;
    for (std::size_t ch = 0; ch < mem_->numChannels(); ++ch) {
        const Channel::HostStats &h = mem_->channel(ch).hostStats();
        ticks += h.ticks;
        arb += h.arbPasses;
        issued += h.issued;
        work_banks += h.workBanks;
    }
    pm.counterAdd("channel.ticks", ticks);
    pm.counterAdd("channel.arb_passes", arb);
    pm.counterAdd("channel.issued", issued);
    pm.gaugeSet("channel.work_bank_density",
                arb ? static_cast<double>(work_banks) /
                          static_cast<double>(arb)
                    : 0.0);

    perfReport_ = pm.report(r.simulatedPs, r.eventsExecuted);
    havePerfReport_ = true;
}

RunResult
runSimulation(const SimConfig &config, const Trace &trace,
              const std::string &workload_name)
{
    Simulation sim(config);
    return sim.run(trace, workload_name);
}

RunResult
runSimulation(const SimConfig &config, TraceSource &source,
              const std::string &workload_name)
{
    Simulation sim(config);
    return sim.run(source, workload_name);
}

} // namespace mempod
