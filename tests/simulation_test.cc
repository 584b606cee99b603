/** @file Unit tests for the end-to-end simulation driver. */
#include <gtest/gtest.h>

#include "sim/simulation.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

SimConfig
tinyConfig(Mechanism m)
{
    SimConfig c = SimConfig::paper(m);
    c.geom = SystemGeometry::tiny();
    c.mempod.interval = 20_us;
    c.mempod.pod.meaEntries = 16;
    c.hma.interval = 200_us;
    c.hma.sortStall = 14_us;
    c.hma.threshold = 4;
    return c;
}

Trace
tinyTrace(const std::string &workload, std::uint64_t requests = 40000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.015; // fit the tiny geometry's core slices
    return WorkloadCatalog::global().build(workload, gc);
}

TEST(Simulation, EveryMechanismRunsToCompletion)
{
    const Trace t = tinyTrace("mix5");
    for (Mechanism m :
         {Mechanism::kNoMigration, Mechanism::kMemPod, Mechanism::kHma,
          Mechanism::kThm, Mechanism::kCameo}) {
        const RunResult r = runSimulation(tinyConfig(m), t, "mix5");
        EXPECT_EQ(r.completed, t.size()) << mechanismName(m);
        EXPECT_GT(r.ammatNs, 0.0) << mechanismName(m);
        EXPECT_GT(r.simulatedPs, 0u) << mechanismName(m);
    }
}

TEST(SimulationDeathTest, NonzeroShardsPanics)
{
    // The serial kernel is the only kernel; a nonzero shard count must
    // fail loudly instead of silently running serial.
    SimConfig c = tinyConfig(Mechanism::kMemPod);
    c.shards = 2;
    EXPECT_DEATH(Simulation sim(c), "shards=2 is not supported");
}

TEST(Simulation, DeterministicAcrossRuns)
{
    const Trace t = tinyTrace("xalanc", 20000);
    const RunResult a = runSimulation(tinyConfig(Mechanism::kMemPod), t);
    const RunResult b = runSimulation(tinyConfig(Mechanism::kMemPod), t);
    EXPECT_DOUBLE_EQ(a.ammatNs, b.ammatNs);
    EXPECT_EQ(a.migration.migrations, b.migration.migrations);
    EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
}

TEST(Simulation, NoMigrationFastFractionMatchesCapacityShare)
{
    const Trace t = tinyTrace("mix1");
    const RunResult r =
        runSimulation(tinyConfig(Mechanism::kNoMigration), t);
    // 16 MB of 144 MB total = 1/9 of pages.
    EXPECT_NEAR(r.fastServiceFraction, 1.0 / 9.0, 0.05);
}

TEST(Simulation, MemPodRaisesFastServiceFraction)
{
    const Trace t = tinyTrace("xalanc");
    const RunResult base =
        runSimulation(tinyConfig(Mechanism::kNoMigration), t);
    const RunResult pod =
        runSimulation(tinyConfig(Mechanism::kMemPod), t);
    EXPECT_GT(pod.fastServiceFraction, base.fastServiceFraction * 2);
    EXPECT_GT(pod.migration.migrations, 0u);
}

TEST(Simulation, MemPodBeatsNoMigrationOnSkewedWorkload)
{
    const Trace t = tinyTrace("xalanc");
    const RunResult base =
        runSimulation(tinyConfig(Mechanism::kNoMigration), t);
    const RunResult pod =
        runSimulation(tinyConfig(Mechanism::kMemPod), t);
    EXPECT_LT(pod.ammatNs, base.ammatNs);
}

TEST(Simulation, FastOnlyBeatsSlowOnly)
{
    SimConfig fast_cfg = SimConfig::fastOnly();
    fast_cfg.geom = SystemGeometry::singleTier(144_MiB, 8);
    SimConfig slow_cfg = SimConfig::slowOnly();
    slow_cfg.geom = SystemGeometry::singleTier(144_MiB, 4);
    const Trace t = tinyTrace("mix10", 20000);
    const RunResult fast = runSimulation(fast_cfg, t);
    const RunResult slow = runSimulation(slow_cfg, t);
    EXPECT_LT(fast.ammatNs, slow.ammatNs);
    EXPECT_DOUBLE_EQ(fast.fastServiceFraction, 1.0);
}

TEST(Simulation, HmaSortStallExtendsRuntimeNotAmmat)
{
    // The sorting interrupt pauses the cores: execution takes longer
    // (simulated completion time grows by ~one stall per epoch) but
    // the pause is not memory stall, so AMMAT barely moves.
    SimConfig with_stall = tinyConfig(Mechanism::kHma);
    SimConfig no_stall = with_stall;
    no_stall.hma.sortStall = 0;
    const Trace t = tinyTrace("mix1");
    const RunResult stalled = runSimulation(with_stall, t);
    const RunResult free_sort = runSimulation(no_stall, t);
    EXPECT_GT(stalled.simulatedPs,
              free_sort.simulatedPs + 10_us); // 14 us per 200 us epoch
    EXPECT_LT(stalled.ammatNs, free_sort.ammatNs * 1.5);
}

TEST(Simulation, CameoMovesDataInSmallQuanta)
{
    const Trace t = tinyTrace("mix5", 20000);
    const RunResult cameo =
        runSimulation(tinyConfig(Mechanism::kCameo), t);
    EXPECT_GT(cameo.migration.migrations, 0u);
    EXPECT_EQ(cameo.migration.bytesMoved,
              cameo.migration.migrations * 2 * kLineBytes);
}

TEST(Simulation, MigrationTrafficAccountedSeparately)
{
    SimConfig cfg = tinyConfig(Mechanism::kMemPod);
    const Trace t = tinyTrace("xalanc", 20000);
    Simulation sim(cfg);
    const RunResult r = sim.run(t);
    EXPECT_EQ(r.demandRequests, 20000u);
    // Migration lines hit the channels but never enter the demand
    // counters that define AMMAT's denominator.
    EXPECT_EQ(sim.mem().stats().demandFast +
                  sim.mem().stats().demandSlow,
              20000u);
    EXPECT_GT(sim.mem().stats().migrationLines(), 0u);
}

TEST(Simulation, ScaleHmaEpochKeepsRatios)
{
    SimConfig cfg = SimConfig::paper(Mechanism::kHma);
    cfg.scaleHmaEpoch(100.0); // 100x the MemPod interval
    EXPECT_EQ(cfg.hma.interval, cfg.mempod.interval * 100);
    EXPECT_NEAR(static_cast<double>(cfg.hma.sortStall) /
                    cfg.hma.interval,
                0.07, 0.001);
}

TEST(Simulation, RunResultCarriesEnergyInputs)
{
    const Trace t = tinyTrace("xalanc", 20000);
    const RunResult r =
        runSimulation(tinyConfig(Mechanism::kMemPod), t);
    EXPECT_TRUE(r.podLocalMigrations);
    EXPECT_GT(r.memStats.demandFast + r.memStats.demandSlow, 0u);
    EXPECT_GT(r.memStats.migrationLines(), 0u);
    const RunResult base =
        runSimulation(tinyConfig(Mechanism::kNoMigration), t);
    EXPECT_FALSE(base.podLocalMigrations);
    EXPECT_EQ(base.memStats.migrationLines(), 0u);
}

TEST(Simulation, PerCoreAmmatReported)
{
    const Trace t = tinyTrace("mix1", 20000);
    const RunResult r =
        runSimulation(tinyConfig(Mechanism::kNoMigration), t);
    ASSERT_EQ(r.perCoreAmmatNs.size(), 8u);
    for (double a : r.perCoreAmmatNs)
        EXPECT_GT(a, 0.0);
}

TEST(Simulation, ClosedPagePolicyLowersRowHits)
{
    const Trace t = tinyTrace("xalanc", 30000);
    SimConfig open_cfg = tinyConfig(Mechanism::kNoMigration);
    SimConfig closed_cfg = open_cfg;
    closed_cfg.controller.closedPage = true;
    const RunResult open_run = runSimulation(open_cfg, t);
    const RunResult closed_run = runSimulation(closed_cfg, t);
    EXPECT_LT(closed_run.rowHitRate, open_run.rowHitRate);
    EXPECT_EQ(closed_run.completed, t.size());
}

TEST(Simulation, FcfsSchedulerStillCompletes)
{
    const Trace t = tinyTrace("mix1", 20000);
    SimConfig cfg = tinyConfig(Mechanism::kMemPod);
    cfg.controller.fcfs = true;
    const RunResult r = runSimulation(cfg, t);
    EXPECT_EQ(r.completed, t.size());
}

TEST(Simulation, DescribeMentionsMechanismAndParts)
{
    const std::string d =
        SimConfig::paper(Mechanism::kMemPod).describe();
    EXPECT_NE(d.find("MemPod"), std::string::npos);
    EXPECT_NE(d.find("HBM"), std::string::npos);
    EXPECT_NE(d.find("DDR4"), std::string::npos);
}

} // namespace
} // namespace mempod
