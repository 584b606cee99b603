/**
 * @file
 * Invariant-checker tests: each conservation law is fed deliberately
 * corrupted state and must panic with its structured
 * `invariant violated [law]` diagnostic; clean runs of every
 * mechanism must pass the always-on checks (including --paranoid
 * depth) with the checker demonstrably having run.
 */
#include <gtest/gtest.h>

#include "sim/report.h"
#include "sim/simulation.h"
#include "sim/validate.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

TEST(Validate, PermutationAcceptsMutualInverses)
{
    const std::vector<std::uint32_t> location{2, 0, 1};
    const std::vector<std::uint32_t> resident{1, 2, 0};
    checkPermutation("test", location, resident); // must not panic
}

TEST(ValidateDeath, CorruptedRemapTablePanics)
{
    // Slot 1 duplicated: resident is no longer a permutation.
    const std::vector<std::uint32_t> location{0, 1, 2};
    const std::vector<std::uint32_t> resident{0, 1, 1};
    EXPECT_DEATH(checkPermutation("test", location, resident),
                 "invariant violated \\[remap_bijection\\]");
}

TEST(ValidateDeath, OneSidedRemapCorruptionPanics)
{
    // location[2] points at slot 0, but slot 0 holds id 0.
    const std::vector<std::uint32_t> location{0, 1, 0};
    const std::vector<std::uint32_t> resident{0, 1, 2};
    EXPECT_DEATH(checkPermutation("test", location, resident),
                 "invariant violated \\[remap_bijection\\]");
}

RunResult
consistentResult()
{
    RunResult r;
    r.attribution.mshrWaitNs = 1.25;
    r.attribution.metadataNs = 0.5;
    r.attribution.blockedNs = 2.0;
    r.attribution.queueWaitNs = 30.0;
    r.attribution.serviceNs = 20.25;
    r.ammatNs = r.attribution.totalNs();
    return r;
}

TEST(Validate, ExactAttributionSumPasses)
{
    checkAmmatAttribution(consistentResult()); // must not panic
}

TEST(ValidateDeath, CorruptedAttributionPanics)
{
    RunResult r = consistentResult();
    r.attribution.serviceNs += 0.001; // break the partition
    EXPECT_DEATH(checkAmmatAttribution(r),
                 "invariant violated \\[ammat_attribution_sum\\]");
}

MemorySystem::Stats
someTraffic()
{
    MemorySystem::Stats s;
    s.demandFast = 1000;
    s.demandSlow = 500;
    s.migrationFast = 256;
    s.migrationSlow = 256;
    s.bookkeepingFast = 32;
    s.bookkeepingSlow = 8;
    return s;
}

TEST(Validate, RecomputedEnergyBalances)
{
    const MemorySystem::Stats s = someTraffic();
    checkEnergyBalance(s, true, estimateEnergy(s, true));
}

TEST(ValidateDeath, CorruptedEnergyTermPanics)
{
    const MemorySystem::Stats s = someTraffic();
    EnergyEstimate e = estimateEnergy(s, true);
    e.migrationUj *= 1.01; // report drifts from its own counters
    EXPECT_DEATH(checkEnergyBalance(s, true, e),
                 "invariant violated \\[energy_balance\\]");
}

TEST(ValidateDeath, MigrationCountMismatchPanics)
{
    EXPECT_DEATH(checkMigrationConservation("MemPod", 7, 6),
                 "invariant violated \\[migration_conservation\\]");
}

SimConfig
tinyConfig(Mechanism m, bool paranoid)
{
    SimConfig c = SimConfig::paper(m);
    c.geom = SystemGeometry::tiny();
    c.mempod.interval = 20_us;
    c.mempod.pod.meaEntries = 16;
    c.validateParanoid = paranoid;
    return c;
}

Trace
tinyTrace(std::uint64_t requests = 30000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.015;
    return WorkloadCatalog::global().build("mix5", gc);
}

TEST(Validate, EveryMechanismPassesParanoidChecks)
{
    const Trace t = tinyTrace();
    for (Mechanism m :
         {Mechanism::kNoMigration, Mechanism::kMemPod, Mechanism::kHma,
          Mechanism::kThm, Mechanism::kCameo}) {
        Simulation sim(tinyConfig(m, /*paranoid=*/true));
        const RunResult r = sim.run(t, "mix5");
        EXPECT_EQ(r.completed, t.size()) << mechanismName(m);
        ASSERT_NE(sim.validator(), nullptr) << mechanismName(m);
        // The periodic probe fired at least once per simulated epoch,
        // plus the end-of-run audit.
        EXPECT_GT(sim.validator()->checksRun(), 1u) << mechanismName(m);
    }
}

TEST(Validate, DisabledByConfigLeavesNoChecker)
{
    SimConfig c = tinyConfig(Mechanism::kMemPod, false);
    c.validateEnabled = false;
    Simulation sim(c);
    sim.run(tinyTrace(10000), "mix5");
    EXPECT_EQ(sim.validator(), nullptr);
}

TEST(ValidateDeath, ManagerLevelCorruptionIsCaughtByParanoidScan)
{
    // End-to-end: corrupt a mechanism's migration counter after a run
    // and let the manager-level audit find the mismatch against its
    // engine's commit count.
    EXPECT_DEATH(
        {
            Simulation sim(tinyConfig(Mechanism::kMemPod, true));
            sim.run(tinyTrace(10000), "mix5");
            const MigrationStats &ms = sim.manager().migrationStats();
            checkMigrationConservation("MemPod", ms.migrations + 1,
                                       ms.migrations);
        },
        "invariant violated \\[migration_conservation\\]");
}

} // namespace
} // namespace mempod
