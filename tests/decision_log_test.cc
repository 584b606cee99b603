/**
 * @file
 * Unit tests for the migration decision ledger (recording, outcomes,
 * realized-benefit watch windows, ping-pong detection) and end-to-end
 * determinism of its JSONL export across PDES shard counts.
 */
#include <gtest/gtest.h>

#include "common/decision_log.h"
#include "sim/simulation.h"
#include "sim/stats_writer.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

constexpr TimePs kEpoch = 1000; // 1 ns epochs for unit tests

TEST(DecisionLog, RecordCapturesDecisionTimeState)
{
    DecisionLog log(kEpoch, 16.5);
    const std::uint64_t id = log.record(/*pod=*/2, /*page=*/70,
                                        /*victim=*/12,
                                        /*trackerCount=*/3,
                                        /*now=*/2500);
    ASSERT_EQ(log.size(), 1u);
    const DecisionLog::Record &r = log.records()[0];
    EXPECT_EQ(id, 0u);
    EXPECT_EQ(r.seq, 0u);
    EXPECT_EQ(r.timePs, 2500u);
    EXPECT_EQ(r.epoch, 2u); // 2500 / 1000
    EXPECT_EQ(r.pod, 2u);
    EXPECT_EQ(r.page, 70u);
    EXPECT_EQ(r.victim, 12u);
    EXPECT_EQ(r.trackerCount, 3u);
    EXPECT_DOUBLE_EQ(r.predictedBenefitNs, 3 * 16.5);
    EXPECT_EQ(r.outcome, DecisionLog::Outcome::kPending);
}

TEST(DecisionLog, CommitAndAbortResolveOutcomes)
{
    DecisionLog log(kEpoch, 1.0);
    const auto a = log.record(0, 1, 2, 1, 100);
    const auto b = log.record(0, 3, 4, 1, 100);
    log.commit(a, 700);
    log.abort(b, 800);
    EXPECT_EQ(log.committedCount(), 1u);
    EXPECT_EQ(log.abortedCount(), 1u);
    EXPECT_EQ(log.records()[a].outcome, DecisionLog::Outcome::kCompleted);
    EXPECT_EQ(log.records()[a].commitPs, 700u);
    EXPECT_EQ(log.records()[b].outcome, DecisionLog::Outcome::kAborted);
    EXPECT_STREQ(DecisionLog::outcomeName(log.records()[b].outcome),
                 "aborted");
}

TEST(DecisionLog, RealizedHitsCountNearTierTouchesInsideOneEpoch)
{
    DecisionLog log(kEpoch, 1.0);
    const auto id = log.record(1, 42, 7, 5, 0);
    log.commit(id, 500); // window: [500, 1500)
    log.noteAccess(1, 42, /*nearTier=*/true, 600);
    log.noteAccess(1, 42, /*nearTier=*/false, 700); // far touch: no credit
    log.noteAccess(1, 42, true, 1499);
    EXPECT_EQ(log.records()[id].realizedNearHits, 2u);
    // Different pod or page: no credit.
    log.noteAccess(0, 42, true, 800);
    log.noteAccess(1, 43, true, 800);
    EXPECT_EQ(log.records()[id].realizedNearHits, 2u);
}

TEST(DecisionLog, WatchWindowExpiresAfterOneEpoch)
{
    DecisionLog log(kEpoch, 1.0);
    const auto id = log.record(0, 9, 1, 2, 0);
    log.commit(id, 1000); // window closes at 2000
    log.noteAccess(0, 9, true, 2000); // lazy expiry, no credit
    log.noteAccess(0, 9, true, 1500); // window already erased
    EXPECT_EQ(log.records()[id].realizedNearHits, 0u);
}

TEST(DecisionLog, PingPongMarksTheEarlierDecision)
{
    DecisionLog log(kEpoch, 1.0);
    // Page 5 migrates in, then is evicted again 1.5 epochs later.
    const auto first = log.record(0, 5, 1, 4, 0);
    log.commit(first, 1000);
    const auto second = log.record(0, 8, /*victim=*/5, 4, 2400);
    log.commit(second, 2500); // 1500 ps after first: within 2 epochs
    EXPECT_TRUE(log.records()[first].pingPong);
    EXPECT_FALSE(log.records()[second].pingPong);
    EXPECT_EQ(log.pingPongCount(), 1u);
}

TEST(DecisionLog, SlowEvictionIsNotAPingPong)
{
    DecisionLog log(kEpoch, 1.0);
    const auto first = log.record(0, 5, 1, 4, 0);
    log.commit(first, 1000);
    const auto second = log.record(0, 8, /*victim=*/5, 4, 9000);
    log.commit(second, 9100); // 8100 ps later: > 2 epochs, fine
    EXPECT_FALSE(log.records()[first].pingPong);
    EXPECT_EQ(log.pingPongCount(), 0u);
}

SimConfig
tinyConfig(Mechanism m)
{
    SimConfig c = SimConfig::paper(m);
    c.geom = SystemGeometry::tiny();
    c.mempod.interval = 20_us;
    c.mempod.pod.meaEntries = 16;
    return c;
}

Trace
tinyTrace(std::uint64_t requests = 30000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.015;
    return WorkloadCatalog::global().build("xalanc", gc);
}

TEST(DecisionLog, LedgerJsonlIsByteIdenticalAcrossRuns)
{
    // The ledger derives from simulated state only, so two fresh
    // simulations of one config must export the same JSONL bytes.
    const Trace t = tinyTrace();
    std::string first, second;
    for (std::string *out : {&first, &second}) {
        Simulation sim(tinyConfig(Mechanism::kMemPod));
        const RunResult r = sim.run(t, "xalanc");
        ASSERT_NE(sim.decisionLog(), nullptr);
        EXPECT_GT(sim.decisionLog()->size(), 0u);
        // Final invariant: every committed decision is a migration.
        EXPECT_EQ(sim.decisionLog()->committedCount(),
                  r.migration.migrations);
        *out = StatsWriter::decisionsToJsonl(*sim.decisionLog(),
                                             "xalanc", r.mechanism);
    }
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("\"schema\":\"mempod-decisions-v1\""),
              std::string::npos);
}

TEST(DecisionLog, EveryMechanismFeedsTheSharedLedger)
{
    const Trace t = tinyTrace();
    for (Mechanism m : {Mechanism::kMemPod, Mechanism::kHma,
                        Mechanism::kThm, Mechanism::kCameo}) {
        Simulation sim(tinyConfig(m));
        const RunResult r = sim.run(t, "xalanc");
        ASSERT_NE(sim.decisionLog(), nullptr) << mechanismName(m);
        EXPECT_EQ(sim.decisionLog()->committedCount(),
                  r.migration.migrations)
            << mechanismName(m);
        if (r.migration.migrations > 0)
            EXPECT_GT(sim.decisionLog()->size(), 0u) << mechanismName(m);
    }
}

TEST(DecisionLog, DisabledByConfigLeavesNoLedger)
{
    SimConfig c = tinyConfig(Mechanism::kMemPod);
    c.decisionsEnabled = false;
    Simulation sim(c);
    sim.run(tinyTrace(10000), "xalanc");
    EXPECT_EQ(sim.decisionLog(), nullptr);
}

TEST(DecisionLog, BenefitPerTouchMatchesSpecGap)
{
    const SimConfig c = tinyConfig(Mechanism::kMemPod);
    const double gap_ps =
        static_cast<double>((c.far.timing.tRCD + c.far.timing.tCL +
                             c.far.timing.tBL) -
                            (c.near.timing.tRCD + c.near.timing.tCL +
                             c.near.timing.tBL));
    EXPECT_DOUBLE_EQ(Simulation::benefitPerTouchNs(c), gap_ps / 1000.0);
}

} // namespace
} // namespace mempod
