/** @file Unit tests for the swap lifecycle and its datapath. */
#include <gtest/gtest.h>

#include <vector>

#include "common/event_queue.h"
#include "core/migration_engine.h"

namespace mempod {
namespace {

struct EngineFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};
    MigrationStats charged;
    DecisionLog *ledger = nullptr;
    /** Keys of the demands the engine re-issued, in order. */
    std::vector<std::uint64_t> reissued;

    MigrationEngine
    engine(std::uint32_t slots = 1)
    {
        return MigrationEngine(
            eq, mem, charged, ledger,
            {.track = "test", .keyArg = "page", .maxInFlight = slots},
            [this](std::uint64_t key, Demand d) {
                reissued.push_back(key);
                d.done(eq.now());
            });
    }

    /** A swap of slow page `i` with fast page `i`, locking key `i`. */
    static MigrationEngine::Swap
    swapOf(std::uint64_t i, std::uint32_t lines)
    {
        MigrationEngine::Swap s;
        s.keys[0] = i;
        s.locA = 16_MiB + i * kPageBytes;
        s.locB = i * kPageBytes;
        s.lines = lines;
        return s;
    }
};

TEST_F(EngineFixture, PageSwapIssuesFullDatapathTraffic)
{
    MigrationEngine eng = engine();
    bool committed = false;
    MigrationEngine::Swap s = swapOf(0, kLinesPerPage);
    s.onCommit = [&] { committed = true; };
    eng.schedule(std::move(s));
    eq.runAll();
    EXPECT_TRUE(committed);
    // 32 reads + 32 writes per candidate, both candidates: the paper's
    // 2 KB migration datapath (Section 6.2).
    EXPECT_EQ(mem.stats().migrationLines(), 4 * kLinesPerPage);
    EXPECT_EQ(eng.stats().opsCommitted, 1u);
    EXPECT_EQ(eng.stats().bytesMoved, 2 * kPageBytes);
    EXPECT_EQ(charged.migrations, 1u);
    EXPECT_EQ(charged.bytesMoved, 2 * kPageBytes);
}

TEST_F(EngineFixture, LineSwapMovesTwoLines)
{
    MigrationEngine eng = engine();
    MigrationEngine::Swap s = swapOf(0, 1);
    s.locB = 64;
    eng.schedule(std::move(s));
    eq.runAll();
    EXPECT_EQ(mem.stats().migrationLines(), 4u); // 2 reads + 2 writes
    EXPECT_EQ(eng.stats().bytesMoved, 2 * kLineBytes);
    EXPECT_EQ(charged.bytesMoved, 2 * kLineBytes);
}

TEST_F(EngineFixture, OpsSerializeWithSingleSlot)
{
    MigrationEngine eng = engine();
    std::vector<int> commits;
    for (int i = 0; i < 3; ++i) {
        MigrationEngine::Swap s = swapOf(i, 4);
        s.onCommit = [&, i] { commits.push_back(i); };
        eng.schedule(std::move(s));
    }
    EXPECT_EQ(eng.activeOps(), 1u);
    EXPECT_EQ(eng.queuedOps(), 2u);
    EXPECT_EQ(eng.pendingWork(), 3u);
    eq.runAll();
    EXPECT_EQ(commits, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eng.pendingWork(), 0u);
}

TEST_F(EngineFixture, ParallelSlotsRunConcurrently)
{
    MigrationEngine eng = engine(4);
    for (int i = 0; i < 4; ++i)
        eng.schedule(swapOf(i, 2));
    EXPECT_EQ(eng.activeOps(), 4u);
    EXPECT_EQ(eng.queuedOps(), 0u);
    eq.runAll();
    EXPECT_EQ(eng.stats().opsCommitted, 4u);
}

TEST_F(EngineFixture, ClearQueuedAbortsWithoutCommitting)
{
    MigrationEngine eng = engine();
    DecisionLog decisions(1'000'000, 1.0);
    ledger = &decisions;
    int committed = 0;
    for (int i = 0; i < 3; ++i) {
        MigrationEngine::Swap s = swapOf(i, 2);
        s.onCommit = [&] { ++committed; };
        eng.schedule(std::move(s));
    }
    eng.clearQueued(); // two queued ops dropped; the active one runs
    EXPECT_TRUE(eng.isBusy(0));
    EXPECT_FALSE(eng.isBusy(1)); // aborted swaps free their keys
    EXPECT_FALSE(eng.isBusy(2));
    eq.runAll();
    EXPECT_EQ(committed, 1);
    EXPECT_EQ(eng.stats().opsDropped, 2u);
    EXPECT_EQ(charged.migrations, 1u);
    EXPECT_EQ(decisions.committedCount(), 1u);
    EXPECT_EQ(decisions.abortedCount(), 2u);
    EXPECT_FALSE(eng.isBusy(0));
}

TEST_F(EngineFixture, WritesFollowReads)
{
    // The commit happens only after both phases: total migration lines
    // at commit time must be all reads plus all writes.
    MigrationEngine eng = engine();
    std::uint64_t lines_at_commit = 0;
    MigrationEngine::Swap s = swapOf(0, 8);
    s.onCommit = [&] { lines_at_commit = mem.stats().migrationLines(); };
    eng.schedule(std::move(s));
    eq.runAll();
    EXPECT_EQ(lines_at_commit, 32u); // 16 reads + 16 writes dispatched
}

TEST_F(EngineFixture, FreedSlotStartsNextOp)
{
    MigrationEngine eng = engine();
    bool second_started_after_first = false;
    bool first_done = false;
    MigrationEngine::Swap a = swapOf(0, 2);
    a.onCommit = [&] { first_done = true; };
    MigrationEngine::Swap b = swapOf(1, 2);
    b.onCommit = [&] { second_started_after_first = first_done; };
    eng.schedule(std::move(a));
    eng.schedule(std::move(b));
    eq.runAll();
    EXPECT_TRUE(second_started_after_first);
}

TEST_F(EngineFixture, KeysLockOnlyOnceDataMoves)
{
    MigrationEngine eng = engine();
    MigrationEngine::Swap a = swapOf(0, 2);
    a.keys[1] = 7; // two-key page swap: candidate and victim
    eng.schedule(std::move(a));
    eng.schedule(swapOf(1, 2));
    // The first swap started: both its keys lock. The second is only
    // queued: busy (not a candidate again) but still serviceable.
    EXPECT_TRUE(eng.isLocked(0));
    EXPECT_TRUE(eng.isLocked(7));
    EXPECT_TRUE(eng.isBusy(1));
    EXPECT_FALSE(eng.isLocked(1));
    EXPECT_FALSE(eng.isBusy(2));
    eq.runAll();
    EXPECT_FALSE(eng.isBusy(0));
    EXPECT_FALSE(eng.isBusy(7));
    EXPECT_FALSE(eng.isBusy(1));
}

TEST_F(EngineFixture, ParkedDemandsDrainAfterCommitWithBlockedTime)
{
    MigrationEngine eng = engine();
    bool remapped_first = false;
    TimePs committed_at = 0;
    MigrationEngine::Swap s = swapOf(0, 2);
    s.keys[1] = 5;
    s.onCommit = [&] {
        remapped_first = reissued.empty();
        committed_at = eq.now();
    };
    eng.schedule(std::move(s));
    int done = 0;
    for (const std::uint64_t key : {5, 0, 5})
        eng.park(key, {.done = [&](TimePs) { ++done; }});
    EXPECT_EQ(eng.parkedDemands(), 3u);
    EXPECT_EQ(eng.pendingWork(), 4u); // 3 parked + 1 active swap
    EXPECT_EQ(charged.blockedRequests, 3u);
    eq.runAll();
    EXPECT_TRUE(remapped_first); // remap update precedes the drain
    EXPECT_EQ(done, 3);
    // Keys release in swap order: everything on key 0, then key 5.
    EXPECT_EQ(reissued, (std::vector<std::uint64_t>{0, 5, 5}));
    EXPECT_EQ(eng.parkedDemands(), 0u);
    EXPECT_EQ(charged.blockedPs, 3 * committed_at); // parked at 0
}

TEST_F(EngineFixture, LedgerRecordsEachSwapWithItsOutcome)
{
    MigrationEngine eng = engine();
    DecisionLog decisions(1'000'000, 1.0);
    ledger = &decisions;
    MigrationEngine::Swap s = swapOf(0, 2);
    s.candidate = 11;
    s.victim = 3;
    s.trackerCount = 9;
    eng.schedule(std::move(s));
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions.records()[0].page, 11u);
    EXPECT_EQ(decisions.records()[0].victim, 3u);
    EXPECT_EQ(decisions.records()[0].trackerCount, 9u);
    EXPECT_EQ(decisions.records()[0].outcome,
              DecisionLog::Outcome::kPending);
    eq.runAll();
    EXPECT_EQ(decisions.records()[0].outcome,
              DecisionLog::Outcome::kCompleted);
    eng.validateInvariants(); // panics on a conservation violation
}

} // namespace
} // namespace mempod
