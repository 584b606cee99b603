/** @file Unit tests for the discrete-event queue. */
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/event_queue.h"

namespace mempod {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(300, [&] { order.push_back(3); });
    eq.schedule(100, [&] { order.push_back(1); });
    eq.schedule(200, [&] { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 300u);
}

TEST(EventQueue, FifoTieBreakAtEqualTimes)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(50, [&, i] { order.push_back(i); });
    eq.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesOnlyOnExecution)
{
    EventQueue eq;
    eq.schedule(500, [] {});
    EXPECT_EQ(eq.now(), 0u);
    eq.runOne();
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    TimePs seen = 0;
    eq.schedule(100, [&] {
        eq.scheduleAfter(50, [&] { seen = eq.now(); });
    });
    eq.runAll();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsScheduledDuringExecutionRun)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            eq.scheduleAfter(10, recurse);
    };
    eq.schedule(0, recurse);
    eq.runAll();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, NextTimeReportsEarliest)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextTime(), kTimeNever);
    eq.schedule(70, [] {});
    eq.schedule(30, [] {});
    EXPECT_EQ(eq.nextTime(), 30u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue eq;
    std::vector<TimePs> ran;
    for (TimePs t : {10u, 20u, 30u, 40u})
        eq.schedule(t, [&, t] { ran.push_back(t); });
    eq.runUntil(30);
    EXPECT_EQ(ran, (std::vector<TimePs>{10, 20, 30}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, RunUntilAdvancesNowWhenIdle)
{
    EventQueue eq;
    eq.runUntil(12345);
    EXPECT_EQ(eq.now(), 12345u);
}

TEST(EventQueue, RunAllHonorsLimit)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        eq.schedule(i, [&] { ++count; });
    EXPECT_EQ(eq.runAll(4), 4u);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.size(), 6u);
}

TEST(EventQueue, ExecutedCounterAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.runAll();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runOne();
    EXPECT_DEATH(eq.schedule(50, [] {}), "past");
}

// ---- timing-wheel specifics: cross-level ordering and slot edges ----

TEST(EventQueueWheel, FifoTieBreakAcrossWheelLevels)
{
    // Two events with the same timestamp, scheduled from different
    // distances: the first lands in an outer wheel (delta >> wheel-0
    // horizon), the second is scheduled 100 ps beforehand and lands in
    // wheel 0. The cascade must not lose the FIFO tie-break.
    EventQueue eq;
    const TimePs when = 3 * EventQueue::kTickPs * EventQueue::kSlots *
                        EventQueue::kSlots; // wheel-2 territory
    std::vector<int> order;
    eq.schedule(when, [&] { order.push_back(1); }); // seq 0, outer wheel
    eq.schedule(when - 100, [&] {
        eq.scheduleAfter(100, [&] { order.push_back(2); }); // wheel 0
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), when);
}

TEST(EventQueueWheel, FifoTieBreakAcrossLadderBoundary)
{
    // Same timestamp, one event deferred to the overflow ladder (delta
    // beyond the outermost wheel), one scheduled later from close by.
    EventQueue eq;
    const TimePs when = 2 * EventQueue::kWheelSpanPs + 12345;
    std::vector<int> order;
    eq.schedule(when, [&] { order.push_back(1); });
    EXPECT_EQ(eq.ladderDeferred(), 1u);
    eq.schedule(when - EventQueue::kTickPs, [&] {
        eq.scheduleAfter(EventQueue::kTickPs,
                         [&] { order.push_back(2); });
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.now(), when);
}

TEST(EventQueueWheel, LadderEventFiresAtExactTime)
{
    EventQueue eq;
    const TimePs far = 3 * EventQueue::kWheelSpanPs + 777;
    TimePs fired = 0;
    eq.schedule(far, [&] { fired = eq.now(); });
    // An intermediate event forces cursor movement through all wheels.
    eq.schedule(EventQueue::kWheelSpanPs / 2, [] {});
    eq.runAll();
    EXPECT_EQ(fired, far);
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueueWheel, RunUntilAtSlotEdges)
{
    // Events straddling a wheel-0 slot boundary: runUntil exactly at
    // the boundary must execute the boundary event but nothing after,
    // even though later events share its slot region.
    EventQueue eq;
    const TimePs tick = EventQueue::kTickPs;
    std::vector<TimePs> ran;
    for (TimePs t : {tick - 1, tick, tick + 1, 2 * tick - 1, 2 * tick})
        eq.schedule(t, [&, t] { ran.push_back(t); });
    eq.runUntil(tick);
    EXPECT_EQ(ran, (std::vector<TimePs>{tick - 1, tick}));
    EXPECT_EQ(eq.now(), tick);
    eq.runUntil(2 * tick - 1);
    EXPECT_EQ(ran.size(), 4u);
    EXPECT_EQ(eq.now(), 2 * tick - 1);
    eq.runUntil(2 * tick);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 2 * tick);
}

TEST(EventQueueWheel, NextTimePeeksAcrossAllLevels)
{
    EventQueue eq;
    const TimePs far = EventQueue::kWheelSpanPs + 999; // ladder
    eq.schedule(far, [] {});
    EXPECT_EQ(eq.nextTime(), far);
    const TimePs mid =
        EventQueue::kTickPs * EventQueue::kSlots * 7; // wheel >= 1
    eq.schedule(mid, [] {});
    EXPECT_EQ(eq.nextTime(), mid);
    eq.schedule(42, [] {}); // wheel 0
    EXPECT_EQ(eq.nextTime(), 42u);
    // Peeking never reorders: execution still follows (when, seq).
    std::vector<TimePs> ran;
    while (eq.runOne())
        ran.push_back(eq.now());
    EXPECT_EQ(ran, (std::vector<TimePs>{42, mid, far}));
}

TEST(EventQueueWheel, StressMatchesStableSortReference)
{
    // Deterministic pseudo-random schedule spanning every level
    // (wheel 0 through the ladder), with re-scheduling from inside
    // callbacks. Execution order must equal a stable sort by time of
    // scheduling order — the heap semantics the wheel replaced.
    EventQueue eq;
    std::uint64_t lcg = 12345;
    auto rnd = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };
    std::vector<std::pair<TimePs, int>> expected; // (when, seq)
    std::vector<int> ran;
    int seq = 0;
    auto scheduleOne = [&](TimePs when) {
        const int id = seq++;
        expected.emplace_back(when, id);
        eq.schedule(when, [&ran, id] { ran.push_back(id); });
    };
    for (int i = 0; i < 400; ++i) {
        // Mix of deltas: same-tick, slot-distance, cross-wheel, ladder.
        const std::uint64_t pick = rnd() % 5;
        const TimePs base = eq.now();
        TimePs delta;
        switch (pick) {
          case 0: delta = rnd() % 4; break;
          case 1: delta = rnd() % (EventQueue::kTickPs * 4); break;
          case 2: delta = rnd() % (EventQueue::kTickPs *
                                   EventQueue::kSlots * 4); break;
          case 3: delta = rnd() % (EventQueue::kWheelSpanPs / 16); break;
          default: delta = EventQueue::kWheelSpanPs + rnd(); break;
        }
        scheduleOne(base + delta);
        // Occasionally drain a few events so scheduling happens from
        // many different cursor positions.
        if (i % 7 == 0)
            eq.runAll(3);
    }
    eq.runAll();
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(ran.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(ran[i], expected[i].second) << "at position " << i;
}

// ---- host-profiler counters: deterministic, pinned per schedule ----

TEST(EventQueueHostStats, PlacementLevelsPinned)
{
    // With the cursor at tick 0, each delta selects a known level:
    //   1'000 ps, 50'000 ps         -> wheel 0   (tick < 256)
    //   100'000 ps                  -> wheel 1
    //   1 << 25 ps                  -> wheel 2
    //   1 << 33 ps                  -> wheel 3
    //   1 << 41 ps                  -> overflow ladder
    // The counters are pure functions of this schedule — perf on or
    // off, serial or sharded — so exact pins are safe.
    EventQueue eq;
    for (const TimePs when :
         {TimePs{1'000}, TimePs{50'000}, TimePs{100'000},
          TimePs{1} << 25, TimePs{1} << 33, TimePs{1} << 41})
        eq.schedule(when, [] {});
    const EventQueue::HostStats &hs = eq.hostStats();
    EXPECT_EQ(hs.placedAtLevel[0], 2u);
    EXPECT_EQ(hs.placedAtLevel[1], 1u);
    EXPECT_EQ(hs.placedAtLevel[2], 1u);
    EXPECT_EQ(hs.placedAtLevel[3], 1u);
    EXPECT_EQ(eq.ladderDeferred(), 1u);
    EXPECT_EQ(hs.peakPending, 6u);
    EXPECT_EQ(hs.frontSpills, 0u);
    EXPECT_EQ(hs.drainInserts, 0u);
    eq.runAll();
    EXPECT_EQ(eq.executed(), 6u);
    EXPECT_EQ(eq.hostStats().peakPending, 6u); // high-water, not size
}

TEST(EventQueueHostStats, DrainInsertCounted)
{
    // Two events share wheel-0 slot tick 3 (1000 and 1010 ps); the
    // first schedules a third at its own timestamp while the slot is
    // mid-drain, which must splice into the draining slot.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1'000, [&] {
        order.push_back(1);
        eq.schedule(eq.now(), [&] { order.push_back(2); });
    });
    eq.schedule(1'010, [&] { order.push_back(3); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.hostStats().drainInserts, 1u);
    EXPECT_EQ(eq.hostStats().frontSpills, 0u);
}

TEST(EventQueueHostStats, FrontSpillCounted)
{
    // nextTime() on a wheel-1-only queue cascades the cursor forward;
    // a subsequent schedule behind the cursor must spill to the sorted
    // front list (and still execute first).
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100'000, [&] { order.push_back(2); });
    EXPECT_EQ(eq.nextTime(), 100'000u);
    eq.schedule(2'000, [&] { order.push_back(1); });
    EXPECT_EQ(eq.hostStats().frontSpills, 1u);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueHostStats, SlotListsRecycled)
{
    // The first slot ever opened allocates; after it drains, the next
    // slot reuses the pooled vector instead of allocating again.
    EventQueue eq;
    eq.schedule(1'000, [] {});
    eq.runAll();
    EXPECT_EQ(eq.hostStats().listAllocs, 1u);
    eq.schedule(100'000, [] {}); // fresh wheel-1 slot
    EXPECT_EQ(eq.hostStats().listAllocs, 1u);
    EXPECT_EQ(eq.hostStats().listReuses, 1u);
    eq.runAll();
    EXPECT_EQ(eq.executed(), 2u);
}

// ---------------------------------------------------------------------
// Canonical ordering across execution domains: same-instant ties
// resolve by (when, schedTime, schedDomain, schedCounter). An event
// scheduled with scheduleIn(d, ...) executes in domain d, so the
// schedule calls it makes draw from d's counter. The golden results
// pin this order; each test below fails against a kernel that keeps a
// single global FIFO counter instead of per-domain ones.
// ---------------------------------------------------------------------

TEST(EventQueueDomains, EqualWhenMergeOrdersByDomainThenCounter)
{
    // Events executing in domains 2, 1 and 0 — in that order, at the
    // same instant — each schedule two events for one shared `when`.
    // Domain rank, not call order, breaks the (when, schedTime) tie;
    // the per-domain counter orders within each domain.
    EventQueue eq;
    std::vector<int> order;
    const TimePs when = 700;
    const auto schedule_pair = [&](int first) {
        eq.schedule(when, [&, first] { order.push_back(first); });
        eq.schedule(when, [&, first] { order.push_back(first + 1); });
    };
    eq.scheduleIn(2, 100, [&] { schedule_pair(21); });
    eq.scheduleIn(1, 100, [&] { schedule_pair(11); });
    eq.scheduleIn(0, 100, [&] { schedule_pair(1); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 11, 12, 21, 22}));
}

TEST(EventQueueDomains, SchedTimePrecedesDomainRank)
{
    // A scheduling call made at an earlier simulated time runs first
    // at a shared `when`, even from a higher-ranked domain; only at a
    // tied schedTime does the lower domain win.
    EventQueue eq;
    std::vector<int> order;
    const TimePs when = 4000;
    eq.scheduleIn(2, 10, [&] {
        eq.schedule(when, [&] { order.push_back(1); }); // schedTime 10
    });
    eq.scheduleIn(2, 20, [&] {
        eq.schedule(when, [&] { order.push_back(3); }); // domain 2
    });
    eq.scheduleIn(0, 20, [&] {
        eq.schedule(when, [&] { order.push_back(2); }); // domain 0
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueDomains, EqualWhenMergeAcrossWheelLevels)
{
    // Same-`when` events from two domains placed while the cursor sits
    // far behind, so they land in a higher wheel and cascade down
    // before executing: the canonical order must survive the cascade.
    EventQueue eq;
    std::vector<int> order;
    const TimePs far_when =
        EventQueue::kTickPs * EventQueue::kSlots * 3 + 128;
    eq.scheduleIn(1, 0, [&] {
        eq.schedule(far_when, [&] { order.push_back(10); });
    });
    eq.scheduleIn(0, 0, [&] {
        eq.schedule(far_when, [&] { order.push_back(0); });
        eq.schedule(far_when, [&] { order.push_back(1); });
    });
    eq.runAll();
    // Domain 0's calls precede domain 1's at the same (when,
    // schedTime), although domain 1 scheduled first.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10}));
    EXPECT_GT(eq.cascades(), 0u);
}

} // namespace
} // namespace mempod
