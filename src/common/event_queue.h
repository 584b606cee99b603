/**
 * @file
 * Discrete-event scheduler driving the whole simulation.
 *
 * Every active component (channel controllers, interval timers, the
 * trace frontend, migration engines) schedules callbacks on a single
 * global queue; components that are idle schedule nothing, so
 * simulated idle time costs no host time.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/callback.h"
#include "common/types.h"

namespace mempod {

class Tracer;

/**
 * Execution domain: 0 is the coordinator (frontend, managers, timers,
 * completions), 1+i is DRAM channel i's controller. Domains are
 * ordering tags, not threads: they only rank same-instant ties.
 */
using DomainId = std::uint32_t;

/**
 * Hierarchical timing-wheel discrete-event queue.
 *
 * Events are bucketed by arrival tick (kTickPs = 256 ps, finer than
 * any DRAM clock in the model) into kWheels wheels of kSlots slots
 * each. Wheel 0 resolves single ticks (~65 ns horizon); each higher
 * wheel covers a kSlots-times larger region and cascades whole slots
 * down as the cursor reaches them; deltas beyond the outermost wheel
 * (~1.1 s — interval timers, HMA epochs) wait in a small overflow
 * ladder. Scheduling and dispatch are O(1) amortized versus the
 * O(log n) sift of the binary heap this replaces, and slot storage is
 * recycled through a free list, so steady-state scheduling performs
 * no allocation.
 *
 * Ordering guarantee: events execute in ascending canonical order
 *
 *   (when, schedTime, schedDomain, schedCounter)
 *
 * `when` is the event's due time; `schedTime` is the simulated time of
 * the schedule() call; `schedDomain` is the domain of the event whose
 * callback made the call and `schedCounter` is that domain's monotone
 * call counter. Including schedTime makes the order coincide with a
 * global FIFO tie-break whenever the scheduling calls happened at
 * different instants, i.e. almost always; same-instant ties from
 * different domains resolve by domain rank. The golden results pin
 * this order, so a single global counter is *not* a drop-in
 * replacement for the per-domain ones.
 */
class EventQueue
{
  public:
    /**
     * Move-only with a buffer sized for the largest hot-path capture
     * (a channel completion: this + slab slot + timestamp = 24 bytes);
     * anything bigger falls back to the heap. Kept tight on purpose:
     * slot drains and cascades move whole Events, so with the three
     * 8-byte key fields the Event is exactly one cache line.
     */
    using Callback = MoveFunction<void(), 24>;

    /** Wheel geometry. One tick = 256 ps. */
    static constexpr unsigned kTickShift = 8;
    static constexpr TimePs kTickPs = TimePs{1} << kTickShift;
    static constexpr unsigned kSlotBits = 8;
    static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
    static constexpr unsigned kWheels = 4;
    /** Deltas at/beyond roughly this defer to the overflow ladder. */
    static constexpr TimePs kWheelSpanPs =
        TimePs{1} << (kTickShift + kWheels * kSlotBits);

    /** Order packing: 40-bit per-domain counter, 12-bit domain ids. */
    static constexpr unsigned kCounterBits = 40;
    static constexpr unsigned kDomainBits = 12;
    static constexpr std::uint64_t kOrderMask =
        (std::uint64_t{1} << (kCounterBits + kDomainBits)) - 1;
    static constexpr DomainId kCoordinatorDomain = 0;

    EventQueue() = default;
    ~EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (time of the event being executed). */
    TimePs now() const { return now_; }

    /**
     * Schedule `cb` at absolute time `when` to execute in the
     * coordinator domain. Scheduling in the past is a simulator bug
     * (panics). Events at the same timestamp run in canonical order,
     * which for one scheduling domain is stable FIFO order.
     */
    void
    schedule(TimePs when, Callback cb)
    {
        scheduleIn(kCoordinatorDomain, when, std::move(cb));
    }

    /** Schedule `cb` `delta` picoseconds from now. */
    void scheduleAfter(TimePs delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    /**
     * Schedule `cb` to execute in domain `target`: while it runs, the
     * schedule calls it makes draw from `target`'s counter.
     */
    void scheduleIn(DomainId target, TimePs when, Callback cb);

    /** Whether any events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Time of the earliest pending event, or kTimeNever. */
    TimePs nextTime() const;

    /** Execute the earliest event. Returns false if the queue is empty. */
    bool runOne();

    /** Run until the queue is empty or `limit` events have executed. */
    std::uint64_t runAll(std::uint64_t limit = ~std::uint64_t{0});

    /** Run all events with time <= `until`. */
    void runUntil(TimePs until);

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /** Slots cascaded down the hierarchy (introspection/benchmarks). */
    std::uint64_t cascades() const { return cascades_; }

    /** Events that entered the far-future overflow ladder. */
    std::uint64_t ladderDeferred() const { return ladderDeferred_; }

    /**
     * Wheel-mechanics counters for the host profiler. Like cascades()
     * these are unconditional and *deterministic* — pure functions of
     * the simulated schedule, never of wall time — so tests pin them
     * for known schedules and enabling perf cannot change them.
     */
    struct HostStats
    {
        /** place() landings per wheel level (incl. cascade re-places). */
        std::uint64_t placedAtLevel[kWheels] = {};
        /** Events spilled to the sorted front list (cursor overshoot). */
        std::uint64_t frontSpills = 0;
        /** Events spliced into the slot currently being drained. */
        std::uint64_t drainInserts = 0;
        /** Slot vectors newly heap-allocated vs recycled from the pool. */
        std::uint64_t listAllocs = 0;
        std::uint64_t listReuses = 0;
        /** High-water mark of pending events. */
        std::uint64_t peakPending = 0;
    };

    const HostStats &hostStats() const { return host_; }

    /**
     * The simulation-wide event tracer, or nullptr when tracing is
     * off. Components reach it through the queue they already hold, so
     * the disabled hot-path cost is this one pointer test.
     */
    Tracer *tracer() const { return tracer_; }
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

  private:
    struct Event
    {
        TimePs when;
        TimePs schedTime; //!< simulated time of the schedule call
        /** execDomain << 52 | schedDomain << 40 | counter. */
        std::uint64_t ord;
        Callback cb;
    };
    using EventList = std::vector<Event>;

    struct Wheel
    {
        EventList *slots[kSlots] = {};
        /** One bit per slot; scanned circularly from the cursor. */
        std::uint64_t occupied[kSlots / 64] = {};
    };

    static bool
    earlier(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.schedTime != b.schedTime)
            return a.schedTime < b.schedTime;
        return (a.ord & kOrderMask) < (b.ord & kOrderMask);
    }

    static std::uint64_t
    packOrd(DomainId exec, std::uint64_t masked_ord)
    {
        return (static_cast<std::uint64_t>(exec)
                << (kCounterBits + kDomainBits)) |
               masked_ord;
    }

    /** Next (schedDomain, counter) word for the executing context. */
    std::uint64_t nextOrd();
    void dispatch(Event &ev);

    EventList *acquireList();
    void releaseList(EventList *list);
    void appendToSlot(unsigned level, std::size_t idx, Event ev);
    void place(Event ev);
    void fixupStranded();
    bool findNextSlot(std::uint64_t &out_tick);
    void claimSlot(std::uint64_t tick);
    bool popNext(Event &out);
    TimePs peekNextTime();

    Wheel wheels_[kWheels];
    /** Owns every slot vector ever created; capacity is recycled. */
    std::vector<std::unique_ptr<EventList>> pool_;
    std::vector<EventList *> freeLists_;
    EventList ladder_; //!< min-heap by canonical key, beyond the wheels
    EventList front_;  //!< sorted; peek-cascade overshoot spill
    EventList *drain_ = nullptr; //!< slot currently being executed
    std::size_t drainPos_ = 0;
    std::uint64_t drainTick_ = 0;
    std::uint64_t cursorTick_ = 0;

    Tracer *tracer_ = nullptr;
    TimePs now_ = 0;
    /** Per-domain schedule-call counters, indexed by DomainId. */
    std::vector<std::uint64_t> counters_;
    /** Domain of the executing (or last executed) event. */
    DomainId ctxDomain_ = kCoordinatorDomain;
    std::uint64_t executed_ = 0;
    std::size_t size_ = 0;
    std::uint64_t cascades_ = 0;
    std::uint64_t ladderDeferred_ = 0;
    HostStats host_;
};

/**
 * Fixed-period repeating timer for interval mechanisms (MemPod/HMA
 * epochs, the stats sampler). Fires `fn` every `period` after
 * start(), re-arming *after* the callback returns — the same
 * callback-then-re-arm order the mechanisms used to hand-roll with
 * recursive lambdas, so event keys (and therefore golden output) are
 * unchanged.
 */
class PeriodicTimer
{
  public:
    PeriodicTimer(EventQueue &eq, TimePs period, std::function<void()> fn)
        : eq_(eq), period_(period), fn_(std::move(fn))
    {
    }

    PeriodicTimer(const PeriodicTimer &) = delete;
    PeriodicTimer &operator=(const PeriodicTimer &) = delete;

    /** Arm the timer: first fire at now + period, then every period. */
    void start() { arm(); }

    TimePs period() const { return period_; }

  private:
    void
    arm()
    {
        eq_.scheduleAfter(period_, [this] {
            fn_();
            arm();
        });
    }

    EventQueue &eq_;
    TimePs period_;
    std::function<void()> fn_;
};

} // namespace mempod
