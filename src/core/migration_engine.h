/**
 * @file
 * The one swap lifecycle every migrating mechanism shares. A demand to
 * a page under migration blocks until the swap commits (Section 4.3);
 * the swap itself runs as the full read/write traffic through the
 * normal memory controllers (Section 4.4) — for a 2 KB page, 32 reads
 * of each candidate followed by 32 write-backs of each.
 *
 * A mechanism is a policy on top of this engine: it picks the lock
 * key(s) and the two swap locations, updates its remap state when a
 * swap commits, and says how a released demand is re-issued. The
 * engine owns everything else: the busy and lock sets, parking and
 * draining demands, the decision-ledger record/commit/abort, the
 * migration trace flow, the migration stats charges and the
 * conservation check. Swaps run with configurable parallelism (MemPod:
 * one engine per Pod; HMA/THM: one centralized engine; CAMEO:
 * per-channel concurrency).
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/decision_log.h"
#include "common/event_queue.h"
#include "common/metrics.h"
#include "common/types.h"
#include "mem/manager.h"
#include "mem/memory_system.h"

namespace mempod {

/** Owns the swap lifecycle of one locking domain. */
class MigrationEngine
{
  public:
    /** "No key": the unused second key of a single-key swap. */
    static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

    /** Re-issues a demand released from the lock on `key`. */
    using ReissueFn = std::function<void(std::uint64_t key, Demand d)>;

    /** The owning mechanism's names, fixed at construction. */
    struct Owner
    {
        /**
         * Lifecycle tracer track ("pod0", "hma", ...); swap spans and
         * metrics go under "<track>.engine". Track ids are resolved
         * at first use, never here, so they keep their first-use order.
         */
        std::string track;
        /** Trace arg naming a parked demand's key ("page", "group"). */
        const char *keyArg = "page";
        /** Instant marking a selection ("mea_victory", ...). */
        const char *selected = "selected";
        /** Decision-ledger pod id (DecisionLog::kNoPod if global). */
        std::uint32_t pod = DecisionLog::kNoPod;
        /** Swaps that may move data at once. */
        std::uint32_t maxInFlight = 1;
    };

    /** One trace argument of a selection instant. */
    struct Arg
    {
        const char *name = nullptr;
        std::uint64_t value = 0;
    };

    /** One swap a mechanism asks for. */
    struct Swap
    {
        /** Lock keys, released in this order; keys[1] may be kNoKey. */
        std::uint64_t keys[2] = {kNoKey, kNoKey};
        Addr locA = 0;           //!< first page/line physical base
        Addr locB = 0;           //!< second page/line physical base
        std::uint32_t lines = 0; //!< line transfers per side
        /** Ledger entry: the candidate, its victim, the tracker count. */
        std::uint64_t candidate = 0;
        std::uint64_t victim = 0;
        std::uint32_t trackerCount = 0;
        /** The selection instant's trace arguments. */
        Arg args[2];
        /** The mechanism's remap update; the first step of a commit. */
        std::function<void()> onCommit;
    };

    /**
     * A 2 KB page swap as MemPod and HMA choose them: hot page `hot`
     * (at `hot_addr`) trades places with `victim`, the resident of a
     * fast slot (at `victim_addr`). Both pages lock; the selection
     * instant names them. The caller adds its remap update.
     */
    static Swap pageSwap(std::uint64_t hot, Addr hot_addr,
                         std::uint64_t victim, Addr victim_addr,
                         std::uint32_t tracker_count);

    struct Stats
    {
        std::uint64_t opsCommitted = 0;
        std::uint64_t opsDropped = 0; //!< cleared before starting
        std::uint64_t linesMoved = 0;
        std::uint64_t bytesMoved = 0;
    };

    /**
     * @param charge The owner's MigrationStats: migrations, bytes
     *        moved, blocked requests and blocked time land here.
     * @param ledger The owner's decision-ledger pointer, read at each
     *        swap, so the engine sees the ledger once it is attached
     *        (it may stay null).
     * @param reissue Runs for each parked demand when its key is
     *        released; only parked demands take this call.
     */
    MigrationEngine(EventQueue &eq, MemorySystem &mem,
                    MigrationStats &charge, DecisionLog *const &ledger,
                    Owner owner, ReissueFn reissue);

    /** Has a swap involving `key` started moving data? */
    bool
    isLocked(std::uint64_t key) const
    {
        const auto it = keys_.find(key);
        return it != keys_.end() && it->second.locked;
    }

    /** Is a swap involving `key` scheduled or active? */
    bool isBusy(std::uint64_t key) const { return keys_.contains(key); }

    /** Hold a demand to locked `key` until its swap resolves. */
    void park(std::uint64_t key, Demand d);

    /**
     * Record the decision, open its trace flow and queue the swap;
     * it starts at once if a slot is free. Its keys turn busy now and
     * lock when the data starts moving: a queued candidate is still
     * serviceable at its old location.
     */
    void schedule(Swap swap);

    /** Abort swaps not yet started (stale candidates). */
    void clearQueued();

    std::size_t queuedOps() const { return queue_.size(); }
    std::uint32_t activeOps() const { return active_; }
    std::uint64_t parkedDemands() const { return parked_; }

    /** Parked demands plus queued and active swaps. */
    std::uint64_t
    pendingWork() const
    {
        return parked_ + queue_.size() + active_;
    }

    const Stats &stats() const { return stats_; }

    /**
     * Conservation: the owner's migration count must equal this
     * engine's commit count. Panics on violation.
     */
    void validateInvariants() const;

    /** Register op/traffic counters and queue gauges. */
    void registerMetrics(MetricRegistry &reg) const;

  private:
    /** Lock state of one busy key. */
    struct KeyState
    {
        bool locked = false;
        std::vector<Demand> parked;
    };

    /** A scheduled swap with its ledger and trace handles. */
    struct Op
    {
        Swap swap;
        std::uint64_t decision = DecisionLog::kNoId;
        std::uint64_t flow = 0; //!< trace flow id (0 = not traced)
    };

    void tryStart();
    void run(Op op);
    void commit(Op &op);
    void abort(Op &op);
    /** Close a migration flow with instant `outcome`. */
    void endFlow(std::uint64_t flow, const char *outcome);
    /** Free `key` and re-issue everything parked on it. */
    void release(std::uint64_t key);

    EventQueue &eq_;
    MemorySystem &mem_;
    MigrationStats &charge_;
    Owner owner_;
    std::string engineTrack_; //!< "<track>.engine"
    ReissueFn reissue_;
    DecisionLog *const &ledger_;
    std::unordered_map<std::uint64_t, KeyState> keys_; //!< busy keys
    std::uint64_t parked_ = 0;
    std::uint32_t active_ = 0;
    std::deque<Op> queue_;
    Stats stats_;
};

} // namespace mempod
