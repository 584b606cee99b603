/**
 * @file
 * Simulated-time migration decision ledger. Every migration decision a
 * manager makes — regardless of mechanism — is recorded here at the
 * moment the policy fires: candidate page, victim, the tracker count
 * that justified it, the predicted benefit, and the epoch/pod context.
 * Outcomes (committed / aborted) are folded in when the migration
 * engine resolves the swap, and a one-epoch watch window after each
 * commit accumulates the *realized* near-tier hits the migrated page
 * actually received, so predicted and delivered benefit can be
 * compared per decision.
 *
 * Determinism contract: all mutations happen from manager callbacks,
 * which the event kernel executes in canonical order. Every field is
 * derived from simulated time and policy state only, so the ledger —
 * and its JSONL export — is byte-identical at any `--jobs` setting.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace mempod {

/** Append-only record of migration decisions and their outcomes. */
class DecisionLog
{
  public:
    /** What eventually happened to a recorded decision. */
    enum class Outcome : std::uint8_t
    {
        kPending,   //!< swap still queued or in flight at end of run
        kCompleted, //!< engine committed the swap
        kAborted,   //!< dropped (interval expiry / queue clear)
    };

    /** Pod id used by the centralized baselines (exported as null). */
    static constexpr std::uint32_t kNoPod = 0xffffffffu;

    /** Sentinel decision id when recording is disabled. */
    static constexpr std::uint64_t kNoId = ~std::uint64_t{0};

    /** One migration decision, in the order the policy made them. */
    struct Record
    {
        std::uint64_t seq = 0;    //!< 0-based decision index
        TimePs timePs = 0;        //!< simulated time of the decision
        std::uint64_t epoch = 0;  //!< timePs / epochPs
        std::uint32_t pod = kNoPod;
        std::uint64_t page = 0;   //!< migrating-in page (pod-local for
                                  //!< MemPod, global page/line otherwise)
        std::uint64_t victim = 0; //!< page evicted from the fast slot
        std::uint32_t trackerCount = 0; //!< MEA/counter value at decision
        double predictedBenefitNs = 0;  //!< trackerCount x per-touch gap
        Outcome outcome = Outcome::kPending;
        TimePs commitPs = 0;      //!< commit time (0 unless completed)
        /** Committed, then evicted again within two epochs. */
        bool pingPong = false;
        /** Near-tier demand hits within one epoch after the commit. */
        std::uint64_t realizedNearHits = 0;
    };

    /**
     * @param epochPs decision-epoch length; the MemPod interval is used
     *        uniformly for all mechanisms so epochs line up across runs
     * @param benefitPerTouchNs fast-vs-slow access-latency gap, the
     *        per-touch payoff a migration is predicted to deliver
     */
    DecisionLog(TimePs epochPs, double benefitPerTouchNs);

    /** Record a decision at the moment the policy fires. */
    std::uint64_t record(std::uint32_t pod, std::uint64_t page,
                         std::uint64_t victim,
                         std::uint32_t trackerCount, TimePs now);

    /** The engine committed decision `id`'s swap at `now`. */
    void commit(std::uint64_t id, TimePs now);

    /** Decision `id`'s swap was dropped before starting. */
    void abort(std::uint64_t id, TimePs now);

    /**
     * A demand touched (`pod`, `page`); credits realized near-tier
     * hits to the decision that migrated the page in, while its
     * one-epoch watch window is open. One hash probe per demand.
     */
    void noteAccess(std::uint32_t pod, std::uint64_t page,
                    bool nearTier, TimePs now);

    const std::vector<Record> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    std::uint64_t committedCount() const { return committed_; }
    std::uint64_t abortedCount() const { return aborted_; }
    std::uint64_t pingPongCount() const { return pingPongs_; }
    TimePs epochPs() const { return epochPs_; }
    double benefitPerTouchNs() const { return benefitPerTouchNs_; }

    /** Stable name for an outcome, as exported in the JSONL. */
    static const char *outcomeName(Outcome o);

  private:
    using Key = std::pair<std::uint32_t, std::uint64_t>;

    struct KeyHash
    {
        std::size_t operator()(const Key &k) const
        {
            // Fibonacci-mix the page and fold in the pod; exactness is
            // carried by pair equality, this only spreads buckets.
            return static_cast<std::size_t>(
                (k.second + k.first) * 0x9e3779b97f4a7c15ull);
        }
    };

    /** Realized-benefit watch window opened by a commit. */
    struct Watch
    {
        std::uint64_t seq = 0;
        TimePs deadline = 0;
    };

    TimePs epochPs_;
    double benefitPerTouchNs_;
    std::vector<Record> records_;
    /** (pod, page) -> open realized-hits window. */
    std::unordered_map<Key, Watch, KeyHash> watch_;
    /** (pod, page) -> seq of the commit that migrated it in. */
    std::unordered_map<Key, std::uint64_t, KeyHash> migratedIn_;
    std::uint64_t committed_ = 0;
    std::uint64_t aborted_ = 0;
    std::uint64_t pingPongs_ = 0;
};

} // namespace mempod
