/**
 * @file
 * The physical memory system: all fast + slow channels behind one
 * decode/dispatch facade. Managers direct post-remap physical
 * addresses here; the MemorySystem decodes them, tracks tier/kind
 * statistics and forwards to the owning channel controller.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_queue.h"
#include "common/metrics.h"
#include "dram/channel.h"
#include "dram/memory_model.h"
#include "dram/telemetry.h"
#include "mem/address_map.h"
#include "mem/request.h"

namespace mempod {

/**
 * Which memory models each channel hosts and which one starts active.
 * The primary model is the run's measurement fidelity (dram.model); it
 * owns the channel's base telemetry name. Sampled simulation adds a
 * second, warm-up model per channel (named "<base>.warm") that the
 * FidelityController swaps in during fast-forward windows. The
 * default plan — detailed only — builds exactly the pre-sampling
 * system: one Channel per physical channel, no extra telemetry.
 */
struct ModelPlan
{
    DramModel primary = DramModel::kDetailed;
    bool warmEnabled = false;
    DramModel warm = DramModel::kFunctional;

    /** True when a distinct warm-up backend must be built. */
    bool
    wantsWarm() const
    {
        return warmEnabled && warm != primary;
    }
};

/** All channels of the two-level memory plus shared statistics. */
class MemorySystem
{
  public:
    struct Stats
    {
        std::uint64_t demandFast = 0; //!< demand lines served by HBM
        std::uint64_t demandSlow = 0;
        std::uint64_t migrationFast = 0; //!< migration lines on HBM
        std::uint64_t migrationSlow = 0;
        std::uint64_t bookkeepingFast = 0;
        std::uint64_t bookkeepingSlow = 0;

        std::uint64_t
        migrationLines() const
        {
            return migrationFast + migrationSlow;
        }
        std::uint64_t
        bookkeepingLines() const
        {
            return bookkeepingFast + bookkeepingSlow;
        }
        std::uint64_t
        linesByKindTier(Request::Kind kind, MemTier tier) const;
    };

    MemorySystem(EventQueue &eq, const SystemGeometry &geom,
                 const DramSpec &fast, const DramSpec &slow,
                 TimePs extra_latency_ps = 5000,
                 ControllerPolicy policy = {},
                 const ModelPlan &models = {});

    /** Dispatch one line transfer at a physical address. */
    void access(Request req);

    const AddressMap &map() const { return map_; }
    const SystemGeometry &geom() const { return map_.geom(); }

    std::size_t numChannels() const { return slots_.size(); }
    MemoryModel &channel(std::size_t i) { return *slots_[i]; }
    const MemoryModel &
    channel(std::size_t i) const
    {
        return *slots_[i];
    }

    /**
     * Switch every channel to `m` for subsequent enqueues. Requests
     * already accepted by the previous model finish under it; both
     * models' completions keep feeding the shared in-flight count.
     * Panics if the plan never built `m`.
     */
    void setModel(DramModel m);

    /** The model new requests are routed to. */
    DramModel activeModel() const { return activeModel_; }

    /** Line transfers dispatched but not yet completed. */
    std::uint64_t inFlight() const { return inFlight_; }

    const Stats &stats() const { return stats_; }

    /**
     * Read-only per-channel telemetry views, one per channel in
     * channel order. Captured once at construction; the counters
     * behind the pointers stay live for the system's lifetime.
     */
    const std::vector<ChannelTelemetry> &
    telemetry() const
    {
        return views_;
    }

    /** Aggregate row-buffer hit rate over one tier's channels. */
    double rowHitRate(MemTier tier) const;

    /** Aggregate row-buffer hit rate over all channels. */
    double rowHitRate() const;

    /** Aggregate CAS row hits / misses over one tier's channels. */
    std::uint64_t rowHits(MemTier tier) const;
    std::uint64_t rowMisses(MemTier tier) const;

    /**
     * Register tier aggregates under "mem.*" plus every channel (and
     * bank) under "mem.<channel-name>.*".
     */
    void registerMetrics(MetricRegistry &reg) const;

  private:
    /**
     * One channel's router: owns every model the plan built for the
     * channel and forwards new enqueues to the active one. Fidelity
     * switches happen inside it, while observer methods (stats, spec,
     * telemetry) always answer for the primary model, so
     * detailed-only behavior is unchanged.
     */
    class Slot final : public MemoryModel
    {
      public:
        void
        enqueue(Request req, ChannelAddr where) override
        {
            active_->enqueue(std::move(req), where);
        }

        void
        setCompletionHook(std::function<void(TimePs)> hook) override
        {
            for (auto &[kind, m] : models_)
                m->setCompletionHook(hook);
        }

        std::size_t
        queued() const override
        {
            std::size_t q = 0;
            for (const auto &[kind, m] : models_)
                q += m->queued();
            return q;
        }

        bool idle() const override { return queued() == 0; }

        const ChannelStats &
        stats() const override
        {
            return primary_->stats();
        }
        const DramSpec &spec() const override
        {
            return primary_->spec();
        }
        const std::string &name() const override
        {
            return primary_->name();
        }
        ChannelTelemetry
        telemetry() const override
        {
            return primary_->telemetry();
        }
        const ChannelHostStats &
        hostStats() const override
        {
            return primary_->hostStats();
        }

        /** Register a model; the first one added becomes primary. */
        void add(DramModel kind, std::unique_ptr<MemoryModel> m);

        /** Route subsequent enqueues to `kind`; panics if unbuilt. */
        void select(DramModel kind);

        /** The model `kind` resolves to; nullptr when unbuilt. */
        MemoryModel *find(DramModel kind) const;

      private:
        std::vector<std::pair<DramModel, std::unique_ptr<MemoryModel>>>
            models_;
        MemoryModel *primary_ = nullptr;
        MemoryModel *active_ = nullptr;
    };

    /** Register one channel's instruments from its telemetry view. */
    void registerChannelMetrics(MetricRegistry &reg,
                                const std::string &prefix,
                                const ChannelTelemetry &v) const;

    EventQueue &eq_;
    AddressMap map_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::vector<ChannelTelemetry> views_;
    DramModel activeModel_ = DramModel::kDetailed;
    std::uint64_t inFlight_ = 0;
    Stats stats_;
};

} // namespace mempod
