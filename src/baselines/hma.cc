#include "baselines/hma.h"

#include <memory>
#include <unordered_set>

#include "common/log.h"
#include "mem/manager_factory.h"

namespace mempod {

HmaManager::HmaManager(EventQueue &eq, MemorySystem &mem,
                       const HmaParams &params)
    : eq_(eq),
      mem_(mem),
      params_(params),
      counters_(mem.geom().totalPages(), params.counterBits),
      placement_(mem.geom().totalPages(), mem.geom().fastPages()),
      engine_(eq, mem, mstats_, decisions_,
              {.track = "hma",
               .keyArg = "page",
               .selected = "candidate_selected"},
              [this](std::uint64_t, Demand d) {
                  issueToCurrentLocation(std::move(d));
              }),
      epochTimer_(eq, params.interval, [this] { onInterval(); })
{
    if (params_.metaCacheEnabled) {
        const std::uint64_t fast_bytes = mem.geom().fastBytes;
        metaPath_.emplace(
            eq, mem, mstats_, params_.metaCacheBytes, params_.metaCacheAssoc,
            params_.counterEntryBytes, [fast_bytes](std::uint64_t block) {
                // Counters live in a backing store carved out of
                // stacked memory.
                return (block * MetadataCache::kBlockBytes) % fast_bytes;
            });
    }
}

void
HmaManager::handleDemand(Demand d)
{
    if (!metaPath_) {
        proceed(std::move(d));
        return;
    }
    // The per-page counter must be fetched to be updated; a miss
    // blocks the request just like the paper's model.
    const PageId page = AddressMap::pageOf(d.homeAddr);
    metaPath_->access(page, [this, d = std::move(d)]() mutable {
        proceed(std::move(d));
    });
}

void
HmaManager::proceed(Demand d)
{
    const PageId page = AddressMap::pageOf(d.homeAddr);
    counters_.touch(page);
    if (decisions_)
        decisions_->noteAccess(DecisionLog::kNoPod, page,
                               placement_.inFast(page), eq_.now());
    if (engine_.isLocked(page)) {
        engine_.park(page, std::move(d));
        return;
    }
    issueToCurrentLocation(std::move(d));
}

void
HmaManager::issueToCurrentLocation(Demand d)
{
    const PageId page = AddressMap::pageOf(d.homeAddr);
    const std::uint64_t slot = placement_.locationOf(page);
    Request req;
    req.addr = AddressMap::addrOfPage(slot) + d.homeAddr % kPageBytes;
    req.type = d.type;
    req.kind = Request::Kind::kDemand;
    req.arrival = d.arrival;
    req.core = d.core;
    req.traceId = d.traceId;
    req.onComplete = std::move(d.done);
    mem_.access(std::move(req));
}

void
HmaManager::start()
{
    epochTimer_.start();
}

void
HmaManager::onInterval()
{
    ++mstats_.intervals;

    // The OS interrupt: the cores sort counters for sortStall; they
    // issue no memory requests meanwhile (the application is paused,
    // not queuing up memory stall).
    if (stallHook_)
        stallHook_(params_.sortStall);

    engine_.clearQueued();

    const auto ranked = counters_.topN(params_.maxMigrationsPerInterval);
    std::unordered_set<std::uint64_t> hot_set;
    hot_set.reserve(ranked.size() * 2);
    for (const auto &e : ranked)
        if (e.count >= params_.threshold)
            hot_set.insert(e.id);

    for (const auto &e : ranked) {
        if (e.count < params_.threshold)
            break; // ranked is sorted descending
        const PageId page = e.id;
        if (engine_.isBusy(page))
            continue;
        if (placement_.inFast(page)) {
            ++mstats_.candidatesSkipped;
            continue;
        }
        const std::uint64_t slot =
            placement_.nextVictimSlot([&](std::uint64_t resident) {
                return hot_set.contains(resident) ||
                       engine_.isBusy(resident);
            });
        if (slot == RemapTable::kNoSlot)
            break;
        const std::uint64_t resident = placement_.residentOf(slot);
        MigrationEngine::Swap swap = MigrationEngine::pageSwap(
            page, AddressMap::addrOfPage(placement_.locationOf(page)),
            resident, AddressMap::addrOfPage(slot), e.count);
        swap.onCommit = [this, page, resident] {
            placement_.swap(page, resident);
        };
        engine_.schedule(std::move(swap));
    }

    counters_.reset();
}

void
HmaManager::validateInvariants(bool paranoid) const
{
    engine_.validateInvariants();
    if (paranoid)
        placement_.checkConsistency();
}

std::uint64_t
HmaManager::pendingWork() const
{
    return engine_.pendingWork() +
           (metaPath_ ? metaPath_->outstandingFills() : 0);
}

MEMPOD_REGISTER_MANAGER(
    Mechanism::kHma,
    [](const SimConfig &cfg, EventQueue &eq, MemorySystem &mem) {
        return std::make_unique<HmaManager>(eq, mem, cfg.hma);
    })

} // namespace mempod
