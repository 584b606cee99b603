#include "core/pod.h"

#include <algorithm>
#include <unordered_set>

namespace mempod {

namespace {

std::uint32_t
effectiveMigrationCap(const PodParams &p)
{
    return p.maxMigrationsPerInterval ? p.maxMigrationsPerInterval
                                      : p.meaEntries;
}

std::uint32_t
podIdBits(std::uint64_t pages_per_pod)
{
    std::uint32_t bits = 0;
    while ((1ull << bits) < pages_per_pod)
        ++bits;
    return bits;
}

} // namespace

Pod::Pod(std::uint32_t id, EventQueue &eq, MemorySystem &mem,
         const PodParams &params)
    : id_(id),
      eq_(eq),
      mem_(mem),
      params_(params),
      mea_(params.meaEntries, params.meaCounterBits,
           podIdBits(mem.geom().pagesPerPod())),
      remap_(mem.geom().pagesPerPod(), mem.geom().fastPagesPerPod()),
      engine_(eq, mem, stats_, decisions_,
              {.track = "pod" + std::to_string(id),
               .keyArg = "page",
               .selected = "mea_victory",
               .pod = id},
              [this](std::uint64_t local, Demand d) {
                  issueToCurrentLocation(local, std::move(d));
              })
{
    if (params_.metaCacheEnabled) {
        metaPath_.emplace(eq, mem, stats_, params_.metaCacheBytes,
                          params_.metaCacheAssoc, params_.remapEntryBytes,
                          [this](std::uint64_t block) {
                              return backingAddrOfBlock(block);
                          });
    }
}

Addr
Pod::addrOfSlot(std::uint64_t slot) const
{
    return AddressMap::addrOfPage(mem_.map().pageOfPodLocal(id_, slot));
}

Addr
Pod::backingAddrOfBlock(std::uint64_t block) const
{
    // The backing store occupies the tail of this Pod's fast slots.
    const std::uint64_t byte_off = block * MetadataCache::kBlockBytes;
    const std::uint64_t page_off = byte_off / kPageBytes;
    const std::uint64_t fast_slots = remap_.fastSlots();
    const std::uint64_t slot =
        fast_slots - 1 - (page_off % fast_slots);
    return addrOfSlot(slot) + byte_off % kPageBytes;
}

void
Pod::handleDemand(Demand d)
{
    const std::uint64_t local =
        mem_.map().podLocalOfPage(AddressMap::pageOf(d.homeAddr));
    mea_.touch(local);
    if (decisions_)
        decisions_->noteAccess(id_, local, remap_.inFast(local),
                               eq_.now());
    if (!metaPath_) {
        proceed(local, std::move(d));
        return;
    }
    metaPath_->access(local, [this, local, d = std::move(d)]() mutable {
        proceed(local, std::move(d));
    });
}

void
Pod::proceed(std::uint64_t local, Demand d)
{
    if (engine_.isLocked(local)) {
        engine_.park(local, std::move(d));
        return;
    }
    issueToCurrentLocation(local, std::move(d));
}

void
Pod::issueToCurrentLocation(std::uint64_t local, Demand d)
{
    Request req;
    req.addr = addrOfSlot(remap_.locationOf(local)) + d.homeAddr % kPageBytes;
    req.type = d.type;
    req.kind = Request::Kind::kDemand;
    req.arrival = d.arrival;
    req.core = d.core;
    req.traceId = d.traceId;
    req.onComplete = std::move(d.done);
    mem_.access(std::move(req));
}

void
Pod::onInterval()
{
    ++stats_.intervals;
    // Candidates identified last interval but never started are stale.
    engine_.clearQueued();

    const auto hot = mea_.snapshot();
    std::unordered_set<std::uint64_t> hot_set;
    hot_set.reserve(hot.size() * 2);
    for (const auto &e : hot)
        hot_set.insert(e.id);

    const std::uint32_t cap = effectiveMigrationCap(params_);
    // Narrow counters saturate below the configured floor; clamp so a
    // 1-bit configuration still migrates its (count-1) tracked pages.
    const std::uint32_t min_hot =
        std::min(params_.minHotCount, mea_.counterMax());
    std::uint32_t scheduled = 0;
    for (const auto &e : hot) {
        if (scheduled >= cap)
            break;
        if (e.count < min_hot)
            break; // hot list is sorted by count
        const std::uint64_t h = e.id;
        if (engine_.isBusy(h))
            continue;
        if (remap_.inFast(h)) {
            ++stats_.candidatesSkipped; // already resident in fast
            continue;
        }
        const std::uint64_t slot =
            remap_.nextVictimSlot([&](std::uint64_t resident) {
                return hot_set.contains(resident) ||
                       engine_.isBusy(resident);
            });
        if (slot == RemapTable::kNoSlot)
            break; // every fast slot is hot or busy
        const std::uint64_t victim = remap_.residentOf(slot);
        MigrationEngine::Swap swap = MigrationEngine::pageSwap(
            h, addrOfSlot(remap_.locationOf(h)), victim, addrOfSlot(slot),
            e.count);
        swap.onCommit = [this, h, victim] { remap_.swap(h, victim); };
        engine_.schedule(std::move(swap));
        ++scheduled;
    }
    mea_.reset();
}

void
Pod::validateInvariants(bool paranoid) const
{
    engine_.validateInvariants();
    if (paranoid)
        remap_.checkConsistency();
}

void
Pod::registerMetrics(MetricRegistry &reg) const
{
    const std::string p = "pod" + std::to_string(id_);
    reg.attachCounter(p + ".migration.migrations",
                      "page swaps committed by this Pod",
                      &stats_.migrations);
    reg.attachCounter(p + ".migration.bytes_moved",
                      "migration bytes moved by this Pod",
                      &stats_.bytesMoved);
    reg.attachCounter(p + ".migration.blocked_requests",
                      "demands delayed by an in-progress swap",
                      &stats_.blockedRequests);
    reg.attachCounter(p + ".migration.intervals",
                      "interval-trigger firings seen by this Pod",
                      &stats_.intervals);
    reg.attachCounter(p + ".migration.candidates_skipped",
                      "hot candidates already resident in fast",
                      &stats_.candidatesSkipped);
    reg.attachCounter(p + ".migration.blocked_ps",
                      "summed demand delay behind this Pod's swaps",
                      &stats_.blockedPs);
    reg.attachCounter(p + ".migration.metadata_ps",
                      "summed demand delay on metadata-cache misses",
                      &stats_.metadataPs);
    reg.addGauge(p + ".blocked_demands",
                 "demand requests currently held by a swap lock",
                 [this] {
                     return static_cast<double>(engine_.parkedDemands());
                 });

    reg.addCounterFn(p + ".mea.sweeps",
                     "MEA decrement-all sweeps (operation (c))",
                     [this] { return mea_.sweeps(); });
    reg.addCounterFn(p + ".mea.evictions",
                     "MEA entries evicted at count zero",
                     [this] { return mea_.evictions(); });
    reg.addCounterFn(p + ".mea.resets",
                     "MEA tracker clears at interval boundaries",
                     [this] { return mea_.resets(); });
    reg.addGauge(p + ".mea.tracked_entries",
                 "pages currently tracked by the MEA map",
                 [this] { return static_cast<double>(mea_.size()); });

    reg.addGauge(p + ".remap.occupied_fast_slots",
                 "fast slots holding a page other than their home",
                 [this] {
                     return static_cast<double>(
                         remap_.occupiedFastSlots());
                 });
    reg.addGauge(p + ".remap.occupancy",
                 "fraction of fast slots holding a migrated page",
                 [this] { return remap_.fastOccupancy(); });

    engine_.registerMetrics(reg);
    if (metaPath_)
        metaPath_->registerMetrics(reg, p + ".meta_cache");
}

} // namespace mempod
