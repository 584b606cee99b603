#include "core/migration_engine.h"

#include <memory>

#include "common/log.h"
#include "common/tracer.h"

namespace mempod {

MigrationEngine::MigrationEngine(EventQueue &eq, MemorySystem &mem,
                                 MigrationStats &charge,
                                 DecisionLog *const &ledger, Owner owner,
                                 ReissueFn reissue)
    : eq_(eq),
      mem_(mem),
      charge_(charge),
      owner_(std::move(owner)),
      engineTrack_(owner_.track + ".engine"),
      reissue_(std::move(reissue)),
      ledger_(ledger)
{
    MEMPOD_ASSERT(owner_.maxInFlight >= 1, "engine needs one op slot");
    MEMPOD_ASSERT(reissue_ != nullptr, "engine needs a reissue path");
}

MigrationEngine::Swap
MigrationEngine::pageSwap(std::uint64_t hot, Addr hot_addr,
                          std::uint64_t victim, Addr victim_addr,
                          std::uint32_t tracker_count)
{
    Swap s;
    s.keys[0] = hot;
    s.keys[1] = victim;
    s.locA = hot_addr;
    s.locB = victim_addr;
    s.lines = static_cast<std::uint32_t>(kLinesPerPage);
    s.candidate = hot;
    s.victim = victim;
    s.trackerCount = tracker_count;
    s.args[0] = {"hot_page", hot};
    s.args[1] = {"victim_page", victim};
    return s;
}

void
MigrationEngine::registerMetrics(MetricRegistry &reg) const
{
    const std::string &prefix = engineTrack_;
    reg.attachCounter(prefix + ".ops_committed",
                      "swap operations fully committed",
                      &stats_.opsCommitted);
    reg.attachCounter(prefix + ".ops_dropped",
                      "queued swaps dropped before starting",
                      &stats_.opsDropped);
    reg.attachCounter(prefix + ".lines_moved",
                      "line transfers issued for migrations",
                      &stats_.linesMoved);
    reg.attachCounter(prefix + ".bytes_moved",
                      "migration bytes moved by this engine",
                      &stats_.bytesMoved);
    reg.addGauge(prefix + ".queued_ops",
                 "swaps waiting for an engine slot",
                 [this] { return static_cast<double>(queue_.size()); });
    reg.addGauge(prefix + ".active_ops", "swaps currently moving data",
                 [this] { return static_cast<double>(active_); });
}

void
MigrationEngine::validateInvariants() const
{
    if (charge_.migrations != stats_.opsCommitted)
        MEMPOD_PANIC(
            "invariant violated [engine_migration_conservation]: %s "
            "counted %llu migrations but its engine committed %llu",
            owner_.track.c_str(),
            static_cast<unsigned long long>(charge_.migrations),
            static_cast<unsigned long long>(stats_.opsCommitted));
}

void
MigrationEngine::park(std::uint64_t key, Demand d)
{
    ++charge_.blockedRequests;
    d.parkedAt = eq_.now();
    if (d.traceId != 0) {
        if (Tracer *tr = eq_.tracer()) {
            TraceArgs a;
            a.add(owner_.keyArg, key);
            tr->asyncBegin(tr->track(owner_.track), eq_.now(), "req",
                           d.traceId, "blocked", a.str());
        }
    }
    const auto it = keys_.find(key);
    MEMPOD_ASSERT(it != keys_.end() && it->second.locked,
                  "parking on an unlocked key");
    it->second.parked.push_back(std::move(d));
    ++parked_;
}

void
MigrationEngine::schedule(Swap swap)
{
    MEMPOD_ASSERT(swap.lines > 0, "empty swap");
    for (const std::uint64_t key : swap.keys)
        if (key != kNoKey)
            keys_.try_emplace(key);
    Op op;
    if (ledger_)
        op.decision =
            ledger_->record(owner_.pod, swap.candidate, swap.victim,
                            swap.trackerCount, eq_.now());

    // The selection opens the migration flow; it continues through the
    // swap spans and ends at the remap commit (or the abort).
    if (Tracer *tr = eq_.tracer()) {
        op.flow = tr->newFlowId();
        const std::uint32_t tid = tr->track(owner_.track);
        TraceArgs a;
        for (const Arg &arg : swap.args)
            a.add(arg.name, arg.value);
        const std::string args = a.str();
        tr->instant(tid, eq_.now(), owner_.selected, args);
        tr->asyncBegin(tid, eq_.now(), "mig", op.flow, "migration", args);
        tr->flowStart(tid, eq_.now(), "mig", op.flow, "migration");
    }
    op.swap = std::move(swap);
    queue_.push_back(std::move(op));
    tryStart();
}

void
MigrationEngine::clearQueued()
{
    stats_.opsDropped += queue_.size();
    // Dropped candidates release their keys *without* the remap
    // update: no data moved.
    for (Op &op : queue_)
        abort(op);
    queue_.clear();
}

void
MigrationEngine::commit(Op &op)
{
    if (op.swap.onCommit)
        op.swap.onCommit();
    ++charge_.migrations;
    charge_.bytesMoved += 2ull * op.swap.lines * kLineBytes;
    if (op.decision != DecisionLog::kNoId)
        ledger_->commit(op.decision, eq_.now());
    endFlow(op.flow, "remap_commit");
    for (const std::uint64_t key : op.swap.keys)
        release(key);
}

void
MigrationEngine::abort(Op &op)
{
    if (op.decision != DecisionLog::kNoId)
        ledger_->abort(op.decision, eq_.now());
    endFlow(op.flow, "swap_aborted");
    for (const std::uint64_t key : op.swap.keys)
        release(key);
}

void
MigrationEngine::endFlow(std::uint64_t flow, const char *outcome)
{
    if (flow == 0)
        return;
    if (Tracer *tr = eq_.tracer()) {
        const std::uint32_t tid = tr->track(owner_.track);
        tr->instant(tid, eq_.now(), outcome);
        tr->flowEnd(tid, eq_.now(), "mig", flow, "migration");
        tr->asyncEnd(tid, eq_.now(), "mig", flow, "migration");
    }
}

void
MigrationEngine::release(std::uint64_t key)
{
    if (key == kNoKey)
        return;
    auto node = keys_.extract(key);
    MEMPOD_ASSERT(!node.empty(), "releasing a key that is not busy");
    std::vector<Demand> parked = std::move(node.mapped().parked);
    MEMPOD_ASSERT(parked_ >= parked.size(), "parked accounting");
    parked_ -= parked.size();
    const TimePs now = eq_.now();
    for (Demand &d : parked) {
        charge_.blockedPs += now - d.parkedAt;
        if (d.traceId != 0) {
            if (Tracer *tr = eq_.tracer())
                tr->asyncEnd(tr->track(owner_.track), now, "req",
                             d.traceId, "blocked");
        }
        reissue_(key, std::move(d));
    }
}

void
MigrationEngine::tryStart()
{
    while (active_ < owner_.maxInFlight && !queue_.empty()) {
        Op op = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        run(std::move(op));
    }
}

void
MigrationEngine::run(Op op)
{
    // Demands block only from here on, while the data is in flight.
    for (const std::uint64_t key : op.swap.keys)
        if (key != kNoKey)
            keys_.at(key).locked = true;
    // Swap spans are async (b/e): engines with parallelism > 1 (CAMEO)
    // interleave ops on one track, which B/E nesting cannot express.
    if (op.flow != 0) {
        if (Tracer *tr = eq_.tracer()) {
            const std::uint32_t tid = tr->track(engineTrack_);
            TraceArgs a;
            a.add("lines", op.swap.lines * 2);
            tr->flowStep(tid, eq_.now(), "mig", op.flow, "migration");
            tr->asyncBegin(tid, eq_.now(), "mig", op.flow, "swap",
                           a.str());
            tr->asyncBegin(tid, eq_.now(), "mig", op.flow,
                           "read_phase");
        }
    }
    // Phase 1: read both candidates into the swap buffer; phase 2:
    // write both back to their exchanged locations; then commit.
    struct OpState
    {
        Op op;
        std::uint32_t readsLeft;
        std::uint32_t writesLeft;
    };
    auto st = std::make_shared<OpState>(OpState{std::move(op), 0, 0});
    const std::uint32_t lines = st->op.swap.lines;
    st->readsLeft = lines * 2;
    st->writesLeft = lines * 2;

    auto finishOp = [this, st] {
        const std::uint32_t n = st->op.swap.lines;
        stats_.linesMoved += 2ull * n;
        stats_.bytesMoved += 2ull * n * kLineBytes;
        ++stats_.opsCommitted;
        if (st->op.flow != 0) {
            if (Tracer *tr = eq_.tracer()) {
                const std::uint32_t tid = tr->track(engineTrack_);
                tr->asyncEnd(tid, eq_.now(), "mig", st->op.flow,
                             "write_phase");
                tr->asyncEnd(tid, eq_.now(), "mig", st->op.flow, "swap");
            }
        }
        commit(st->op);
        MEMPOD_ASSERT(active_ > 0, "engine slot underflow");
        --active_;
        tryStart();
    };

    auto startWrites = [this, st, finishOp] {
        if (st->op.flow != 0) {
            if (Tracer *tr = eq_.tracer()) {
                const std::uint32_t tid = tr->track(engineTrack_);
                tr->asyncEnd(tid, eq_.now(), "mig", st->op.flow,
                             "read_phase");
                tr->asyncBegin(tid, eq_.now(), "mig", st->op.flow,
                               "write_phase");
            }
        }
        for (std::uint32_t i = 0; i < st->op.swap.lines; ++i) {
            for (const Addr base : {st->op.swap.locA, st->op.swap.locB}) {
                Request w;
                w.addr = base + i * kLineBytes;
                w.type = AccessType::kWrite;
                w.kind = Request::Kind::kMigration;
                w.arrival = eq_.now();
                w.onComplete = [st, finishOp](TimePs) {
                    MEMPOD_ASSERT(st->writesLeft > 0, "write underflow");
                    if (--st->writesLeft == 0)
                        finishOp();
                };
                mem_.access(std::move(w));
            }
        }
    };

    for (std::uint32_t i = 0; i < lines; ++i) {
        for (const Addr base : {st->op.swap.locA, st->op.swap.locB}) {
            Request r;
            r.addr = base + i * kLineBytes;
            r.type = AccessType::kRead;
            r.kind = Request::Kind::kMigration;
            r.arrival = eq_.now();
            r.onComplete = [st, startWrites](TimePs) {
                MEMPOD_ASSERT(st->readsLeft > 0, "read underflow");
                if (--st->readsLeft == 0)
                    startWrites();
            };
            mem_.access(std::move(r));
        }
    }
}

} // namespace mempod
