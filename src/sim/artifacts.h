/**
 * @file
 * ArtifactSink: one run directory owning every per-job artifact kind.
 *
 * A batch run used to take four parallel directory options
 * (stats/trace/perf/decisions), each plumbed separately through every
 * harness, tool and test. The sink replaces them with a single run
 * directory plus per-kind enable bits; artifact kinds live in fixed
 * subdirectories so downstream consumers (CI diff steps, validators,
 * explain_tool) can address them by convention:
 *
 *   <root>/stats/      job<NNN>_<label>_<workload>.json[l]
 *   <root>/traces/     <stem>.trace.json      (Chrome trace events)
 *   <root>/decisions/  <stem>.decisions.jsonl (migration ledger)
 *   <root>/perf/       <stem>.perf.json       (host profiles)
 *
 * stats/traces/decisions are byte-deterministic at any --jobs setting
 * and safe to `diff -r` whole; perf/ carries wall times and is
 * not, which is why it is a distinct subdirectory rather than a file
 * suffix — determinism checks diff the siblings and skip it.
 */
#pragma once

#include <filesystem>
#include <string>

namespace mempod {

/** One run directory with per-kind enable bits; empty root = off. */
struct ArtifactSink
{
    /** Run directory; empty disables every artifact kind. */
    std::string root;

    bool stats = true;      //!< registry JSON (+ JSONL time series)
    bool traces = true;     //!< Chrome trace-event JSON
    bool decisions = true;  //!< migration decision ledgers
    bool perf = false;      //!< host-profile sidecars (wall times)

    bool enabled() const { return !root.empty(); }

    bool wantStats() const { return enabled() && stats; }
    bool wantTraces() const { return enabled() && traces; }
    bool wantDecisions() const { return enabled() && decisions; }
    bool wantPerf() const { return enabled() && perf; }

    /** Directory for a kind; empty string when that kind is off. */
    std::string
    statsDir() const
    {
        return wantStats() ? root + "/stats" : std::string();
    }
    std::string
    tracesDir() const
    {
        return wantTraces() ? root + "/traces" : std::string();
    }
    std::string
    decisionsDir() const
    {
        return wantDecisions() ? root + "/decisions" : std::string();
    }
    std::string
    perfDir() const
    {
        return wantPerf() ? root + "/perf" : std::string();
    }

    /**
     * Create the run directory and every enabled subdirectory. Called
     * once from the main thread before workers race to write. Throws
     * std::filesystem::filesystem_error on failure.
     */
    void
    prepare() const
    {
        if (!enabled())
            return;
        for (const std::string &d :
             {statsDir(), tracesDir(), decisionsDir(), perfDir()})
            if (!d.empty())
                std::filesystem::create_directories(d);
    }
};

/**
 * Apply a comma-separated kind list ("stats,traces,decisions,perf")
 * to the sink's enable bits: everything off, then each listed kind
 * on. Returns false (and names the token in *bad, when non-null) on
 * an unknown kind; the sink is left partially updated in that case,
 * so callers should treat false as fatal.
 */
inline bool
applyEmitList(const std::string &csv, ArtifactSink &sink,
              std::string *bad = nullptr)
{
    sink.stats = sink.traces = sink.decisions = sink.perf = false;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        const std::string kind = csv.substr(start, end - start);
        if (!kind.empty()) {
            if (kind == "stats")
                sink.stats = true;
            else if (kind == "traces")
                sink.traces = true;
            else if (kind == "decisions")
                sink.decisions = true;
            else if (kind == "perf")
                sink.perf = true;
            else {
                if (bad)
                    *bad = kind;
                return false;
            }
        }
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return true;
}

} // namespace mempod
