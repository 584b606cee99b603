/**
 * @file
 * Host-profile utility for the perf sidecars this repo emits
 * (perf.json per job, BENCH_<name>.json per harness run):
 *
 *   perf_tool summary FILE...
 *       Flatten every numeric leaf to a dotted path and print an
 *       aligned table — a quick way to eyeball one run, or several
 *       side by side.
 *
 *   perf_tool diff BASE CURRENT [--threshold-pct P] [--warn-only]
 *                               [--require-speedup N]
 *       Compare two sidecars and flag regressions on the tracked
 *       metrics: any throughput leaf (`events_per_second`,
 *       `sim_ms_per_second`) dropping, or any wall-time leaf
 *       (wall_seconds*, wall_ms) rising, by more than the threshold
 *       (default 25%). Tracked keys present in only one file are
 *       reported as "(new)" / "(removed)" rather than silently
 *       skipped or crashed on — schema drift between baselines is
 *       normal as harnesses grow. Exits 1 on regression unless
 *       --warn-only (the CI perf-smoke job runs warn-only: shared
 *       runners are too noisy for a hard gate, but the deltas still
 *       land in the log).
 *
 *       --require-speedup N is a hard gate on simulation cost: every
 *       `events_per_sim_ms` leaf in CURRENT must be at most 1/N of
 *       its BASE value — i.e. the current run retires the same
 *       simulated time in at least N times fewer events. Event
 *       counts are a pure function of configs and traces (no
 *       wall-clock noise), so this is safe as a hard CI gate even on
 *       shared runners; the CI fidelity job uses it to enforce the
 *       sampled-mode >= 10x floor against the detailed sidecar.
 *       Fails when no such leaf exists in both files, so the gate
 *       cannot silently pass on schema drift; --warn-only does not
 *       soften it.
 *
 * Sidecars are parsed with json::parse and viewed through the
 * dotted-path FlatDoc in flat_doc.h, shared with explain_tool.
 */
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "flat_doc.h"

namespace {

using mempod::tools::FlatDoc;
using mempod::tools::loadFlat;
using mempod::tools::num;

int
cmdSummary(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "usage: perf_tool summary FILE...\n");
        return 2;
    }
    // Union of keys across all files, one column per file.
    std::vector<FlatDoc> docs;
    std::map<std::string, bool> keys;
    for (int i = 2; i < argc; ++i) {
        docs.push_back(loadFlat("perf_tool", argv[i]));
        for (const auto &[k, v] : docs.back())
            keys[k] = true;
    }

    std::size_t keyw = std::strlen("metric");
    for (const auto &[k, unused] : keys)
        keyw = std::max(keyw, k.size());

    std::printf("%-*s", static_cast<int>(keyw), "metric");
    for (int i = 2; i < argc; ++i)
        std::printf("  %18s", argv[i]);
    std::printf("\n");
    for (const auto &[k, unused] : keys) {
        std::printf("%-*s", static_cast<int>(keyw), k.c_str());
        for (const FlatDoc &d : docs) {
            const auto it = d.find(k);
            std::printf("  %18s",
                        it == d.end() ? "-" : num(it->second).c_str());
        }
        std::printf("\n");
    }
    return 0;
}

/** Leaf name of a flattened key: last dotted component, minus any
 *  [i] suffix. */
std::string
leafName(const std::string &key)
{
    std::size_t end = key.size();
    if (end && key[end - 1] == ']') {
        const std::size_t open = key.rfind('[');
        if (open != std::string::npos)
            end = open;
    }
    const std::size_t dot = key.rfind('.', end ? end - 1 : 0);
    return key.substr(dot == std::string::npos ? 0 : dot + 1,
                      end - (dot == std::string::npos ? 0 : dot + 1));
}

/**
 * Regression direction for a tracked metric: +1 when higher is worse
 * (wall time), -1 when lower is worse (throughput), 0 = not tracked.
 */
int
trackedDirection(const std::string &key)
{
    const std::string leaf = leafName(key);
    if (leaf == "events_per_second" || leaf == "sim_ms_per_second")
        return -1;
    if (leaf == "events_per_sim_ms")
        return +1; // cost: more events per simulated ms = more work
    if (leaf == "wall_seconds" || leaf == "wall_ms" || leaf == "median" ||
        leaf == "p90") {
        // median/p90 only count when they hang off a wall_seconds
        // object (BENCH schema); bare p10 is noise-dominated.
        if (leaf == "median" || leaf == "p90")
            return key.find("wall_seconds") != std::string::npos ? +1
                                                                 : 0;
        return +1;
    }
    return 0;
}

/**
 * Parse `text` as the value of a numeric diff flag: the whole string
 * must be a finite decimal number, at least `min` (and above it when
 * `strict`). Prints a message and returns false otherwise.
 */
bool
parseFlagNumber(const char *flag, const char *text, double min,
                bool strict, double &out)
{
    const char *end = text + std::strlen(text);
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ptr == text || ptr != end || ec != std::errc{} ||
        !std::isfinite(v) || v < min || (strict && v == min)) {
        std::fprintf(stderr,
                     "perf_tool diff: %s needs a finite number %s %g, "
                     "got '%s'\n",
                     flag, strict ? ">" : ">=", min, text);
        return false;
    }
    out = v;
    return true;
}

int
cmdDiff(int argc, char **argv)
{
    double threshold_pct = 25.0;
    double require_speedup = 0.0;
    bool warn_only = false;
    std::vector<const char *> files;
    for (int i = 2; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--threshold-pct") && i + 1 < argc) {
            if (!parseFlagNumber(argv[i], argv[i + 1], 0.0, false,
                                 threshold_pct))
                return 2;
            ++i;
        } else if (!std::strcmp(argv[i], "--require-speedup") &&
                   i + 1 < argc) {
            if (!parseFlagNumber(argv[i], argv[i + 1], 0.0, true,
                                 require_speedup))
                return 2;
            ++i;
        } else if (!std::strcmp(argv[i], "--warn-only")) {
            warn_only = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "perf_tool diff: unknown flag '%s'\n",
                         argv[i]);
            return 2;
        } else {
            files.push_back(argv[i]);
        }
    }
    if (files.size() != 2) {
        std::fprintf(stderr,
                     "usage: perf_tool diff BASE CURRENT "
                     "[--threshold-pct P] [--warn-only] "
                     "[--require-speedup N]\n");
        return 2;
    }
    const FlatDoc base = loadFlat("perf_tool", files[0]);
    const FlatDoc cur = loadFlat("perf_tool", files[1]);

    // Union of tracked keys from both files: a metric present in only
    // one baseline (schema drift as harnesses grow) is reported, not
    // silently skipped — and never counted as a regression.
    std::map<std::string, int> tracked; // key -> direction
    for (const FlatDoc *doc : {&base, &cur})
        for (const auto &[key, unused] : *doc) {
            const int dir = trackedDirection(key);
            if (dir != 0)
                tracked.emplace(key, dir);
        }

    int regressions = 0, improvements = 0, compared = 0;
    int added = 0, removed = 0;
    int speedup_checked = 0, speedup_failures = 0;
    std::printf("%-44s %16s %16s %9s\n", "tracked metric", "base",
                "current", "delta");
    for (const auto &[key, dir] : tracked) {
        const auto bit = base.find(key);
        const auto cit = cur.find(key);
        if (bit == base.end()) {
            std::printf("%-44s %16s %16s %9s\n", key.c_str(), "-",
                        num(cit->second).c_str(), "(new)");
            ++added;
            continue;
        }
        if (cit == cur.end()) {
            std::printf("%-44s %16s %16s %9s\n", key.c_str(),
                        num(bit->second).c_str(), "-", "(removed)");
            ++removed;
            continue;
        }
        const double bval = bit->second;
        const double cval = cit->second;
        if (bval == 0.0)
            continue; // no baseline signal
        ++compared;
        if (require_speedup > 0.0 &&
            leafName(key) == "events_per_sim_ms") {
            ++speedup_checked;
            // Cost metric: fewer events per simulated ms is faster.
            const double speedup = bval / cval;
            const bool pass = speedup >= require_speedup;
            if (!pass)
                ++speedup_failures;
            std::printf("%-44s %16s %16s %8.2fx  speedup %s "
                        "(need %.1fx)\n",
                        key.c_str(), num(bval).c_str(),
                        num(cval).c_str(), speedup,
                        pass ? "OK" : "FAIL", require_speedup);
            continue;
        }
        const double pct = 100.0 * (cval - bval) / bval;
        // Positive `worse` = regression in this metric's direction.
        const double worse = pct * dir;
        const char *mark = "";
        if (worse > threshold_pct) {
            mark = "  REGRESSION";
            ++regressions;
        } else if (worse < -threshold_pct) {
            mark = "  improved";
            ++improvements;
        }
        std::printf("%-44s %16s %16s %+8.1f%%%s\n", key.c_str(),
                    num(bval).c_str(), num(cval).c_str(), pct, mark);
    }
    std::printf("\n%d tracked metrics compared: %d regression(s), %d "
                "improvement(s) beyond %.1f%%",
                compared, regressions, improvements, threshold_pct);
    if (added || removed)
        std::printf("; %d new, %d removed", added, removed);
    std::printf("\n");
    if (regressions && warn_only)
        std::printf("warn-only: not failing the run.\n");
    if (require_speedup > 0.0) {
        if (speedup_checked == 0) {
            std::fprintf(stderr,
                         "perf_tool diff: --require-speedup given but "
                         "no events_per_sim_ms leaf exists in both "
                         "files\n");
            return 1;
        }
        std::printf("speedup gate: %d leaf(s) checked, %d below the "
                    "%.1fx floor\n",
                    speedup_checked, speedup_failures, require_speedup);
        if (speedup_failures)
            return 1; // hard gate: --warn-only does not soften it
    }
    return (regressions && !warn_only) ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: perf_tool summary FILE... | perf_tool diff "
                     "BASE CURRENT [--threshold-pct P] [--warn-only]\n");
        return 2;
    }
    if (!std::strcmp(argv[1], "summary"))
        return cmdSummary(argc, argv);
    if (!std::strcmp(argv[1], "diff"))
        return cmdDiff(argc, argv);
    std::fprintf(stderr, "perf_tool: unknown subcommand '%s'\n",
                 argv[1]);
    return 2;
}
