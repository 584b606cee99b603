/**
 * @file
 * Cross-run attribution for the decision-level observability stack:
 *
 *   explain_tool BASE_STATS CUR_STATS
 *                [--decisions BASE_JSONL CUR_JSONL]
 *
 * Given two per-job stats exports ("mempod-stats-v1", written under
 * a run directory's stats/ subdir by --out), explain *where* an
 * AMMAT difference comes from:
 *
 *   - per-component attribution: the delta in each of the five AMMAT
 *     components (mshr_wait, metadata, blocked, queue_wait, service).
 *     These partition arrival-to-finish time exactly, so the
 *     component deltas sum to the measured AMMAT delta — the tool
 *     checks that identity and exits 1 if it fails, because a
 *     mismatch means the stats files are inconsistent or from an
 *     incompatible schema.
 *   - per-pod attribution (MemPod runs): each Pod's contribution to
 *     AMMAT via its blocked_ps/metadata_ps counters, so a regression
 *     can be localized to the pod whose migrations caused it.
 *   - migration quality: migrations, wasted-migration rate, and —
 *     when the "mempod-decisions-v1" ledgers are supplied — the
 *     committed/aborted/ping-pong decision rates of both runs and
 *     the first decision at which the two runs diverge.
 *
 * The ledger is deterministic at any --jobs, so "first diverging
 * decision" is meaningful: it is the earliest point where the two
 * configurations made different migration choices, which is where
 * causal analysis of the downstream AMMAT delta should start.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "flat_doc.h"

namespace {

using mempod::tools::FlatDoc;
using mempod::tools::loadFlat;
using mempod::tools::num;

/** Fetch a required key; exits(2) naming it when absent. */
double
need(const FlatDoc &doc, const char *file, const std::string &key)
{
    const auto it = doc.find(key);
    if (it == doc.end()) {
        std::fprintf(stderr,
                     "explain_tool: '%s' has no numeric key '%s' — is "
                     "it a mempod-stats-v1 export?\n",
                     file, key.c_str());
        std::exit(2);
    }
    return it->second;
}

double
get(const FlatDoc &doc, const std::string &key, double fallback = 0.0)
{
    const auto it = doc.find(key);
    return it == doc.end() ? fallback : it->second;
}

/** Whole file as newline-split lines (without the trailing '\n'). */
std::vector<std::string>
readLines(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "explain_tool: cannot open '%s'\n", path);
        std::exit(2);
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** Ledger totals parsed from a "mempod-decisions-v1" header line. */
struct LedgerSummary
{
    double decisions = 0, committed = 0, aborted = 0, pingPongs = 0;
};

LedgerSummary
parseLedgerHeader(const char *path, const std::vector<std::string> &lines)
{
    if (lines.empty()) {
        std::fprintf(stderr, "explain_tool: '%s' is empty\n", path);
        std::exit(2);
    }
    const mempod::json::Parsed header = mempod::json::parse(lines[0]);
    FlatDoc doc;
    if (!header.error)
        mempod::tools::flatten(header.value, "", doc);
    if (doc.find("decisions") == doc.end()) {
        std::fprintf(stderr,
                     "explain_tool: '%s' does not start with a "
                     "mempod-decisions-v1 header line\n",
                     path);
        std::exit(2);
    }
    LedgerSummary s;
    s.decisions = doc["decisions"];
    s.committed = doc["committed"];
    s.aborted = doc["aborted"];
    s.pingPongs = doc["ping_pongs"];
    return s;
}

double
rate(double part, double whole)
{
    return whole > 0 ? part / whole : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *base_stats = nullptr, *cur_stats = nullptr;
    const char *base_dec = nullptr, *cur_dec = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--decisions")) {
            if (i + 2 >= argc) {
                std::fprintf(stderr, "explain_tool: --decisions needs "
                                     "BASE_JSONL and CUR_JSONL\n");
                return 2;
            }
            base_dec = argv[++i];
            cur_dec = argv[++i];
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr,
                         "explain_tool: unknown flag '%s'\n", argv[i]);
            return 2;
        } else if (!base_stats) {
            base_stats = argv[i];
        } else if (!cur_stats) {
            cur_stats = argv[i];
        } else {
            std::fprintf(stderr, "explain_tool: too many arguments\n");
            return 2;
        }
    }
    if (!base_stats || !cur_stats) {
        std::fprintf(stderr,
                     "usage: explain_tool BASE_STATS CUR_STATS "
                     "[--decisions BASE_JSONL CUR_JSONL]\n");
        return 2;
    }

    const FlatDoc base = loadFlat("explain_tool", base_stats);
    const FlatDoc cur = loadFlat("explain_tool", cur_stats);

    const double base_ammat = need(base, base_stats, "summary.ammat_ns");
    const double cur_ammat = need(cur, cur_stats, "summary.ammat_ns");
    const double measured_delta = cur_ammat - base_ammat;
    std::printf("AMMAT: base %s ns -> current %s ns (delta %+.6g ns)\n\n",
                num(base_ammat).c_str(), num(cur_ammat).c_str(),
                measured_delta);

    // --- per-component attribution ------------------------------------
    // The five components partition every request's arrival-to-finish
    // time, so their deltas sum exactly to the AMMAT delta.
    static const char *const kComponents[] = {
        "mshr_wait", "metadata", "blocked", "queue_wait", "service"};
    std::printf("%-12s %14s %14s %14s %8s\n", "component", "base_ns",
                "current_ns", "delta_ns", "share");
    double sum_delta = 0.0;
    for (const char *c : kComponents) {
        const std::string key =
            std::string("summary.attribution_ns.") + c;
        const double b = need(base, base_stats, key);
        const double v = need(cur, cur_stats, key);
        const double d = v - b;
        sum_delta += d;
        std::printf("%-12s %14s %14s %+14.6g %7.1f%%\n", c,
                    num(b).c_str(), num(v).c_str(), d,
                    measured_delta != 0.0 ? 100.0 * d / measured_delta
                                          : 0.0);
    }
    // Identity check: |sum - measured| within rounding of the larger.
    const double scale =
        std::max({std::fabs(sum_delta), std::fabs(measured_delta), 1.0});
    const bool attribution_ok =
        std::fabs(sum_delta - measured_delta) <= 1e-9 * scale;
    std::printf("attribution_delta_check: %s (sum=%.9g, measured=%.9g)\n",
                attribution_ok ? "OK" : "MISMATCH", sum_delta,
                measured_delta);

    // --- per-pod attribution (MemPod runs only) -----------------------
    // Each pod's blocked_ps + metadata_ps counters, amortized over the
    // run's demand requests, give its ns-per-access contribution; the
    // deltas localize a regression to the pod that caused it.
    const double base_reqs =
        need(base, base_stats, "summary.demand_requests");
    const double cur_reqs = need(cur, cur_stats, "summary.demand_requests");
    bool pod_header = false;
    for (int pod = 0; pod < 4096; ++pod) {
        const std::string p = "metrics.pod" + std::to_string(pod);
        const std::string blocked = p + ".migration.blocked_ps.value";
        const std::string meta = p + ".migration.metadata_ps.value";
        const std::string migs = p + ".migration.migrations.value";
        if (base.find(blocked) == base.end() &&
            cur.find(blocked) == cur.end())
            break; // pods are densely numbered; first gap = done
        if (!pod_header) {
            std::printf("\n%-8s %12s %14s %14s %14s\n", "pod",
                        "migrations", "base_ns/acc", "cur_ns/acc",
                        "delta_ns/acc");
            pod_header = true;
        }
        const double b_ns =
            (get(base, blocked) + get(base, meta)) / 1e3 /
            std::max(base_reqs, 1.0);
        const double c_ns = (get(cur, blocked) + get(cur, meta)) / 1e3 /
                            std::max(cur_reqs, 1.0);
        std::printf("pod%-5d %5s/%-6s %14.6g %14.6g %+14.6g\n", pod,
                    num(get(base, migs)).c_str(),
                    num(get(cur, migs)).c_str(), b_ns, c_ns,
                    c_ns - b_ns);
    }

    // --- migration quality --------------------------------------------
    const double b_migs = get(base, "summary.migrations");
    const double c_migs = get(cur, "summary.migrations");
    const double b_wasted = get(base, "summary.wasted_migrations");
    const double c_wasted = get(cur, "summary.wasted_migrations");
    std::printf("\nmigrations: base %s (%.1f%% wasted) -> current %s "
                "(%.1f%% wasted)\n",
                num(b_migs).c_str(), 100.0 * rate(b_wasted, b_migs),
                num(c_migs).c_str(), 100.0 * rate(c_wasted, c_migs));

    // --- decision-ledger comparison (optional) ------------------------
    if (base_dec && cur_dec) {
        const std::vector<std::string> bl = readLines(base_dec);
        const std::vector<std::string> cl = readLines(cur_dec);
        const LedgerSummary bs = parseLedgerHeader(base_dec, bl);
        const LedgerSummary cs = parseLedgerHeader(cur_dec, cl);
        std::printf("\ndecisions: base %s (%.1f%% aborted, %.1f%% "
                    "ping-pong) -> current %s (%.1f%% aborted, %.1f%% "
                    "ping-pong)\n",
                    num(bs.decisions).c_str(),
                    100.0 * rate(bs.aborted, bs.decisions),
                    100.0 * rate(bs.pingPongs, bs.committed),
                    num(cs.decisions).c_str(),
                    100.0 * rate(cs.aborted, cs.decisions),
                    100.0 * rate(cs.pingPongs, cs.committed));

        // Line 0 is the header (carries run identity), lines 1.. are
        // decisions in the order the policies made them.
        std::size_t diverge = 1;
        const std::size_t n = std::min(bl.size(), cl.size());
        while (diverge < n && bl[diverge] == cl[diverge])
            ++diverge;
        if (diverge >= bl.size() && diverge >= cl.size()) {
            std::printf("decision ledgers are identical (%zu "
                        "decisions)\n",
                        bl.size() - 1);
        } else {
            std::printf("first diverging decision: #%zu\n",
                        diverge - 1);
            std::printf("  base:    %s\n",
                        diverge < bl.size() ? bl[diverge].c_str()
                                            : "(ledger ended)");
            std::printf("  current: %s\n",
                        diverge < cl.size() ? cl[diverge].c_str()
                                            : "(ledger ended)");
        }
    }

    return attribution_ok ? 0 : 1;
}
