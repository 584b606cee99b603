/**
 * @file
 * Golden regression pins: a fixed-seed 50k-request mix5 trace through
 * every mechanism on the paper system, with headline statistics
 * checked against checked-in values. Any change to the trace
 * generator, the DRAM timing model, or a migration mechanism that
 * shifts behaviour shows up here as an explicit diff instead of
 * silently drifting the reproduced figures.
 *
 * To regenerate after an *intentional* behaviour change:
 *   MEMPOD_PRINT_GOLDEN=1 ./build/tests/mempod_tests \
 *       --gtest_filter='Golden*' 2>/dev/null
 * and paste the printed table over kGolden / kTraceGolden below.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "sim/runner.h"
#include "sim/simulation.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

constexpr const char *kWorkload = "mix5";
constexpr std::uint64_t kRequests = 50000;
constexpr std::uint64_t kSeed = 42;

struct GoldenRow
{
    const char *label;
    Mechanism mechanism;
    std::uint64_t demandFast;
    std::uint64_t demandSlow;
    std::uint64_t migrations;
    std::uint64_t bytesMoved;
    std::uint64_t simulatedPs;
    std::uint64_t eventsExecuted;
    double ammatNs;
};

// --- golden values (regenerate with MEMPOD_PRINT_GOLDEN=1) ---
constexpr GoldenRow kGolden[] = {
    {"NoMigration", Mechanism::kNoMigration, 5313u, 44687u, 0u, 0u,
     501132500u, 314047u, 57.780567900000001},
    {"HMA", Mechanism::kHma, 8753u, 41247u, 580u, 2375680u, 529132500u,
     543406u, 63.132227899999997},
    {"THM", Mechanism::kThm, 17342u, 32658u, 811u, 3321856u, 501132500u,
     622361u, 61.994082900000002},
    {"CAMEO", Mechanism::kCameo, 8846u, 41154u, 36484u, 4669952u,
     501186250u, 989558u, 61.847012900000003},
    {"MemPod", Mechanism::kMemPod, 11901u, 38099u, 456u, 1867776u,
     505947500u, 482753u, 59.017767899999996},
};

struct TraceGolden
{
    std::uint64_t records;
    std::uint64_t reads;
    std::uint64_t writes;
    std::uint64_t touchedPages;
    std::uint64_t duration;
};
constexpr TraceGolden kTraceGolden = {50000, 36614, 13386, 7844,
                                      501102994};

SimConfig
goldenConfig(Mechanism m)
{
    SimConfig cfg = SimConfig::paper(m);
    // 4x MemPod's interval (200 us) instead of the harnesses' 40x: the
    // 50k-request trace spans ~0.5 ms, so this golden actually sees
    // HMA epochs fire rather than pinning HMA == NoMigration.
    if (m == Mechanism::kHma)
        cfg.scaleHmaEpoch(4.0);
    return cfg;
}

const char *
mechanismEnumName(Mechanism m)
{
    switch (m) {
      case Mechanism::kNoMigration: return "kNoMigration";
      case Mechanism::kMemPod: return "kMemPod";
      case Mechanism::kHma: return "kHma";
      case Mechanism::kThm: return "kThm";
      case Mechanism::kCameo: return "kCameo";
    }
    return "?";
}

bool
printGolden()
{
    return std::getenv("MEMPOD_PRINT_GOLDEN") != nullptr;
}

TEST(GoldenTrace, GeneratorIsPinned)
{
    GeneratorConfig gc;
    gc.totalRequests = kRequests;
    gc.seed = kSeed;
    const Trace trace =
        WorkloadCatalog::global().build(kWorkload, gc);
    const TraceSummary s = summarize(trace);
    if (printGolden()) {
        std::printf("constexpr TraceGolden kTraceGolden = "
                    "{%llu, %llu, %llu, %llu, %llu};\n",
                    static_cast<unsigned long long>(s.records),
                    static_cast<unsigned long long>(s.reads),
                    static_cast<unsigned long long>(s.writes),
                    static_cast<unsigned long long>(s.touchedPages),
                    static_cast<unsigned long long>(s.duration));
        return;
    }
    EXPECT_EQ(s.records, kTraceGolden.records);
    EXPECT_EQ(s.reads, kTraceGolden.reads);
    EXPECT_EQ(s.writes, kTraceGolden.writes);
    EXPECT_EQ(s.touchedPages, kTraceGolden.touchedPages);
    EXPECT_EQ(static_cast<std::uint64_t>(s.duration),
              kTraceGolden.duration);
}

std::vector<JobResult>
runAllMechanisms()
{
    // Run through the BatchRunner so the tier-1 suite exercises the
    // parallel path; determinism makes the worker count irrelevant.
    BatchRunner runner({.jobs = 2});
    for (const GoldenRow &g : kGolden) {
        BatchJob job;
        job.config = goldenConfig(g.mechanism);
        job.workload = kWorkload;
        job.gen.totalRequests = kRequests;
        job.gen.seed = kSeed;
        job.label = g.label;
        runner.add(std::move(job));
    }
    return runner.runAll();
}

TEST(GoldenResults, EveryMechanismIsPinned)
{
    const std::vector<JobResult> results = runAllMechanisms();
    ASSERT_EQ(results.size(), std::size(kGolden));

    for (std::size_t i = 0; i < results.size(); ++i) {
        const GoldenRow &g = kGolden[i];
        ASSERT_TRUE(results[i].ok) << g.label << ": "
                                   << results[i].error;
        const RunResult &r = results[i].result;
        if (printGolden()) {
            std::printf("    {\"%s\", Mechanism::%s, %lluu, %lluu, "
                        "%lluu, %lluu, %lluu, %lluu, %.17g},\n",
                        g.label, mechanismEnumName(g.mechanism),
                        static_cast<unsigned long long>(
                            r.memStats.demandFast),
                        static_cast<unsigned long long>(
                            r.memStats.demandSlow),
                        static_cast<unsigned long long>(
                            r.migration.migrations),
                        static_cast<unsigned long long>(
                            r.migration.bytesMoved),
                        static_cast<unsigned long long>(r.simulatedPs),
                        static_cast<unsigned long long>(
                            r.eventsExecuted),
                        r.ammatNs);
            continue;
        }
        EXPECT_EQ(r.completed, kRequests) << g.label;
        EXPECT_EQ(r.memStats.demandFast, g.demandFast) << g.label;
        EXPECT_EQ(r.memStats.demandSlow, g.demandSlow) << g.label;
        EXPECT_EQ(r.migration.migrations, g.migrations) << g.label;
        EXPECT_EQ(r.migration.bytesMoved, g.bytesMoved) << g.label;
        EXPECT_EQ(static_cast<std::uint64_t>(r.simulatedPs),
                  g.simulatedPs)
            << g.label;
        EXPECT_EQ(r.eventsExecuted, g.eventsExecuted) << g.label;
        // Deterministic, but allow for FP library variation across
        // toolchains; the integer pins above carry the regression
        // burden.
        EXPECT_NEAR(r.ammatNs, g.ammatNs, g.ammatNs * 1e-9) << g.label;
    }
}

} // namespace
} // namespace mempod
