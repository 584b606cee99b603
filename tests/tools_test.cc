/**
 * @file
 * End-to-end tests of the CLI tools, invoking the real binaries
 * (paths injected by CMake as MEMPOD_*_TOOL_PATH):
 *   - trace_tool summary --json emits the pinned
 *     mempod-trace-summary-v1 schema, as valid JSON even for event
 *     names that need escaping and ids of any length
 *   - trace_tool convert prints a manifest entry that parses and names
 *     the converted files, whatever characters their paths hold
 *   - perf_tool diff tolerates metric keys present in only one file
 *     (reports "(new)"/"(removed)" instead of crashing or silently
 *     skipping), and rejects malformed numeric flags with exit 2
 *   - explain_tool's per-component attribution sums exactly to the
 *     measured AMMAT delta between two real runs
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/json.h"
#include "sim/simulation.h"
#include "sim/stats_writer.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

/** stdout and exit code of a shell command. */
struct CmdResult
{
    std::string out;
    int status = -1;
};

CmdResult
run(const std::string &cmd)
{
    CmdResult r;
    std::FILE *p = popen((cmd + " 2>/dev/null").c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    const int rc = pclose(p);
    r.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    return r;
}

std::filesystem::path
tmpDir()
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("mempod_tools_test_" + std::to_string(getpid()));
    std::filesystem::create_directories(dir);
    return dir;
}

void
writeText(const std::filesystem::path &p, const std::string &text)
{
    std::ofstream(p, std::ios::binary) << text;
}

SimConfig
tinyConfig(Mechanism m)
{
    SimConfig c = SimConfig::paper(m);
    c.geom = SystemGeometry::tiny();
    c.mempod.interval = 20_us;
    c.mempod.pod.meaEntries = 16;
    return c;
}

Trace
tinyTrace(std::uint64_t requests = 30000)
{
    GeneratorConfig gc;
    gc.totalRequests = requests;
    gc.footprintScale = 0.015;
    return WorkloadCatalog::global().build("xalanc", gc);
}

TEST(TraceTool, SummaryJsonMatchesPinnedSchema)
{
    const auto dir = tmpDir();
    SimConfig c = tinyConfig(Mechanism::kMemPod);
    c.tracer.enabled = true;
    c.tracer.sampleEvery = 8;
    Simulation sim(c);
    sim.run(tinyTrace(), "xalanc");
    ASSERT_NE(sim.tracer(), nullptr);
    const auto trace_file = dir / "run.trace.json";
    writeText(trace_file, sim.tracer()->toJson());

    const CmdResult r = run(std::string(MEMPOD_TRACE_TOOL_PATH) +
                            " summary " + trace_file.string() +
                            " --json");
    EXPECT_EQ(r.status, 0);
    // Golden schema keys: removing or renaming any of these breaks
    // downstream consumers and must be a deliberate schema bump.
    for (const char *key :
         {"\"schema\":\"mempod-trace-summary-v1\"", "\"events\":",
          "\"unmatched_ends\":", "\"open_spans\":", "\"counts\":",
          "\"markers\":", "\"demands\":", "\"migrations\":",
          "\"blocked\":", "\"complete\":", "\"total_us\":", "\"top\":"})
        EXPECT_NE(r.out.find(key), std::string::npos) << key;
    std::filesystem::remove_all(dir);
}

TEST(TraceTool, SummaryJsonEscapesNamesAndKeepsLongIds)
{
    const auto dir = tmpDir();
    const std::string id = "span-" + std::string(195, '7');
    const auto trace_file = dir / "hostile.trace.json";
    writeText(trace_file,
              "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
              R"({"name":"we\"ird","ph":"i","ts":0.5,"pid":0,"tid":0},)"
              "\n"
              R"({"name":"demand","ph":"b","ts":1.0,"pid":0,"tid":0,)"
              R"("cat":"req","id":")" +
                  id + "\"},\n" +
                  R"({"name":"demand","ph":"e","ts":3.25,"pid":0,"tid":0,)"
                  R"("cat":"req","id":")" +
                  id + "\"},\n" +
                  R"({"name":"we\"ird","ph":"i","ts":4,"pid":0,"tid":0})"
                  "\n]}\n");

    const CmdResult r = run(std::string(MEMPOD_TRACE_TOOL_PATH) +
                            " summary " + trace_file.string() +
                            " --json");
    EXPECT_EQ(r.status, 0);
    const json::Parsed p = json::parse(r.out);
    ASSERT_FALSE(p.error) << p.error->what << ": " << r.out;
    const json::Value *marker = p.value.find("markers")->find("we\"ird");
    ASSERT_NE(marker, nullptr) << r.out;
    EXPECT_EQ(marker->asU64().value_or(0), 2u);
    const json::Value *count = p.value.find("counts")->find("i we\"ird");
    ASSERT_NE(count, nullptr) << r.out;
    EXPECT_EQ(count->asU64().value_or(0), 2u);
    const json::Value *top = p.value.find("demands")->find("top");
    ASSERT_NE(top, nullptr) << r.out;
    ASSERT_EQ(top->items().size(), 1u) << r.out;
    EXPECT_EQ(top->items()[0].find("id")->text(), id);
    EXPECT_EQ(top->items()[0].find("begin_us")->text(), "1.000");
    EXPECT_EQ(top->items()[0].find("dur_us")->text(), "2.250");
    std::filesystem::remove_all(dir);
}

TEST(TraceTool, ConvertManifestEntryEscapesPaths)
{
    const auto dir = tmpDir();
    const std::string tool = MEMPOD_TRACE_TOOL_PATH;
    const std::string trc = (dir / "x.trc").string();
    ASSERT_EQ(run(tool + " record xalanc " + trc + " 2000 42").status, 0);
    // A directory name holding both characters JSON must escape; the
    // shell's single quotes pass it through verbatim.
    const auto odd = dir / "out \"q\" \\ dir";
    std::filesystem::create_directories(odd);
    const std::string stem = (odd / "x").string();
    const CmdResult r =
        run(tool + " convert " + trc + " '" + stem + "' champsim");
    ASSERT_EQ(r.status, 0) << r.out;

    // The entry is everything after the "manifest entry" line.
    const std::size_t at = r.out.find('\n', r.out.find("manifest entry"));
    ASSERT_NE(at, std::string::npos) << r.out;
    const json::Parsed p = json::parse(std::string_view(r.out).substr(at));
    ASSERT_FALSE(p.error) << p.error->what << ": " << r.out;
    EXPECT_EQ(p.value.find("format")->text(), "champsim");
    const json::Value *files = p.value.find("files");
    ASSERT_NE(files, nullptr) << r.out;
    ASSERT_FALSE(files->items().empty()) << r.out;
    for (const json::Value &f : files->items()) {
        const std::string path = f.find("path")->text();
        EXPECT_EQ(path, stem + ".core" +
                            std::to_string(f.find("core")->asU64().value_or(
                                ~0ull)) +
                            ".champsim");
        EXPECT_TRUE(std::filesystem::exists(path)) << path;
    }
    std::filesystem::remove_all(dir);
}

TEST(PerfTool, DiffReportsNewAndRemovedKeysWithoutFailing)
{
    const auto dir = tmpDir();
    writeText(dir / "base.json",
              "{\"events_per_second\": 100, \"old\": {\"wall_ms\": 5}}");
    writeText(dir / "cur.json",
              "{\"events_per_second\": 101, \"fresh\": {\"wall_ms\": 7}}");
    const CmdResult r =
        run(std::string(MEMPOD_PERF_TOOL_PATH) + " diff " +
            (dir / "base.json").string() + " " +
            (dir / "cur.json").string());
    // Schema drift alone is not a regression: exit 0.
    EXPECT_EQ(r.status, 0);
    EXPECT_NE(r.out.find("(new)"), std::string::npos);
    EXPECT_NE(r.out.find("(removed)"), std::string::npos);
    EXPECT_NE(r.out.find("1 new, 1 removed"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(PerfTool, DiffStillFailsOnGenuineRegression)
{
    const auto dir = tmpDir();
    writeText(dir / "base.json", "{\"events_per_second\": 100}");
    writeText(dir / "cur.json", "{\"events_per_second\": 10}");
    const CmdResult r =
        run(std::string(MEMPOD_PERF_TOOL_PATH) + " diff " +
            (dir / "base.json").string() + " " +
            (dir / "cur.json").string());
    EXPECT_EQ(r.status, 1);
    EXPECT_NE(r.out.find("REGRESSION"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(PerfTool, DiffRejectsMalformedNumericFlags)
{
    const auto dir = tmpDir();
    writeText(dir / "base.json", "{\"events_per_second\": 100}");
    writeText(dir / "cur.json", "{\"events_per_second\": 10}");
    const std::string diff = std::string(MEMPOD_PERF_TOOL_PATH) +
                             " diff " + (dir / "base.json").string() +
                             " " + (dir / "cur.json").string();
    // A value that is not a whole finite number, or is out of range,
    // must not silently become a 0% threshold or a 0x gate.
    for (const char *flags :
         {"--threshold-pct abc", "--threshold-pct 5x", "--threshold-pct ''",
          "--threshold-pct -5", "--threshold-pct inf",
          "--threshold-pct nan", "--threshold-pct 1e999",
          "--require-speedup abc", "--require-speedup 0",
          "--require-speedup -2", "--require-speedup inf"}) {
        const CmdResult r = run("(" + diff + " " + flags + " 2>&1)");
        EXPECT_EQ(r.status, 2) << flags;
        EXPECT_NE(r.out.find("needs a finite number"), std::string::npos)
            << flags << ": " << r.out;
        EXPECT_EQ(r.out.find("REGRESSION"), std::string::npos) << flags;
    }
    // Well-formed values still parse: a 95% drop passes a 99% bound.
    EXPECT_EQ(run(diff + " --threshold-pct 99.5").status, 0);
    std::filesystem::remove_all(dir);
}

TEST(ExplainTool, AttributionSumsExactlyToMeasuredAmmatDelta)
{
    const auto dir = tmpDir();
    const Trace t = tinyTrace();
    std::filesystem::path stats[2], decisions[2];
    int i = 0;
    for (Mechanism m : {Mechanism::kNoMigration, Mechanism::kMemPod}) {
        Simulation sim(tinyConfig(m));
        const RunResult r = sim.run(t, "xalanc");
        stats[i] = dir / (std::string(mechanismName(m)) + ".json");
        writeText(stats[i], StatsWriter::toJson(sim.registry(),
                                                sim.finalSnapshot(), r));
        decisions[i] =
            dir / (std::string(mechanismName(m)) + ".decisions.jsonl");
        writeText(decisions[i],
                  StatsWriter::decisionsToJsonl(*sim.decisionLog(),
                                                "xalanc", r.mechanism));
        ++i;
    }
    const CmdResult r = run(std::string(MEMPOD_EXPLAIN_TOOL_PATH) + " " +
                            stats[0].string() + " " + stats[1].string() +
                            " --decisions " + decisions[0].string() +
                            " " + decisions[1].string());
    // Exit 0 is the tool's own exactness guarantee: it verifies the
    // five component deltas sum to the measured AMMAT delta.
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("attribution_delta_check: OK"),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("first diverging decision"), std::string::npos);
    EXPECT_NE(r.out.find("decisions: base 0"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(ExplainTool, IdenticalRunsReportIdenticalLedgers)
{
    const auto dir = tmpDir();
    const Trace t = tinyTrace(15000);
    Simulation sim(tinyConfig(Mechanism::kMemPod));
    const RunResult r = sim.run(t, "xalanc");
    const auto stats = dir / "run.json";
    const auto dec = dir / "run.decisions.jsonl";
    writeText(stats, StatsWriter::toJson(sim.registry(),
                                         sim.finalSnapshot(), r));
    writeText(dec, StatsWriter::decisionsToJsonl(*sim.decisionLog(),
                                                 "xalanc", r.mechanism));
    const CmdResult out = run(std::string(MEMPOD_EXPLAIN_TOOL_PATH) +
                              " " + stats.string() + " " +
                              stats.string() + " --decisions " +
                              dec.string() + " " + dec.string());
    EXPECT_EQ(out.status, 0);
    EXPECT_NE(out.out.find("decision ledgers are identical"),
              std::string::npos)
        << out.out;
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace mempod
