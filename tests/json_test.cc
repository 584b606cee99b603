/**
 * @file
 * Unit tests for json::parse, the repo's one JSON reader: a table of
 * valid and invalid documents (each invalid one pinned to the byte
 * offset of its error), string escapes and UTF-8, exact integers,
 * the nesting cap, and a check that every JSON document the
 * simulator and harnesses emit parses under the strict grammar.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "common/json.h"
#include "sim/simulation.h"
#include "sim/stats_writer.h"
#include "trace/catalog.h"

namespace mempod {
namespace {

using Kind = json::Value::Kind;

TEST(Json, ValidDocumentsParse)
{
    for (const char *doc :
         {"0", "-0", "1", "-1", "1.5", "-0.25", "1e3", "1E+3", "2.5e-7",
          "123456789012345678901234567890", "true", "false", "null",
          "\"\"", "\"a b\"", "[]", "{}", "[1,2,3]", " \t\r\n[ 1 , 2 ]\n",
          "{\"a\":{\"b\":[true,false,null,\"x\"]}}",
          "{\"a\":1,\"A\":2}", "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0041\"",
          "[[[[[]]]]]"}) {
        const json::Parsed p = json::parse(doc);
        EXPECT_FALSE(p.error) << doc << ": " << p.error->what;
    }
}

TEST(Json, ValuesKeepKindTextAndOrder)
{
    const json::Parsed p = json::parse(
        R"({"z": 1.50, "a": "s", "m": [true, null], "o": {}})");
    ASSERT_FALSE(p.error);
    const json::Value &v = p.value;
    ASSERT_TRUE(v.is(Kind::kObject));
    ASSERT_EQ(v.members().size(), 4u);
    EXPECT_EQ(v.members()[0].first, "z"); // document order, not sorted
    EXPECT_EQ(v.members()[3].first, "o");
    EXPECT_EQ(v.find("z")->text(), "1.50"); // literal text is kept
    EXPECT_DOUBLE_EQ(v.find("z")->asDouble(), 1.5);
    EXPECT_EQ(v.find("z")->offset(), 6u);
    EXPECT_EQ(v.find("a")->text(), "s");
    EXPECT_TRUE(v.find("m")->items()[0].asBool());
    EXPECT_TRUE(v.find("m")->items()[1].is(Kind::kNull));
    EXPECT_TRUE(v.find("o")->is(Kind::kObject));
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_STREQ(json::kindName(Kind::kArray), "array");
}

struct Invalid
{
    std::string doc;
    std::size_t offset;
    const char *what; //!< substring of the error message
};

TEST(Json, InvalidDocumentsReportTheirByteOffset)
{
    const std::vector<Invalid> table = {
        {"", 0, "unexpected end of input"},
        {"   ", 3, "unexpected end of input"},
        {"1-2", 1, "invalid number"},
        {"2e", 2, "exponent"},
        {"1.5.5", 3, "invalid number"},
        {"01", 1, "invalid number"},
        {"+1", 0, "expected a value"},
        {".5", 0, "expected a value"},
        {"inf", 0, "expected a value"},
        {"NaN", 0, "expected a value"},
        {"-inf", 1, "after '-'"},
        {"0x10", 1, "invalid number"},
        {"1.", 2, "after '.'"},
        {"tru", 0, "invalid literal"},
        {"nul", 0, "invalid literal"},
        {"[1,]", 3, "trailing comma"},
        {"{\"a\":1,}", 7, "trailing comma"},
        {"[1 2]", 3, "expected ',' or ']'"},
        {"{\"a\":1 \"b\":2}", 7, "expected ',' or '}'"},
        {"{1:2}", 1, "expected a string key"},
        {"{\"a\" 1}", 5, "expected ':'"},
        {"{\"a\":1,\"a\":2}", 7, "duplicate key \"a\""},
        {"[", 1, "unexpected end of input"},
        {"\"abc", 4, "unterminated string"},
        {"\"a\tb\"", 2, "raw control character"},
        {"\"\\x\"", 1, "invalid escape"},
        {"\"\\u12\"", 1, "invalid \\u escape"},
        {"\"\\u12g4\"", 1, "invalid \\u escape"},
        {"\"\\uD800\"", 1, "unpaired surrogate"},
        {"\"\\uDC00\"", 1, "unpaired surrogate"},
        {"\"\\uD800\\u0041\"", 1, "unpaired surrogate"},
        {"[1] x", 4, "trailing characters"},
        {"{} {}", 3, "trailing characters"},
        {"// note\n1", 0, "expected a value"},
        {"\v1", 0, "expected a value"},
        {std::string(json::kMaxDepth + 1, '['), json::kMaxDepth,
         "nesting deeper than"},
    };
    for (const Invalid &c : table) {
        const json::Parsed p = json::parse(c.doc);
        ASSERT_TRUE(p.error) << "accepted: " << c.doc;
        EXPECT_EQ(p.error->offset, c.offset) << c.doc;
        EXPECT_NE(p.error->what.find(c.what), std::string::npos)
            << c.doc << ": " << p.error->what;
    }
}

TEST(Json, ErrorsNameTheirLine)
{
    const json::Parsed p = json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    ASSERT_TRUE(p.error);
    EXPECT_EQ(p.error->line, 3u);
    EXPECT_EQ(p.error->offset, 14u);
}

TEST(Json, NestingCapIsExact)
{
    const std::size_t n = json::kMaxDepth;
    EXPECT_FALSE(json::parse(std::string(n, '[') + std::string(n, ']'))
                     .error);
    std::string objects;
    for (std::size_t i = 0; i < n; ++i)
        objects += "{\"a\":";
    objects += "1" + std::string(n, '}');
    EXPECT_FALSE(json::parse(objects).error);
    // Hostile depth is an error, not a stack overflow.
    const json::Parsed deep = json::parse(std::string(300000, '['));
    ASSERT_TRUE(deep.error);
    EXPECT_EQ(deep.error->offset, n);
}

TEST(Json, IntegersAreExact)
{
    auto u64 = [](const char *doc) {
        const json::Parsed p = json::parse(doc);
        EXPECT_FALSE(p.error) << doc;
        return p.value.asU64();
    };
    EXPECT_EQ(u64("0"), 0u);
    EXPECT_EQ(u64("9007199254740993"), 9007199254740993ull);
    EXPECT_EQ(u64("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    for (const char *inexact :
         {"18446744073709551616", "1e30", "1e3", "-1", "-0", "1.5", "1.0",
          "\"7\"", "true"})
        EXPECT_FALSE(u64(inexact).has_value()) << inexact;
}

TEST(Json, DoublesAreCorrectlyRounded)
{
    auto dbl = [](const char *doc) {
        return json::parse(doc).value.asDouble();
    };
    EXPECT_EQ(dbl("0.1"), 0.1);
    EXPECT_EQ(dbl("-2.5e-3"), -2.5e-3);
    EXPECT_EQ(dbl("123456.789"), 123456.789);
    EXPECT_EQ(dbl("1e400"), std::numeric_limits<double>::infinity());
    EXPECT_EQ(dbl("-1e400"), -std::numeric_limits<double>::infinity());
    EXPECT_EQ(dbl("1e-400"), 0.0);
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    const json::Parsed p =
        json::parse(R"("\u0041\u00e9\u20ac\ud834\udd1e\u0000!")");
    ASSERT_FALSE(p.error);
    EXPECT_EQ(p.value.text(),
              std::string("A\xC3\xA9\xE2\x82\xAC\xF0\x9D\x84\x9E\0!", 12));
}

TEST(Json, EveryAsciiByteSurvivesJsonEscape)
{
    std::string all;
    for (int b = 0x01; b <= 0x7F; ++b) {
        const std::string s(1, static_cast<char>(b));
        all += s;
        const json::Parsed p =
            json::parse("\"" + StatsWriter::jsonEscape(s) + "\"");
        ASSERT_FALSE(p.error) << "byte " << b << ": " << p.error->what;
        EXPECT_EQ(p.value.text(), s) << "byte " << b;
    }
    const std::string utf8 =
        all + "h\xC3\xA9llo \xE2\x82\xAC \xF0\x9D\x84\x9E";
    const json::Parsed p =
        json::parse("\"" + StatsWriter::jsonEscape(utf8) + "\"");
    ASSERT_FALSE(p.error);
    EXPECT_EQ(p.value.text(), utf8);
}

/** Parse `text` as one document; fails the test with the error. */
void
expectParses(const std::string &text, const std::string &what)
{
    const json::Parsed p = json::parse(text);
    EXPECT_FALSE(p.error) << what << ": " << p.error->what << " at byte "
                          << p.error->offset;
}

/** Parse every non-empty line of `text` as its own document. */
std::size_t
expectLinesParse(const std::string &text, const std::string &what)
{
    std::istringstream in(text);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        expectParses(line, what + " line " + std::to_string(n));
        ++n;
    }
    return n;
}

TEST(Json, EveryEmitterOutputParses)
{
    SimConfig c = SimConfig::paper(Mechanism::kMemPod);
    c.geom = SystemGeometry::tiny();
    c.mempod.interval = 20_us;
    c.mempod.pod.meaEntries = 16;
    c.statsIntervalPs = 20_us;
    c.tracer.enabled = true;
    c.tracer.sampleEvery = 8;
    c.perfEnabled = true;
    GeneratorConfig gc;
    gc.totalRequests = 20000;
    gc.footprintScale = 0.015;
    Simulation sim(c);
    const RunResult r =
        sim.run(WorkloadCatalog::global().build("xalanc", gc), "xalanc");

    expectParses(StatsWriter::toJson(sim.registry(), sim.finalSnapshot(),
                                     r),
                 "stats");
    ASSERT_NE(sim.sampler(), nullptr);
    EXPECT_GT(expectLinesParse(
                  StatsWriter::toJsonl(sim.sampler()->records()),
                  "intervals"),
              1u);
    ASSERT_NE(sim.decisionLog(), nullptr);
    EXPECT_GT(expectLinesParse(StatsWriter::decisionsToJsonl(
                                   *sim.decisionLog(), "xalanc",
                                   r.mechanism),
                               "decisions"),
              1u);
    ASSERT_NE(sim.perfReport(), nullptr);
    expectParses(StatsWriter::perfToJson(*sim.perfReport()), "perf");
    ASSERT_NE(sim.tracer(), nullptr);
    expectParses(sim.tracer()->toJson(), "trace");
    expectParses(c.toJson(), "config");

    const auto dir = std::filesystem::temp_directory_path() /
                     ("mempod_json_test_" + std::to_string(getpid()));
    std::filesystem::create_directories(dir);
    JobResult job;
    job.ok = true;
    job.workload = "xalanc";
    job.label = "MemPod";
    job.result = r;
    job.wallSeconds = 0.25;
    job.hasPerf = true;
    job.perf = *sim.perfReport();
    bench::BenchReport bench("json_test", dir.string());
    bench.addResults({job});
    std::ifstream in(bench.write(), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    expectParses(ss.str(), "BENCH sidecar");
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace mempod
