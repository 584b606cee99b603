/**
 * @file
 * Unit tests for the repo's one JSON layer. json::parse: a table of
 * valid and invalid documents (each invalid one pinned to the byte
 * offset of its error), string escapes and UTF-8, exact integers and
 * the nesting cap. json::Writer: exact bytes for nesting, commas,
 * numbers, escapes and each layout. Then a check that every JSON
 * document the simulator and harnesses emit parses under the strict
 * grammar, and size + hash pins on the byte-contract artifacts.
 */
#include <gtest/gtest.h>

#include <cstdint>
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

/** The bytes a writer appends for the calls in `build`. */
template <typename Build>
std::string
written(Build build, json::Layout layout = {})
{
    std::string out;
    json::Writer w(out, layout);
    build(w);
    EXPECT_EQ(w.depth(), 0u) << out;
    return out;
}

TEST(Json, WriterPlacesCommasAndNesting)
{
    using json::Writer;
    const struct
    {
        std::string got;
        const char *want;
    } cases[] = {
        {written([](Writer &w) { w.beginObject().endObject(); }), "{}"},
        {written([](Writer &w) { w.beginArray().endArray(); }), "[]"},
        {written([](Writer &w) { w.value(7); }), "7"},
        {written([](Writer &w) {
             w.beginArray().value(1).value("a").null().value(true)
                 .value(false).endArray();
         }),
         R"([1,"a",null,true,false])"},
        {written([](Writer &w) {
             w.beginObject().member("a", 1).key("b").beginArray()
                 .beginObject().member("c", "d").endObject()
                 .beginArray().endArray().endArray()
                 .key("e").beginObject().endObject().endObject();
         }),
         R"({"a":1,"b":[{"c":"d"},[]],"e":{}})"},
        // Depth-0 values follow each other with no separator (JSONL).
        {written([](Writer &w) {
             w.beginObject().member("n", 1).endObject();
             w.beginObject().member("n", 2).endObject();
         }),
         R"({"n":1}{"n":2})"},
        {written([](Writer &w) {
             w.beginObject().key("raw").raw(R"({"x":[1]})")
                 .member("y", 2).endObject();
         }),
         R"({"raw":{"x":[1]},"y":2})"},
    };
    for (const auto &[got, want] : cases)
        EXPECT_EQ(got, want);
}

TEST(Json, WriterNumbers)
{
    using json::Writer;
    constexpr double inf = std::numeric_limits<double>::infinity();
    const struct
    {
        std::string got;
        const char *want;
    } cases[] = {
        {written([](Writer &w) {
             w.value(std::numeric_limits<std::uint64_t>::max());
         }),
         "18446744073709551615"},
        {written([](Writer &w) {
             w.value(std::numeric_limits<std::int64_t>::min());
         }),
         "-9223372036854775808"},
        {written([](Writer &w) { w.value(std::uint8_t{200}); }), "200"},
        {written([](Writer &w) {
             w.beginArray().value(0.1).value(16.5).value(0.0).value(-2.5e-3)
                 .value(1e300).value(12000000.0).endArray();
         }),
         "[0.1,16.5,0,-0.0025,1e+300,1.2e+07]"},
        // JSON has no NaN or Inf: non-finite values become null.
        {written([=](Writer &w) {
             w.beginArray().value(inf).value(-inf)
                 .value(std::numeric_limits<double>::quiet_NaN())
                 .fixed(inf, 3).endArray();
         }),
         "[null,null,null,null]"},
        {written([](Writer &w) {
             w.beginArray().fixed(1.0005, 3).fixed(2.0, 3).fixed(-0.25, 1)
                 .fixed(123.456, 0).endArray();
         }),
         "[1.000,2.000,-0.2,123]"},
        {written([](Writer &w) {
             w.beginArray().scaled(1'500'000, 6).scaled(7, 6).scaled(0, 6)
                 .scaled(42, 0)
                 .scaled(std::numeric_limits<std::uint64_t>::max(), 6)
                 .endArray();
         }),
         "[1.500000,0.000007,0.000000,42,18446744073709.551615]"},
    };
    for (const auto &[got, want] : cases)
        EXPECT_EQ(got, want);
}

TEST(Json, WriterEscapesEveryStringAndKey)
{
    const std::string got = written([](json::Writer &w) {
        w.beginObject()
            .member(std::string_view("k\"\\\n\x01", 5),
                    std::string_view("\t\r\b\f\x1f\x7f\0\xc3\xa9", 9))
            .endObject();
    });
    EXPECT_EQ(got, R"({"k\"\\\n\u0001":"\t\r\u0008\u000c\u001f)"
                   "\x7f\\u0000\xc3\xa9\"}");
    const json::Parsed p = json::parse(got);
    ASSERT_FALSE(p.error) << p.error->what;
    ASSERT_EQ(p.value.members().size(), 1u);
    EXPECT_EQ(p.value.members()[0].first, std::string("k\"\\\n\x01", 5));
    EXPECT_EQ(p.value.members()[0].second.text(),
              std::string("\t\r\b\f\x1f\x7f\0\xc3\xa9", 9));
}

TEST(Json, WriterLayouts)
{
    using json::ColonSpace;
    using json::Wrap;
    auto doc = [](json::Writer &w) {
        w.beginObject(Wrap::kLines)
            .member("a", 1)
            .key("o")
            .beginObject(Wrap::kLines)
            .key("in")
            .beginObject()
            .member("x", 1.5)
            .endObject()
            .key("arr")
            .beginArray()
            .value(1)
            .value(2)
            .endArray()
            .key("empty")
            .beginArray(Wrap::kLines)
            .endArray()
            .endObject()
            .key("rows")
            .beginArray(Wrap::kLines)
            .beginObject()
            .member("k", "v")
            .endObject()
            .value(3)
            .endArray()
            .endObject();
    };
    // Stats/perf/bench: ": " only before an object.
    EXPECT_EQ(written(doc, {ColonSpace::kBeforeObjects}),
              "{\n"
              "  \"a\":1,\n"
              "  \"o\": {\n"
              "    \"in\": {\"x\":1.5},\n"
              "    \"arr\":[1,2],\n"
              "    \"empty\":[]\n"
              "  },\n"
              "  \"rows\":[\n"
              "    {\"k\":\"v\"},\n"
              "    3\n"
              "  ]\n"
              "}");
    // Config: ": " before every value.
    EXPECT_EQ(written(doc, {ColonSpace::kAlways}),
              "{\n"
              "  \"a\": 1,\n"
              "  \"o\": {\n"
              "    \"in\": {\"x\": 1.5},\n"
              "    \"arr\": [1,2],\n"
              "    \"empty\": []\n"
              "  },\n"
              "  \"rows\": [\n"
              "    {\"k\": \"v\"},\n"
              "    3\n"
              "  ]\n"
              "}");
    // Trace: compact, one array item per line, no indent.
    EXPECT_EQ(written(
                  [](json::Writer &w) {
                      w.beginObject()
                          .key("traceEvents")
                          .beginArray(Wrap::kLines)
                          .beginObject()
                          .member("ph", "B")
                          .endObject()
                          .beginObject()
                          .member("ph", "E")
                          .endObject()
                          .endArray()
                          .endObject();
                  },
                  {ColonSpace::kNever, 0}),
              "{\"traceEvents\":[\n{\"ph\":\"B\"},\n{\"ph\":\"E\"}\n]}");
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

/** FNV-1a 64 of `s`: a compact pin for a document's exact bytes. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** One pinned run: a mechanism, its metadata cache, and its bytes. */
struct ArtifactPin
{
    const char *label;
    Mechanism mechanism;
    bool metaCache;
    struct Doc
    {
        std::size_t size;
        std::uint64_t hash;
    } stats, intervals, decisions, trace;
};

// Size and FNV-1a of each run's byte-contract artifacts (stats,
// intervals, decisions, trace). Update only after an intentional
// behaviour change; a failing run prints each document's new size and
// hash.
constexpr ArtifactPin kArtifactPins[] = {
    {"MemPod", Mechanism::kMemPod, false,
     {93563, 0x1d481c6c68c81928ull}, {119135, 0xcc787c13e0e30cbdull},
     {21315, 0xbe3217e8f5e19555ull}, {1836021, 0x06b87e7782f77f12ull}},
    {"HMA", Mechanism::kHma, false,
     {85671, 0x61e71cda6a12e577ull}, {106430, 0x2466bcddb060e852ull},
     {29905, 0x1ea618d0405a6132ull}, {1891787, 0xdb9a6a9db3f8dccaull}},
    {"THM", Mechanism::kThm, false,
     {85483, 0x5fb27c388604ba79ull}, {110322, 0xf433e43cc52f1d98ull},
     {31083, 0x958191afb5cfdf02ull}, {1898750, 0x02e9fdf34270b33full}},
    {"CAMEO", Mechanism::kCameo, false,
     {85702, 0x0745db217c9afd83ull}, {139350, 0x707323dab6f3c359ull},
     {703607, 0xee9d75be734e2710ull}, {6170826, 0x1296e5ddd4c8704dull}},
    {"MemPod+cache", Mechanism::kMemPod, true,
     {95816, 0xe5024bd887eb5e0bull}, {147696, 0xc7cf2b31bf8f6981ull},
     {21315, 0xe14487aa3c3b7a6dull}, {1835842, 0xcbcc93386dd34daaull}},
    {"HMA+cache", Mechanism::kHma, true,
     {86243, 0x79742ef25976c403ull}, {113731, 0x6183e0fac7570ad8ull},
     {29904, 0xc80045c2ba49bbb2ull}, {1892297, 0x6a14c181601969a1ull}},
    {"THM+cache", Mechanism::kThm, true,
     {86035, 0x0daf05bf8ac478aeull}, {114256, 0xf464f202c32fe9d0ull},
     {31083, 0xeb6378c6534e8608ull}, {1898499, 0x723f2927bd2da6c3ull}},
};

TEST(Json, ContractArtifactBytesArePinned)
{
    // Every migrating mechanism, with and without the Fig. 9 metadata
    // cache, runs one tiny xalanc trace with the tracer, the interval
    // sampler and the decision ledger on. Each run parks demands
    // behind a swap and commits swaps, so the pins cover the whole
    // swap lifecycle: lock, park, drain, ledger and trace flow.
    for (const ArtifactPin &pin : kArtifactPins) {
        SCOPED_TRACE(pin.label);
        SimConfig c = SimConfig::paper(pin.mechanism);
        c.geom = SystemGeometry::tiny();
        c.mempod.interval = 20_us;
        c.mempod.pod.meaEntries = 16;
        if (pin.metaCache) {
            // Fig. 9's 16 kB point; MemPod splits it over its 4 Pods.
            c.mempod.pod.metaCacheEnabled = true;
            c.mempod.pod.metaCacheBytes = 16 * 1024 / c.geom.numPods;
            c.hma.metaCacheEnabled = true;
            c.thm.metaCacheEnabled = true;
        }
        if (pin.mechanism == Mechanism::kHma)
            c.scaleHmaEpoch(4.0);
        c.statsIntervalPs = 20_us;
        c.tracer.enabled = true;
        c.tracer.sampleEvery = 8;
        GeneratorConfig gc;
        gc.totalRequests = 20000;
        gc.footprintScale = 0.015;
        Simulation sim(c);
        const RunResult r = sim.run(
            WorkloadCatalog::global().build("xalanc", gc), "xalanc");
        EXPECT_GE(r.migration.blockedRequests, 1u);
        EXPECT_GE(r.migration.migrations, 1u);
        if (pin.metaCache) {
            EXPECT_GE(r.migration.metaCacheMisses, 1u);
        }
        ASSERT_NE(sim.sampler(), nullptr);
        ASSERT_NE(sim.decisionLog(), nullptr);
        ASSERT_NE(sim.tracer(), nullptr);
        const struct
        {
            const char *what;
            std::string bytes;
            ArtifactPin::Doc want;
        } docs[] = {
            {"stats",
             StatsWriter::toJson(sim.registry(), sim.finalSnapshot(), r),
             pin.stats},
            {"intervals", StatsWriter::toJsonl(sim.sampler()->records()),
             pin.intervals},
            {"decisions",
             StatsWriter::decisionsToJsonl(*sim.decisionLog(), "xalanc",
                                           r.mechanism),
             pin.decisions},
            {"trace", sim.tracer()->toJson(), pin.trace},
        };
        for (const auto &[what, bytes, want] : docs) {
            const std::uint64_t hash = fnv1a(bytes);
            EXPECT_EQ(bytes.size(), want.size) << what;
            EXPECT_EQ(hash, want.hash)
                << what << ": 0x" << std::hex << hash << "ull";
        }
    }
}

} // namespace
} // namespace mempod
