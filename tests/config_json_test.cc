/** @file Unit tests for SimConfig JSON round-trip and overrides. */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/config.h"

namespace mempod {
namespace {

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

TEST(ConfigJson, RoundTripIsIdentity)
{
    SimConfig c = SimConfig::paper(Mechanism::kMemPod);
    c.mempod.interval = 12_us;
    c.mempod.pod.metaCacheEnabled = true;
    c.statsIntervalPs = 50_us;
    c.tracer.enabled = true;
    c.tracer.sampleEvery = 7;
    c.controller.closedPage = true;
    const std::string json = c.toJson();
    EXPECT_EQ(SimConfig::fromJson(json).toJson(), json);
}

TEST(ConfigJson, RoundTripPreservesEveryPreset)
{
    // Size and FNV-1a of each preset's toJson() bytes, pinned when the
    // config writer switched to StatsWriter::jsonEscape: the presets'
    // serialized form must not move.
    const struct
    {
        SimConfig config;
        std::size_t size;
        std::uint64_t hash;
    } presets[] = {
        {SimConfig::paper(Mechanism::kHma), 2705, 0x53b5e2be4700b26eull},
        {SimConfig::future(Mechanism::kThm), 2697, 0x21641b0bcb35428dull},
        {SimConfig::fastOnly(), 2704, 0x9f586b4d77e58fa5ull},
        {SimConfig::slowOnly(true), 2708, 0xfd810abfee5a70edull},
    };
    for (const auto &[c, size, hash] : presets) {
        EXPECT_EQ(c.toJson().size(), size) << c.toJson();
        EXPECT_EQ(fnv1a(c.toJson()), hash) << c.toJson();
        const SimConfig back = SimConfig::fromJson(c.toJson());
        EXPECT_EQ(back.toJson(), c.toJson());
        EXPECT_EQ(back.mechanism, c.mechanism);
        EXPECT_EQ(back.geom.fastBytes, c.geom.fastBytes);
        EXPECT_EQ(back.near.name, c.near.name);
        EXPECT_EQ(back.near.timing.tCL, c.near.timing.tCL);
        EXPECT_EQ(back.far.org.busBits, c.far.org.busBits);
    }
}

TEST(ConfigJson, MissingKeysKeepDefaults)
{
    const SimConfig c = SimConfig::fromJson(
        R"({"mechanism": "THM", "thm": {"threshold": 5}})");
    EXPECT_EQ(c.mechanism, Mechanism::kThm);
    EXPECT_EQ(c.thm.threshold, 5u);
    // Untouched fields are the struct defaults.
    const SimConfig d;
    EXPECT_EQ(c.geom.fastBytes, d.geom.fastBytes);
    EXPECT_EQ(c.mempod.pod.meaEntries, d.mempod.pod.meaEntries);
}

TEST(ConfigJson, SetParsesEveryValueKind)
{
    SimConfig c;
    c.set("mechanism", "tlm"); // CLI alias, case-insensitive path
    EXPECT_EQ(c.mechanism, Mechanism::kNoMigration);
    c.set("mechanism", "CAMEO");
    EXPECT_EQ(c.mechanism, Mechanism::kCameo);
    c.set("mempod.interval", "250000000");
    EXPECT_EQ(c.mempod.interval, 250000000u);
    c.set("controller.fcfs", "true");
    EXPECT_TRUE(c.controller.fcfs);
    c.set("controller.fcfs", "0");
    EXPECT_FALSE(c.controller.fcfs);
    c.set("numCores", "4");
    EXPECT_EQ(c.numCores, 4u);
    c.set("dram.near.name", "custom");
    EXPECT_EQ(c.near.name, "custom");
}

TEST(ConfigJson, DramTimingKeysAreSweepable)
{
    SimConfig c;
    c.set("dram.near.tRCD_ps", "9000");
    EXPECT_EQ(c.near.timing.tRCD, 9000u);
    c.set("dram.far.tCL_ps", "20000");
    EXPECT_EQ(c.far.timing.tCL, 20000u);
    c.set("dram.near.banksPerRank", "32");
    EXPECT_EQ(c.near.org.banksPerRank, 32u);
    c.set("dram.far.clock_ps", "625");
    EXPECT_EQ(c.far.timing.clockPeriodPs, 625u);
}

TEST(ConfigJson, DramKeysRoundTripThroughJson)
{
    SimConfig c;
    c.near.timing.tRCD = 9999;
    c.far.org.rowsPerBank = 4242;
    const SimConfig back = SimConfig::fromJson(c.toJson());
    EXPECT_EQ(back.near.timing.tRCD, 9999u);
    EXPECT_EQ(back.far.org.rowsPerBank, 4242u);
    EXPECT_EQ(back.toJson(), c.toJson());
    // The schema is the flat dram.* namespace, not the old member
    // paths.
    EXPECT_NE(c.toJson().find("\"dram\""), std::string::npos);
    EXPECT_NE(c.toJson().find("\"tRCD_ps\""), std::string::npos);
}

TEST(ConfigJson, DramNameWithControlCharactersRoundTrips)
{
    SimConfig c;
    c.near.name = "HBM\tv2 \"q\" \\ \n\x01";
    const std::string json = c.toJson();
    EXPECT_NE(json.find(R"("HBM\tv2 \"q\" \\ \n\u0001")"),
              std::string::npos)
        << json;
    const SimConfig back = SimConfig::fromJson(json);
    EXPECT_EQ(back.near.name, c.near.name);
    EXPECT_EQ(back.toJson(), json);
}

TEST(ConfigJson, NumbersReachSetAsTheirLiteralText)
{
    const SimConfig c = SimConfig::fromJson(
        R"({"placementSeed": 18446744073709551615, "numCores": "4"})");
    EXPECT_EQ(c.placementSeed, 18446744073709551615ull);
    EXPECT_EQ(c.numCores, 4u);
}

TEST(ConfigJsonDeathTest, UnknownKeyPanics)
{
    SimConfig c;
    EXPECT_DEATH(c.set("mempod.bogus", "1"), "unknown config key");
    EXPECT_DEATH(c.set("dram.near.tXYZ_ps", "1"), "unknown config key");
    EXPECT_DEATH(c.set("fast.timing.tCL", "7"), "unknown config key");
    EXPECT_DEATH(
        (void)SimConfig::fromJson(R"({"nonsense": 1})"),
        "unknown config key");
}

TEST(ConfigJsonDeathTest, BadValuesPanic)
{
    SimConfig c;
    EXPECT_DEATH(c.set("numCores", "lots"), "not a non-negative");
    EXPECT_DEATH(c.set("numCores", "4096"), "out of range");
    EXPECT_DEATH(c.set("controller.fcfs", "maybe"), "not a boolean");
    EXPECT_DEATH(c.set("mechanism", "quantum"), "unknown mechanism");
}

TEST(ConfigJsonDeathTest, MalformedJsonPanics)
{
    EXPECT_DEATH((void)SimConfig::fromJson("{"), "fromJson");
    EXPECT_DEATH((void)SimConfig::fromJson(R"({"geom": [1]})"),
                 "fromJson");
    EXPECT_DEATH((void)SimConfig::fromJson(R"({"numCores": 1} x)"),
                 "trailing");
}

TEST(ConfigJsonDeathTest, StrictTokensPanicWithByteOffset)
{
    EXPECT_DEATH((void)SimConfig::fromJson(R"({"numCores": 1-2})"),
                 "fromJson: invalid number \\(at byte 14\\)");
    EXPECT_DEATH((void)SimConfig::fromJson(R"({"numCores": 01})"),
                 "fromJson: invalid number \\(at byte 14\\)");
    EXPECT_DEATH((void)SimConfig::fromJson(R"({"numCores": 4,})"),
                 "trailing comma .*\\(at byte 15\\)");
    EXPECT_DEATH((void)SimConfig::fromJson("[]"),
                 "top level must be an object");
    EXPECT_DEATH((void)SimConfig::fromJson(R"({"numCores": null})"),
                 "'numCores' is null.*\\(at byte 13\\)");
    EXPECT_DEATH((void)SimConfig::fromJson(R"({"numCores": -1})"),
                 "not a non-negative integer");
    EXPECT_DEATH((void)SimConfig::fromJson(R"({"numCores": 1.5})"),
                 "not a non-negative integer");
}

TEST(ConfigJsonDeathTest, DuplicateKeyPanics)
{
    EXPECT_DEATH((void)SimConfig::fromJson(
                     R"({"numCores": 4, "numCores": 8})"),
                 "duplicate key \"numCores\" \\(at byte 16\\)");
}

TEST(ConfigJsonDeathTest, DeeplyNestedJsonPanics)
{
    std::string deep;
    for (int i = 0; i < 300000; ++i)
        deep += "{\"a\":";
    EXPECT_DEATH((void)SimConfig::fromJson(deep),
                 "fromJson: nesting deeper than");
}

} // namespace
} // namespace mempod
