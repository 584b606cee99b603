/** @file Unit tests for the bookkeeping cache and its miss path. */
#include <gtest/gtest.h>

#include "common/event_queue.h"
#include "sim/metadata_path.h"

namespace mempod {
namespace {

TEST(MetadataCache, PacksEntriesIntoBlocks)
{
    MetadataCache c(1024, 4, 4);
    EXPECT_EQ(c.entriesPerBlock(), 16u);
    EXPECT_EQ(c.blockOf(0), 0u);
    EXPECT_EQ(c.blockOf(15), 0u);
    EXPECT_EQ(c.blockOf(16), 1u);
}

TEST(MetadataCache, MissThenHitAfterFill)
{
    MetadataCache c(1024, 4, 4);
    EXPECT_FALSE(c.lookup(5));
    c.fill(5);
    EXPECT_TRUE(c.lookup(5));
    // Same block: entry 6 also hits.
    EXPECT_TRUE(c.lookup(6));
    // Different block: miss.
    EXPECT_FALSE(c.lookup(100));
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(MetadataCache, LruEvictsColdest)
{
    // Direct-mapped-ish: 1 set with 2 ways.
    MetadataCache c(128, 2, 64);
    c.fill(0);
    c.fill(1);
    EXPECT_TRUE(c.lookup(0)); // 0 now MRU
    c.fill(2);                // evicts 1 (LRU)
    EXPECT_TRUE(c.lookup(0));
    EXPECT_FALSE(c.lookup(1));
    EXPECT_TRUE(c.lookup(2));
}

TEST(MetadataCache, DoubleFillIsIdempotent)
{
    MetadataCache c(128, 2, 64);
    c.fill(0);
    c.fill(0);
    EXPECT_TRUE(c.lookup(0));
}

TEST(MetadataCacheDeathTest, BadParamsPanic)
{
    EXPECT_DEATH(MetadataCache(64, 2, 128), "entry size");
    EXPECT_DEATH(MetadataCache(64, 4, 4), "smaller");
}

struct PathFixture : ::testing::Test
{
    EventQueue eq;
    MemorySystem mem{eq, SystemGeometry::tiny(), DramSpec::hbm1GHz(),
                     DramSpec::ddr4_1600()};
    MigrationStats charged;
};

TEST_F(PathFixture, MissInjectsExactlyOneBlockingRead)
{
    MetadataPath path(eq, mem, charged, 1024, 4, 4,
                      [](std::uint64_t block) { return block * 64; });
    int ready = 0;
    TimePs ready_at = 0;
    path.access(7, [&] {
        ++ready;
        ready_at = eq.now();
    });
    EXPECT_EQ(ready, 0); // blocked on the fill
    EXPECT_EQ(path.outstandingFills(), 1u);
    eq.runAll();
    EXPECT_EQ(ready, 1);
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u);
    // The miss and its fill wait are charged to the owner.
    EXPECT_EQ(charged.metaCacheMisses, 1u);
    EXPECT_EQ(charged.metaCacheHits, 0u);
    EXPECT_GT(ready_at, 0u);
    EXPECT_EQ(charged.metadataPs, ready_at); // asked at time 0
}

TEST_F(PathFixture, HitRunsSynchronously)
{
    MetadataPath path(eq, mem, charged, 1024, 4, 4,
                      [](std::uint64_t block) { return block * 64; });
    path.access(7, [] {});
    eq.runAll();
    int ready = 0;
    path.access(7, [&] { ++ready; });
    EXPECT_EQ(ready, 1); // no event needed
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u);
    EXPECT_EQ(charged.metaCacheHits, 1u);
    EXPECT_EQ(charged.metaCacheMisses, 1u);
}

TEST_F(PathFixture, ConcurrentMissesToOneBlockPiggyback)
{
    MetadataPath path(eq, mem, charged, 1024, 4, 4,
                      [](std::uint64_t block) { return block * 64; });
    int ready = 0;
    path.access(8, [&] { ++ready; });
    path.access(9, [&] { ++ready; }); // same 16-entry block
    EXPECT_EQ(path.outstandingFills(), 1u);
    eq.runAll();
    EXPECT_EQ(ready, 2);
    EXPECT_EQ(mem.stats().bookkeepingLines(), 1u); // one fill, two wakeups
}

TEST_F(PathFixture, BackingAddressMappingUsed)
{
    Addr asked = 0;
    MetadataPath path(eq, mem, charged, 1024, 4, 4, [&](std::uint64_t block) {
        asked = 4096 + block * 64;
        return asked;
    });
    path.access(40, [] {}); // block 2
    eq.runAll();
    EXPECT_EQ(asked, 4096u + 2 * 64);
}

} // namespace
} // namespace mempod
