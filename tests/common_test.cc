/** Unit tests for src/common: rng, hash, stats, strings, tables. */
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/units.h"

namespace ask {
namespace {

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next_u64() == b.next_u64();
    EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange)
{
    Rng r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.next_below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInInclusiveBounds)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.next_in(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(5);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng r(9);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.next_exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(13);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ForkIndependent)
{
    Rng a(21);
    Rng b = a.fork();
    EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Hash, Fnv1aKnownVector)
{
    // FNV-1a 64 of empty string is the offset basis.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(Hash, SeedsGiveIndependentFunctions)
{
    HashFn f(hash_seeds::kKeyPartition);
    HashFn g(hash_seeds::kAggregatorAddress);
    int same_bucket = 0;
    const int n = 4096, buckets = 32;
    for (int i = 0; i < n; ++i) {
        std::string k = "key" + std::to_string(i);
        same_bucket += f(k) % buckets == g(k) % buckets;
    }
    // Independent functions collide with probability ~1/buckets.
    EXPECT_NEAR(same_bucket / static_cast<double>(n), 1.0 / buckets, 0.02);
}

TEST(Hash, Uniformity)
{
    const int buckets = 16, n = 16000;
    std::vector<int> counts(buckets, 0);
    for (int i = 0; i < n; ++i)
        ++counts[hash64("k" + std::to_string(i), 99) % buckets];
    for (int c : counts)
        EXPECT_NEAR(c, n / buckets, n / buckets * 0.25);
}

TEST(Samples, QuantilesAndCdf)
{
    Samples s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
    EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-9);
    EXPECT_NEAR(s.cdf_at(50.0), 0.5, 1e-9);
    EXPECT_DOUBLE_EQ(s.cdf_at(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.cdf_at(1000.0), 1.0);
}

TEST(Samples, AddAfterQuantileInvalidatesCache)
{
    Samples s;
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 10.0);
    s.add(20.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 20.0);
}

TEST(StringUtil, Strf)
{
    EXPECT_EQ(strf("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

TEST(StringUtil, FmtBytes)
{
    EXPECT_EQ(fmt_bytes(512), "512.00 B");
    EXPECT_EQ(fmt_bytes(1536), "1.50 KiB");
    EXPECT_EQ(fmt_bytes(3ull * 1024 * 1024 * 1024), "3.00 GiB");
}

TEST(StringUtil, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, U64KeyNulFreeAndUnique)
{
    std::set<std::string> seen;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        std::string k = u64_key(i);
        EXPECT_EQ(k.find('\0'), std::string::npos);
        EXPECT_FALSE(k.empty());
        EXPECT_TRUE(seen.insert(k).second) << "collision at " << i;
    }
    // Also distinct for large values.
    EXPECT_NE(u64_key(1ull << 40), u64_key((1ull << 40) + 1));
}

TEST(Units, GbpsConversion)
{
    // 12.5 bytes/ns == 100 Gbit/s.
    EXPECT_NEAR(units::gbps(12500, 1000), 100.0, 1e-9);
    EXPECT_EQ(units::gbps(100, 0), 0.0);
}

TEST(Units, SerializeNs)
{
    // 1250 bytes at 100 Gbps = 100 ns.
    EXPECT_EQ(units::serialize_ns(1250, 100.0), 100);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.header({"a", "long-header"});
    t.row({"xxxx", "1"});
    std::string s = t.to_string();
    EXPECT_NE(s.find("long-header"), std::string::npos);
    EXPECT_NE(s.find("xxxx"), std::string::npos);
    EXPECT_NE(s.find("---"), std::string::npos);
}

}  // namespace
}  // namespace ask
