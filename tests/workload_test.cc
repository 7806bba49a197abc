/** Unit tests for the workload generators and corpus synthesizers. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "ask/key_space.h"
#include "common/hash.h"
#include "common/random.h"
#include "workload/generators.h"
#include "workload/models.h"
#include "workload/text_corpus.h"

namespace ask::workload {
namespace {

TEST(UniformGenerator, RespectsVocabularyAndReproducible)
{
    UniformGenerator a(100, 5), b(100, 5);
    auto sa = a.generate(1000);
    auto sb = b.generate(1000);
    EXPECT_EQ(sa.size(), 1000u);
    EXPECT_EQ(sa, sb);
    std::set<core::Key> keys;
    for (const auto& t : sa)
        keys.insert(t.key);
    EXPECT_LE(keys.size(), 100u);
    EXPECT_GT(keys.size(), 80u);  // most of the vocabulary appears
}

TEST(UniformGenerator, PrefixIsolatesSenders)
{
    UniformGenerator a(10, 1, "a-"), b(10, 1, "b-");
    EXPECT_NE(a.key_of(3), b.key_of(3));
}

TEST(ZipfGenerator, SkewMatchesExponent)
{
    ZipfGenerator z(1000, 1.0, 9);
    std::map<std::uint64_t, std::uint64_t> counts;
    const std::uint64_t n = 200000;
    for (std::uint64_t i = 0; i < n; ++i)
        ++counts[z.sample_rank()];
    // Rank 0 should be ~1/H(1000) of the mass (~13.4% for alpha=1).
    double top = static_cast<double>(counts[0]) / n;
    EXPECT_NEAR(top, 0.134, 0.02);
    // Frequencies are (weakly) decreasing over the head ranks.
    EXPECT_GT(counts[0], counts[9]);
    EXPECT_GT(counts[1], counts[50]);
}

TEST(ZipfGenerator, AlphaZeroIsUniform)
{
    ZipfGenerator z(100, 0.0, 3);
    std::map<std::uint64_t, std::uint64_t> counts;
    for (int i = 0; i < 100000; ++i)
        ++counts[z.sample_rank()];
    EXPECT_NEAR(counts[0], 1000, 250);
    EXPECT_NEAR(counts[99], 1000, 250);
}

TEST(ZipfGenerator, OrderModes)
{
    ZipfGenerator z(500, 1.0, 7);
    auto hot = z.generate(5000, KeyOrder::kHotFirst);
    // Hot-first: ranks non-decreasing == hottest keys first.
    ZipfGenerator z2(500, 1.0, 7);
    auto cold = z2.generate(5000, KeyOrder::kColdFirst);
    EXPECT_EQ(hot.front().key, z.key_of(0));
    EXPECT_EQ(cold.back().key, z.key_of(0));
    // Same seed -> same multiset of keys.
    std::multiset<core::Key> mh, mc;
    for (const auto& t : hot)
        mh.insert(t.key);
    for (const auto& t : cold)
        mc.insert(t.key);
    EXPECT_EQ(mh, mc);
}

/** What generate() returns, built the direct way: draw every rank,
 *  sort the draws into the order, and build each tuple's key. */
core::KvStream
sorted_draws(ZipfGenerator& z, std::uint64_t n, KeyOrder order,
             core::Value value)
{
    std::vector<std::uint64_t> ranks(n);
    for (auto& r : ranks)
        r = z.sample_rank();
    if (order == KeyOrder::kHotFirst)
        std::sort(ranks.begin(), ranks.end());
    else if (order == KeyOrder::kColdFirst)
        std::sort(ranks.begin(), ranks.end(), std::greater<>());
    core::KvStream out;
    for (std::uint64_t r : ranks)
        out.push_back({z.key_of(r), value});
    return out;
}

TEST(ZipfGenerator, OrdersMatchSortedDraws)
{
    for (std::uint64_t seed : {1, 7, 42, 2024}) {
        for (KeyOrder order : {KeyOrder::kShuffled, KeyOrder::kHotFirst,
                               KeyOrder::kColdFirst}) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " order "
                                            << static_cast<int>(order));
            ZipfGenerator z(300, 1.0, seed, "k-");
            ZipfGenerator ref(300, 1.0, seed, "k-");
            // Two calls: the second continues the same draws.
            for (std::uint64_t n : {5000, 777})
                EXPECT_EQ(z.generate(n, order, 3),
                          sorted_draws(ref, n, order, 3));
            EXPECT_TRUE(z.generate(0, order).empty());
            ZipfGenerator one(1, 0.5, seed);
            EXPECT_EQ(one.generate(10, order),
                      core::KvStream(10, {one.key_of(0), 1}));
        }
    }
}

/** lower_bound's rank for `u`, checked against the sampler's. */
void
expect_exact_rank(const ZipfSampler& s, double u)
{
    const auto& cdf = s.cdf();
    auto want = static_cast<std::uint64_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    ASSERT_EQ(s.rank(u), want) << "u " << std::hexfloat << u;
}

TEST(ZipfSampler, MatchesBinarySearchOverTheCdf)
{
    const double below_one = std::nextafter(1.0, 0.0);
    for (std::uint64_t distinct : {1, 2, 3, 8192, 65536}) {
        for (double alpha : {0.0, 1.0, 1.04, 40.0}) {
            SCOPED_TRACE(testing::Message()
                         << "distinct " << distinct << " alpha " << alpha);
            ZipfSampler s(distinct, alpha);
            const auto& cdf = s.cdf();
            ASSERT_EQ(cdf.size(), distinct);
            ASSERT_EQ(cdf.back(), 1.0);
            if (alpha == 40.0 && distinct >= 3) {
                // Past rank 1 the weights vanish beside 1: the tail
                // entries compare equal, and a draw must find the first.
                ASSERT_EQ(cdf[1], cdf.back());
            }
            expect_exact_rank(s, 0.0);
            expect_exact_rank(s, below_one);
            for (double c : cdf) {
                expect_exact_rank(s, c);
                expect_exact_rank(s, std::nextafter(c, 0.0));
            }
            Rng rng = seeded_rng(
                "zipf_sampler",
                distinct * 10000 + static_cast<std::uint64_t>(alpha * 100));
            for (int i = 0; i < 1000000; ++i)
                expect_exact_rank(s, rng.next_double());
        }
    }
}

/** Folds a key and a value into a running digest. */
std::uint64_t
fold_digest(std::uint64_t h, const core::Key& key, core::Value value)
{
    return mix64(mix64(h ^ fnv1a64(key)) ^ value);
}

std::uint64_t
stream_digest(const core::KvStream& stream)
{
    std::uint64_t h = stream.size();
    for (const auto& t : stream)
        h = fold_digest(h, t.key, t.value);
    return h;
}

TEST(ZipfGenerator, StreamsMatchGoldenDigests)
{
    // Recorded from the binary-search sampler this generator used
    // before its guide table: the draws must not change.
    struct Case
    {
        KeyOrder order;
        std::uint64_t digest;
    };
    const Case cases[] = {{KeyOrder::kShuffled, 0xe2e5eed67000c814ULL},
                          {KeyOrder::kHotFirst, 0x799494db9bf7a375ULL},
                          {KeyOrder::kColdFirst, 0x71a1bf6f9113ce43ULL}};
    for (const Case& c : cases) {
        SCOPED_TRACE(testing::Message() << "order "
                                        << static_cast<int>(c.order));
        ZipfGenerator z(8192, 1.0, 4);
        ZipfGenerator wide(65536, 1.04, 5, "k-");
        std::uint64_t d = stream_digest(z.generate(200000, c.order)) ^
                          stream_digest(wide.generate(100000, c.order, 3));
        EXPECT_EQ(d, c.digest) << std::hex << "0x" << d;
    }
}

TEST(TextCorpus, VocabularyAndStreamsMatchGoldenDigests)
{
    // Recorded from the corpus built with a node-based set of spellings
    // and a binary-search sampler: neither may change a word or a draw.
    struct Case
    {
        std::uint64_t seed;
        std::uint64_t vocabulary;
        std::uint64_t stream;
    };
    const std::map<std::string, std::vector<Case>> golden = {
        {"yelp",
         {{5, 0x969d5ba09d2efafbULL, 0x68b18e4417b254e5ULL},
          {2024, 0xe41706497ecacb90ULL, 0xb13ed6661db28a03ULL}}},
        {"NG",
         {{5, 0x9915b4802d8772d6ULL, 0x0e5b635c4346c083ULL},
          {2024, 0xb6c59f84396660f2ULL, 0xbf42265041b9878dULL}}},
        {"BAC",
         {{5, 0xb8a9b7f0f72feed9ULL, 0xad055f8386d30444ULL},
          {2024, 0x9cfc30f8cbb16e46ULL, 0x46d8900363ffbab4ULL}}},
        {"LMDB",
         {{5, 0x53b88a13ad568bf6ULL, 0xd835f99541774637ULL},
          {2024, 0x809d21e35082c0b2ULL, 0xae42e087a86fce72ULL}}},
    };
    for (const CorpusProfile& p : all_corpus_profiles()) {
        ASSERT_EQ(golden.count(p.name), 1u) << p.name;
        for (const Case& c : golden.at(p.name)) {
            SCOPED_TRACE(testing::Message() << p.name << " seed " << c.seed);
            TextCorpus corpus(p, c.seed);
            std::uint64_t vocabulary = p.vocabulary;
            for (std::uint64_t r = 0; r < p.vocabulary; ++r)
                vocabulary = fold_digest(vocabulary, corpus.word(r), 0);
            std::uint64_t stream = stream_digest(corpus.generate(10000));
            EXPECT_EQ(vocabulary, c.vocabulary)
                << std::hex << "0x" << vocabulary;
            EXPECT_EQ(stream, c.stream) << std::hex << "0x" << stream;
        }
    }
}

TEST(ValueStream, DenseIndexKeys)
{
    auto s = value_stream(100, 7, 1);
    ASSERT_EQ(s.size(), 100u);
    std::set<core::Key> keys;
    for (const auto& t : s) {
        EXPECT_EQ(t.value, 7u);
        keys.insert(t.key);
    }
    EXPECT_EQ(keys.size(), 100u);  // all indices distinct
}

TEST(TextCorpus, DeterministicAndNulFree)
{
    TextCorpus a(newsgroups_profile(), 11), b(newsgroups_profile(), 11);
    auto sa = a.generate(2000);
    auto sb = b.generate(2000);
    EXPECT_EQ(sa, sb);
    for (const auto& t : sa) {
        EXPECT_FALSE(t.key.empty());
        EXPECT_EQ(t.key.find('\0'), core::Key::npos);
    }
}

TEST(TextCorpus, WordsAreUniquePerRank)
{
    CorpusProfile p = movie_reviews_profile();
    p.vocabulary = 20000;
    TextCorpus c(p, 3);
    std::set<core::Key> words;
    for (std::uint64_t r = 0; r < p.vocabulary; ++r)
        EXPECT_TRUE(words.insert(c.word(r)).second) << "rank " << r;
}

TEST(TextCorpus, LawOfAbbreviation)
{
    // Frequent words are shorter on average than rare ones.
    CorpusProfile p = yelp_profile();
    p.vocabulary = 50000;
    TextCorpus c(p, 5);
    double head = 0, tail = 0;
    for (std::uint64_t r = 0; r < 100; ++r)
        head += static_cast<double>(c.word(r).size());
    for (std::uint64_t r = 49900; r < 50000; ++r)
        tail += static_cast<double>(c.word(r).size());
    EXPECT_LT(head / 100, tail / 100 - 2.0);
}

TEST(TextCorpus, MixOfKeyClasses)
{
    // A realistic corpus exercises all three key classes of the ASK
    // data plane (4-byte segments, m=2 -> short <=4, medium 5..8, long >8).
    core::AskConfig cfg;
    core::KeySpace ks(cfg);
    CorpusProfile p = blog_authorship_profile();
    p.vocabulary = 30000;
    TextCorpus c(p, 9);
    std::map<core::KeyClass, std::uint64_t> by_class;
    for (const auto& t : c.generate(20000))
        ++by_class[ks.classify(t.key)];
    EXPECT_GT(by_class[core::KeyClass::kShort], 0u);
    EXPECT_GT(by_class[core::KeyClass::kMedium], 0u);
    EXPECT_GT(by_class[core::KeyClass::kLong], 0u);
    // Frequency-weighted text is dominated by short+medium words.
    EXPECT_GT(by_class[core::KeyClass::kShort] +
                  by_class[core::KeyClass::kMedium],
              by_class[core::KeyClass::kLong]);
}

TEST(Models, Figure12Zoo)
{
    auto models = figure12_models();
    ASSERT_EQ(models.size(), 6u);
    EXPECT_EQ(models[0].name, "ResNet50");
    EXPECT_EQ(models[0].parameters, 25557032u);
    EXPECT_EQ(models[5].name, "VGG19");
    // VGG gradients are much larger than ResNet's.
    EXPECT_GT(models[3].gradient_bytes(), 4 * models[0].gradient_bytes());
    for (const auto& m : models) {
        EXPECT_GT(m.compute_ns, 0);
        EXPECT_GT(m.single_gpu_ips(), 50.0);
        EXPECT_LT(m.single_gpu_ips(), 400.0);
    }
}

}  // namespace
}  // namespace ask::workload
