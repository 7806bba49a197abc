/** Unit tests for key classification, partition, and segment encoding. */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ask/key_space.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace ask::core {
namespace {

AskConfig
small_config()
{
    AskConfig c;
    c.num_aas = 8;
    c.aggregators_per_aa = 64;
    c.medium_groups = 2;
    c.medium_segments = 2;
    return c;  // 4 short AAs, 2 groups x 2 AAs
}

/** The wire segments of a short or medium key: one for a short key, m
 *  for a medium one. */
std::vector<std::uint32_t>
segments_of(const KeySpace& ks, const Key& key)
{
    std::uint32_t n = ks.classify(key) == KeyClass::kShort
                          ? 1
                          : ks.config().medium_segments;
    std::vector<std::uint32_t> segs;
    for (std::uint32_t j = 0; j < n; ++j)
        segs.push_back(ks.encode_key_segment(key, j));
    return segs;
}

TEST(KeySpace, ClassifiesByLength)
{
    KeySpace ks(small_config());
    EXPECT_EQ(ks.classify("a"), KeyClass::kShort);
    EXPECT_EQ(ks.classify("abcd"), KeyClass::kShort);
    EXPECT_EQ(ks.classify("abcde"), KeyClass::kMedium);
    EXPECT_EQ(ks.classify("abcdefgh"), KeyClass::kMedium);
    EXPECT_EQ(ks.classify("abcdefghi"), KeyClass::kLong);
}

TEST(KeySpace, NoMediumGroupsMeansLong)
{
    AskConfig c = small_config();
    c.medium_groups = 0;
    KeySpace ks(c);
    EXPECT_EQ(ks.classify("abcde"), KeyClass::kLong);
}

TEST(KeySpace, ShortSlotIsStableAndInRange)
{
    KeySpace ks(small_config());
    for (int i = 0; i < 200; ++i) {
        std::string k = u64_key(static_cast<std::uint64_t>(i));
        if (ks.classify(k) != KeyClass::kShort)
            continue;
        std::uint32_t s1 = ks.short_slot(k);
        std::uint32_t s2 = ks.short_slot(k);
        EXPECT_EQ(s1, s2);
        EXPECT_LT(s1, 4u);
    }
}

TEST(KeySpace, ShortSlotsRoughlyUniform)
{
    KeySpace ks(small_config());
    std::map<std::uint32_t, int> counts;
    int shorts = 0;
    for (int i = 0; i < 4000; ++i) {
        std::string k = "k" + std::to_string(i);
        if (k.size() <= 4) {
            ++counts[ks.short_slot(k)];
            ++shorts;
        }
    }
    for (auto& [slot, n] : counts)
        EXPECT_NEAR(n, shorts / 4.0, shorts / 4.0 * 0.3);
}

TEST(KeySpace, PaddedAndUnpadRoundTrip)
{
    // The wire form is the key NUL-padded to its class width, in
    // little-endian segments; decode_key strips the padding again.
    KeySpace ks(small_config());
    EXPECT_EQ(ks.encode_key_segment("ab", 0), 0x6261u);       // "ab\0\0"
    EXPECT_EQ(ks.encode_key_segment("abcde", 0), 0x64636261u);  // "abcd"
    EXPECT_EQ(ks.encode_key_segment("abcde", 1), 0x65u);        // "e\0\0\0"
    std::uint32_t ab = 0x6261;
    EXPECT_EQ(ks.decode_key({&ab, 1}), "ab");
    std::vector<std::uint32_t> abcde = {0x64636261, 0x65};
    EXPECT_EQ(ks.decode_key(abcde), "abcde");
    EXPECT_EQ(ks.decode_key(segments_of(ks, "abcdefgh")), "abcdefgh");
}

TEST(KeySpace, SegmentsRoundTripThroughDecode)
{
    // Every short and medium length on both part widths, boundaries
    // included, decodes back to the key from its wire segments.
    AskConfig narrow = small_config();
    narrow.part_bits = 16;  // 2-byte segments: medium keys are 3..4 bytes
    for (const AskConfig& c : {small_config(), narrow}) {
        KeySpace ks(c);
        for (std::uint32_t len = 1; len <= c.max_medium_key_bytes(); ++len) {
            Key key(len, 'a');
            for (std::uint32_t i = 0; i < len; ++i)
                key[i] = static_cast<char>('a' + (i * 7 + len) % 26);
            EXPECT_EQ(ks.decode_key(segments_of(ks, key)), key)
                << "part_bits " << c.part_bits << " key " << key;
        }
    }
}

TEST(KeySpace, SegmentCountMatchesClass)
{
    // A short key fills one segment; nothing of it reaches a second. A
    // medium key needs all m: its first segment alone decodes to a
    // strict prefix.
    KeySpace ks(small_config());
    EXPECT_EQ(segments_of(ks, "ab").size(), 1u);
    EXPECT_EQ(ks.encode_key_segment("abcd", 1), 0u);
    std::vector<std::uint32_t> segs = segments_of(ks, "abcdef");
    ASSERT_EQ(segs.size(), 2u);
    EXPECT_EQ(ks.decode_key({segs.data(), 1}), "abcd");
    EXPECT_EQ(ks.decode_key(segs), "abcdef");
}

TEST(KeySpace, SegmentsOfRealKeysAreNonZero)
{
    // The data plane uses kPart == 0 as "blank", so no key segment may
    // encode to zero (keys are NUL-free and non-empty).
    KeySpace ks(small_config());
    for (int i = 0; i < 5000; ++i) {
        std::string k = u64_key(static_cast<std::uint64_t>(i) * 2654435761u);
        if (ks.classify(k) == KeyClass::kLong)
            continue;
        for (auto seg : segments_of(ks, k))
            ASSERT_NE(seg, 0u) << "zero segment for key index " << i;
    }
}

TEST(KeySpace, AggregatorIndexInRangeAndStable)
{
    KeySpace ks(small_config());
    std::string p = "word";  // a whole 4-byte segment: its own wire form
    std::uint32_t i1 = ks.aggregator_index(p, 32);
    std::uint32_t i2 = ks.aggregator_index(p, 32);
    EXPECT_EQ(i1, i2);
    EXPECT_LT(i1, 32u);
}

TEST(KeySpace, MediumGroupStable)
{
    KeySpace ks(small_config());
    KeyPlace p = ks.place("abcdef");
    EXPECT_EQ(p.cls, KeyClass::kMedium);
    EXPECT_EQ(p.index, ks.place("abcdef").index);
    EXPECT_LT(p.index, 2u);
}

TEST(KeySpace, PartitionAndAddressingAreIndependent)
{
    // Keys in the same subspace must not cluster within the AA: the two
    // hash roles use different seeds (common/hash.h).
    AskConfig c = small_config();
    c.medium_groups = 0;  // all 8 AAs short
    KeySpace ks(c);
    std::map<std::uint32_t, std::map<std::uint32_t, int>> index_by_slot;
    for (int i = 0; i < 8000; ++i) {
        std::string k = u64_key(static_cast<std::uint64_t>(i));
        if (ks.classify(k) != KeyClass::kShort)
            continue;
        std::uint32_t slot = ks.short_slot(k);
        std::uint32_t idx =
            ks.short_aggregator_index(ks.encode_key_segment(k, 0), 16);
        ++index_by_slot[slot][idx];
    }
    // Within each slot, indices should cover most of [0,16).
    for (auto& [slot, dist] : index_by_slot)
        EXPECT_GE(dist.size(), 12u) << "slot " << slot << " clustered";
}

TEST(AskConfig, DerivedLayout)
{
    AskConfig c;  // paper defaults
    c.validate();
    EXPECT_EQ(c.short_aas(), 16u);
    EXPECT_EQ(c.medium_aas(), 16u);
    EXPECT_EQ(c.payload_bytes(), 256u);
    EXPECT_EQ(c.copy_size(), 16384u);
    EXPECT_EQ(c.max_medium_key_bytes(), 8u);
    EXPECT_EQ(c.medium_base(0), 16u);
    EXPECT_EQ(c.medium_base(7), 30u);
    EXPECT_EQ(c.max_channels(), 256u);
}

TEST(AskConfig, ShadowDisabledUsesFullArray)
{
    AskConfig c;
    c.shadow_copies = false;
    EXPECT_EQ(c.copy_size(), 32768u);
}

TEST(KeySpace, RejectsEmptyKeyWithTypedError)
{
    KeySpace ks(small_config());
    // A catchable StateError, not process death: a daemon can fail the
    // offending task and keep serving its other channels.
    EXPECT_THROW(
        {
            try {
                ks.classify("");
            } catch (const StateError& e) {
                EXPECT_NE(std::string(e.what()).find("non-empty"),
                          std::string::npos);
                throw;
            }
        },
        StateError);
}

TEST(KeySpace, RejectsNulBytesWithTypedError)
{
    KeySpace ks(small_config());
    std::string bad("a\0b", 3);
    EXPECT_THROW(
        {
            try {
                ks.classify(bad);
            } catch (const StateError& e) {
                EXPECT_NE(std::string(e.what()).find("NUL"),
                          std::string::npos);
                throw;
            }
        },
        StateError);
}

TEST(KeySpace, PlaceMatchesClassifyAndPartition)
{
    // place() is classify() plus the partition hash in one call: the
    // short slot or the medium group. The small config's 4 short slots
    // and 2 groups take the mask reduction, 5 and 3 take the modulo
    // one; both must agree with the partition hash taken mod n.
    AskConfig odd = small_config();
    odd.num_aas = 11;
    odd.medium_groups = 3;  // 5 short AAs, 3 groups x 2 AAs
    for (const AskConfig& c : {small_config(), odd}) {
        KeySpace ks(c);
        int seen[3] = {0, 0, 0};
        for (int i = 0; i < 3000; ++i) {
            std::string key(1 + i % 10, 'a');
            std::uint64_t x = mix64(static_cast<std::uint64_t>(i));
            for (char& ch : key) {
                ch = static_cast<char>('a' + x % 26);
                x /= 26;
            }
            KeyPlace p = ks.place(key);
            std::uint64_t h = hash64(key, hash_seeds::kKeyPartition);
            ASSERT_EQ(p.cls, ks.classify(key)) << key;
            ++seen[static_cast<int>(p.cls)];
            switch (p.cls) {
              case KeyClass::kShort:
                EXPECT_EQ(p.index, ks.short_slot(key)) << key;
                EXPECT_EQ(p.index, h % c.short_aas()) << key;
                break;
              case KeyClass::kMedium:
                EXPECT_EQ(p.index, h % c.medium_groups) << key;
                break;
              case KeyClass::kLong:
                EXPECT_EQ(p.index, 0u) << key;
                break;
            }
        }
        for (int n : seen)
            EXPECT_GT(n, 0) << "a key class the sweep never reached";
    }
}

TEST(KeySpace, PlaceRejectsInvalidKeys)
{
    KeySpace ks(small_config());
    EXPECT_THROW(ks.place(""), StateError);
    EXPECT_THROW(ks.place(std::string("a\0b", 3)), StateError);
}

}  // namespace
}  // namespace ask::core
