/** Unit tests for sender-side packet construction (§3.2.2). */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "ask/packet_builder.h"
#include "common/random.h"
#include "common/string_util.h"

namespace ask::core {
namespace {

AskConfig
cfg8()
{
    AskConfig c;
    c.num_aas = 8;
    c.aggregators_per_aa = 64;
    c.medium_groups = 2;
    c.medium_segments = 2;
    return c;
}

TEST(PacketBuilder, EmptyBuilderYieldsNothing)
{
    KeySpace ks(cfg8());
    PacketBuilder b(ks);
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.next_data().has_value());
    EXPECT_FALSE(b.next_long_batch(1024).has_value());
}

TEST(PacketBuilder, SlotPlacementMatchesPartition)
{
    KeySpace ks(cfg8());
    PacketBuilder b(ks);
    KvTuple t{"ab", 5};
    b.enqueue(t);
    auto built = b.next_data();
    ASSERT_TRUE(built.has_value());
    std::uint32_t slot = ks.short_slot("ab");
    EXPECT_EQ(built->bitmap, 1ULL << slot);
    EXPECT_EQ(built->valid_tuples, 1u);
    EXPECT_EQ(built->slots[slot].value, 5u);
    EXPECT_EQ(built->slots[slot].seg, ks.encode_segment(ks.padded("ab"), 0));
}

TEST(PacketBuilder, SameKeyAlwaysSameSlot)
{
    // The single-key-multiple-spot avoidance: the same key across many
    // packets always occupies the same slot.
    KeySpace ks(cfg8());
    PacketBuilder b(ks);
    for (int i = 0; i < 10; ++i)
        b.enqueue(KvTuple{"dup", 1});
    std::uint32_t slot = ks.short_slot("dup");
    int packets = 0;
    while (auto built = b.next_data()) {
        EXPECT_EQ(built->bitmap, 1ULL << slot);
        ++packets;
    }
    // One tuple per packet: the slot queue drains one head per packet.
    EXPECT_EQ(packets, 10);
}

TEST(PacketBuilder, MediumKeyOccupiesWholeGroup)
{
    KeySpace ks(cfg8());
    PacketBuilder b(ks);
    b.enqueue(KvTuple{"yourself"
                      "",
                      9});  // 8 bytes: medium
    auto built = b.next_data();
    ASSERT_TRUE(built.has_value());
    std::uint32_t g = ks.medium_group("yourself");
    std::uint32_t mb = cfg8().medium_base(g);
    EXPECT_EQ(built->bitmap, (1ULL << mb) | (1ULL << (mb + 1)));
    EXPECT_EQ(built->valid_tuples, 1u);
    // Value rides in the last segment's slot; earlier slots carry 0.
    EXPECT_EQ(built->slots[mb].value, 0u);
    EXPECT_EQ(built->slots[mb + 1].value, 9u);
}

TEST(PacketBuilder, LongKeysBypassDataPath)
{
    KeySpace ks(cfg8());
    PacketBuilder b(ks);
    b.enqueue(KvTuple{"a-very-long-key-indeed", 3});
    EXPECT_FALSE(b.has_data());
    EXPECT_TRUE(b.has_long());
    auto batch = b.next_long_batch(1024);
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->size(), 1u);
    EXPECT_EQ((*batch)[0].key, "a-very-long-key-indeed");
    EXPECT_TRUE(b.empty());
}

TEST(PacketBuilder, LongBatchRespectsPayloadBudget)
{
    KeySpace ks(cfg8());
    PacketBuilder b(ks);
    std::string key(20, 'x');  // 2 + 20 + 4 = 26 bytes per tuple
    for (int i = 0; i < 10; ++i)
        b.enqueue(KvTuple{key, 1});
    auto batch = b.next_long_batch(60);  // 2 + 2*26 = 54 <= 60 < 80
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 2u);
}

TEST(PacketBuilder, OversizedLongTupleStillShips)
{
    // A single tuple larger than the budget must still go (alone).
    KeySpace ks(cfg8());
    PacketBuilder b(ks);
    b.enqueue(KvTuple{std::string(200, 'y'), 1});
    auto batch = b.next_long_batch(64);
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 1u);
}

TEST(PacketBuilder, UniformKeysFillPackets)
{
    // With many distinct uniform keys, early packets should be full —
    // the Fig. 8b "Uniform" line.
    AskConfig c = cfg8();
    c.medium_groups = 0;  // all-short config for a clean count
    KeySpace ks(c);
    PacketBuilder b(ks);
    Rng rng = seeded_rng("packet_builder_test", 4);
    for (int i = 0; i < 4000; ++i)
        b.enqueue(KvTuple{u64_key(rng.next_below(100000)), 1});  // short keys

    int full = 0, total = 0;
    while (auto built = b.next_data()) {
        ++total;
        if (built->valid_tuples == c.num_aas)
            ++full;
    }
    EXPECT_GT(total, 0);
    EXPECT_GT(full / static_cast<double>(total), 0.8);
}

TEST(PacketBuilder, SkewedKeysLeaveBlanks)
{
    // All tuples share one key -> every packet carries exactly 1 tuple.
    KeySpace ks(cfg8());
    PacketBuilder b(ks);
    for (int i = 0; i < 100; ++i)
        b.enqueue(KvTuple{"hot", 1});
    while (auto built = b.next_data())
        EXPECT_EQ(built->valid_tuples, 1u);
}

TEST(PacketBuilder, CountsByClass)
{
    KeySpace ks(cfg8());
    PacketBuilder b(ks);
    b.enqueue(KvTuple{"ab", 1});        // short
    b.enqueue(KvTuple{"abcdef", 1});    // medium
    b.enqueue(KvTuple{std::string(30, 'z'), 1});  // long
    EXPECT_EQ(b.short_enqueued(), 1u);
    EXPECT_EQ(b.medium_enqueued(), 1u);
    EXPECT_EQ(b.long_enqueued(), 1u);
}

TEST(PacketBuilder, NextDataIntoMatchesNextData)
{
    // The batched hot-path form (next_data_into, one scratch reused
    // across a whole drain, fed a shared stream the way the daemon
    // feeds it) must be bit-identical to the allocating next_data() of
    // a builder fed tuple by tuple — bitmap, tuple count, and every
    // slot including the zero-filled blanks — across full, partial, and
    // blank-heavy packets.
    AskConfig c = cfg8();
    KeySpace ks(c);
    Rng rng = seeded_rng("packet_builder_equiv", 21);

    auto make_stream = [&](int shape) {
        KvStream stream;
        for (int i = 0; i < 600; ++i) {
            std::string key;
            switch (shape) {
            case 0:  // many distinct short keys: early packets full
                key = u64_key(rng.next_below(100000));
                break;
            case 1:  // one hot key: every packet one tuple, rest blank
                key = "hot";
                break;
            default:  // mixed lengths incl. medium and long
                key.resize(1 + rng.next_below(12));
                for (auto& ch : key)
                    ch = static_cast<char>('a' + rng.next_below(26));
                break;
            }
            stream.push_back(
                KvTuple{key, static_cast<Value>(1 + rng.next_below(1000))});
        }
        return stream;
    };

    for (int shape = 0; shape < 3; ++shape) {
        KvStream stream = make_stream(shape);
        PacketBuilder ref_builder(ks);
        PacketBuilder batched(ks);
        for (const KvTuple& t : stream)
            ref_builder.enqueue(t);
        // The builder is the stream's only owner from here on: its
        // queued references must keep pointing at live tuples.
        batched.enqueue(std::make_shared<const KvStream>(std::move(stream)));

        BuiltData scratch;
        const WireSlot* scratch_data = nullptr;
        int packets = 0;
        for (;;) {
            std::optional<BuiltData> ref = ref_builder.next_data();
            bool got = batched.next_data_into(scratch);
            ASSERT_EQ(ref.has_value(), got) << "shape " << shape;
            if (!ref)
                break;
            EXPECT_EQ(scratch.bitmap, ref->bitmap);
            EXPECT_EQ(scratch.valid_tuples, ref->valid_tuples);
            ASSERT_EQ(scratch.slots.size(), ref->slots.size());
            for (std::size_t i = 0; i < ref->slots.size(); ++i) {
                EXPECT_EQ(scratch.slots[i].seg, ref->slots[i].seg)
                    << "shape " << shape << " packet " << packets
                    << " slot " << i;
                EXPECT_EQ(scratch.slots[i].value, ref->slots[i].value)
                    << "shape " << shape << " packet " << packets
                    << " slot " << i;
            }
            // The scratch really is reused: no reallocation after the
            // first packet sizes it.
            if (packets == 0)
                scratch_data = scratch.slots.data();
            else
                EXPECT_EQ(scratch.slots.data(), scratch_data);
            ++packets;
        }
        EXPECT_GT(packets, 0) << "shape " << shape;
        EXPECT_TRUE(batched.has_long() == ref_builder.has_long());
    }
}

TEST(PacketBuilder, DrainsEverythingExactlyOnce)
{
    KeySpace ks(cfg8());
    PacketBuilder b(ks);
    Rng rng = seeded_rng("packet_builder_test", 17);
    std::map<std::string, std::uint64_t> truth;
    for (int i = 0; i < 2000; ++i) {
        std::size_t len = 1 + rng.next_below(12);
        std::string key;
        for (std::size_t j = 0; j < len; ++j)
            key.push_back(static_cast<char>('a' + rng.next_below(26)));
        truth[key] += 1;
        b.enqueue(KvTuple{key, 1});
    }

    std::map<std::string, std::uint64_t> seen;
    while (auto built = b.next_data()) {
        for (std::uint32_t i = 0; i < cfg8().short_aas(); ++i) {
            if (built->bitmap & (1ULL << i)) {
                seen[KeySpace::unpad(ks.decode_segment(built->slots[i].seg))] +=
                    built->slots[i].value;
            }
        }
        for (std::uint32_t g = 0; g < cfg8().medium_groups; ++g) {
            std::uint32_t mb = cfg8().medium_base(g);
            if (built->bitmap & (1ULL << mb)) {
                std::string padded = ks.decode_segment(built->slots[mb].seg) +
                                     ks.decode_segment(built->slots[mb + 1].seg);
                seen[KeySpace::unpad(padded)] += built->slots[mb + 1].value;
            }
        }
    }
    while (auto batch = b.next_long_batch(1024)) {
        for (const auto& t : *batch)
            seen[t.key] += t.value;
        if (!b.has_long())
            break;
    }
    EXPECT_EQ(seen, truth);
}

}  // namespace
}  // namespace ask::core
