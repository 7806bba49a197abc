/** Unit tests for sender-side packet construction (§3.2.2). */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ask/packet_builder.h"
#include "common/random.h"
#include "common/string_util.h"
#include "workload/generators.h"

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

/**
 * A builder written the plain way, kept as the reference: it copies
 * each tuple in, queues references to the copies, and classifies and
 * encodes every key again (from its padded form) for each packet it
 * rides in.
 */
class ReferenceBuilder
{
  public:
    explicit ReferenceBuilder(const KeySpace& ks)
        : ks_(ks), cfg_(ks.config()), short_(cfg_.short_aas()),
          medium_(cfg_.medium_groups)
    {
    }

    void
    enqueue(const KvTuple& t)
    {
        owned_.push_back(t);
        switch (ks_.classify(t.key)) {
          case KeyClass::kShort:
            short_[ks_.short_slot(t.key)].push_back(&owned_.back());
            ++shorts;
            return;
          case KeyClass::kMedium:
            medium_[ks_.medium_group(t.key)].push_back(&owned_.back());
            ++mediums;
            return;
          case KeyClass::kLong:
            long_.push_back(&owned_.back());
            ++longs;
            return;
        }
    }

    std::optional<BuiltData>
    next_data()
    {
        BuiltData out;
        out.slots.assign(cfg_.num_aas, WireSlot{});
        for (std::uint32_t i = 0; i < cfg_.short_aas(); ++i)
            if (!short_[i].empty())
                put(out, short_[i], i, 1);
        for (std::uint32_t g = 0; g < cfg_.medium_groups; ++g)
            if (!medium_[g].empty())
                put(out, medium_[g], cfg_.medium_base(g), cfg_.medium_segments);
        if (out.valid_tuples == 0)
            return std::nullopt;
        return out;
    }

    std::optional<std::vector<KvTuple>>
    next_long_batch(std::uint32_t budget)
    {
        if (long_.empty())
            return std::nullopt;
        std::vector<KvTuple> batch;
        std::uint32_t bytes = 2;
        take(long_, batch, bytes, budget);
        return batch;
    }

    std::optional<std::vector<KvTuple>>
    next_bypass_batch(std::uint32_t budget)
    {
        if (empty())
            return std::nullopt;
        std::vector<KvTuple> batch;
        std::uint32_t bytes = 2;
        if (take(long_, batch, bytes, budget)) {
            for (auto& q : short_)
                if (!take(q, batch, bytes, budget))
                    break;
            for (auto& q : medium_)
                if (!take(q, batch, bytes, budget))
                    break;
        }
        return batch;
    }

    bool
    empty() const
    {
        auto drained = [](const std::vector<Queue>& qs) {
            for (const Queue& q : qs)
                if (!q.empty())
                    return false;
            return true;
        };
        return long_.empty() && drained(short_) && drained(medium_);
    }

    std::uint64_t shorts = 0, mediums = 0, longs = 0;

  private:
    using Queue = std::deque<const KvTuple*>;

    void
    put(BuiltData& out, Queue& q, std::uint32_t base, std::uint32_t width)
    {
        const KvTuple& t = *q.front();
        std::string padded = ks_.padded(t.key);
        for (std::uint32_t j = 0; j < width; ++j) {
            out.slots[base + j] = WireSlot{ks_.encode_segment(padded, j),
                                           j + 1 == width ? t.value : 0};
            out.bitmap |= 1ULL << (base + j);
        }
        ++out.valid_tuples;
        q.pop_front();
    }

    static bool
    take(Queue& q, std::vector<KvTuple>& batch, std::uint32_t& bytes,
         std::uint32_t budget)
    {
        while (!q.empty()) {
            std::uint32_t need =
                2 + static_cast<std::uint32_t>(q.front()->key.size()) + 4;
            if (!batch.empty() && bytes + need > budget)
                return false;
            bytes += need;
            batch.push_back(*q.front());
            q.pop_front();
        }
        return true;
    }

    const KeySpace& ks_;
    const AskConfig& cfg_;
    std::deque<KvTuple> owned_;
    std::vector<Queue> short_, medium_;
    Queue long_;
};

/** A builder over `stream`, which it alone shares. */
PacketBuilder
builder_of(const KeySpace& ks, KvStream stream)
{
    return PacketBuilder(ks,
                         std::make_shared<const KvStream>(std::move(stream)));
}

TEST(PacketBuilder, EmptyBuilderYieldsNothing)
{
    KeySpace ks(cfg8());
    PacketBuilder b = builder_of(ks, {});
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.next_data().has_value());
    EXPECT_FALSE(b.next_long_batch(1024).has_value());
    EXPECT_FALSE(b.next_bypass_batch(1024).has_value());
}

TEST(PacketBuilder, SlotPlacementMatchesPartition)
{
    KeySpace ks(cfg8());
    PacketBuilder b = builder_of(ks, {{"ab", 5}});
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
    PacketBuilder b = builder_of(ks, KvStream(10, KvTuple{"dup", 1}));
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
    PacketBuilder b = builder_of(ks, {{"yourself", 9}});  // 8 bytes: medium
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
    PacketBuilder b = builder_of(ks, {{"a-very-long-key-indeed", 3}});
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
    std::string key(20, 'x');  // 2 + 20 + 4 = 26 bytes per tuple
    PacketBuilder b = builder_of(ks, KvStream(10, KvTuple{key, 1}));
    auto batch = b.next_long_batch(60);  // 2 + 2*26 = 54 <= 60 < 80
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->size(), 2u);
}

TEST(PacketBuilder, OversizedLongTupleStillShips)
{
    // A single tuple larger than the budget must still go (alone).
    KeySpace ks(cfg8());
    PacketBuilder b = builder_of(ks, {{std::string(200, 'y'), 1}});
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
    Rng rng = seeded_rng("packet_builder_test", 4);
    KvStream stream;
    for (int i = 0; i < 4000; ++i)
        stream.push_back(KvTuple{u64_key(rng.next_below(100000)), 1});  // short
    PacketBuilder b = builder_of(ks, std::move(stream));

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
    PacketBuilder b = builder_of(ks, KvStream(100, KvTuple{"hot", 1}));
    while (auto built = b.next_data())
        EXPECT_EQ(built->valid_tuples, 1u);
}

TEST(PacketBuilder, CountsByClass)
{
    KeySpace ks(cfg8());
    PacketBuilder b = builder_of(ks, {{"ab", 1},                     // short
                                      {"abcdef", 1},                 // medium
                                      {std::string(30, 'z'), 1}});  // long
    EXPECT_EQ(b.short_enqueued(), 1u);
    EXPECT_EQ(b.medium_enqueued(), 1u);
    EXPECT_EQ(b.long_enqueued(), 1u);
}

TEST(PacketBuilder, NextDataIntoMatchesNextData)
{
    // The batched hot-path form (next_data_into, one scratch reused
    // across a whole drain) must be bit-identical to the allocating
    // next_data() of a builder over the same shared stream — bitmap,
    // tuple count, and every slot including the zero-filled blanks —
    // across full, partial, and blank-heavy packets.
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
        // The builders are the stream's only owners from here on: the
        // queued indices must keep pointing at live tuples.
        auto stream = std::make_shared<const KvStream>(make_stream(shape));
        PacketBuilder ref_builder(ks, stream);
        PacketBuilder batched(ks, std::move(stream));

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
    Rng rng = seeded_rng("packet_builder_test", 17);
    std::map<std::string, std::uint64_t> truth;
    KvStream stream;
    for (int i = 0; i < 2000; ++i) {
        std::size_t len = 1 + rng.next_below(12);
        std::string key;
        for (std::size_t j = 0; j < len; ++j)
            key.push_back(static_cast<char>('a' + rng.next_below(26)));
        truth[key] += 1;
        stream.push_back(KvTuple{key, 1});
    }
    PacketBuilder b = builder_of(ks, std::move(stream));

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

/**
 * Build a PacketBuilder and a ReferenceBuilder over `stream` and drain
 * them side by side: DATA packets (next_data_into, one scratch) and
 * long batches at random payload budgets, then, from step `bypass_at`
 * on, the degraded bypass. Every packet and batch must match. Returns
 * the number of steps the drain took.
 */
int
expect_same_drain(const KeySpace& ks, KvStream stream, Rng& rng,
                  int bypass_at)
{
    ReferenceBuilder ref(ks);
    for (const KvTuple& t : stream)
        ref.enqueue(t);
    PacketBuilder b = builder_of(ks, std::move(stream));
    EXPECT_EQ(b.short_enqueued(), ref.shorts);
    EXPECT_EQ(b.medium_enqueued(), ref.mediums);
    EXPECT_EQ(b.long_enqueued(), ref.longs);

    BuiltData built;
    int step = 0;
    while (!ref.empty()) {
        EXPECT_FALSE(b.empty()) << "step " << step;
        if (b.empty())
            break;
        std::uint32_t budget = 16 + rng.next_below(80);
        if (step >= bypass_at) {
            EXPECT_EQ(b.next_bypass_batch(budget),
                      ref.next_bypass_batch(budget))
                << "step " << step;
        } else if (rng.next_below(4) == 0) {
            EXPECT_EQ(b.next_long_batch(budget), ref.next_long_batch(budget))
                << "step " << step;
        } else {
            std::optional<BuiltData> want = ref.next_data();
            bool got = b.next_data_into(built);
            EXPECT_EQ(got, want.has_value()) << "step " << step;
            if (want && got) {
                EXPECT_EQ(built.bitmap, want->bitmap) << "step " << step;
                EXPECT_EQ(built.valid_tuples, want->valid_tuples);
                EXPECT_EQ(built.slots.size(), want->slots.size());
                for (std::size_t i = 0;
                     i < std::min(built.slots.size(), want->slots.size());
                     ++i) {
                    EXPECT_EQ(built.slots[i].seg, want->slots[i].seg)
                        << "step " << step << " slot " << i;
                    EXPECT_EQ(built.slots[i].value, want->slots[i].value)
                        << "step " << step << " slot " << i;
                }
            }
        }
        ++step;
    }
    EXPECT_TRUE(b.empty());
    EXPECT_FALSE(b.next_data_into(built));
    EXPECT_FALSE(b.next_long_batch(1024).has_value());
    EXPECT_FALSE(b.next_bypass_batch(1024).has_value());
    return step;
}

TEST(PacketBuilder, MatchesThePointerQueueReference)
{
    // The index queues against the reference builder on random mixes
    // of short, medium and long keys (boundary lengths and repeats
    // included), drained with interleaved DATA and long batches that
    // switch to the degraded bypass mid-stream, or never. One config
    // takes the mask partition (4 short slots, 2 groups), the other the
    // modulo one (3 and 3).
    AskConfig pow2 = cfg8();
    AskConfig odd = cfg8();
    odd.num_aas = 12;
    odd.medium_groups = 3;
    odd.medium_segments = 3;
    odd.part_bits = 16;
    for (const AskConfig& c : {pow2, odd}) {
        KeySpace ks(c);
        Rng rng = seeded_rng("packet_builder_reference", c.num_aas);
        std::uint32_t longest = c.max_medium_key_bytes() + 4;
        auto letter = [&] {
            return static_cast<char>('a' + rng.next_below(3));
        };
        auto random_key = [&] {
            switch (rng.next_below(4)) {
              case 0:
                return std::string(c.seg_bytes(), letter());
              case 1:
                return std::string(c.max_medium_key_bytes(), letter());
              default: {
                std::string key(1 + rng.next_below(longest), 'a');
                for (char& ch : key)
                    ch = letter();
                return key;
              }
            }
        };
        auto make_stream = [&](int n) {
            KvStream stream;
            for (int i = 0; i < n; ++i)
                stream.push_back(KvTuple{
                    random_key(), static_cast<Value>(1 + rng.next_below(999))});
            return stream;
        };

        EXPECT_GT(expect_same_drain(ks, make_stream(840), rng, 60), 60)
            << "the drain never reached the bypass switch";
        expect_same_drain(ks, make_stream(300), rng, 1 << 30);
        expect_same_drain(ks, make_stream(300), rng, 0);
    }
}

TEST(PacketBuilder, MatchesTheReferenceOnEdgeStreams)
{
    // An empty stream, a long-only one, and a hot-first Zipf stream (the
    // hottest keys first, so the early packets are nearly blank and the
    // slot queues run deep): short ranks below 255, medium ranks above.
    KeySpace ks{AskConfig{}};
    Rng rng = seeded_rng("packet_builder_edges", 1);
    EXPECT_EQ(expect_same_drain(ks, {}, rng, 0), 0);

    KvStream longs;
    for (int i = 0; i < 200; ++i)
        longs.push_back(KvTuple{std::string(9 + rng.next_below(30), 'k') +
                                    u64_key(i),
                                static_cast<Value>(i + 1)});
    expect_same_drain(ks, longs, rng, 1 << 30);
    expect_same_drain(ks, longs, rng, 3);

    workload::ZipfGenerator zipf(4096, 1.0, 9, "key");
    KvStream hot = zipf.generate(20000, workload::KeyOrder::kHotFirst);
    EXPECT_GT(expect_same_drain(ks, hot, rng, 400), 400);
    expect_same_drain(ks, hot, rng, 1 << 30);
}

}  // namespace
}  // namespace ask::core
