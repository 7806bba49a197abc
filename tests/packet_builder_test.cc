/** Unit tests for sender-side packet construction (§3.2.2). */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ask/packet_builder.h"
#include "common/hash.h"
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
 * each tuple in, queues references to the copies, and for each frame
 * pads every key it takes to its class width, cuts the padded bytes
 * into little-endian segments, fills a whole slot array and then frames
 * it.
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
        std::uint64_t h = hash64(t.key, hash_seeds::kKeyPartition);
        switch (ks_.classify(t.key)) {
          case KeyClass::kShort:
            short_[h % cfg_.short_aas()].push_back(&owned_.back());
            return;
          case KeyClass::kMedium:
            medium_[h % cfg_.medium_groups].push_back(&owned_.back());
            return;
          case KeyClass::kLong:
            long_.push_back(&owned_.back());
            return;
        }
    }

    std::vector<std::uint8_t>
    next_frame(AskHeader hdr, bool bypass)
    {
        if (!bypass && !(drained(short_) && drained(medium_))) {
            std::vector<WireSlot> slots(cfg_.num_aas);
            hdr.type = PacketType::kData;
            hdr.num_slots = static_cast<std::uint8_t>(cfg_.num_aas);
            hdr.bitmap = 0;
            for (std::uint32_t i = 0; i < cfg_.short_aas(); ++i)
                if (!short_[i].empty())
                    put(slots, hdr.bitmap, short_[i], i, 1);
            for (std::uint32_t g = 0; g < cfg_.medium_groups; ++g)
                if (!medium_[g].empty())
                    put(slots, hdr.bitmap, medium_[g], cfg_.medium_base(g),
                        cfg_.medium_segments);
            std::vector<std::uint8_t> frame =
                make_frame(hdr, cfg_.num_aas * 8);
            for (std::uint32_t i = 0; i < cfg_.num_aas; ++i)
                write_slot(frame, i, slots[i]);
            return frame;
        }
        std::vector<KvTuple> batch;
        std::uint32_t bytes = 2;
        if (take(long_, batch, bytes) && bypass) {
            bool fits = true;
            for (Queue& q : short_)
                fits = fits && take(q, batch, bytes);
            for (Queue& q : medium_)
                fits = fits && take(q, batch, bytes);
        }
        return make_long_frame(hdr, batch);
    }

    bool
    empty() const
    {
        return long_.empty() && drained(short_) && drained(medium_);
    }

  private:
    using Queue = std::deque<const KvTuple*>;

    static bool
    drained(const std::vector<Queue>& qs)
    {
        for (const Queue& q : qs)
            if (!q.empty())
                return false;
        return true;
    }

    void
    put(std::vector<WireSlot>& slots, std::uint64_t& bitmap, Queue& q,
        std::uint32_t base, std::uint32_t width)
    {
        const KvTuple& t = *q.front();
        std::string padded = t.key;
        padded.resize(static_cast<std::size_t>(width) * cfg_.seg_bytes(),
                      '\0');
        for (std::uint32_t j = 0; j < width; ++j) {
            std::uint32_t seg = 0;
            for (std::uint32_t b = 0; b < cfg_.seg_bytes(); ++b) {
                seg |= static_cast<std::uint32_t>(static_cast<unsigned char>(
                           padded[j * cfg_.seg_bytes() + b]))
                       << (8 * b);
            }
            slots[base + j] = WireSlot{seg, j + 1 == width ? t.value : 0};
            bitmap |= 1ULL << (base + j);
        }
        q.pop_front();
    }

    static bool
    take(Queue& q, std::vector<KvTuple>& batch, std::uint32_t& bytes)
    {
        while (!q.empty()) {
            std::uint32_t need =
                2 + static_cast<std::uint32_t>(q.front()->key.size()) + 4;
            if (!batch.empty() && bytes + need > kLongPayloadBytes)
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

/** Whether `frame` starts with the header bytes `hdr` serializes to. */
bool
framed_under(const std::vector<std::uint8_t>& frame, const AskHeader& hdr)
{
    std::vector<std::uint8_t> head = make_frame(hdr, 0);
    return frame.size() >= head.size() &&
           std::equal(head.begin(), head.end(), frame.begin());
}

/** Distinct tuples a DATA bitmap carries: one per short slot bit, one
 *  per medium group. */
std::uint32_t
valid_tuples(const AskConfig& c, std::uint64_t bitmap)
{
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < c.short_aas(); ++i)
        n += (bitmap >> i) & 1;
    for (std::uint32_t g = 0; g < c.medium_groups; ++g)
        n += (bitmap >> c.medium_base(g)) & 1;
    return n;
}

TEST(PacketBuilder, EmptyBuilderYieldsNothing)
{
    KeySpace ks(cfg8());
    PacketBuilder b = builder_of(ks, {});
    EXPECT_TRUE(b.empty());
}

TEST(PacketBuilder, SlotPlacementMatchesPartition)
{
    KeySpace ks(cfg8());
    PacketBuilder b = builder_of(ks, {{"ab", 5}});
    AskHeader hdr;
    hdr.task_id = 9;
    hdr.seq = 4;
    std::vector<std::uint8_t> frame = b.next_frame(hdr, false);
    EXPECT_TRUE(b.empty());
    std::uint32_t slot = ks.short_slot("ab");
    EXPECT_EQ(hdr.type, PacketType::kData);
    EXPECT_EQ(hdr.bitmap, 1ULL << slot);
    EXPECT_TRUE(framed_under(frame, hdr));
    ASSERT_EQ(frame.size(), 40u + cfg8().payload_bytes());
    WireSlot ws = read_slot(frame, slot);
    EXPECT_EQ(ws.value, 5u);
    EXPECT_EQ(ws.seg, ks.encode_key_segment("ab", 0));
    // Blank slots are transmitted zero-filled.
    for (std::uint32_t i = 0; i < cfg8().num_aas; ++i) {
        if (i != slot) {
            EXPECT_EQ(read_slot(frame, i).seg, 0u) << i;
            EXPECT_EQ(read_slot(frame, i).value, 0u) << i;
        }
    }
}

TEST(PacketBuilder, SameKeyAlwaysSameSlot)
{
    // The single-key-multiple-spot avoidance: the same key across many
    // packets always occupies the same slot.
    KeySpace ks(cfg8());
    PacketBuilder b = builder_of(ks, KvStream(10, KvTuple{"dup", 1}));
    std::uint32_t slot = ks.short_slot("dup");
    int packets = 0;
    for (AskHeader hdr; !b.empty(); ++packets) {
        b.next_frame(hdr, false);
        EXPECT_EQ(hdr.bitmap, 1ULL << slot);
    }
    // One tuple per packet: the slot queue drains one head per packet.
    EXPECT_EQ(packets, 10);
}

TEST(PacketBuilder, MediumKeyOccupiesWholeGroup)
{
    KeySpace ks(cfg8());
    PacketBuilder b = builder_of(ks, {{"yourself", 9}});  // 8 bytes: medium
    AskHeader hdr;
    std::vector<std::uint8_t> frame = b.next_frame(hdr, false);
    KeyPlace place = ks.place("yourself");
    ASSERT_EQ(place.cls, KeyClass::kMedium);
    std::uint32_t mb = cfg8().medium_base(place.index);
    EXPECT_EQ(hdr.bitmap, (1ULL << mb) | (1ULL << (mb + 1)));
    EXPECT_EQ(valid_tuples(cfg8(), hdr.bitmap), 1u);
    // Value rides in the last segment's slot; earlier slots carry 0.
    EXPECT_EQ(read_slot(frame, mb).value, 0u);
    EXPECT_EQ(read_slot(frame, mb + 1).value, 9u);
}

TEST(PacketBuilder, LongKeysBypassDataPath)
{
    KeySpace ks(cfg8());
    PacketBuilder b = builder_of(ks, {{"a-very-long-key-indeed", 3}});
    AskHeader hdr;
    hdr.op = ReduceOp::kMax;
    std::vector<std::uint8_t> frame = b.next_frame(hdr, false);
    EXPECT_EQ(hdr.type, PacketType::kLongData);
    EXPECT_TRUE(framed_under(frame, hdr));
    EXPECT_EQ(parse_long_tuples(frame),
              (KvStream{{"a-very-long-key-indeed", 3}}));
    EXPECT_TRUE(b.empty());
}

TEST(PacketBuilder, LongBatchRespectsPayloadBudget)
{
    // 2 + 200 + 4 = 206 bytes per tuple: four fit kLongPayloadBytes
    // (2 + 4 * 206 = 826), a fifth would not (1,032).
    KeySpace ks(cfg8());
    std::string key(200, 'x');
    PacketBuilder b = builder_of(ks, KvStream(10, KvTuple{key, 1}));
    std::vector<std::size_t> sizes;
    for (AskHeader hdr; !b.empty();)
        sizes.push_back(parse_long_tuples(b.next_frame(hdr, false)).size());
    EXPECT_EQ(sizes, (std::vector<std::size_t>{4, 4, 2}));
}

TEST(PacketBuilder, OversizedLongTupleStillShips)
{
    // A single tuple larger than the budget must still go (alone).
    KeySpace ks(cfg8());
    std::string key(2 * kLongPayloadBytes, 'y');
    PacketBuilder b = builder_of(ks, {{key, 1}, {key, 2}});
    AskHeader hdr;
    EXPECT_EQ(parse_long_tuples(b.next_frame(hdr, false)),
              (KvStream{{key, 1}}));
    EXPECT_EQ(parse_long_tuples(b.next_frame(hdr, false)),
              (KvStream{{key, 2}}));
    EXPECT_TRUE(b.empty());
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
    for (AskHeader hdr; !b.empty(); ++total) {
        b.next_frame(hdr, false);
        if (static_cast<std::uint32_t>(std::popcount(hdr.bitmap)) ==
            c.num_aas)
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
    for (AskHeader hdr; !b.empty();) {
        b.next_frame(hdr, false);
        EXPECT_EQ(valid_tuples(cfg8(), hdr.bitmap), 1u);
    }
}

TEST(PacketBuilder, CountsByClass)
{
    // A short and a medium key share the first DATA frame; the long key
    // follows in a LONG_DATA frame.
    KeySpace ks(cfg8());
    std::string long_key(30, 'z');
    PacketBuilder b = builder_of(ks, {{"ab", 1},          // short
                                      {"abcdef", 1},      // medium
                                      {long_key, 1}});    // long
    AskHeader hdr;
    b.next_frame(hdr, false);
    EXPECT_EQ(hdr.type, PacketType::kData);
    EXPECT_EQ(std::popcount(hdr.bitmap), 3);  // one short slot, one group
    EXPECT_EQ(valid_tuples(cfg8(), hdr.bitmap), 2u);
    EXPECT_EQ(parse_long_tuples(b.next_frame(hdr, false)),
              (KvStream{{long_key, 1}}));
    EXPECT_TRUE(b.empty());
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
    for (AskHeader hdr; !b.empty();) {
        std::vector<std::uint8_t> frame = b.next_frame(hdr, false);
        KvStream tuples = hdr.type == PacketType::kData
                              ? tuples_from_data_frame(ks, frame, hdr.bitmap)
                              : parse_long_tuples(frame);
        for (const KvTuple& t : tuples)
            seen[t.key] += t.value;
    }
    EXPECT_EQ(seen, truth);
}

TEST(PacketBuilder, FramesRoundTripThroughTheReceiverDecode)
{
    // Random short, medium and long keys on both part widths, with and
    // without medium groups, drained plainly or degraded from a random
    // frame on: DATA frames decode through the receiver's decode and
    // LONG_DATA frames through parse_long_tuples. Every tuple carries a
    // distinct value, so the decoded tuples must be the stream's exactly
    // once each, and they fold to the stream's fold.
    for (std::uint32_t part_bits : {16u, 32u}) {
        for (std::uint32_t groups : {0u, 8u}) {
            for (bool bypass : {false, true}) {
                AskConfig c;
                c.part_bits = part_bits;
                c.medium_groups = groups;
                KeySpace ks(c);
                Rng rng = seeded_rng("packet_builder_round_trip",
                                     part_bits + groups + (bypass ? 1 : 0));
                std::uint32_t longest = c.max_medium_key_bytes() + 6;
                KvStream stream;
                for (std::uint32_t i = 0; i < 3000; ++i) {
                    // Few letters, so keys repeat across tuples.
                    std::string key(1 + rng.next_below(longest), 'a');
                    for (char& ch : key)
                        ch = static_cast<char>('a' + rng.next_below(3));
                    stream.push_back(KvTuple{key, i + 1});
                }
                std::uint64_t switch_at = bypass ? rng.next_below(40) : ~0ULL;

                PacketBuilder b(ks, std::make_shared<const KvStream>(stream));
                KvStream decoded;
                int data_frames = 0;
                for (std::uint64_t n = 0; !b.empty(); ++n) {
                    AskHeader hdr;
                    std::vector<std::uint8_t> frame =
                        b.next_frame(hdr, n >= switch_at);
                    ASSERT_TRUE(framed_under(frame, hdr));
                    KvStream tuples;
                    if (hdr.type == PacketType::kData) {
                        ++data_frames;
                        EXPECT_EQ(frame.size(), 40u + c.payload_bytes());
                        tuples = tuples_from_data_frame(ks, frame, hdr.bitmap);
                    } else {
                        tuples = parse_long_tuples(frame);
                    }
                    decoded.insert(decoded.end(), tuples.begin(), tuples.end());
                }
                EXPECT_GT(data_frames, 0);

                auto by_value = [](const KvTuple& x, const KvTuple& y) {
                    return x.value < y.value;
                };
                std::vector<KvTuple> sorted = decoded;
                std::sort(sorted.begin(), sorted.end(), by_value);
                EXPECT_EQ(sorted, stream)
                    << "part_bits " << part_bits << " groups " << groups
                    << " bypass " << bypass;
                AggregateMap want, got;
                for (const KvTuple& t : stream)
                    accumulate(want, t.key, t.value, ReduceOp::kAdd);
                for (const KvTuple& t : decoded)
                    accumulate(got, t.key, t.value, ReduceOp::kAdd);
                EXPECT_EQ(got, want);
            }
        }
    }
}

/**
 * Build a PacketBuilder and a ReferenceBuilder over `stream` and drain
 * them side by side under random header fields, from step `bypass_at`
 * on as a degraded sender. Every frame must match byte for byte, and
 * the builder's header must be the frame's. Returns the number of
 * frames the drain took.
 */
int
expect_same_drain(const KeySpace& ks, KvStream stream, Rng& rng,
                  int bypass_at)
{
    ReferenceBuilder ref(ks);
    for (const KvTuple& t : stream)
        ref.enqueue(t);
    PacketBuilder b = builder_of(ks, std::move(stream));

    int step = 0;
    while (!ref.empty()) {
        EXPECT_FALSE(b.empty()) << "step " << step;
        if (b.empty())
            break;
        AskHeader hdr;
        hdr.op = static_cast<ReduceOp>(rng.next_below(kNumReduceOps));
        hdr.channel_id = static_cast<ChannelId>(rng.next_below(1 << 16));
        hdr.task_id = static_cast<TaskId>(rng.next_u64());
        hdr.seq = static_cast<Seq>(rng.next_u64());
        std::vector<std::uint8_t> want = ref.next_frame(hdr, step >= bypass_at);
        std::vector<std::uint8_t> got = b.next_frame(hdr, step >= bypass_at);
        EXPECT_EQ(got, want) << "step " << step;
        EXPECT_TRUE(framed_under(got, hdr)) << "step " << step;
        ++step;
    }
    EXPECT_TRUE(b.empty());
    return step;
}

TEST(PacketBuilder, MatchesThePointerQueueReference)
{
    // The index queues against the reference builder on random mixes
    // of short, medium and long keys (boundary lengths and repeats
    // included), drained with DATA frames, then LONG_DATA frames, and
    // switched to the degraded bypass mid-stream, from the start or
    // never. One config takes the mask partition (4 short slots, 2
    // groups), the other the modulo one (3 and 3) with 16-bit parts.
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
