/** Unit tests for the ASK wire format. */
#include <gtest/gtest.h>

#include "ask/wire.h"
#include "common/random.h"
#include "net/packet.h"

namespace ask::core {
namespace {

/** Random tuple batch: key lengths 0..40 cover empty, short, medium,
 *  and bypass-length keys; bytes span the full 0..255 range. */
std::vector<KvTuple>
fuzz_tuples(Rng& rng, std::size_t count)
{
    std::vector<KvTuple> tuples;
    tuples.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        KvTuple t;
        std::size_t len = rng.next_below(41);
        for (std::size_t j = 0; j < len; ++j)
            t.key.push_back(static_cast<char>(rng.next_below(256)));
        t.value = static_cast<Value>(rng.next_u64());
        tuples.push_back(std::move(t));
    }
    return tuples;
}

AskHeader
sample_header()
{
    AskHeader h;
    h.type = PacketType::kData;
    h.num_slots = 32;
    h.channel_id = 513;
    h.task_id = 0xdeadbeef;
    h.seq = 123456789;
    h.bitmap = 0xa5a5a5a5ULL;
    return h;
}

TEST(Wire, HeaderRoundTrip)
{
    auto data = make_frame(sample_header(), 0);
    auto parsed = parse_header(data);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->type, PacketType::kData);
    EXPECT_EQ(parsed->num_slots, 32);
    EXPECT_EQ(parsed->channel_id, 513);
    EXPECT_EQ(parsed->task_id, 0xdeadbeefu);
    EXPECT_EQ(parsed->seq, 123456789u);
    EXPECT_EQ(parsed->bitmap, 0xa5a5a5a5ULL);
}

TEST(Wire, FrameSizeMatchesPaperAccounting)
{
    // IP (20) + ASK header (20) + payload; +38 framing = the paper's
    // "8x + 78" wire bytes for an x-tuple packet.
    auto data = make_frame(sample_header(), 256);
    EXPECT_EQ(data.size(), 20u + 20u + 256u);
    net::Packet pkt;
    pkt.data = data;
    EXPECT_EQ(pkt.wire_bytes(), 256u + 78u);
}

TEST(Wire, ParseRejectsShortBuffer)
{
    std::vector<std::uint8_t> tiny(10, 0);
    EXPECT_FALSE(parse_header(tiny).has_value());
}

TEST(Wire, RewriteBitmapInPlace)
{
    auto data = make_frame(sample_header(), 8);
    rewrite_bitmap(data, 0x1ULL);
    auto parsed = parse_header(data);
    EXPECT_EQ(parsed->bitmap, 0x1ULL);
    // Other fields untouched.
    EXPECT_EQ(parsed->seq, 123456789u);
}

TEST(Wire, SlotRoundTrip)
{
    auto data = make_frame(sample_header(), 32 * 8);
    for (std::uint32_t i = 0; i < 32; ++i)
        write_slot(data, i, WireSlot{0x41424344u + i, 1000 + i});
    for (std::uint32_t i = 0; i < 32; ++i) {
        WireSlot s = read_slot(data, i);
        EXPECT_EQ(s.seg, 0x41424344u + i);
        EXPECT_EQ(s.value, 1000 + i);
    }
}

TEST(Wire, LongFrameRoundTrip)
{
    std::vector<KvTuple> tuples{
        {"a-rather-long-key-beyond-eight-bytes", 7},
        {"another_long_key_here", 0xffffffffu},
        {"third", 3},
    };
    AskHeader h;
    h.channel_id = 9;
    h.task_id = 4;
    h.seq = 77;
    auto data = make_long_frame(h, tuples);

    auto parsed_hdr = parse_header(data);
    ASSERT_TRUE(parsed_hdr.has_value());
    EXPECT_EQ(parsed_hdr->type, PacketType::kLongData);
    EXPECT_EQ(parsed_hdr->seq, 77u);

    auto parsed = parse_long_tuples(data);
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed[0], tuples[0]);
    EXPECT_EQ(parsed[1], tuples[1]);
    EXPECT_EQ(parsed[2], tuples[2]);
}

TEST(Wire, LongFrameEmpty)
{
    auto data = make_long_frame(AskHeader{}, {});
    EXPECT_TRUE(parse_long_tuples(data).empty());
}

TEST(Wire, ControlPacketHasNoPayload)
{
    AskHeader h;
    h.type = PacketType::kAck;
    h.seq = 5;
    net::Packet pkt = make_control_packet(3, 9, h);
    EXPECT_EQ(pkt.src, 3u);
    EXPECT_EQ(pkt.dst, 9u);
    EXPECT_EQ(pkt.data.size(), 40u);  // IP + ASK header only
    auto parsed = parse_header(pkt.data);
    EXPECT_EQ(parsed->type, PacketType::kAck);
    EXPECT_EQ(parsed->seq, 5u);
}

TEST(Wire, AllPacketTypesSurviveRoundTrip)
{
    for (auto t : {PacketType::kData, PacketType::kLongData, PacketType::kAck,
                   PacketType::kFin, PacketType::kFinAck, PacketType::kSwap,
                   PacketType::kSwapAck}) {
        AskHeader h;
        h.type = t;
        auto data = make_frame(h, 0);
        EXPECT_EQ(parse_header(data)->type, t);
    }
}

TEST(Wire, ReduceOpRoundTripsInHeader)
{
    for (std::uint8_t id = 0; id < kNumReduceOps; ++id) {
        auto op = static_cast<ReduceOp>(id);
        AskHeader h = sample_header();
        h.op = op;
        auto parsed = parse_header(make_frame(h, 8));
        ASSERT_TRUE(parsed.has_value()) << "op " << unsigned(id);
        EXPECT_EQ(parsed->op, op);
        EXPECT_EQ(parsed->type, PacketType::kData);  // nibbles untangled

        // LONG_DATA carries the op the same way (the degraded bypass
        // path must not lose the channel's operator).
        AskHeader lh;
        lh.op = op;
        auto long_parsed = parse_header(make_long_frame(lh, {{"k", 1}}));
        ASSERT_TRUE(long_parsed.has_value());
        EXPECT_EQ(long_parsed->op, op);
        EXPECT_EQ(long_parsed->type, PacketType::kLongData);
    }
}

TEST(Wire, PreOpFramesParseAsSum)
{
    // Before the op nibble existed, byte 0 carried a bare type: high
    // nibble 0. Those bytes must keep parsing, as kAdd.
    auto data = make_frame(sample_header(), 0);
    EXPECT_EQ(data[20] >> 4, 0);  // kAdd frames ARE the legacy bytes
    EXPECT_EQ(parse_header(data)->op, ReduceOp::kAdd);
}

TEST(Wire, UnknownOpIdRejectedWithoutUb)
{
    // Every op nibble outside [0, kNumReduceOps) must be refused —
    // folding an unknown operator would silently corrupt aggregates.
    for (std::uint32_t id = kNumReduceOps; id < 16; ++id) {
        auto data = make_frame(sample_header(), 8);
        data[20] = static_cast<std::uint8_t>((id << 4) | (data[20] & 0x0F));
        EXPECT_FALSE(parse_header(data).has_value()) << "op " << id;
    }
}

// ---------------------------------------------------------------------------
// Property tests over fuzzed payloads
// ---------------------------------------------------------------------------

TEST(WireProperty, HeaderRoundTripsFuzzedFields)
{
    Rng rng = seeded_rng("wire_test", 101);
    for (int iter = 0; iter < 500; ++iter) {
        AskHeader h;
        h.type = static_cast<PacketType>(1 + rng.next_below(7));
        h.num_slots = static_cast<std::uint8_t>(rng.next_u64());
        h.channel_id = static_cast<ChannelId>(rng.next_u64());
        h.task_id = static_cast<TaskId>(rng.next_u64());
        h.seq = static_cast<Seq>(rng.next_u64());
        h.bitmap = rng.next_u64();
        h.op = static_cast<ReduceOp>(rng.next_below(kNumReduceOps));
        std::uint32_t payload =
            static_cast<std::uint32_t>(rng.next_below(300));

        auto data = make_frame(h, payload);
        auto parsed = parse_header(data);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->type, h.type);
        EXPECT_EQ(parsed->op, h.op);
        EXPECT_EQ(parsed->num_slots, h.num_slots);
        EXPECT_EQ(parsed->channel_id, h.channel_id);
        EXPECT_EQ(parsed->task_id, h.task_id);
        EXPECT_EQ(parsed->seq, h.seq);
        EXPECT_EQ(parsed->bitmap, h.bitmap);
    }
}

TEST(WireProperty, SlotsRoundTripFuzzedValues)
{
    Rng rng = seeded_rng("wire_test", 103);
    for (int iter = 0; iter < 200; ++iter) {
        std::uint32_t slots =
            1 + static_cast<std::uint32_t>(rng.next_below(64));
        auto data = make_frame(sample_header(), slots * 8);
        std::vector<WireSlot> want(slots);
        for (std::uint32_t i = 0; i < slots; ++i) {
            want[i] = {static_cast<std::uint32_t>(rng.next_u64()),
                       static_cast<Value>(rng.next_u64())};
            write_slot(data, i, want[i]);
        }
        for (std::uint32_t i = 0; i < slots; ++i) {
            WireSlot got = read_slot(data, i);
            EXPECT_EQ(got.seg, want[i].seg);
            EXPECT_EQ(got.value, want[i].value);
        }
    }
}

TEST(WireProperty, LongFrameRoundTripsFuzzedTuples)
{
    Rng rng = seeded_rng("wire_test", 107);
    for (int iter = 0; iter < 200; ++iter) {
        auto tuples = fuzz_tuples(rng, rng.next_below(20));
        auto data = make_long_frame(sample_header(), tuples);
        auto parsed = try_parse_long_tuples(data);
        ASSERT_TRUE(parsed.has_value());
        ASSERT_EQ(parsed->size(), tuples.size());
        for (std::size_t i = 0; i < tuples.size(); ++i)
            EXPECT_EQ((*parsed)[i], tuples[i]);
    }
}

TEST(WireProperty, TruncatedLongFramesRejectedWithoutUb)
{
    // Every proper prefix of a valid frame must parse to nullopt (or,
    // for prefixes that happen to end exactly on a tuple boundary
    // before the advertised count is reached, still must not read past
    // the buffer — ASAN/UBSAN guards the "without UB" half).
    Rng rng = seeded_rng("wire_test", 109);
    for (int iter = 0; iter < 50; ++iter) {
        auto tuples = fuzz_tuples(rng, 1 + rng.next_below(8));
        auto data = make_long_frame(sample_header(), tuples);
        for (std::size_t cut = 0; cut < data.size(); ++cut) {
            std::vector<std::uint8_t> prefix(data.begin(),
                                             data.begin() +
                                                 static_cast<std::ptrdiff_t>(
                                                     cut));
            EXPECT_FALSE(try_parse_long_tuples(prefix).has_value())
                << "prefix of " << cut << " bytes parsed";
        }
    }
}

TEST(WireProperty, CorruptedLengthFieldsRejectedWithoutUb)
{
    Rng rng = seeded_rng("wire_test", 113);
    for (int iter = 0; iter < 300; ++iter) {
        auto tuples = fuzz_tuples(rng, 1 + rng.next_below(8));
        auto data = make_long_frame(sample_header(), tuples);
        // Flip random payload bytes — counts and key lengths included.
        std::size_t flips = 1 + rng.next_below(4);
        for (std::size_t f = 0; f < flips; ++f) {
            std::size_t at = rng.next_below(data.size());
            data[at] = static_cast<std::uint8_t>(rng.next_u64());
        }
        // Must either parse (corruption hit only key/value bytes) or
        // return nullopt; either way no out-of-bounds access.
        auto parsed = try_parse_long_tuples(data);
        if (parsed.has_value()) {
            EXPECT_LE(parsed->size(), 0xffffu);
        }
    }
}

TEST(WireProperty, RandomGarbageBuffersNeverParseOutOfBounds)
{
    Rng rng = seeded_rng("wire_test", 127);
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<std::uint8_t> garbage(rng.next_below(120));
        for (auto& b : garbage)
            b = static_cast<std::uint8_t>(rng.next_u64());
        // Exercise both codec entry points used on receive paths.
        auto hdr = parse_header(garbage);
        auto tuples = try_parse_long_tuples(garbage);
        if (garbage.size() < 40) {
            EXPECT_FALSE(hdr.has_value());
        }
        if (garbage.size() < 42) {
            EXPECT_FALSE(tuples.has_value());
        }
    }
}

TEST(WireProperty, AsymmetricCountFieldRejected)
{
    // A frame advertising more tuples than its bytes carry must be
    // rejected, not read past the end.
    auto data = make_long_frame(sample_header(), {{"abcdefgh", 1}});
    // Payload starts at 40; bump the tuple count field to 0xffff.
    data[40] = 0xff;
    data[41] = 0xff;
    EXPECT_FALSE(try_parse_long_tuples(data).has_value());
}

}  // namespace
}  // namespace ask::core
