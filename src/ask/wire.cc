#include "ask/wire.h"

#include <bit>
#include <cstring>

#include "common/logging.h"

namespace ask::core {

namespace {

constexpr std::uint32_t kHeaderOffset = net::kIpHeaderBytes;

// Wire integers are little-endian: on a little-endian host each one is a
// single memcpy load or store, and a payload slot is a WireSlot's bytes.
static_assert(std::endian::native == std::endian::little,
              "wire integers are stored and loaded with memcpy");

void
put_u16(std::vector<std::uint8_t>& b, std::size_t off, std::uint16_t v)
{
    std::memcpy(b.data() + off, &v, sizeof(v));
}

void
put_u32(std::vector<std::uint8_t>& b, std::size_t off, std::uint32_t v)
{
    std::memcpy(b.data() + off, &v, sizeof(v));
}

void
put_u64(std::vector<std::uint8_t>& b, std::size_t off, std::uint64_t v)
{
    std::memcpy(b.data() + off, &v, sizeof(v));
}

std::uint16_t
get_u16(const std::vector<std::uint8_t>& b, std::size_t off)
{
    std::uint16_t v = 0;
    std::memcpy(&v, b.data() + off, sizeof(v));
    return v;
}

std::uint32_t
get_u32(const std::vector<std::uint8_t>& b, std::size_t off)
{
    std::uint32_t v = 0;
    std::memcpy(&v, b.data() + off, sizeof(v));
    return v;
}

std::uint64_t
get_u64(const std::vector<std::uint8_t>& b, std::size_t off)
{
    std::uint64_t v = 0;
    std::memcpy(&v, b.data() + off, sizeof(v));
    return v;
}

}  // namespace

std::vector<std::uint8_t>
make_frame(const AskHeader& hdr, std::uint32_t payload_bytes)
{
    std::vector<std::uint8_t> data(kPayloadOffset + payload_bytes, 0);
    data[kHeaderOffset + 0] = static_cast<std::uint8_t>(
        (static_cast<std::uint8_t>(hdr.op) << 4) |
        (static_cast<std::uint8_t>(hdr.type) & 0x0F));
    data[kHeaderOffset + 1] = hdr.num_slots;
    put_u16(data, kHeaderOffset + 2, hdr.channel_id);
    put_u32(data, kHeaderOffset + 4, hdr.task_id);
    put_u32(data, kHeaderOffset + 8, hdr.seq);
    put_u64(data, kHeaderOffset + 12, hdr.bitmap);
    return data;
}

std::optional<AskHeader>
parse_header(const std::vector<std::uint8_t>& data)
{
    if (data.size() < kPayloadOffset)
        return std::nullopt;
    const std::uint8_t op_type = data[kHeaderOffset + 0];
    const std::uint8_t type = op_type & 0x0F;
    const std::uint8_t op = op_type >> 4;
    if (type < static_cast<std::uint8_t>(PacketType::kData) ||
        type > static_cast<std::uint8_t>(PacketType::kSwapAck))
        return std::nullopt;
    if (op >= kNumReduceOps)
        return std::nullopt;
    AskHeader hdr;
    hdr.type = static_cast<PacketType>(type);
    hdr.op = static_cast<ReduceOp>(op);
    hdr.num_slots = data[kHeaderOffset + 1];
    hdr.channel_id = get_u16(data, kHeaderOffset + 2);
    hdr.task_id = get_u32(data, kHeaderOffset + 4);
    hdr.seq = get_u32(data, kHeaderOffset + 8);
    hdr.bitmap = get_u64(data, kHeaderOffset + 12);
    return hdr;
}

void
rewrite_bitmap(std::vector<std::uint8_t>& data, std::uint64_t bitmap)
{
    ASK_ASSERT(data.size() >= kPayloadOffset, "frame too short");
    put_u64(data, kHeaderOffset + 12, bitmap);
}

WireSlot
read_slot(const std::vector<std::uint8_t>& data, std::uint32_t i)
{
    std::size_t off = kPayloadOffset + static_cast<std::size_t>(i) * 8;
    ASK_ASSERT(off + 8 <= data.size(), "slot ", i, " beyond payload");
    return WireSlot{get_u32(data, off), get_u32(data, off + 4)};
}

void
read_slots(const std::vector<std::uint8_t>& data, std::uint64_t bitmap,
           std::uint32_t num_slots, WireSlot* out)
{
    // The bits naming real slots, bounds-checked once against the
    // payload (the per-slot guarantee read_slot gives).
    std::uint64_t rest =
        bitmap & (num_slots >= 64 ? ~0ULL : ((1ULL << num_slots) - 1));
    if (rest != 0) {
        auto hi = static_cast<std::uint32_t>(63 - std::countl_zero(rest));
        ASK_ASSERT(kPayloadOffset + (static_cast<std::size_t>(hi) + 1) * 8 <=
                       data.size(),
                   "slot ", hi, " beyond payload");
    }
    for (; rest != 0; rest &= rest - 1) {
        auto i = static_cast<std::uint32_t>(std::countr_zero(rest));
        std::size_t off = kPayloadOffset + static_cast<std::size_t>(i) * 8;
        std::memcpy(&out[i], data.data() + off, sizeof(WireSlot));
    }
}

std::vector<std::uint8_t>
make_long_frame(const AskHeader& hdr, const std::vector<KvTuple>& tuples)
{
    std::size_t payload = 2;
    for (const auto& t : tuples)
        payload += 2 + t.key.size() + 4;

    AskHeader h = hdr;
    h.type = PacketType::kLongData;
    auto data = make_frame(h, static_cast<std::uint32_t>(payload));

    std::size_t off = kPayloadOffset;
    put_u16(data, off, static_cast<std::uint16_t>(tuples.size()));
    off += 2;
    for (const auto& t : tuples) {
        put_u16(data, off, static_cast<std::uint16_t>(t.key.size()));
        off += 2;
        for (char c : t.key)
            data[off++] = static_cast<std::uint8_t>(c);
        put_u32(data, off, t.value);
        off += 4;
    }
    return data;
}

std::vector<KvTuple>
parse_long_tuples(const std::vector<std::uint8_t>& data)
{
    auto tuples = try_parse_long_tuples(data);
    ASK_ASSERT(tuples.has_value(), "malformed LONG_DATA frame");
    return std::move(*tuples);
}

std::optional<std::vector<KvTuple>>
try_parse_long_tuples(const std::vector<std::uint8_t>& data)
{
    if (data.size() < kPayloadOffset + 2)
        return std::nullopt;
    std::size_t off = kPayloadOffset;
    std::uint16_t count = get_u16(data, off);
    off += 2;
    std::vector<KvTuple> tuples;
    tuples.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
        if (off + 2 > data.size())
            return std::nullopt;
        std::uint16_t len = get_u16(data, off);
        off += 2;
        if (off + static_cast<std::size_t>(len) + 4 > data.size())
            return std::nullopt;
        KvTuple t;
        t.key.assign(reinterpret_cast<const char*>(&data[off]), len);
        off += len;
        t.value = get_u32(data, off);
        off += 4;
        tuples.push_back(std::move(t));
    }
    return tuples;
}

net::Packet
make_control_packet(net::NodeId src, net::NodeId dst, const AskHeader& hdr)
{
    net::Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.data = make_frame(hdr, 0);
    return pkt;
}

}  // namespace ask::core
