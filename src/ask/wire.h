/**
 * @file
 * The ASK wire protocol: header and payload codecs.
 *
 * Packet layout inside net::Packet::data:
 *
 *   [20-byte IP header (modeled)] [20-byte ASK header] [payload]
 *
 * ASK header fields (little-endian):
 *   u8  op_type     low 4 bits: packet type (PacketType);
 *                   high 4 bits: ReduceOp id of the task's channel.
 *                   Pre-op frames carried a bare type byte, so their
 *                   high nibble is 0 == kAdd (the old only op).
 *   u8  num_slots   DATA: number of payload slots (== num_aas)
 *   u16 channel_id  cluster-wide data-channel id
 *   u32 task_id     aggregation task
 *   u32 seq         channel sequence number (SWAP: the swap epoch)
 *   u64 bitmap      DATA: slot-occupancy bitmap (bit i == slot i valid)
 *
 * A DATA payload is a fixed array of 8-byte slots (4-byte key segment +
 * 4-byte value), one per aggregator array; blank slots are transmitted
 * (the hardware parses a fixed layout), which is why packing efficiency
 * (Fig. 8b) matters. LONG_DATA payloads carry explicit length-prefixed
 * tuples and bypass switch aggregation.
 */
#ifndef ASK_ASK_WIRE_H
#define ASK_ASK_WIRE_H

#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "ask/types.h"
#include "common/logging.h"
#include "net/packet.h"

namespace ask::core {

/** Serialized size of the ASK header (paper's 20-byte INA header). */
constexpr std::uint32_t kAskHeaderBytes = 20;

/** Where a frame's payload starts: after the modeled IP header and the
 *  ASK header. */
constexpr std::uint32_t kPayloadOffset = net::kIpHeaderBytes + kAskHeaderBytes;

/** ASK packet types. */
enum class PacketType : std::uint8_t
{
    kData = 1,      ///< vectorized key-value tuples (switch aggregates)
    kLongData = 2,  ///< long-key tuples (switch forwards, marks seen)
    kAck = 3,       ///< per-seq acknowledgment (from switch or receiver)
    kFin = 4,       ///< sender-channel end-of-task marker
    kFinAck = 5,    ///< receiver's acknowledgment of a FIN
    kSwap = 6,      ///< shadow-copy swap request (seq = epoch)
    kSwapAck = 7,   ///< switch's acknowledgment of a swap (seq = epoch)
};

/** Parsed ASK header. */
struct AskHeader
{
    PacketType type = PacketType::kData;
    /** Reduction operator of the originating channel; validated against
     *  the installed region by the switch and against the task by the
     *  receiver, so a mismatched sender cannot corrupt an aggregate. */
    ReduceOp op = ReduceOp::kAdd;
    std::uint8_t num_slots = 0;
    ChannelId channel_id = 0;
    TaskId task_id = 0;
    Seq seq = 0;
    std::uint64_t bitmap = 0;
};

/** One DATA payload slot: a key segment and a value. */
struct WireSlot
{
    std::uint32_t seg = 0;
    Value value = 0;
};
static_assert(sizeof(WireSlot) == 8 && std::is_trivially_copyable_v<WireSlot>,
              "a payload slot is a WireSlot's 8 bytes");

/** Serialize a header (plus the modeled IP header) into a fresh buffer
 *  with room for `payload_bytes` of payload. */
std::vector<std::uint8_t> make_frame(const AskHeader& hdr,
                                     std::uint32_t payload_bytes);

/** Parse the ASK header; std::nullopt if the buffer is too short, the
 *  type nibble is not a known PacketType, or the op nibble is not a
 *  known ReduceOp (unknown op ids must be rejected, never folded). */
std::optional<AskHeader> parse_header(const std::vector<std::uint8_t>& data);

/** Rewrite the bitmap field of an already-serialized frame in place. */
void rewrite_bitmap(std::vector<std::uint8_t>& data, std::uint64_t bitmap);

/** Write slot `i` of a DATA frame (inline: the sender writes every
 *  occupied slot of every DATA frame through it). */
inline void
write_slot(std::vector<std::uint8_t>& data, std::uint32_t i,
           const WireSlot& slot)
{
    std::size_t off = kPayloadOffset + static_cast<std::size_t>(i) * 8;
    ASK_ASSERT(off + 8 <= data.size(), "slot ", i, " beyond payload");
    std::memcpy(data.data() + off, &slot, sizeof(slot));
}

/** Read slot `i` of a DATA frame. */
WireSlot read_slot(const std::vector<std::uint8_t>& data, std::uint32_t i);

/**
 * Batch-read every slot named by `bitmap` into `out` (an array of at
 * least `num_slots` entries; slots whose bit is clear are left
 * untouched). One bounds check and one pass over the payload instead of
 * a per-slot call.
 */
void read_slots(const std::vector<std::uint8_t>& data, std::uint64_t bitmap,
                std::uint32_t num_slots, WireSlot* out);

/** Serialize LONG_DATA tuples after the header of `data`. */
std::vector<std::uint8_t> make_long_frame(const AskHeader& hdr,
                                          const std::vector<KvTuple>& tuples);

/** Parse the tuples of a LONG_DATA frame. panic()s on a malformed
 *  frame: internal paths only hand it frames this codec built. */
std::vector<KvTuple> parse_long_tuples(const std::vector<std::uint8_t>& data);

/**
 * Bounds-checked LONG_DATA parse for untrusted buffers: std::nullopt on
 * any truncation or length-field corruption instead of aborting, and
 * never reads past data.size(). The fuzz tests feed this mangled
 * frames; the data path keeps the asserting parse_long_tuples.
 */
std::optional<std::vector<KvTuple>>
try_parse_long_tuples(const std::vector<std::uint8_t>& data);

/** Build a control-style packet (ACK/FIN/FIN_ACK/SWAP/SWAP_ACK): header
 *  only, no payload. */
net::Packet make_control_packet(net::NodeId src, net::NodeId dst,
                                const AskHeader& hdr);

}  // namespace ask::core

#endif  // ASK_ASK_WIRE_H
