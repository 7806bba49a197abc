#include "ask/packet_builder.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>

#include "common/logging.h"

namespace ask::core {

namespace {

/** queue_of() result for a long key: past every slot queue (the bitmap
 *  is 64 bits wide, so there are at most 64 of those). */
constexpr std::uint32_t kLongQueue = 64;

/** How many tuples past its head a slot queue prefetches. */
constexpr std::size_t kPrefetchAhead = 4;

}  // namespace

PacketBuilder::PacketBuilder(const KeySpace& key_space,
                             std::shared_ptr<const KvStream> stream)
    : key_space_(key_space),
      config_(key_space.config()),
      stream_(std::move(stream)),
      queues_(config_.short_aas() + config_.medium_groups)
{
    // Place every tuple once while counting per queue, size each queue
    // exactly (doubling growth would hold up to twice a large stream's
    // indices at the peak), then fill the queues in stream order.
    const KvStream& tuples = *stream_;
    ASK_ASSERT(tuples.size() <= std::numeric_limits<std::uint32_t>::max(),
               "stream of ", tuples.size(), " tuples overflows the index");
    std::vector<std::uint8_t> placed(tuples.size());
    std::array<std::uint32_t, kLongQueue + 1> counts{};
    for (std::size_t i = 0; i < tuples.size(); ++i) {
        std::uint32_t q = queue_of(key_space_.place(tuples[i].key));
        placed[i] = static_cast<std::uint8_t>(q);
        ++counts[q];
    }
    for (std::uint32_t q = 0; q < queues_.size(); ++q) {
        queues_[q].tuples.reserve(counts[q]);
        if (counts[q] != 0)
            nonempty_ |= 1ULL << q;
    }
    long_.tuples.reserve(counts[kLongQueue]);
    for (std::size_t i = 0; i < tuples.size(); ++i) {
        IndexQueue& queue =
            placed[i] == kLongQueue ? long_ : queues_[placed[i]];
        queue.tuples.push_back(static_cast<std::uint32_t>(i));
    }
}

std::uint32_t
PacketBuilder::queue_of(const KeyPlace& place) const
{
    switch (place.cls) {
      case KeyClass::kShort:
        return place.index;
      case KeyClass::kMedium:
        return config_.short_aas() + place.index;
      case KeyClass::kLong:
        break;
    }
    return kLongQueue;
}

std::vector<std::uint8_t>
PacketBuilder::next_frame(AskHeader& hdr, bool bypass)
{
    ASK_ASSERT(!empty(), "next_frame of a drained builder");
    return !bypass && nonempty_ != 0 ? data_frame(hdr)
                                     : long_frame(hdr, bypass);
}

std::vector<std::uint8_t>
PacketBuilder::data_frame(AskHeader& hdr)
{
    hdr.type = PacketType::kData;
    hdr.num_slots = static_cast<std::uint8_t>(config_.num_aas);
    hdr.bitmap = 0;
    std::vector<std::uint8_t> frame = make_frame(hdr, config_.payload_bytes());

    // One head from every non-empty queue, encoded into its slots; blank
    // slots keep make_frame's zero fill (they are transmitted).
    const KvStream& tuples = *stream_;
    std::uint32_t shorts = config_.short_aas();
    std::uint32_t m = config_.medium_segments;
    for (std::uint64_t rest = nonempty_; rest != 0; rest &= rest - 1) {
        auto q = static_cast<std::uint32_t>(std::countr_zero(rest));
        IndexQueue& queue = queues_[q];
        const KvTuple& t = tuples[queue.tuples[queue.head]];
        if (q < shorts) {
            write_slot(frame, q,
                       WireSlot{key_space_.encode_key_segment(t.key, 0),
                                t.value});
            hdr.bitmap |= 1ULL << q;
        } else {
            // The value rides in the group's last slot; the others carry 0.
            std::uint32_t mb = config_.medium_base(q - shorts);
            for (std::uint32_t j = 0; j < m; ++j) {
                write_slot(frame, mb + j,
                           WireSlot{key_space_.encode_key_segment(t.key, j),
                                    j + 1 == m ? t.value : 0});
            }
            hdr.bitmap |= ((1ULL << m) - 1) << mb;
        }
        if (++queue.head == queue.tuples.size()) {
            nonempty_ &= ~(1ULL << q);
        } else {
            // Every queue walks the stream at its own pace: more streams
            // than the hardware prefetcher follows once the stream
            // outgrows the caches.
            std::size_t ahead = std::min(queue.head + kPrefetchAhead,
                                         queue.tuples.size() - 1);
            __builtin_prefetch(&tuples[queue.tuples[ahead]]);
        }
    }
    rewrite_bitmap(frame, hdr.bitmap);
    return frame;
}

std::vector<std::uint8_t>
PacketBuilder::long_frame(AskHeader& hdr, bool bypass)
{
    // The long queue, then (bypassing) the slot queues in index order,
    // up to the first tuple that does not fit.
    Batch batch;
    if (fill(long_, batch) && bypass) {
        for (std::uint32_t q = 0; q < queues_.size(); ++q) {
            if (!fill(queues_[q], batch))
                break;
            nonempty_ &= ~(1ULL << q);
        }
    }
    hdr.type = PacketType::kLongData;
    hdr.num_slots = 0;
    hdr.bitmap = 0;
    return make_long_frame(hdr, batch.tuples);
}

bool
PacketBuilder::fill(IndexQueue& queue, Batch& batch)
{
    const KvStream& tuples = *stream_;
    for (; !queue.drained(); ++queue.head) {
        const KvTuple& t = tuples[queue.tuples[queue.head]];
        std::uint32_t need = 2 + static_cast<std::uint32_t>(t.key.size()) + 4;
        if (!batch.tuples.empty() && batch.bytes + need > kLongPayloadBytes)
            return false;
        batch.bytes += need;
        batch.tuples.push_back(t);
    }
    return true;
}

KvStream
tuples_from_data_frame(const KeySpace& key_space,
                       const std::vector<std::uint8_t>& frame,
                       std::uint64_t mask)
{
    const AskConfig& config = key_space.config();
    KvStream out;
    for (std::uint32_t i = 0; i < config.short_aas(); ++i) {
        if (!(mask & (1ULL << i)))
            continue;
        WireSlot slot = read_slot(frame, i);
        out.push_back(KvTuple{key_space.decode_key({&slot.seg, 1}), slot.value});
    }
    std::uint32_t m = config.medium_segments;
    std::array<std::uint32_t, 64> segs{};  // m <= num_aas <= 64
    for (std::uint32_t g = 0; g < config.medium_groups; ++g) {
        std::uint32_t mb = config.medium_base(g);
        if (!(mask & (1ULL << mb)))
            continue;
        Value value = 0;
        for (std::uint32_t j = 0; j < m; ++j) {
            ASK_ASSERT(mask & (1ULL << (mb + j)),
                       "medium group bitmap must be all-or-nothing");
            WireSlot slot = read_slot(frame, mb + j);
            segs[j] = slot.seg;
            value = slot.value;  // the group's last slot carries it
        }
        out.push_back(KvTuple{key_space.decode_key({segs.data(), m}), value});
    }
    return out;
}

}  // namespace ask::core
