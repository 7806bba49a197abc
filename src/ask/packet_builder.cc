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
        (q < config_.short_aas() ? short_enqueued_ : medium_enqueued_) +=
            counts[q];
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

std::optional<BuiltData>
PacketBuilder::next_data()
{
    BuiltData out;
    if (!next_data_into(out))
        return std::nullopt;
    return out;
}

bool
PacketBuilder::next_data_into(BuiltData& out)
{
    if (!has_data())
        return false;

    out.slots.assign(config_.num_aas, WireSlot{});
    out.bitmap = 0;
    out.valid_tuples = 0;

    // One head from every non-empty queue, encoded into its slots.
    const KvStream& tuples = *stream_;
    std::uint32_t shorts = config_.short_aas();
    std::uint32_t m = config_.medium_segments;
    for (std::uint64_t rest = nonempty_; rest != 0; rest &= rest - 1) {
        auto q = static_cast<std::uint32_t>(std::countr_zero(rest));
        IndexQueue& queue = queues_[q];
        const KvTuple& t = tuples[queue.tuples[queue.head]];
        if (q < shorts) {
            out.slots[q] =
                WireSlot{key_space_.encode_key_segment(t.key, 0), t.value};
            out.bitmap |= 1ULL << q;
        } else {
            // The value rides in the group's last slot; the others carry 0.
            std::uint32_t mb = config_.medium_base(q - shorts);
            for (std::uint32_t j = 0; j < m; ++j) {
                out.slots[mb + j] =
                    WireSlot{key_space_.encode_key_segment(t.key, j),
                             j + 1 == m ? t.value : 0};
            }
            out.bitmap |= ((1ULL << m) - 1) << mb;
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
        ++out.valid_tuples;
    }

    ASK_ASSERT(out.bitmap != 0, "built an empty DATA packet");
    return true;
}

bool
PacketBuilder::fill(IndexQueue& queue, Batch& batch, std::uint32_t budget)
{
    const KvStream& tuples = *stream_;
    for (; !queue.drained(); ++queue.head) {
        const KvTuple& t = tuples[queue.tuples[queue.head]];
        std::uint32_t need = 2 + static_cast<std::uint32_t>(t.key.size()) + 4;
        if (!batch.tuples.empty() && batch.bytes + need > budget)
            return false;
        batch.bytes += need;
        batch.tuples.push_back(t);
    }
    return true;
}

std::optional<std::vector<KvTuple>>
PacketBuilder::next_long_batch(std::uint32_t max_payload_bytes)
{
    if (!has_long())
        return std::nullopt;
    Batch batch;
    fill(long_, batch, max_payload_bytes);
    return std::move(batch.tuples);
}

std::optional<std::vector<KvTuple>>
PacketBuilder::next_bypass_batch(std::uint32_t max_payload_bytes)
{
    if (empty())
        return std::nullopt;
    // The long queue, then the slot queues in index order (short slots
    // before medium groups), up to the first tuple that does not fit.
    Batch batch;
    if (fill(long_, batch, max_payload_bytes)) {
        for (std::uint32_t q = 0; q < queues_.size(); ++q) {
            if (!fill(queues_[q], batch, max_payload_bytes))
                break;
            nonempty_ &= ~(1ULL << q);
        }
    }
    return std::move(batch.tuples);
}

}  // namespace ask::core
