#include "ask/packet_builder.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>

#include "common/logging.h"

namespace ask::core {

namespace {

/** queue_of() result for a long key: past every slot queue (the bitmap
 *  is 64 bits wide, so there are at most 64 of those). */
constexpr std::uint32_t kLongQueue = 64;

}  // namespace

PacketBuilder::PacketBuilder(const KeySpace& key_space)
    : key_space_(key_space),
      config_(key_space.config()),
      queues_(config_.short_aas() + config_.medium_groups)
{
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

std::uint32_t
PacketBuilder::width(std::uint32_t q) const
{
    return q < config_.short_aas() ? 1 : config_.medium_segments;
}

void
PacketBuilder::push(std::uint32_t q, const KvTuple& tuple)
{
    std::vector<WireSlot>& slots = queues_[q].slots;
    if (q < config_.short_aas()) {
        slots.push_back(
            WireSlot{key_space_.encode_key_segment(tuple.key, 0), tuple.value});
        ++short_enqueued_;
    } else {
        // The value rides in the group's last slot; the others carry 0.
        std::uint32_t m = config_.medium_segments;
        for (std::uint32_t j = 0; j < m; ++j) {
            slots.push_back(
                WireSlot{key_space_.encode_key_segment(tuple.key, j),
                         j + 1 == m ? tuple.value : 0});
        }
        ++medium_enqueued_;
    }
    nonempty_ |= 1ULL << q;
}

const WireSlot*
PacketBuilder::front(std::uint32_t q) const
{
    const SlotQueue& queue = queues_[q];
    return queue.slots.data() + queue.head;
}

void
PacketBuilder::pop(std::uint32_t q)
{
    SlotQueue& queue = queues_[q];
    queue.head += width(q);
    if (queue.head == queue.slots.size()) {
        queue.slots.clear();  // keeps the capacity for later enqueues
        queue.head = 0;
        nonempty_ &= ~(1ULL << q);
    }
}

void
PacketBuilder::enqueue(const KvTuple& tuple)
{
    std::uint32_t q = queue_of(key_space_.place(tuple.key));
    if (q != kLongQueue) {
        push(q, tuple);
        return;
    }
    owned_.push_back(tuple);
    long_queue_.push_back(&owned_.back());
    ++long_enqueued_;
}

void
PacketBuilder::enqueue(std::shared_ptr<const KvStream> stream)
{
    // Place every tuple once while counting per queue, size each queue
    // exactly (doubling growth would hold up to twice a large stream's
    // slots at the peak), then encode.
    const KvStream& tuples = *stream;
    std::vector<std::uint8_t> placed(tuples.size());
    std::array<std::size_t, kLongQueue + 1> counts{};
    for (std::size_t i = 0; i < tuples.size(); ++i) {
        std::uint32_t q = queue_of(key_space_.place(tuples[i].key));
        placed[i] = static_cast<std::uint8_t>(q);
        ++counts[q];
    }
    for (std::uint32_t q = 0; q < queues_.size(); ++q) {
        std::vector<WireSlot>& slots = queues_[q].slots;
        slots.reserve(slots.size() + counts[q] * width(q));
    }
    for (std::size_t i = 0; i < tuples.size(); ++i) {
        if (placed[i] != kLongQueue)
            push(placed[i], tuples[i]);
        else
            long_queue_.push_back(&tuples[i]);
    }
    long_enqueued_ += counts[kLongQueue];
    if (counts[kLongQueue] != 0)
        streams_.push_back(std::move(stream));
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

    // One head from every non-empty queue, copied as encoded.
    std::uint32_t shorts = config_.short_aas();
    std::uint32_t m = config_.medium_segments;
    for (std::uint64_t rest = nonempty_; rest != 0; rest &= rest - 1) {
        auto q = static_cast<std::uint32_t>(std::countr_zero(rest));
        if (q < shorts) {
            out.slots[q] = *front(q);
            out.bitmap |= 1ULL << q;
        } else {
            std::uint32_t mb = config_.medium_base(q - shorts);
            std::copy_n(front(q), m, out.slots.begin() + mb);
            out.bitmap |= ((1ULL << m) - 1) << mb;
        }
        pop(q);
        ++out.valid_tuples;
    }

    ASK_ASSERT(out.bitmap != 0, "built an empty DATA packet");
    return true;
}

std::optional<std::vector<KvTuple>>
PacketBuilder::next_long_batch(std::uint32_t max_payload_bytes)
{
    if (long_queue_.empty())
        return std::nullopt;

    std::vector<KvTuple> batch;
    std::uint32_t bytes = 2;  // tuple-count field
    while (!long_queue_.empty()) {
        const KvTuple& t = *long_queue_.front();
        std::uint32_t need = 2 + static_cast<std::uint32_t>(t.key.size()) + 4;
        if (!batch.empty() && bytes + need > max_payload_bytes)
            break;
        bytes += need;
        batch.push_back(t);
        long_queue_.pop_front();
    }
    return batch;
}

std::optional<std::vector<KvTuple>>
PacketBuilder::next_bypass_batch(std::uint32_t max_payload_bytes)
{
    if (empty())
        return std::nullopt;

    std::vector<KvTuple> batch;
    std::uint32_t bytes = 2;  // tuple-count field
    auto fits = [&](std::size_t key_bytes) {
        std::uint32_t need = 2 + static_cast<std::uint32_t>(key_bytes) + 4;
        if (!batch.empty() && bytes + need > max_payload_bytes)
            return false;
        bytes += need;
        return true;
    };
    auto take_long = [&] {
        while (!long_queue_.empty()) {
            const KvTuple& t = *long_queue_.front();
            if (!fits(t.key.size()))
                return false;
            batch.push_back(t);
            long_queue_.pop_front();
        }
        return true;
    };
    // Encoded tuples decode back exactly: keys hold no NUL and the wire
    // pads them with NUL.
    std::uint32_t nb = config_.seg_bytes();
    std::string padded;
    auto take_slots = [&](std::uint32_t q) {
        std::uint32_t w = width(q);
        while ((nonempty_ >> q) & 1) {
            const WireSlot* head = front(q);
            padded.resize(static_cast<std::size_t>(w) * nb);
            for (std::uint32_t j = 0; j < w; ++j)
                key_space_.decode_segment_into(head[j].seg,
                                               padded.data() + j * nb);
            Key key = KeySpace::unpad(padded);
            if (!fits(key.size()))
                return false;
            batch.push_back(KvTuple{std::move(key), head[w - 1].value});
            pop(q);
        }
        return true;
    };

    if (take_long()) {
        std::uint32_t shorts = config_.short_aas();
        for (std::uint32_t q = 0; q < shorts; ++q)
            if (!take_slots(q))
                break;
        for (std::uint32_t q = shorts; q < queues_.size(); ++q)
            if (!take_slots(q))
                break;
    }
    return batch;
}

}  // namespace ask::core
