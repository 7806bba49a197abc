#include "ask/packet_builder.h"

#include "common/logging.h"

namespace ask::core {

PacketBuilder::PacketBuilder(const KeySpace& key_space)
    : key_space_(key_space),
      config_(key_space.config()),
      short_queues_(config_.short_aas()),
      medium_queues_(config_.medium_groups)
{
}

void
PacketBuilder::enqueue(const KvTuple& tuple)
{
    owned_.push_back(tuple);
    enqueue_ref(owned_.back());
}

void
PacketBuilder::enqueue(std::shared_ptr<const KvStream> stream)
{
    for (const KvTuple& t : *stream)
        enqueue_ref(t);
    streams_.push_back(std::move(stream));
}

void
PacketBuilder::enqueue_ref(const KvTuple& tuple)
{
    switch (key_space_.classify(tuple.key)) {
      case KeyClass::kShort:
        short_queues_[key_space_.short_slot(tuple.key)].push_back(&tuple);
        ++queued_data_;
        ++short_enqueued_;
        return;
      case KeyClass::kMedium:
        medium_queues_[key_space_.medium_group(tuple.key)].push_back(&tuple);
        ++queued_data_;
        ++medium_enqueued_;
        return;
      case KeyClass::kLong:
        long_queue_.push_back(&tuple);
        ++long_enqueued_;
        return;
    }
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

    for (std::uint32_t i = 0; i < config_.short_aas(); ++i) {
        auto& q = short_queues_[i];
        if (q.empty())
            continue;
        const KvTuple& t = *q.front();
        // encode_key_segment reads the key bytes directly: identical to
        // encode_segment(padded(key), 0) without the padded copy.
        out.slots[i] =
            WireSlot{key_space_.encode_key_segment(t.key, 0), t.value};
        out.bitmap |= 1ULL << i;
        ++out.valid_tuples;
        q.pop_front();
        --queued_data_;
    }

    for (std::uint32_t g = 0; g < config_.medium_groups; ++g) {
        auto& q = medium_queues_[g];
        if (q.empty())
            continue;
        const KvTuple& t = *q.front();
        std::uint32_t mb = config_.medium_base(g);
        for (std::uint32_t j = 0; j < config_.medium_segments; ++j) {
            Value v = (j + 1 == config_.medium_segments) ? t.value : 0;
            out.slots[mb + j] =
                WireSlot{key_space_.encode_key_segment(t.key, j), v};
            out.bitmap |= 1ULL << (mb + j);
        }
        ++out.valid_tuples;
        q.pop_front();
        --queued_data_;
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
    auto take = [&](TupleQueue& q, bool counts_as_data) {
        while (!q.empty()) {
            const KvTuple& t = *q.front();
            std::uint32_t need =
                2 + static_cast<std::uint32_t>(t.key.size()) + 4;
            if (!batch.empty() && bytes + need > max_payload_bytes)
                return false;
            bytes += need;
            batch.push_back(t);
            q.pop_front();
            if (counts_as_data)
                --queued_data_;
        }
        return true;
    };

    if (take(long_queue_, false)) {
        for (auto& q : short_queues_)
            if (!take(q, true))
                break;
        for (auto& q : medium_queues_)
            if (!take(q, true))
                break;
    }
    return batch;
}

}  // namespace ask::core
