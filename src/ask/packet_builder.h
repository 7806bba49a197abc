/**
 * @file
 * Sender-side packet construction (paper §3.2.2).
 *
 * Tuples are bucketed into per-slot FIFO queues by the key-space
 * partition: short keys into their subspace's slot queue, medium keys
 * into their group's queue, long keys into a bypass queue. Each DATA
 * packet takes the head of every queue, so a key always occupies the
 * same slot (and hence the same AA) in every packet; skewed datasets
 * leave slots blank, which is exactly the packing-efficiency effect
 * Figure 8(b) measures.
 *
 * A builder is made from the one stream it sends, which it shares.
 * Each key is placed (classified and partition-hashed) once, at
 * construction, and each queue holds only the stream indices of its
 * tuples, so the builder adds 4 bytes per tuple to the stream it
 * already references. The builder hands out finished frames: a DATA
 * frame's slots are encoded straight into the frame bytes when the
 * frame takes their tuples (one slot for a short key, m for a medium
 * key with the value in the last), and a LONG_DATA frame serializes
 * tuples copied from the stream.
 */
#ifndef ASK_ASK_PACKET_BUILDER_H
#define ASK_ASK_PACKET_BUILDER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ask/config.h"
#include "ask/key_space.h"
#include "ask/types.h"
#include "ask/wire.h"

namespace ask::core {

/** Max LONG_DATA payload bytes per packet (long keys bypass the switch,
 *  so they are not bound to the slot layout). */
inline constexpr std::uint32_t kLongPayloadBytes = 1024;

/** Builds the outgoing frame sequence for one task's stream. */
class PacketBuilder
{
  public:
    /** Queue every tuple of `stream`, which the builder keeps alive. */
    PacketBuilder(const KeySpace& key_space,
                  std::shared_ptr<const KvStream> stream);

    /** True once every tuple has gone into a frame. */
    bool empty() const { return nonempty_ == 0 && long_.drained(); }

    /**
     * The next frame of the stream, under `hdr`'s op, channel, task and
     * seq; the builder sets `hdr`'s type, num_slots and bitmap to the
     * frame's. The builder must not be empty().
     *
     * Normally: a DATA frame taking the head of every non-empty slot
     * queue while any remain, then LONG_DATA frames of the long-key
     * queue. With `bypass` (a degraded sender routes every tuple around
     * the switch): LONG_DATA frames of the long queue first, then of the
     * slot queues in index order (short slots before medium groups). A
     * LONG_DATA frame takes tuples in that order while its payload stays
     * within kLongPayloadBytes, and always takes at least one.
     */
    std::vector<std::uint8_t> next_frame(AskHeader& hdr, bool bypass);

  private:
    /** FIFO of stream indices; popping advances `head`. */
    struct IndexQueue
    {
        std::vector<std::uint32_t> tuples;
        std::size_t head = 0;

        bool drained() const { return head == tuples.size(); }
    };

    /** A LONG_DATA payload being filled. */
    struct Batch
    {
        std::vector<KvTuple> tuples;
        std::uint32_t bytes = 2;  ///< the tuple-count field
    };

    /** Queue index of a placed short or medium key: short slot s is
     *  queue s, medium group g is queue short_aas() + g. */
    std::uint32_t queue_of(const KeyPlace& place) const;
    std::vector<std::uint8_t> data_frame(AskHeader& hdr);
    std::vector<std::uint8_t> long_frame(AskHeader& hdr, bool bypass);
    /** Copy head tuples of `queue` into `batch` while it stays within
     *  kLongPayloadBytes (the first tuple always goes); true when the
     *  queue drained. */
    bool fill(IndexQueue& queue, Batch& batch);

    const KeySpace& key_space_;
    const AskConfig& config_;
    std::shared_ptr<const KvStream> stream_;

    /** Short-slot queues, then medium-group queues (see queue_of). */
    std::vector<IndexQueue> queues_;
    /** Bit q set iff queues_[q] holds a tuple. */
    std::uint64_t nonempty_ = 0;
    IndexQueue long_;
};

/**
 * Decode the tuples of a DATA frame whose slot bit is in `mask`: the
 * frame's bitmap at the receiver, the unconsumed slots in a
 * degraded-mode conversion to a bypass frame. A medium group's bits are
 * all set or all clear. The inverse of PacketBuilder's DATA encoding.
 */
KvStream tuples_from_data_frame(const KeySpace& key_space,
                                const std::vector<std::uint8_t>& frame,
                                std::uint64_t mask);

}  // namespace ask::core

#endif  // ASK_ASK_PACKET_BUILDER_H
