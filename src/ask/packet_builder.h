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
 * Each key is placed (classified and partition-hashed) once, at
 * enqueue, and the short and medium queues hold the tuple already
 * encoded: one WireSlot per short tuple, m per medium tuple with the
 * value in the last, so building a packet copies queue heads and never
 * reads a key again. Long tuples are queued by reference: a submitted
 * stream with long keys is shared with the builder, which keeps it
 * alive until the builder dies, and a long tuple enqueued on its own is
 * copied into builder-owned storage.
 */
#ifndef ASK_ASK_PACKET_BUILDER_H
#define ASK_ASK_PACKET_BUILDER_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "ask/config.h"
#include "ask/key_space.h"
#include "ask/types.h"
#include "ask/wire.h"

namespace ask::core {

/** One DATA packet's worth of slots, before framing. */
struct BuiltData
{
    /** All num_aas slots; blanks are zero-filled (they are transmitted). */
    std::vector<WireSlot> slots;
    /** Slot-occupancy bitmap. */
    std::uint64_t bitmap = 0;
    /** Distinct tuples carried (a medium tuple counts once). */
    std::uint32_t valid_tuples = 0;
};

/** Builds the outgoing packet sequence for one task's stream. */
class PacketBuilder
{
  public:
    explicit PacketBuilder(const KeySpace& key_space);

    /** Add one tuple to its queue (the builder keeps its own copy). */
    void enqueue(const KvTuple& tuple);

    /** Add a whole stream. Short and medium tuples are encoded into
     *  their queues; long ones are queued by reference into the stream,
     *  which the builder then shares. */
    void enqueue(std::shared_ptr<const KvStream> stream);

    /** True while any DATA-eligible (short/medium) tuples remain. */
    bool has_data() const { return nonempty_ != 0; }

    /** True while long-key tuples remain. */
    bool has_long() const { return !long_queue_.empty(); }

    bool empty() const { return !has_data() && !has_long(); }

    /**
     * Build the next DATA packet: pops at most one tuple per slot queue.
     * std::nullopt when no short/medium tuples remain.
     */
    std::optional<BuiltData> next_data();

    /**
     * Scratch-reusing form of next_data() for the send hot path: fills
     * `out` (reusing its slot vector's capacity, so a caller draining a
     * stream into the same BuiltData allocates nothing per packet) and
     * returns true, or returns false when no short/medium tuples remain.
     * Produces bit-identical packets to next_data().
     */
    bool next_data_into(BuiltData& out);

    /**
     * Pop the next batch of long-key tuples whose serialized size fits
     * `max_payload_bytes`. std::nullopt when none remain.
     */
    std::optional<std::vector<KvTuple>> next_long_batch(
        std::uint32_t max_payload_bytes);

    /**
     * Degraded mode: pop the next batch of tuples of ANY class for the
     * host-only bypass path — the long queue first, then the
     * short/medium slot queues. Same wire format and size accounting as
     * next_long_batch. std::nullopt when the builder is empty.
     */
    std::optional<std::vector<KvTuple>> next_bypass_batch(
        std::uint32_t max_payload_bytes);

    /** Tuples enqueued so far, by class. */
    std::uint64_t short_enqueued() const { return short_enqueued_; }
    std::uint64_t medium_enqueued() const { return medium_enqueued_; }
    std::uint64_t long_enqueued() const { return long_enqueued_; }

  private:
    /** FIFO of encoded tuples, `width` slots each; popping advances
     *  `head`, and a drained queue rewinds to reuse its storage. */
    struct SlotQueue
    {
        std::vector<WireSlot> slots;
        std::size_t head = 0;
    };

    /** Queue index of a placed short or medium key: short slot s is
     *  queue s, medium group g is queue short_aas() + g. */
    std::uint32_t queue_of(const KeyPlace& place) const;
    /** Slots per tuple in queue q: 1 for a short slot, m for a group. */
    std::uint32_t width(std::uint32_t q) const;
    /** Encode `tuple` onto the tail of queue q. */
    void push(std::uint32_t q, const KvTuple& tuple);
    /** The head tuple's slots of non-empty queue q, and its removal. */
    const WireSlot* front(std::uint32_t q) const;
    void pop(std::uint32_t q);

    const KeySpace& key_space_;
    const AskConfig& config_;

    /** Streams the long queue points into. */
    std::vector<std::shared_ptr<const KvStream>> streams_;
    /** Long tuples enqueued one at a time (a deque never moves them). */
    std::deque<KvTuple> owned_;

    /** Short-slot queues, then medium-group queues (see queue_of). */
    std::vector<SlotQueue> queues_;
    /** Bit q set iff queues_[q] holds a tuple. */
    std::uint64_t nonempty_ = 0;
    std::deque<const KvTuple*> long_queue_;

    std::uint64_t short_enqueued_ = 0;
    std::uint64_t medium_enqueued_ = 0;
    std::uint64_t long_enqueued_ = 0;
};

}  // namespace ask::core

#endif  // ASK_ASK_PACKET_BUILDER_H
