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
 * The queues hold references, not copies: a submitted stream is shared
 * with the builder, which keeps it alive until the builder dies, and a
 * tuple enqueued on its own is copied into builder-owned storage.
 */
#ifndef ASK_ASK_PACKET_BUILDER_H
#define ASK_ASK_PACKET_BUILDER_H

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

    /** Add a whole stream. The builder shares the stream and queues
     *  references into it; nothing is copied. */
    void enqueue(std::shared_ptr<const KvStream> stream);

    /** True while any DATA-eligible (short/medium) tuples remain. */
    bool has_data() const { return queued_data_ > 0; }

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
    /** FIFO of references to tuples the builder keeps alive. */
    using TupleQueue = std::deque<const KvTuple*>;

    void enqueue_ref(const KvTuple& tuple);

    const KeySpace& key_space_;
    const AskConfig& config_;

    /** Streams the queues point into. */
    std::vector<std::shared_ptr<const KvStream>> streams_;
    /** Tuples enqueued one at a time (a deque never moves them). */
    std::deque<KvTuple> owned_;

    /** One queue per short slot. */
    std::vector<TupleQueue> short_queues_;
    /** One queue per medium group. */
    std::vector<TupleQueue> medium_queues_;
    TupleQueue long_queue_;
    std::uint64_t queued_data_ = 0;

    std::uint64_t short_enqueued_ = 0;
    std::uint64_t medium_enqueued_ = 0;
    std::uint64_t long_enqueued_ = 0;
};

}  // namespace ask::core

#endif  // ASK_ASK_PACKET_BUILDER_H
