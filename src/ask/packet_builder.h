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
 * already references. A tuple is encoded into its WireSlots (one for a
 * short key, m for a medium key with the value in the last) when a
 * DATA packet takes it; the long and degraded-mode bypass batches copy
 * tuples straight from the stream.
 */
#ifndef ASK_ASK_PACKET_BUILDER_H
#define ASK_ASK_PACKET_BUILDER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ask/config.h"
#include "ask/key_space.h"
#include "ask/types.h"
#include "ask/wire.h"

namespace ask::core {

/** Max LONG_DATA payload bytes per packet (long keys bypass the switch,
 *  so they are not bound to the slot layout). */
inline constexpr std::uint32_t kLongPayloadBytes = 1024;

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
    /** Queue every tuple of `stream`, which the builder keeps alive. */
    PacketBuilder(const KeySpace& key_space,
                  std::shared_ptr<const KvStream> stream);

    /** True while any DATA-eligible (short/medium) tuples remain. */
    bool has_data() const { return nonempty_ != 0; }

    /** True while long-key tuples remain. */
    bool has_long() const { return !long_.drained(); }

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

    /** Tuples queued at construction, by class. */
    std::uint64_t short_enqueued() const { return short_enqueued_; }
    std::uint64_t medium_enqueued() const { return medium_enqueued_; }
    std::uint64_t long_enqueued() const { return long_.tuples.size(); }

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
    /** Copy head tuples of `queue` into `batch` while it stays within
     *  `budget` bytes (the first tuple always goes); true when the queue
     *  drained. */
    bool fill(IndexQueue& queue, Batch& batch, std::uint32_t budget);

    const KeySpace& key_space_;
    const AskConfig& config_;
    std::shared_ptr<const KvStream> stream_;

    /** Short-slot queues, then medium-group queues (see queue_of). */
    std::vector<IndexQueue> queues_;
    /** Bit q set iff queues_[q] holds a tuple. */
    std::uint64_t nonempty_ = 0;
    IndexQueue long_;

    std::uint64_t short_enqueued_ = 0;
    std::uint64_t medium_enqueued_ = 0;
};

}  // namespace ask::core

#endif  // ASK_ASK_PACKET_BUILDER_H
