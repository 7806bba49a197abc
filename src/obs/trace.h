/**
 * @file
 * Packet-lifecycle tracing: a fixed-size ring of spans that can
 * reconstruct any sequence number's end-to-end path through the system
 * — submit, packetize, transmit, switch pass (ack / forward / stale /
 * blackhole), host aggregate, finalize — with retransmit / replay /
 * bypass annotations. Built for debugging chaos runs: "which hop ate
 * seq 4182?" becomes one chain() call.
 *
 * Cost model: recording is a branch plus a ring-slot write; when the
 * tracer is disabled (the default) it is a single predictable branch.
 */
#ifndef ASK_OBS_TRACE_H
#define ASK_OBS_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace ask::obs {

/** Lifecycle stages a packet (or task-level action) can pass through. */
enum class TraceStage : std::uint8_t
{
    kSubmit,           ///< stream handed to a channel (seq unused)
    kPacketize,        ///< tuples sealed into a frame; seq assigned
    kTx,               ///< frame handed to the wire (aux = tries so far)
    kSwitchAck,        ///< switch consumed the frame and ACKed
    kSwitchForward,    ///< switch forwarded (aux = residual bitmap)
    kSwitchStale,      ///< switch stale-dropped (outside the window)
    kSwitchBlackhole,  ///< sick program ate the frame
    kHostAggregate,    ///< receiver deduped fresh and aggregated
    kHostDuplicate,    ///< receiver saw a duplicate (re-ACKed)
    kDrainDrop,        ///< receiver dropped during a recovery drain
    kSenderAcked,      ///< sender retired the frame on ACK
    kBypassConvert,    ///< in-flight DATA re-issued as bypass LONG_DATA
    kAbort,            ///< sender-side abort (pre-replay silence)
    kReplay,           ///< archived stream re-submitted (seq unused)
    kFinalize,         ///< task finalized at the receiver (seq unused)
};

const char* trace_stage_name(TraceStage stage);

/** Span annotation flags (OR-able). */
constexpr std::uint8_t kTraceFlagRetransmit = 1u << 0;
constexpr std::uint8_t kTraceFlagReplay = 1u << 1;
constexpr std::uint8_t kTraceFlagBypass = 1u << 2;

/** One recorded lifecycle event. */
struct TraceSpan
{
    std::int64_t t_ns = 0;
    std::uint32_t task = 0;
    std::uint32_t channel = 0;
    std::uint32_t seq = 0;
    TraceStage stage = TraceStage::kSubmit;
    std::uint64_t aux = 0;  ///< stage-specific (tries, bitmap, count)
    std::uint8_t flags = 0;
};

/**
 * The ring-buffered tracer. Spans are recorded while the tracer is
 * enabled, for every task (a reader after one task's spans filters on
 * their `task` field); the ring overwrites the oldest spans once full,
 * so a long run keeps the most recent `capacity` events.
 */
class PacketTracer
{
  public:
    explicit PacketTracer(std::size_t capacity = 1u << 16);

    /** Record every task's spans (chaos-run debugging). */
    void set_enabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    void
    record(std::int64_t t_ns, std::uint32_t task, std::uint32_t channel,
           std::uint32_t seq, TraceStage stage, std::uint64_t aux = 0,
           std::uint8_t flags = 0)
    {
        if (!enabled_)
            return;
        TraceSpan& s = ring_[head_];
        s = TraceSpan{t_ns, task, channel, seq, stage, aux, flags};
        head_ = (head_ + 1) % ring_.size();
        if (size_ < ring_.size())
            ++size_;
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return ring_.size(); }
    void clear();

    /** All retained spans, oldest first. */
    std::vector<TraceSpan> spans() const;

    /**
     * Reconstruct the lifecycle of one (channel, seq): every retained
     * span of that pair in time order. Task-level spans (kSubmit,
     * kReplay, kFinalize) are excluded — they carry no seq.
     */
    std::vector<TraceSpan> chain(std::uint32_t channel,
                                 std::uint32_t seq) const;

    /** Spans as a JSON array (schema: one object per span). */
    Json to_json() const;

  private:
    bool enabled_ = false;
    std::vector<TraceSpan> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

}  // namespace ask::obs

/** Record a span through a `PacketTracer*` that may be null. */
#define ASK_TRACE(tracer, ...)                   \
    do {                                         \
        if ((tracer) != nullptr)                 \
            (tracer)->record(__VA_ARGS__);       \
    } while (0)

#endif  // ASK_OBS_TRACE_H
