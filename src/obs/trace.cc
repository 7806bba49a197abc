#include "obs/trace.h"

#include <algorithm>

#include "common/logging.h"

namespace ask::obs {

const char*
trace_stage_name(TraceStage stage)
{
    switch (stage) {
      case TraceStage::kSubmit:
        return "submit";
      case TraceStage::kPacketize:
        return "packetize";
      case TraceStage::kTx:
        return "tx";
      case TraceStage::kSwitchAck:
        return "switch_ack";
      case TraceStage::kSwitchForward:
        return "switch_forward";
      case TraceStage::kSwitchStale:
        return "switch_stale";
      case TraceStage::kSwitchBlackhole:
        return "switch_blackhole";
      case TraceStage::kHostAggregate:
        return "host_aggregate";
      case TraceStage::kHostDuplicate:
        return "host_duplicate";
      case TraceStage::kDrainDrop:
        return "drain_drop";
      case TraceStage::kSenderAcked:
        return "sender_acked";
      case TraceStage::kBypassConvert:
        return "bypass_convert";
      case TraceStage::kAbort:
        return "abort";
      case TraceStage::kReplay:
        return "replay";
      case TraceStage::kFinalize:
        return "finalize";
    }
    return "?";
}

PacketTracer::PacketTracer(std::size_t capacity)
{
    ASK_ASSERT(capacity > 0, "tracer needs a non-empty ring");
    ring_.resize(capacity);
}

void
PacketTracer::clear()
{
    head_ = 0;
    size_ = 0;
}

std::vector<TraceSpan>
PacketTracer::spans() const
{
    std::vector<TraceSpan> out;
    out.reserve(size_);
    std::size_t start = size_ < ring_.size() ? 0 : head_;
    for (std::size_t i = 0; i < size_; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

std::vector<TraceSpan>
PacketTracer::chain(std::uint32_t channel, std::uint32_t seq) const
{
    std::vector<TraceSpan> out;
    for (const TraceSpan& s : spans()) {
        switch (s.stage) {
          case TraceStage::kSubmit:
          case TraceStage::kReplay:
          case TraceStage::kFinalize:
            continue;  // task-level: no sequence number
          default:
            break;
        }
        if (s.channel == channel && s.seq == seq)
            out.push_back(s);
    }
    // spans() is already oldest-first; same-time spans keep record order.
    return out;
}

Json
PacketTracer::to_json() const
{
    Json arr = Json::array();
    for (const TraceSpan& s : spans()) {
        Json j = Json::object();
        j.set("t_ns", s.t_ns);
        j.set("task", s.task);
        j.set("channel", s.channel);
        j.set("seq", s.seq);
        j.set("stage", trace_stage_name(s.stage));
        j.set("aux", s.aux);
        if (s.flags != 0) {
            Json flags = Json::array();
            if (s.flags & kTraceFlagRetransmit)
                flags.push_back("retransmit");
            if (s.flags & kTraceFlagReplay)
                flags.push_back("replay");
            if (s.flags & kTraceFlagBypass)
                flags.push_back("bypass");
            j.set("flags", std::move(flags));
        }
        arr.push_back(std::move(j));
    }
    return arr;
}

}  // namespace ask::obs
