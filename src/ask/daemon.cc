#include "ask/daemon.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace ask::core {

const char*
task_status_name(TaskStatus status)
{
    switch (status) {
      case TaskStatus::kOk:
        return "ok";
      case TaskStatus::kRegionExhausted:
        return "region_exhausted";
      case TaskStatus::kSenderTimeout:
        return "sender_timeout";
      case TaskStatus::kMgmtUnreachable:
        return "mgmt_unreachable";
      case TaskStatus::kSendBudgetExhausted:
        return "send_budget_exhausted";
      case TaskStatus::kHostCrashed:
        return "host_crashed";
    }
    return "?";
}

namespace {

/**
 * Sender channels checkpoint their sequence cursor every K allocations:
 * kSeqCheckpoint(upto = next_seq + K) promises "no seq >= upto is in
 * use until the next checkpoint", so a restart resuming at the highest
 * journaled `upto` can never reuse a pre-crash sequence number.
 */
constexpr Seq kSeqCheckpointInterval = 64;

}  // namespace

// ---------------------------------------------------------------------------
// DataChannel
// ---------------------------------------------------------------------------

DataChannel::DataChannel(AskDaemon& daemon, std::uint32_t local_index)
    : daemon_(daemon), local_index_(local_index)
{
}

ChannelId
DataChannel::global_id() const
{
    return static_cast<ChannelId>(
        daemon_.host_index().value() * daemon_.config().channels_per_host +
        local_index_);
}

sim::SimTime
DataChannel::charge(Nanoseconds cost)
{
    sim::SimTime now = daemon_.simulator().now();
    core_busy_ = std::max(core_busy_, now) + cost;
    busy_ns_ += static_cast<std::uint64_t>(cost);
    return core_busy_;
}

sim::SimTime
DataChannel::charge_background(Nanoseconds cost)
{
    // Background work also starts no earlier than the I/O lane is free
    // of already-queued work, approximating one core interleaving both.
    sim::SimTime now = daemon_.simulator().now();
    background_busy_ =
        std::max({background_busy_, core_busy_, now}) + cost;
    busy_ns_ += static_cast<std::uint64_t>(cost);
    return background_busy_;
}

void
DataChannel::submit_send(TaskId task, net::NodeId receiver,
                         std::shared_ptr<const KvStream> stream, ReduceOp op,
                         std::function<void()> on_complete, bool replay)
{
    std::size_t tuples = stream->size();
    SendJob job;
    job.task = task;
    job.receiver = receiver;
    job.builder = std::make_unique<PacketBuilder>(daemon_.key_space());
    job.builder->enqueue(std::move(stream));
    job.on_complete = std::move(on_complete);
    job.op = op;
    job.replay = replay;
    daemon_.stats().tuples_sent += tuples;
    ASK_TRACE(daemon_.tracer_, daemon_.simulator().now(), task, global_id(),
              0, obs::TraceStage::kSubmit, tuples,
              replay ? obs::kTraceFlagReplay : std::uint8_t{0});
    jobs_.push_back(std::move(job));
    pump();
}

void
DataChannel::schedule_pump(sim::SimTime at)
{
    if (pump_pending_)
        return;
    pump_pending_ = true;
    daemon_.simulator().schedule_at(at, [this] {
        pump_pending_ = false;
        pump();
    });
}

void
DataChannel::pump()
{
    sim::Simulator& simulator = daemon_.simulator();
    const AskConfig& cfg = daemon_.config();

    while (!jobs_.empty() && !fin_outstanding_) {
        SendJob& job = jobs_.front();

        // Channel-bind fence (fabric only). A tier switch never sees the
        // sequence numbers of intra-rack tasks, so its seen-window slots
        // for this channel can hold residue from two generations back —
        // the self-cleaning parity scheme assumes a gap-free stream.
        // The channel is quiescent here (the previous job fully ACKed
        // and FINed before this one reached the front), so fencing every
        // provisioning switch at next_seq is a clean window restart.
        // Single-switch deployments skip this: the lone switch observes
        // every sequence number and needs no fence.
        if (!job.fenced) {
            job.fenced = true;
            if (daemon_.controller_.num_switches() > 1)
                daemon_.controller_.fence_channel(global_id(), next_seq_);
        }

        if (job.builder->empty()) {
            // All frames ACKed and none pending: close the task on this
            // channel with a (reliable) FIN.
            if (in_flight_.empty()) {
                send_fin(job);
            }
            return;
        }

        // Window check: at most min(cwnd, W) packets outstanding,
        // spanning < W sequence numbers.
        Seq base = in_flight_.empty() ? next_seq_ : in_flight_.begin()->first;
        std::uint32_t window = std::min(cwnd_, cfg.window);
        if (next_seq_ >= base + window || in_flight_.size() >= window)
            return;

        // Core pacing: one packet per tx_cost of CPU.
        if (core_busy_ > simulator.now()) {
            schedule_pump(core_busy_);
            return;
        }

        // Build the next frame: DATA first, then LONG_DATA batches. A
        // degraded daemon routes everything — short and medium keys
        // included — through the bypass path in LONG framing.
        std::vector<std::uint8_t> frame;
        PacketType type;
        if (daemon_.degraded()) {
            auto batch = job.builder->next_bypass_batch(cfg.long_payload_bytes);
            ASK_ASSERT(batch.has_value(), "builder non-empty but no frames");
            AskHeader hdr;
            hdr.type = PacketType::kLongData;
            hdr.op = job.op;
            hdr.channel_id = global_id();
            hdr.task_id = job.task;
            hdr.seq = next_seq_;
            frame = make_long_frame(hdr, *batch);
            type = PacketType::kLongData;
            ++daemon_.stats().long_packets_sent;
        } else if (job.builder->next_data_into(built_scratch_)) {
            AskHeader hdr;
            hdr.type = PacketType::kData;
            hdr.op = job.op;
            hdr.num_slots = static_cast<std::uint8_t>(cfg.num_aas);
            hdr.channel_id = global_id();
            hdr.task_id = job.task;
            hdr.seq = next_seq_;
            hdr.bitmap = built_scratch_.bitmap;
            frame = make_frame(hdr, cfg.payload_bytes());
            write_slots(frame, built_scratch_.bitmap, cfg.num_aas,
                        built_scratch_.slots.data());
            type = PacketType::kData;
            ++daemon_.stats().data_packets_sent;
        } else {
            auto batch = job.builder->next_long_batch(cfg.long_payload_bytes);
            ASK_ASSERT(batch.has_value(), "builder non-empty but no frames");
            AskHeader hdr;
            hdr.type = PacketType::kLongData;
            hdr.op = job.op;
            hdr.channel_id = global_id();
            hdr.task_id = job.task;
            hdr.seq = next_seq_;
            frame = make_long_frame(hdr, *batch);
            type = PacketType::kLongData;
            ++daemon_.stats().long_packets_sent;
        }

        // Durability: promise the next K sequence numbers to the WAL
        // before using the first of them. On the checkpoint boundary the
        // append precedes the allocation below, so the journaled resume
        // point always covers every seq this process could have used.
        if (next_seq_ % kSeqCheckpointInterval == 0) {
            WalRecord r;
            r.kind = WalRecordKind::kSeqCheckpoint;
            r.channel = local_index_;
            r.seq = next_seq_ + kSeqCheckpointInterval;
            daemon_.wal_.append(r);
        }

        Seq seq = next_seq_++;
        ASK_TRACE(daemon_.tracer_, simulator.now(), job.task, global_id(),
                  seq, obs::TraceStage::kPacketize, 0,
                  job.replay ? obs::kTraceFlagReplay : std::uint8_t{0});
        auto [it, inserted] =
            in_flight_.emplace(seq, InFlight{std::move(frame), job.receiver,
                                             sim::kInvalidEvent, 0, 0, type});
        ASK_ASSERT(inserted, "duplicate in-flight seq");
        (void)it;
        transmit(seq, /*is_retransmit=*/false);
    }
}

void
DataChannel::transmit(Seq seq, bool is_retransmit)
{
    auto it = in_flight_.find(seq);
    ASK_ASSERT(it != in_flight_.end(), "transmit of unknown seq ", seq);
    InFlight& entry = it->second;

    // Retransmission budget: a frame this persistent marks the path as
    // broken, not congested. For DATA the remedy is the bypass path;
    // for a bypass/LONG frame there is no further fallback.
    const AskConfig& budget_cfg = daemon_.config();
    if (budget_cfg.max_data_tries > 0 &&
        entry.tries >= budget_cfg.max_data_tries) {
        if (entry.type == PacketType::kData) {
            daemon_.enter_degraded_mode(
                strf("DATA seq %u on channel %u exhausted %u transmissions",
                     seq, global_id(), entry.tries));
        } else {
            ++daemon_.chaos_.send_failures;
            fail_front_job(TaskStatus::kSendBudgetExhausted,
                           strf("bypass seq %u on channel %u exhausted %u "
                                "transmissions",
                                seq, global_id(), entry.tries));
        }
        return;
    }

    if (is_retransmit) {
        ++daemon_.stats().retransmissions;
        cwnd_ = std::max(cwnd_ / 2, 8u);  // multiplicative decrease
    }
    ++entry.tries;
    ASK_TRACE(daemon_.tracer_, daemon_.simulator().now(),
              jobs_.empty() ? 0 : jobs_.front().task, global_id(), seq,
              obs::TraceStage::kTx, entry.tries,
              is_retransmit ? obs::kTraceFlagRetransmit : std::uint8_t{0});

    sim::SimTime ready =
        charge(daemon_.cost_model().tx_cost_ns(entry.frame.size()));

    net::Packet pkt;
    pkt.src = daemon_.node_id();
    pkt.dst = entry.receiver;
    pkt.data = entry.frame;  // keep a copy for retransmission

    net::Network& network = daemon_.network();
    net::NodeId self = daemon_.node_id();
    net::NodeId hop = daemon_.switch_node();
    daemon_.simulator().schedule_at(
        ready, [&network, self, hop, p = std::move(pkt)]() mutable {
            network.send(self, hop, std::move(p));
        });
    entry.sent_at = ready;

    // Adaptive timeout plus exponential backoff on retransmissions: a
    // congested receiver delays ACKs past the base timeout, and
    // hammering it with more copies only makes it worse.
    std::uint32_t shift = std::min(entry.tries - 1, 5u);
    arm_timer(seq, ready + (rto() << shift));
}

Nanoseconds
DataChannel::rto() const
{
    if (!have_rtt_)
        return daemon_.config().retransmit_timeout_ns;
    auto est = static_cast<Nanoseconds>(srtt_ns_ + 4.0 * rttvar_ns_);
    return std::clamp(est, daemon_.config().retransmit_timeout_ns,
                      100 * daemon_.config().retransmit_timeout_ns);
}

void
DataChannel::observe_rtt(Nanoseconds sample)
{
    if (daemon_.rtt_hist_ != nullptr && sample >= 0)
        daemon_.rtt_hist_->observe(static_cast<std::uint64_t>(sample));
    double s = static_cast<double>(sample);
    if (!have_rtt_) {
        srtt_ns_ = s;
        rttvar_ns_ = s / 2.0;
        have_rtt_ = true;
        return;
    }
    rttvar_ns_ = 0.75 * rttvar_ns_ + 0.25 * std::abs(s - srtt_ns_);
    srtt_ns_ = 0.875 * srtt_ns_ + 0.125 * s;
}

void
DataChannel::arm_timer(Seq seq, sim::SimTime at)
{
    auto it = in_flight_.find(seq);
    ASK_ASSERT(it != in_flight_.end(), "timer for unknown seq");
    it->second.timer = daemon_.simulator().schedule_at(at, [this, seq] {
        auto jt = in_flight_.find(seq);
        if (jt == in_flight_.end())
            return;  // ACKed in the meantime
        jt->second.timer = sim::kInvalidEvent;
        transmit(seq, /*is_retransmit=*/true);
    });
}

void
DataChannel::on_ack(Seq seq)
{
    auto it = in_flight_.find(seq);
    if (it == in_flight_.end())
        return;  // duplicate ACK (e.g. for a retransmitted packet)
    if (it->second.timer != sim::kInvalidEvent)
        daemon_.simulator().cancel(it->second.timer);
    // Karn's rule: only un-retransmitted packets give clean RTT samples.
    if (it->second.tries == 1)
        observe_rtt(daemon_.simulator().now() - it->second.sent_at);
    ASK_TRACE(daemon_.tracer_, daemon_.simulator().now(),
              jobs_.empty() ? 0 : jobs_.front().task, global_id(), seq,
              obs::TraceStage::kSenderAcked, it->second.tries);
    in_flight_.erase(it);
    cwnd_ = std::min(cwnd_ + 1, daemon_.config().window);
    // ACK processing occupies the core briefly (burst-amortized).
    charge(daemon_.cost_model().ctrl_cost_ns());
    pump();
}

void
DataChannel::send_fin(const SendJob& job)
{
    fin_outstanding_ = true;
    ++fin_tries_;
    if (fin_tries_ > daemon_.config().max_fin_tries) {
        // The receiver is unreachable for good: fail the job through the
        // task-failure handler instead of aborting the whole process.
        ++daemon_.chaos_.fin_giveups;
        fail_front_job(TaskStatus::kSendBudgetExhausted,
                       strf("FIN for task %u undeliverable after %u attempts",
                            job.task, fin_tries_ - 1));
        return;
    }

    AskHeader hdr;
    hdr.type = PacketType::kFin;
    hdr.channel_id = global_id();
    hdr.task_id = job.task;

    sim::SimTime ready = charge(daemon_.cost_model().tx_cost_ns(
        net::kIpHeaderBytes + kAskHeaderBytes));
    net::Packet pkt = make_control_packet(daemon_.node_id(), job.receiver, hdr);

    net::Network& network = daemon_.network();
    net::NodeId self = daemon_.node_id();
    net::NodeId hop = daemon_.switch_node();
    daemon_.simulator().schedule_at(
        ready, [&network, self, hop, p = std::move(pkt)]() mutable {
            network.send(self, hop, std::move(p));
        });

    // FINs can be lost like anything else; retransmit until FIN_ACK.
    fin_timer_ = daemon_.simulator().schedule_at(
        ready + 4 * daemon_.config().retransmit_timeout_ns, [this] {
            fin_timer_ = sim::kInvalidEvent;
            if (fin_outstanding_) {
                fin_outstanding_ = false;
                ASK_ASSERT(!jobs_.empty(), "FIN timer with no job");
                send_fin(jobs_.front());
            }
        });
}

void
DataChannel::on_fin_ack(TaskId task)
{
    if (!fin_outstanding_ || jobs_.empty() || jobs_.front().task != task)
        return;  // stale or duplicate FIN_ACK
    fin_outstanding_ = false;
    fin_tries_ = 0;
    if (fin_timer_ != sim::kInvalidEvent) {
        daemon_.simulator().cancel(fin_timer_);
        fin_timer_ = sim::kInvalidEvent;
    }
    finish_front_job();
}

void
DataChannel::finish_front_job()
{
    ASK_ASSERT(!jobs_.empty(), "no job to finish");
    auto on_complete = std::move(jobs_.front().on_complete);
    jobs_.pop_front();
    if (on_complete)
        on_complete();
    pump();
}

void
DataChannel::drop_in_flight()
{
    for (auto& [seq, entry] : in_flight_) {
        if (entry.timer != sim::kInvalidEvent)
            daemon_.simulator().cancel(entry.timer);
    }
    in_flight_.clear();
    if (fin_timer_ != sim::kInvalidEvent) {
        daemon_.simulator().cancel(fin_timer_);
        fin_timer_ = sim::kInvalidEvent;
    }
    fin_outstanding_ = false;
    fin_tries_ = 0;
}

void
DataChannel::fail_front_job(TaskStatus status, const std::string& reason)
{
    ASK_ASSERT(!jobs_.empty(), "no job to fail");
    drop_in_flight();

    TaskId task = jobs_.front().task;
    // on_complete is deliberately NOT invoked: the stream was not
    // delivered. The failure handler is the channel of record.
    jobs_.pop_front();
    daemon_.notify_task_failure(task, status, reason);
    pump();
}

void
DataChannel::abort_task(TaskId task)
{
    if (!jobs_.empty() && jobs_.front().task == task) {
        // In-flight frames always belong to the front job.
        for ([[maybe_unused]] const auto& [seq, entry] : in_flight_) {
            ASK_TRACE(daemon_.tracer_, daemon_.simulator().now(), task,
                      global_id(), seq, obs::TraceStage::kAbort,
                      entry.tries);
        }
        drop_in_flight();
    }
    std::erase_if(jobs_, [task](const SendJob& j) { return j.task == task; });
}

void
DataChannel::convert_in_flight_to_bypass()
{
    for (auto& [seq, entry] : in_flight_) {
        if (entry.type != PacketType::kData)
            continue;  // LONG frames keep retransmitting as they are
        if (entry.timer != sim::kInvalidEvent) {
            daemon_.simulator().cancel(entry.timer);
            entry.timer = sim::kInvalidEvent;
        }
        // Probe the switch's receive-window and PktState registers: only
        // the tuples the switch did NOT consume may be re-sent, or
        // register contents fetched at finalize would double-count them.
        ++daemon_.chaos_.probe_rpcs;
        Seq s = seq;
        daemon_.mgmt_.call(
            [this, s] {
                // Sequence numbers are never reused, so presence in
                // in_flight_ proves the frame (and its job) still stand.
                if (in_flight_.find(s) == in_flight_.end())
                    return;
                finish_conversion(
                    s, daemon_.controller_.probe_packet(global_id(), s));
            },
            [this, s] {
                if (in_flight_.find(s) == in_flight_.end())
                    return;
                ++daemon_.chaos_.send_failures;
                fail_front_job(
                    TaskStatus::kMgmtUnreachable,
                    "management probe unreachable during bypass conversion");
            });
    }
    pump();
}

void
DataChannel::finish_conversion(Seq seq, AskSwitchProgram::ProbeResult probe)
{
    auto it = in_flight_.find(seq);
    ASK_ASSERT(it != in_flight_.end(), "conversion of unknown seq ", seq);
    InFlight& entry = it->second;
    auto hdr = parse_header(entry.frame);
    ASK_ASSERT(hdr && hdr->type == PacketType::kData,
               "conversion of a non-DATA frame");

    std::uint64_t unconsumed =
        probe.observed ? (hdr->bitmap & probe.remaining) : hdr->bitmap;
    if (unconsumed == 0) {
        // Fully aggregated switch-side; only the ACK was lost. The
        // tuples sit in the registers and arrive with the final fetch.
        in_flight_.erase(it);
        pump();
        return;
    }

    // Re-issue under the ORIGINAL sequence number: the receiver window
    // dedups DATA and LONG_DATA uniformly per (channel, seq), so if the
    // forwarded original did reach the receiver, this copy is ignored.
    KvStream tuples = daemon_.tuples_from_data_frame(entry.frame, unconsumed);
    AskHeader lh;
    lh.type = PacketType::kLongData;
    lh.op = hdr->op;
    lh.channel_id = hdr->channel_id;
    lh.task_id = hdr->task_id;
    lh.seq = seq;
    entry.frame = make_long_frame(lh, tuples);
    entry.type = PacketType::kLongData;
    // A fresh frame on a different path: its retransmission budget —
    // consumed by the dead switch path — starts over.
    entry.tries = 0;
    ++daemon_.chaos_.bypass_conversions;
    ASK_TRACE(daemon_.tracer_, daemon_.simulator().now(), hdr->task_id,
              global_id(), seq, obs::TraceStage::kBypassConvert, unconsumed,
              obs::kTraceFlagBypass);
    transmit(seq, /*is_retransmit=*/false);
}

void
DataChannel::reset_after_crash(Seq resume)
{
    drop_in_flight();
    jobs_.clear();
    cwnd_ = 16;
    srtt_ns_ = 0.0;
    rttvar_ns_ = 0.0;
    have_rtt_ = false;
    // A pre-crash pump event may still be queued; it finds jobs_ empty
    // and does nothing. core_busy_/background_busy_ are left alone:
    // charge() takes max(now, busy), so stale values are harmless.
    next_seq_ = resume;
}

// ---------------------------------------------------------------------------
// AskDaemon
// ---------------------------------------------------------------------------

AskDaemon::AskDaemon(const AskConfig& config, const net::CostModel& cost_model,
                     net::Network& network, HostId host_index,
                     net::NodeId switch_node, AskSwitchController& controller,
                     MgmtPlane& mgmt, Wal& wal, obs::Observability* obs)
    : config_(config),
      key_space_(config),
      cost_model_(cost_model),
      network_(network),
      host_index_(host_index),
      switch_node_(switch_node),
      controller_(controller),
      mgmt_(mgmt),
      wal_(wal)
{
    ASK_ASSERT(host_index.value() < config_.max_hosts,
               "host index exceeds configured max_hosts");
    if (obs != nullptr) {
        tracer_ = &obs->tracer;
        rtt_hist_ = &obs->registry.histogram("host.rtt_ns");
    }
    for (std::uint32_t i = 0; i < config_.channels_per_host; ++i)
        channels_.push_back(std::make_unique<DataChannel>(*this, i));
}

std::string
AskDaemon::name() const
{
    return strf("ask-daemon-%u", host_index_.value());
}

DataChannel&
AskDaemon::channel_for_task(TaskId task)
{
    return *channels_[task_channel_index(
        task, host_index_, static_cast<std::uint32_t>(channels_.size()))];
}

void
AskDaemon::start_receive(TaskId task, std::uint32_t expected_senders,
                         const TaskOptions& options, TaskDoneFn on_done,
                         std::function<void()> on_ready)
{
    // Steps 1-3 of §3.1: register the task, then request a switch memory
    // region over the management network. Both failure modes — region
    // exhaustion and an unreachable management plane — surface to the
    // application as a failed TaskReport, never as a silent hang.
    if (rx_tasks_.count(task) != 0)
        fail_state("task ", task, " already receiving on host ", host_index_);
    if (tracer_ != nullptr && options.trace)
        tracer_->trace_task(task);
    auto done = std::make_shared<TaskDoneFn>(std::move(on_done));
    sim::SimTime requested_at = simulator().now();
    auto fail = [this, done, requested_at](TaskStatus status,
                                           std::string detail) {
        warn(name(), ": task setup failed: ", detail);
        TaskReport report;
        report.start_time = requested_at;
        report.finish_time = simulator().now();
        report.status = status;
        report.detail = std::move(detail);
        if (*done)
            (*done)(AggregateMap{}, std::move(report));
    };
    mgmt_.call(
        [this, task, expected_senders, options, done, fail,
         on_ready = std::move(on_ready)]() mutable {
            if (crashed_) {
                // The host died between requesting the region and the
                // RPC completing; the restarted process has no record
                // of this task and must not half-start it.
                fail(TaskStatus::kHostCrashed,
                     "host crashed during task setup");
                return;
            }
            std::uint32_t len = options.region_len > 0
                                    ? options.region_len
                                    : controller_.free_aggregators();
            ReduceOp rop = options.op.value_or(config_.op);
            auto region = controller_.allocate(task, len, rop);
            if (!region) {
                ++chaos_.alloc_failures;
                fail(TaskStatus::kRegionExhausted,
                     strf("switch memory exhausted: %u aggregators/AA "
                          "requested, %u free",
                          len, controller_.free_aggregators()));
                return;
            }
            ReceiveTask rx;
            rx.id = task;
            rx.op = rop;
            rx.expected_senders = expected_senders;
            rx.on_done = std::move(*done);
            rx.report.start_time = simulator().now();
            rx.last_activity = simulator().now();
            rx.swaps_disabled =
                options.swap_policy == TaskOptions::SwapPolicy::kDisabled;
            rx.liveness_timeout_ns =
                options.sender_liveness_timeout_ns < 0
                    ? config_.sender_liveness_timeout_ns
                    : options.sender_liveness_timeout_ns;
            WalRecord r;
            r.kind = WalRecordKind::kRxTaskStart;
            r.task = task;
            r.arg0 = expected_senders;
            r.arg1 = rx.swaps_disabled ? 1 : 0;
            r.kvs.emplace_back(
                "liveness_ns",
                static_cast<std::uint64_t>(rx.liveness_timeout_ns));
            r.kvs.emplace_back(
                "start_time",
                static_cast<std::uint64_t>(rx.report.start_time));
            r.kvs.emplace_back("op", static_cast<std::uint64_t>(rx.op));
            wal_.append(r);
            auto [it, inserted] = rx_tasks_.emplace(task, std::move(rx));
            ASK_ASSERT(inserted, "task ", task, " already receiving here");
            if (it->second.liveness_timeout_ns > 0)
                arm_liveness(task);
            if (on_ready)
                on_ready();
        },
        [fail]() mutable {
            fail(TaskStatus::kMgmtUnreachable,
                 "management network unreachable during task setup");
        });
}

void
AskDaemon::submit_send(TaskId task, net::NodeId receiver, KvStream stream,
                       std::function<void()> on_complete,
                       std::optional<ReduceOp> op)
{
    // Lift every observation into the reduction monoid exactly once,
    // here at the source. For kCount the value becomes 1; every site
    // downstream — switch merge, receiver fold, WAL replay — then
    // combines already-lifted partials and must never lift again.
    ReduceOp rop = op.value_or(config_.op);
    for (auto& t : stream)
        t.value = reduce_lift(rop, t.value);
    // Archive the stream for replay: a switch reboot wipes the partial
    // aggregate, and exactness then requires re-sending from the source.
    // The archive and the channel's builder share this one copy.
    WalRecord r;
    r.kind = WalRecordKind::kSendSubmit;
    r.task = task;
    r.arg0 = static_cast<std::uint32_t>(receiver);
    r.arg1 = static_cast<std::uint32_t>(rop);
    wal_.append(r, stream);
    auto shared = std::make_shared<const KvStream>(std::move(stream));
    sent_archive_[task].push_back(
        ArchivedSend{receiver, shared, rop, on_complete});
    channel_for_task(task).submit_send(task, receiver, std::move(shared), rop,
                                       std::move(on_complete));
}

void
AskDaemon::abort_send(TaskId task)
{
    for (auto& ch : channels_)
        ch->abort_task(task);
}

std::uint32_t
AskDaemon::replay_task(TaskId task)
{
    for (auto& ch : channels_)
        ch->abort_task(task);
    auto it = sent_archive_.find(task);
    if (it == sent_archive_.end())
        return 0;
    std::uint32_t n = 0;
    for (const auto& a : it->second) {
        // Straight to the channel: replay must not re-archive (and the
        // archived stream is already lifted — no second lift).
        channel_for_task(task).submit_send(task, a.receiver, a.stream, a.op,
                                           a.on_complete, /*replay=*/true);
        ++n;
    }
    chaos_.streams_replayed += n;
    ASK_TRACE(tracer_, simulator().now(), task, 0, 0,
              obs::TraceStage::kReplay, n, obs::kTraceFlagReplay);
    return n;
}

void
AskDaemon::forget_task(TaskId task)
{
    auto it = sent_archive_.find(task);
    if (it == sent_archive_.end())
        return;
    WalRecord r;
    r.kind = WalRecordKind::kSendForget;
    r.task = task;
    wal_.append(r);
    sent_archive_.erase(it);
}

void
AskDaemon::notify_task_failure(TaskId task, TaskStatus status,
                               const std::string& reason)
{
    warn(name(), ": send job for task ", task, " failed (",
         task_status_name(status), "): ", reason);
    if (on_task_failure_)
        on_task_failure_(task, status, reason);
}

void
AskDaemon::enter_degraded_mode(const std::string& reason)
{
    if (degraded_)
        return;
    degraded_ = true;
    ++chaos_.degraded_entries;
    warn(name(), ": degrading to host-side aggregation: ", reason);
    for (auto& ch : channels_)
        ch->convert_in_flight_to_bypass();
}

KvStream
AskDaemon::tuples_from_data_frame(const std::vector<std::uint8_t>& frame,
                                  std::uint64_t mask) const
{
    KvStream out;
    for (std::uint32_t i = 0; i < config_.short_aas(); ++i) {
        if (!(mask & (1ULL << i)))
            continue;
        WireSlot slot = read_slot(frame, i);
        out.push_back(KvTuple{
            KeySpace::unpad(key_space_.decode_segment(slot.seg)), slot.value});
    }
    for (std::uint32_t g = 0; g < config_.medium_groups; ++g) {
        std::uint32_t mb = config_.medium_base(g);
        if (!(mask & (1ULL << mb)))
            continue;
        std::string padded;
        Value value = 0;
        for (std::uint32_t j = 0; j < config_.medium_segments; ++j) {
            ASK_ASSERT(mask & (1ULL << (mb + j)),
                       "medium group bitmap must be all-or-nothing");
            WireSlot slot = read_slot(frame, mb + j);
            padded += key_space_.decode_segment(slot.seg);
            if (j + 1 == config_.medium_segments)
                value = slot.value;
        }
        out.push_back(KvTuple{KeySpace::unpad(padded), value});
    }
    return out;
}

void
AskDaemon::receive(net::Packet pkt)
{
    if (crashed_) {
        // The NIC is up but nobody is home: every frame — DATA, ACKs,
        // FINs, SwapAcks — vanishes until the process restarts. Senders
        // see pure loss and keep retransmitting.
        ++chaos_.crash_dropped;
        return;
    }
    auto hdr = parse_header(pkt.data);
    if (!hdr) {
        warn(name(), ": dropping non-ASK packet");
        return;
    }
    switch (hdr->type) {
      case PacketType::kAck:
      case PacketType::kFinAck:
        dispatch_to_sender_channel(*hdr);
        return;
      case PacketType::kData:
      case PacketType::kLongData:
        handle_data(std::move(pkt), *hdr);
        return;
      case PacketType::kFin:
        handle_fin(pkt, *hdr);
        return;
      case PacketType::kSwapAck:
        handle_swap_ack(*hdr);
        return;
      default:
        warn(name(), ": unexpected packet type ",
             static_cast<int>(static_cast<std::uint8_t>(hdr->type)));
        return;
    }
}

void
AskDaemon::dispatch_to_sender_channel(const AskHeader& hdr)
{
    std::uint32_t owner = hdr.channel_id / config_.channels_per_host;
    if (owner != host_index_) {
        warn(name(), ": ACK for channel ", hdr.channel_id,
             " owned by host ", owner);
        return;
    }
    DataChannel& ch = *channels_[hdr.channel_id % config_.channels_per_host];
    if (hdr.type == PacketType::kAck)
        ch.on_ack(hdr.seq);
    else
        ch.on_fin_ack(hdr.task_id);
}

HostReceiveWindow&
AskDaemon::window_for(ReceiveTask& task, ChannelId channel)
{
    auto it = task.windows.find(channel);
    if (it == task.windows.end()) {
        it = task.windows.emplace(channel, HostReceiveWindow(config_.window))
                 .first;
    }
    return it->second;
}

void
AskDaemon::send_ack_to(net::NodeId sender, const AskHeader& data_hdr)
{
    AskHeader ack;
    ack.type = data_hdr.type == PacketType::kFin ? PacketType::kFinAck
                                                 : PacketType::kAck;
    ack.channel_id = data_hdr.channel_id;
    ack.task_id = data_hdr.task_id;
    ack.seq = data_hdr.seq;

    net::Packet pkt = make_control_packet(node_id(), sender, ack);
    net::Network& network = network_;
    net::NodeId self = node_id();
    net::NodeId hop = switch_node_;
    network.send(self, hop, std::move(pkt));
}

void
AskDaemon::handle_data(net::Packet&& pkt, const AskHeader& hdr)
{
    auto it = rx_tasks_.find(hdr.task_id);
    if (it == rx_tasks_.end())
        return;  // roaming duplicate of a completed task
    ReceiveTask& task = it->second;
    if (simulator().now() < task.restarting_until) {
        // Recovery drain: pre-crash traffic must not reach the reset
        // aggregate — the replay re-delivers every tuple. No ACK, and
        // the sender's in-flight state was already aborted.
        ++chaos_.drain_dropped;
        ASK_TRACE(tracer_, simulator().now(), hdr.task_id, hdr.channel_id,
                  hdr.seq, obs::TraceStage::kDrainDrop);
        return;
    }
    task.last_activity = simulator().now();
    // RSS: the NIC spreads incoming *flows* (sender channels) across the
    // daemon's cores, so one task's receive load uses every channel.
    DataChannel& ch = *channels_[hdr.channel_id % channels_.size()];

    // Charge packet reception; the aggregation work is charged once the
    // packet is deduplicated (in process_data). The generation capture
    // keeps a packet charged before a crash-reset from landing in the
    // task's next life.
    sim::SimTime done = ch.charge(cost_model_.rx_cost_ns(pkt.data.size()));
    std::uint64_t gen = task.generation;
    simulator().schedule_at(done,
                            [this, task_id = hdr.task_id, hdr, gen,
                             p = std::move(pkt), &ch]() mutable {
                                auto jt = rx_tasks_.find(task_id);
                                if (jt == rx_tasks_.end())
                                    return;
                                if (jt->second.generation != gen) {
                                    ++chaos_.drain_dropped;
                                    ASK_TRACE(tracer_, simulator().now(),
                                              task_id, hdr.channel_id,
                                              hdr.seq,
                                              obs::TraceStage::kDrainDrop);
                                    return;
                                }
                                process_data(jt->second, p, hdr, ch);
                            });
}

void
AskDaemon::process_data(ReceiveTask& task, const net::Packet& pkt,
                        const AskHeader& hdr, DataChannel& ch)
{
    ++stats_.packets_received;
    // A frame whose op id contradicts the task is a misconfigured sender
    // (or corrupted header): drop it before the seen window so it neither
    // consumes a sequence number nor earns an ACK. This also covers the
    // LONG_DATA bypass path, which never crosses the switch's op check.
    if (hdr.op != task.op) {
        ++stats_.op_mismatch_dropped;
        return;
    }
    SeenOutcome outcome = window_for(task, hdr.channel_id).observe(hdr.seq);
    if (outcome == SeenOutcome::kStale)
        return;  // pre-window duplicate: the original was ACKed long ago

    // ACK as soon as the packet is deduplicated — before the aggregation
    // work — so ACK latency tracks packet reception, not the aggregation
    // backlog (otherwise bursts trigger spurious retransmission storms).
    // ACKs go out in DPDK bursts, so their cost is amortized.
    ch.charge(cost_model_.ctrl_cost_ns());
    send_ack_to(pkt.src, hdr);

    if (outcome == SeenOutcome::kFresh) {
        // Decode first, then journal, then mutate: the WAL record for a
        // consumed packet must carry exactly the tuples the aggregate
        // absorbs, and must be durable before the absorption.
        KvStream decoded = hdr.type == PacketType::kData
                               ? tuples_from_data_frame(pkt.data, hdr.bitmap)
                               : parse_long_tuples(pkt.data);
        WalRecord r;
        r.kind = WalRecordKind::kRxData;
        r.task = task.id;
        r.channel = hdr.channel_id;
        r.seq = hdr.seq;
        wal_.append(r, decoded);
        std::uint64_t tuples = decoded.size();
        // Combine-only: the sender lifted every value at submit_send.
        for (const auto& t : decoded)
            accumulate(task.local, t.key, t.value, task.op);
        stats_.tuples_aggregated_locally += tuples;
        task.report.tuples_aggregated_locally += tuples;
        ASK_TRACE(tracer_, simulator().now(), task.id, hdr.channel_id,
                  hdr.seq, obs::TraceStage::kHostAggregate, tuples);
        // Deferred aggregation is farmed out over the daemon's thread
        // pool round-robin, not pinned to the flow's RSS lane.
        channels_[bg_round_robin_++ % channels_.size()]->charge_background(
            cost_model_.host_aggregate_ns(tuples));
        ++task.report.packets_received;
        ++task.packets_since_swap;
    } else {
        ++stats_.duplicates_received;
        ASK_TRACE(tracer_, simulator().now(), task.id, hdr.channel_id,
                  hdr.seq, obs::TraceStage::kHostDuplicate);
    }

    maybe_start_swap(task);
}

void
AskDaemon::handle_fin(const net::Packet& pkt, const AskHeader& hdr)
{
    auto it = rx_tasks_.find(hdr.task_id);
    if (it == rx_tasks_.end()) {
        // Retransmitted FIN after completion: re-ACK so the sender stops.
        send_ack_to(pkt.src, hdr);
        return;
    }
    ReceiveTask& task = it->second;
    if (simulator().now() < task.restarting_until) {
        // A FIN racing the crash must not complete the fin set: the
        // replay will re-send the stream and a fresh FIN after it.
        ++chaos_.drain_dropped;
        return;
    }
    task.last_activity = simulator().now();
    if (task.fins.count(hdr.channel_id) == 0) {
        WalRecord r;
        r.kind = WalRecordKind::kRxFin;
        r.task = task.id;
        r.channel = hdr.channel_id;
        wal_.append(r);
    }
    task.fins.insert(hdr.channel_id);
    DataChannel& ch = channel_for_task(hdr.task_id);
    ch.charge(cost_model_.rx_cost_ns(pkt.data.size()) +
              cost_model_.ctrl_cost_ns());
    send_ack_to(pkt.src, hdr);
    maybe_finalize(task);
}

void
AskDaemon::maybe_start_swap(ReceiveTask& task)
{
    if (!config_.shadow_copies || config_.swap_threshold_packets == 0)
        return;
    if (task.swap_in_flight || task.finalizing || task.swaps_disabled)
        return;
    if (task.packets_since_swap < config_.swap_threshold_packets)
        return;
    task.swap_in_flight = true;
    task.swap_target = task.committed_epoch + 1;
    task.swap_tries = 0;
    ++stats_.swap_requests;
    send_swap(task.id);
}

void
AskDaemon::send_swap(TaskId task_id)
{
    auto it = rx_tasks_.find(task_id);
    if (it == rx_tasks_.end() || !it->second.swap_in_flight)
        return;
    ReceiveTask& task = it->second;

    if (config_.max_swap_tries > 0 &&
        task.swap_tries >= config_.max_swap_tries) {
        // The swap path is dead (e.g. a blackholed program eats SWAPs).
        // Stop swapping for good: hot-key prioritization is lost but the
        // result stays exact — the finalize fetch drains both copies.
        ++chaos_.swap_giveups;
        warn(name(), ": disabling shadow-copy swaps for task ", task_id,
             " after ", task.swap_tries, " attempts");
        task.swaps_disabled = true;
        task.swap_in_flight = false;
        if (task.finalize_pending)
            maybe_finalize(task);
        return;
    }
    ++task.swap_tries;

    AskHeader hdr;
    hdr.type = PacketType::kSwap;
    hdr.task_id = task_id;
    hdr.seq = task.swap_target;  // SWAP reuses seq as the epoch
    // dst = self: the switch spoofs the SwapAck source from pkt.dst.
    net::Packet pkt = make_control_packet(node_id(), node_id(), hdr);
    network_.send(node_id(), switch_node_, std::move(pkt));

    task.swap_timer = simulator().schedule_after(
        4 * config_.retransmit_timeout_ns, [this, task_id] {
            auto jt = rx_tasks_.find(task_id);
            if (jt != rx_tasks_.end() && jt->second.swap_in_flight) {
                jt->second.swap_timer = sim::kInvalidEvent;
                send_swap(task_id);
            }
        });
}

void
AskDaemon::handle_swap_ack(const AskHeader& hdr)
{
    auto it = rx_tasks_.find(hdr.task_id);
    if (it == rx_tasks_.end())
        return;
    ReceiveTask& task = it->second;
    if (!task.swap_in_flight || hdr.seq != task.swap_target)
        return;  // duplicate or stale SwapAck
    if (task.swap_timer != sim::kInvalidEvent) {
        simulator().cancel(task.swap_timer);
        task.swap_timer = sim::kInvalidEvent;
    }
    task.swap_tries = 0;
    complete_swap(task);
}

sim::SimTime
AskDaemon::charge_control(Nanoseconds cost)
{
    control_busy_ = std::max(control_busy_, simulator().now()) + cost;
    return control_busy_;
}

void
AskDaemon::complete_swap(ReceiveTask& task)
{
    // The switch now directs traffic at copy (target & 1); drain the
    // other copy: fetch over the management plane, merge locally, clear.
    // Fetches run on the control thread so the data path keeps ACKing.
    std::uint32_t old_copy = 1 - (task.swap_target & 1);
    std::uint64_t entries = controller_.fetch_scan_entries(task.id);
    Nanoseconds scan_cost = static_cast<Nanoseconds>(
        static_cast<double>(entries) * 2.0);  // slow-path read per entry
    sim::SimTime done = charge_control(scan_cost);
    std::uint64_t gen = task.generation;

    simulator().schedule_at(done, [this, task_id = task.id, old_copy, gen] {
        mgmt_.call(
            [this, task_id, old_copy, gen] {
                auto it = rx_tasks_.find(task_id);
                if (it == rx_tasks_.end())
                    return;
                ReceiveTask& t = it->second;
                // A crash-reset between SwapAck and fetch invalidates
                // the swap: the registers it would drain are gone.
                if (t.generation != gen || !t.swap_in_flight)
                    return;
                KvStream fetched =
                    controller_.fetch(task_id, old_copy, /*clear=*/true);
                // Journal the drained registers with the commit: the
                // fetch cleared them, so these tuples now exist only in
                // this process (and, after this append, in the WAL).
                WalRecord r;
                r.kind = WalRecordKind::kRxSwapCommit;
                r.task = task_id;
                r.seq = t.swap_target;
                wal_.append(r, fetched);
                stats_.fetch_tuples += fetched.size();
                t.report.tuples_fetched_from_switch += fetched.size();
                // Switch registers hold lifted partials: combine only.
                merge_stream_into(t.local, fetched, t.op);
                t.committed_epoch = t.swap_target;
                t.packets_since_swap = 0;
                t.swap_in_flight = false;
                ++t.report.swaps;
                if (t.finalize_pending)
                    maybe_finalize(t);
            },
            [this, task_id, gen] {
                auto it = rx_tasks_.find(task_id);
                if (it == rx_tasks_.end())
                    return;
                ReceiveTask& t = it->second;
                if (t.generation != gen)
                    return;
                ++chaos_.swap_giveups;
                t.swaps_disabled = true;
                t.swap_in_flight = false;
                if (t.finalize_pending)
                    maybe_finalize(t);
            });
    });
}

void
AskDaemon::maybe_finalize(ReceiveTask& task)
{
    if (task.fins.size() < task.expected_senders)
        return;
    if (task.swap_in_flight) {
        task.finalize_pending = true;
        return;
    }
    if (task.finalizing)
        return;
    finalize(task);
}

void
AskDaemon::finalize(ReceiveTask& task)
{
    task.finalizing = true;
    std::uint64_t entries = controller_.fetch_scan_entries(task.id);
    std::uint32_t copies = config_.shadow_copies ? 2 : 1;
    Nanoseconds scan_cost = static_cast<Nanoseconds>(
        static_cast<double>(entries) * 2.0 * copies);
    sim::SimTime done = charge_control(scan_cost);
    // The result is complete only once the deferred aggregation backlog
    // of every channel has drained.
    for (const auto& ch : channels_)
        done = std::max(done, ch->background_busy_until());
    std::uint64_t gen = task.generation;

    simulator().schedule_at(done, [this, task_id = task.id, gen] {
        mgmt_.call(
            [this, task_id, gen] {
                auto it = rx_tasks_.find(task_id);
                if (it == rx_tasks_.end())
                    return;  // failed (e.g. liveness) while queued
                ReceiveTask& t = it->second;
                // A crash-reset re-opened the task: the FIN set was
                // cleared and the replay will re-trigger finalize.
                if (t.generation != gen)
                    return;

                for (std::uint32_t copy = 0;
                     copy < (config_.shadow_copies ? 2u : 1u); ++copy) {
                    KvStream fetched =
                        controller_.fetch(task_id, copy, /*clear=*/true);
                    stats_.fetch_tuples += fetched.size();
                    t.report.tuples_fetched_from_switch += fetched.size();
                    // Switch registers hold lifted partials: combine only.
                    merge_stream_into(t.local, fetched, t.op);
                }
                try {
                    controller_.release(task_id);
                } catch (const StateError& e) {
                    // A crash already released (or never re-journaled)
                    // the region; the result is complete either way.
                    warn(name(), ": finalize release: ", e.what());
                }

                if (t.liveness_timer != sim::kInvalidEvent) {
                    simulator().cancel(t.liveness_timer);
                    t.liveness_timer = sim::kInvalidEvent;
                }
                t.report.finish_time = simulator().now();
                ASK_TRACE(tracer_, simulator().now(), task_id, 0, 0,
                          obs::TraceStage::kFinalize,
                          t.report.packets_received);
                WalRecord r;
                r.kind = WalRecordKind::kRxTaskDone;
                r.task = task_id;
                r.arg0 = static_cast<std::uint32_t>(TaskStatus::kOk);
                wal_.append(r);
                TaskDoneFn on_done = std::move(t.on_done);
                AggregateMap result = std::move(t.local);
                TaskReport report = std::move(t.report);
                rx_tasks_.erase(it);
                if (on_done)
                    on_done(std::move(result), std::move(report));
            },
            [this, task_id, gen] {
                auto it = rx_tasks_.find(task_id);
                if (it == rx_tasks_.end() || it->second.generation != gen)
                    return;
                // Without the final register fetch the result cannot be
                // exact; surface the failure instead of guessing.
                fail_receive_task(
                    task_id, TaskStatus::kMgmtUnreachable,
                    "management plane unreachable during finalize");
            });
    });
}

void
AskDaemon::arm_liveness(TaskId task_id)
{
    auto it = rx_tasks_.find(task_id);
    if (it == rx_tasks_.end())
        return;
    ReceiveTask& t = it->second;
    sim::SimTime deadline = t.last_activity + t.liveness_timeout_ns;
    t.liveness_timer = simulator().schedule_at(deadline, [this, task_id] {
        auto jt = rx_tasks_.find(task_id);
        if (jt == rx_tasks_.end())
            return;
        ReceiveTask& t = jt->second;
        t.liveness_timer = sim::kInvalidEvent;
        if (t.finalizing)
            return;  // the result fetch is already under way
        sim::SimTime deadline = t.last_activity + t.liveness_timeout_ns;
        if (simulator().now() < deadline) {
            arm_liveness(task_id);  // activity since: re-arm lazily
            return;
        }
        ++chaos_.sender_timeouts;
        fail_receive_task(
            task_id, TaskStatus::kSenderTimeout,
            strf("sender liveness timeout: heard FINs from %zu of %u senders",
                 t.fins.size(), t.expected_senders));
    });
}

void
AskDaemon::fail_receive_task(TaskId task_id, TaskStatus status,
                             std::string detail)
{
    auto it = rx_tasks_.find(task_id);
    if (it == rx_tasks_.end())
        return;
    ReceiveTask& t = it->second;
    warn(name(), ": receive task ", task_id, " failed (",
         task_status_name(status), "): ", detail);
    if (t.swap_timer != sim::kInvalidEvent)
        simulator().cancel(t.swap_timer);
    if (t.liveness_timer != sim::kInvalidEvent)
        simulator().cancel(t.liveness_timer);
    t.report.finish_time = simulator().now();
    t.report.status = status;
    t.report.detail = std::move(detail);
    WalRecord r;
    r.kind = WalRecordKind::kRxTaskDone;
    r.task = task_id;
    r.arg0 = static_cast<std::uint32_t>(status);
    wal_.append(r);
    TaskDoneFn on_done = std::move(t.on_done);
    TaskReport report = std::move(t.report);
    rx_tasks_.erase(it);
    // Best-effort region release; under a permanent management outage
    // the region is abandoned (the journal still records it). A crash
    // racing the RPC may have released it already: swallow the typed
    // complaint, the region is gone either way.
    mgmt_.call([this, task_id] {
        try {
            controller_.release(task_id);
        } catch (const StateError& e) {
            warn(name(), ": release after failure: ", e.what());
        }
    });
    if (on_done)
        on_done(AggregateMap{}, std::move(report));
}

void
AskDaemon::prepare_replay(TaskId task_id, sim::SimTime drain_until)
{
    auto it = rx_tasks_.find(task_id);
    if (it == rx_tasks_.end())
        return;
    ReceiveTask& t = it->second;
    WalRecord r;
    r.kind = WalRecordKind::kRxReset;
    r.task = task_id;
    r.kvs.emplace_back("drain_until", static_cast<std::uint64_t>(drain_until));
    wal_.append(r);
    ++t.generation;  // scheduled fetch/finalize callbacks are now void
    t.local.clear();
    t.fins.clear();
    t.report.tuples_aggregated_locally = 0;
    t.report.tuples_fetched_from_switch = 0;
    t.report.packets_received = 0;
    t.report.swaps = 0;
    t.packets_since_swap = 0;
    // The register wipe rewound swap_epoch to 0; mirror it host-side.
    t.committed_epoch = 0;
    t.swap_in_flight = false;
    t.swap_target = 0;
    t.swap_tries = 0;
    t.swaps_disabled = false;
    if (t.swap_timer != sim::kInvalidEvent) {
        simulator().cancel(t.swap_timer);
        t.swap_timer = sim::kInvalidEvent;
    }
    t.finalize_pending = false;
    t.finalizing = false;
    t.restarting_until = drain_until;
    // Give the replay breathing room before the liveness clock resumes.
    t.last_activity = drain_until;
    // t.windows is deliberately KEPT: HostReceiveWindow tolerates gaps,
    // and replayed sequence numbers continue past the crash point — a
    // fresh window would mis-classify them relative to pre-crash seqs.
    ++chaos_.tasks_reset;
}

void
AskDaemon::crash()
{
    ASK_ASSERT(!crashed_, "crash of an already-crashed host");
    crashed_ = true;
    degraded_ = false;
    for (auto& ch : channels_)
        ch->reset_after_crash(0);
    for (auto& [id, t] : rx_tasks_) {
        if (t.swap_timer != sim::kInvalidEvent)
            simulator().cancel(t.swap_timer);
        if (t.liveness_timer != sim::kInvalidEvent)
            simulator().cancel(t.liveness_timer);
    }
    rx_tasks_.clear();
    sent_archive_.clear();
    warn(name(), ": host crashed");
}

std::uint32_t
AskDaemon::recover_from_wal(
    const std::function<TaskDoneFn(TaskId)>& make_done)
{
    ASK_ASSERT(crashed_, "recovery of a live daemon");
    // Throwing replay: a corrupt log surfaces as StateError and the
    // cluster fails the host's tasks instead of rebuilding bad state.
    std::vector<WalRecord> records = wal_.replay();
    WalDaemonState state = rebuild_daemon_state(records, config_.op);
    crashed_ = false;

    // Channels resume at their journaled checkpoints (>= every seq the
    // dead process used) and the switch is fenced there, stale-dropping
    // any pre-crash frame still wandering the fabric.
    for (std::uint32_t i = 0; i < channels_.size(); ++i) {
        auto rt = state.resume_seq.find(i);
        Seq resume = rt == state.resume_seq.end() ? 0 : rt->second;
        channels_[i]->reset_after_crash(resume);
        if (resume > 0)
            controller_.fence_channel(channels_[i]->global_id(), resume);
    }

    // Replay archives. The original on_complete callbacks died with the
    // process; cluster-level replay re-drives delivery, and completion
    // is observed at the receiver (FIN set), not the sender.
    for (auto& [task, send] : state.sends) {
        sent_archive_[task].push_back(ArchivedSend{
            static_cast<net::NodeId>(send.receiver),
            std::make_shared<const KvStream>(std::move(send.stream)), send.op,
            nullptr});
    }

    // Receive tasks: partial aggregate, FIN set, seen windows (replayed
    // observation by observation, so post-restart retransmissions stay
    // duplicates), swap epoch, and the completion callback re-supplied
    // by the cluster.
    std::uint32_t rebuilt = 0;
    sim::SimTime now = simulator().now();
    for (auto& [task_id, ws] : state.rx_tasks) {
        ReceiveTask rx;
        rx.id = task_id;
        rx.op = ws.op;
        rx.expected_senders = ws.expected_senders;
        rx.swaps_disabled = ws.swaps_disabled;
        rx.local = std::move(ws.local);
        for (std::uint32_t f : ws.fins)
            rx.fins.insert(static_cast<ChannelId>(f));
        rx.on_done = make_done ? make_done(task_id) : nullptr;
        rx.report.start_time = static_cast<sim::SimTime>(ws.start_time);
        rx.report.tuples_aggregated_locally = ws.tuples_aggregated_locally;
        rx.report.tuples_fetched_from_switch =
            ws.tuples_fetched_from_switch;
        rx.report.packets_received = ws.packets_received;
        rx.report.swaps = ws.swaps;
        rx.committed_epoch = ws.committed_epoch;
        // Strictly above anything the dead process handed out: its
        // scheduled swap/finalize callbacks are void on arrival.
        rx.generation = ws.generation;
        rx.liveness_timeout_ns =
            static_cast<Nanoseconds>(ws.liveness_ns);
        rx.restarting_until = std::max(
            now, static_cast<sim::SimTime>(ws.restart_drain_until));
        rx.last_activity = rx.restarting_until;
        for (const auto& [chan, seq] : ws.observed)
            window_for(rx, static_cast<ChannelId>(chan)).observe(seq);

        auto [it, inserted] = rx_tasks_.emplace(task_id, std::move(rx));
        ASK_ASSERT(inserted, "recovered task ", task_id, " twice");
        ReceiveTask& t = it->second;

        // Reconcile an interrupted swap: if the switch's epoch ran
        // ahead of the journaled commit, the SWAP was applied but the
        // retired copy never drained — finish the drain now.
        if (controller_.installed(task_id)) {
            std::uint32_t switch_epoch = controller_.current_epoch(task_id);
            if (switch_epoch > t.committed_epoch) {
                t.swap_in_flight = true;
                t.swap_target = switch_epoch;
                t.swap_tries = 0;
                complete_swap(t);
            }
        }

        if (t.liveness_timeout_ns > 0)
            arm_liveness(task_id);
        // The crash may have interrupted the window between the last
        // FIN and the finalize fetch; re-drive it.
        maybe_finalize(t);
        ++rebuilt;
    }

    // Fencing marker: the NEXT recovery's generations must exceed the
    // ones this one just handed out.
    WalRecord marker;
    marker.kind = WalRecordKind::kHostRecovered;
    wal_.append(marker);
    warn(name(), ": recovered from WAL: ", rebuilt, " receive task(s), ",
         state.sends.size(), " archived send(s)");
    return rebuilt;
}

}  // namespace ask::core
