/**
 * @file
 * The ASK host daemon (paper §3.1): a per-server service process that
 * exchanges key-value data with applications and speaks the ASK protocol
 * with the switch and peer daemons.
 *
 * Each daemon owns `channels_per_host` data channels. A data channel
 * models one DPDK thread pinned to a core: it packetizes streams, runs
 * the sliding-window sender (§3.3 "Host Sender"), processes incoming
 * forwarded packets as the receiver endpoint (§3.3 "Host Receiver"),
 * initiates shadow-copy swaps (§3.4), and performs the result fetch at
 * task teardown. All CPU work is charged to the channel's core clock, so
 * per-core packet rates and backpressure emerge naturally.
 *
 * Management traffic (task setup with the switch controller and peer
 * daemons) flows over a modeled management network with configurable
 * latency — in the paper this is the control channel plus switch gRPC.
 */
#ifndef ASK_ASK_DAEMON_H
#define ASK_ASK_DAEMON_H

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ask/config.h"
#include "ask/controller.h"
#include "ask/key_space.h"
#include "ask/metrics.h"
#include "ask/mgmt.h"
#include "ask/packet_builder.h"
#include "ask/seen_window.h"
#include "ask/types.h"
#include "ask/wal.h"
#include "ask/wire.h"
#include "common/hash.h"
#include "net/cost_model.h"
#include "net/network.h"
#include "obs/observability.h"
#include "sim/simulator.h"

namespace ask::core {

class AskDaemon;

/**
 * How an aggregation task ended. Every failure mode the stack can
 * surface has its own value — callers branch on the status instead of
 * string-matching on an error message.
 */
enum class TaskStatus : std::uint8_t
{
    kOk = 0,
    /** The switch could not host the region (memory/epoch-slot
     *  exhaustion at allocation time). */
    kRegionExhausted,
    /** The receiver stopped hearing from senders before every FIN
     *  arrived (sender-liveness timeout). */
    kSenderTimeout,
    /** A management-plane RPC the task cannot proceed without was
     *  abandoned after its retry budget (setup, finalize fetch, or a
     *  PktState probe during bypass conversion). */
    kMgmtUnreachable,
    /** A sender-side frame (bypass DATA or FIN) exhausted its
     *  transmission budget; the stream was not delivered. */
    kSendBudgetExhausted,
    /** The host (or controller) crashed and the task could not be
     *  rebuilt from the write-ahead log — the WAL was corrupt, or the
     *  task raced setup so no journaled state existed to recover. */
    kHostCrashed,
};

const char* task_status_name(TaskStatus status);

/**
 * Per-task knobs for AskCluster::submit_task / run_task and
 * AskDaemon::start_receive. Aggregate-initializable:
 * `{.region_len = 32, .trace = true}`.
 */
struct TaskOptions
{
    /** Aggregators per AA per shadow copy; 0 = all free aggregators. */
    std::uint32_t region_len = 0;
    /** Shadow-copy swap policy for this task. */
    enum class SwapPolicy : std::uint8_t
    {
        kAuto,      ///< swap per the config thresholds (default)
        kDisabled,  ///< never swap; finalize drains both copies
    };
    SwapPolicy swap_policy = SwapPolicy::kAuto;
    /** Opt this task into packet-lifecycle tracing. */
    bool trace = false;
    /** Reduction operator for this task; nullopt = AskConfig::op. The
     *  resolved op must be declared by every switch program's access
     *  plan (kFloat needs part_bits == 32) or submission throws
     *  ask::ConfigError. */
    std::optional<ReduceOp> op = std::nullopt;
};

/** Completion report for one aggregation task at its receiver. */
struct TaskReport
{
    sim::SimTime start_time = 0;
    sim::SimTime finish_time = 0;
    /** When the task's last stream was fully ACKed and FIN-ACKed at its
     *  sender: the sender-side endpoint of aggregation throughput, which
     *  leaves out the teardown fetch. Stamped by AskCluster at delivery;
     *  0 when some stream had not completed by then (a failed task, a
     *  FIN_ACK still being retried, or a stream rebuilt from a crashed
     *  sender's WAL) and for hand-wired daemons. */
    sim::SimTime senders_done = 0;
    std::uint64_t tuples_aggregated_locally = 0;
    std::uint64_t tuples_fetched_from_switch = 0;
    std::uint64_t packets_received = 0;
    std::uint64_t swaps = 0;
    /** How the task ended. Anything but kOk means the task did NOT
     *  produce a result; `detail` carries the human-readable
     *  specifics (counts, ids) for logs. */
    TaskStatus status = TaskStatus::kOk;
    std::string detail;

    bool ok() const { return status == TaskStatus::kOk; }
};

/** Callback invoked when a receive task completes. */
using TaskDoneFn = std::function<void(AggregateMap, TaskReport)>;

/**
 * One data channel: a duplex host endpoint bound to one core.
 */
class DataChannel
{
  public:
    DataChannel(AskDaemon& daemon, std::uint32_t local_index);

    /** Cluster-wide channel id. */
    ChannelId global_id() const;

    /** Next unused sequence number (the fence boundary at recovery). */
    Seq next_seq() const { return next_seq_; }

    /**
     * Automaton-extraction hook: the sequence numbers currently unACKed
     * (sorted ascending). The semantic model checker proves every
     * in-flight seq strictly below the channel cursor on all reachable
     * states; the fuzzer's reachability probe re-checks the relation on
     * live daemons through this accessor.
     */
    std::vector<Seq>
    in_flight_seqs() const
    {
        std::vector<Seq> seqs;
        seqs.reserve(in_flight_.size());
        for (const auto& [seq, entry] : in_flight_)
            seqs.push_back(seq);
        return seqs;
    }

    /** Enqueue a sending task (FIFO within the channel). The stream
     *  is shared with the daemon's archive, not copied. `op` is the
     *  task's resolved reduction operator (stamped into every frame);
     *  `replay` marks post-crash re-submissions for the packet
     *  tracer. */
    void submit_send(TaskId task, net::NodeId receiver,
                     std::shared_ptr<const KvStream> stream, ReduceOp op,
                     std::function<void()> on_complete, bool replay = false);

    // ---- packet handlers (called by the daemon's dispatcher) ------------
    void on_ack(Seq seq);
    void on_fin_ack(TaskId task);

    /** Charge `cost` to this channel's core; returns the completion
     *  time. Used for latency-critical packet I/O (TX, RX, ACKs). */
    sim::SimTime charge(Nanoseconds cost);

    /**
     * Charge deferred work (hash-map aggregation of forwarded tuples).
     * The DPDK fast path ACKs from the rx burst and queues tuples for
     * processing between bursts, so this work consumes the core's
     * capacity without sitting in front of later packets' ACKs. Task
     * completion still waits for it (see AskDaemon::finalize).
     */
    sim::SimTime charge_background(Nanoseconds cost);

    sim::SimTime background_busy_until() const { return background_busy_; }
    std::uint64_t busy_ns() const { return busy_ns_; }

    /** Current congestion window (for the occupancy/cwnd samplers). */
    std::uint32_t cwnd() const { return cwnd_; }
    /** Current adaptive retransmission timeout. */
    Nanoseconds rto() const;

  private:
    friend class AskDaemon;

    struct SendJob
    {
        TaskId task = 0;
        net::NodeId receiver = 0;
        std::unique_ptr<PacketBuilder> builder;
        std::function<void()> on_complete;
        ReduceOp op = ReduceOp::kAdd;  ///< stamped into every frame
        bool replay = false;  ///< post-crash re-submission (trace flag)
        bool fenced = false;  ///< channel-bind fence issued (fabric only)
    };

    struct InFlight
    {
        std::vector<std::uint8_t> frame;
        net::NodeId receiver = 0;
        sim::EventId timer = sim::kInvalidEvent;
        std::uint32_t tries = 0;  ///< transmissions so far (for backoff)
        sim::SimTime sent_at = 0;  ///< last transmission time (RTT sample)
        PacketType type = PacketType::kData;
    };

    void pump();
    void schedule_pump(sim::SimTime at);
    void transmit(Seq seq, bool is_retransmit);
    void arm_timer(Seq seq, sim::SimTime after);
    void send_fin(const SendJob& job);
    void finish_front_job();

    /** Cancel every in-flight frame's timer and the FIN timer, and
     *  forget the in-flight frames and the FIN state. */
    void drop_in_flight();

    /** Fail the front send job: drop its in-flight state, notify the
     *  daemon's task-failure handler, and move on to the next job. */
    void fail_front_job(TaskStatus status, const std::string& reason);

    /**
     * Replay support: forget every job and in-flight frame of `task`
     * (timers cancelled, no callbacks). The channel's sequence space
     * keeps advancing, so a subsequent fence admits only replayed
     * traffic.
     */
    void abort_task(TaskId task);

    /**
     * Degraded-mode entry: every in-flight DATA frame is probed over
     * the management plane and re-issued — under its original sequence
     * number, so end-to-end dedup still holds — as a bypass LONG_DATA
     * frame carrying exactly the tuples the switch did not consume.
     */
    void convert_in_flight_to_bypass();
    void finish_conversion(Seq seq, AskSwitchProgram::ProbeResult probe);

    /**
     * Crash-recovery reset: cancel every timer, drop jobs/in-flight
     * state, restore the congestion/RTT estimators to their initial
     * values, and resume the sequence space at `resume` — the highest
     * journaled checkpoint, which is >= every sequence the channel used
     * before the crash, so a fence at `resume` stale-drops all of them.
     */
    void reset_after_crash(Seq resume);

    AskDaemon& daemon_;
    std::uint32_t local_index_;

    sim::SimTime core_busy_ = 0;
    sim::SimTime background_busy_ = 0;
    std::uint64_t busy_ns_ = 0;

    std::deque<SendJob> jobs_;
    Seq next_seq_ = 0;
    std::map<Seq, InFlight> in_flight_;
    /** Congestion window (paper §7: a congestion-control window runs
     *  beneath the reliability window W). AIMD: +1 per ACK, halved on
     *  timeout, never above W. Prevents full-window bursts from
     *  overrunning receiver cores. */
    std::uint32_t cwnd_ = 16;
    /** Adaptive retransmission timeout (Jacobson/Karn), floored at the
     *  paper's fine-grained 100 us: receiver-bound flows see RTTs well
     *  above the base RTT, and a fixed timeout would retransmit every
     *  packet of such flows. */
    double srtt_ns_ = 0.0;
    double rttvar_ns_ = 0.0;
    bool have_rtt_ = false;
    void observe_rtt(Nanoseconds sample);

    bool fin_outstanding_ = false;
    sim::EventId fin_timer_ = sim::kInvalidEvent;
    std::uint32_t fin_tries_ = 0;

    bool pump_pending_ = false;
};

/**
 * Local channel index serving `task` on `host`, of `channels` (the
 * hash-based load balancing of §3.1; AskDaemon::channel_for_task).
 * Salted with the host identity: daemons balance their own channel
 * pools independently, so one task does not land on the same local
 * channel index cluster-wide (which would funnel all of the task's
 * flows into a single receiver-side RSS lane).
 */
inline std::uint32_t
task_channel_index(TaskId task, HostId host, std::uint32_t channels)
{
    return static_cast<std::uint32_t>(mix64(task ^ mix64(host.value() + 1)) %
                                      channels);
}

/**
 * `count` task ids, searched upward from 1, whose channel assignment
 * (task_channel_index) is balanced on every host of `hosts` at once: at
 * most ceil(count / channels) + `slack` tasks per local channel. Each
 * host salts the hash with its own identity, so an id set even on one
 * host can be skewed on another, and exact balance over many hosts may
 * be infeasible: fewer than `count` ids come back when the search runs
 * out, and a caller can retry with more slack.
 */
std::vector<TaskId> balanced_task_ids(const std::vector<HostId>& hosts,
                                      std::uint32_t channels,
                                      std::uint32_t count,
                                      std::uint32_t slack = 0);

/** The per-host daemon. */
class AskDaemon : public net::Node
{
  public:
    /**
     * @param host_index   dense index of this server (0..max_hosts-1).
     *                     Strongly typed; a raw std::uint32_t still
     *                     converts implicitly (see the HostId shim).
     * @param switch_node  node id of this host's ToR switch on the fabric.
     * @param controller   the switch control plane over every switch of
     *                     the deployment.
     * @param mgmt         the management network all controller RPCs use.
     * @param wal          this host's write-ahead log: every externally
     *                     visible state change (task starts, journaled
     *                     submits, observed DATA, FINs, swap commits,
     *                     resets, completions, sequence checkpoints) is
     *                     appended *before* the in-memory state mutates,
     *                     so crash() + recover_from_wal() rebuilds the
     *                     daemon exactly. Must outlive the daemon.
     * @param obs          optional observability bundle (metrics + trace);
     *                     must outlive the daemon when given.
     */
    AskDaemon(const AskConfig& config, const net::CostModel& cost_model,
              net::Network& network, HostId host_index,
              net::NodeId switch_node, AskSwitchController& controller,
              MgmtPlane& mgmt, Wal& wal, obs::Observability* obs = nullptr);

    // ---- application-facing API ------------------------------------------

    /**
     * Start an aggregation task with this host as the receiver:
     * allocates the switch region (over the management network) and
     * invokes `on_ready` once senders may stream. When the switch
     * cannot host the region (memory/epoch-slot exhaustion) or the
     * management plane stays unreachable, `on_done` fires with a failed
     * TaskReport instead — the application always learns the outcome.
     */
    void start_receive(TaskId task, std::uint32_t expected_senders,
                       const TaskOptions& options, TaskDoneFn on_done,
                       std::function<void()> on_ready);

    /** Submit a key-value stream for `task` toward `receiver`. The
     *  stream is archived until forget_task() so it can be replayed
     *  after a switch failure. `op` is the task's reduction operator
     *  (nullopt = the config default); kCount streams are lifted
     *  (value -> 1) here, once, before anything downstream folds them. */
    void submit_send(TaskId task, net::NodeId receiver, KvStream stream,
                     std::function<void()> on_complete = nullptr,
                     std::optional<ReduceOp> op = std::nullopt);

    /** The packet tracer of the observability bundle (null without). */
    obs::PacketTracer* tracer() { return tracer_; }

    /** Sender-side send jobs that fail permanently (FIN or bypass
     *  retransmission budget exhausted) are reported here with the
     *  status and a human-readable detail string. AskCluster installs
     *  one that fails the task. */
    void set_task_failure_handler(
        std::function<void(TaskId, TaskStatus, const std::string&)> handler)
    {
        on_task_failure_ = std::move(handler);
    }

    // ---- failure recovery (driven by AskCluster's chaos handlers) --------

    /**
     * Sticky switch from switch-side to host-side aggregation: the
     * switch data path is persistently unresponsive (retransmission
     * budget exhausted), so every future frame — and every abandoned
     * in-flight DATA frame, after a PktState probe — travels the
     * long-key bypass path and is aggregated at the receiver. Slower,
     * still exact.
     */
    void enter_degraded_mode(const std::string& reason);
    bool degraded() const { return degraded_; }

    /**
     * Receiver-side reset of a task whose switch state was wiped:
     * clears the partial aggregate, FIN set, and swap state (register
     * contents are gone, so senders replay from scratch), and drops
     * this task's traffic until `drain_until` so pre-crash packets
     * still in the fabric cannot be double-counted. Receive windows are
     * kept — they are gap-tolerant, and replayed sequence numbers
     * continue past the crash point. The swap policy is kept too: a
     * kDisabled task never swaps, and a task that gave up on a dead
     * swap path may try again.
     */
    void prepare_replay(TaskId task, sim::SimTime drain_until);

    /**
     * Silence the sender side of `task` immediately: drop its jobs and
     * in-flight frames on every channel. Called at switch-recovery time
     * BEFORE the channels are fenced — a frame sent after the fence
     * boundary was read would be accepted by the switch and then
     * double-counted by the replay.
     */
    void abort_send(TaskId task);

    /** Re-submit every archived stream of `task` (aborting any live
     *  jobs first). @return streams re-submitted. */
    std::uint32_t replay_task(TaskId task);

    /** Drop the replay archive of a completed task. */
    void forget_task(TaskId task);

    /** Fail a receive task: fires on_done with a failed report and
     *  releases the switch region best-effort. */
    void fail_receive_task(TaskId task, TaskStatus status,
                           std::string detail);

    // ---- host durability (write-ahead log + crash recovery) ---------------

    /**
     * Crash the host process: every channel, receive task, archive, and
     * timer vanishes; packets arriving while crashed are dropped (the
     * NIC stays attached, the daemon does not). The WAL — owned by the
     * cluster's WalStore, i.e. the host's disk — survives.
     */
    void crash();
    bool crashed() const { return crashed_; }

    /**
     * Restart after crash(): replay the WAL (throws StateError on a
     * digest/framing corruption) and rebuild receive tasks, partial
     * aggregates, receive windows, send archives, and per-channel
     * sequence cursors. Each rebuilt receive task needs its completion
     * callback back — the std::function died with the process — so the
     * cluster supplies `make_done`. Channels are re-fenced at their
     * journaled checkpoints and interrupted swaps are reconciled
     * against the switch's current epoch.
     * @return the number of receive tasks rebuilt.
     */
    std::uint32_t recover_from_wal(
        const std::function<TaskDoneFn(TaskId)>& make_done);

    /**
     * The live state a restart would rebuild from this daemon's log:
     * every receive task's durable state and every archived submit, in
     * the shape rebuild_daemon_state() returns (its resume_seq is left
     * empty). Equal to the fold of the log at every event boundary
     * while the daemon is up.
     */
    WalDaemonState durable_state() const;

    /** Does this host hold a replay archive for `task`? (Used by the
     *  cluster to decide whether a crashed host was a sender.) */
    bool has_send_archive(TaskId task) const
    {
        return sent_archive_.count(task) != 0;
    }

    // ---- net::Node ---------------------------------------------------------
    void receive(net::Packet pkt) override;
    std::string name() const override;

    // ---- introspection ----------------------------------------------------
    const AskConfig& config() const { return config_; }
    const KeySpace& key_space() const { return key_space_; }
    const net::CostModel& cost_model() const { return cost_model_; }
    net::Network& network() { return network_; }
    sim::Simulator& simulator() { return network_.simulator(); }
    net::NodeId switch_node() const { return switch_node_; }
    HostId host_index() const { return host_index_; }
    const HostStats& stats() const { return stats_; }
    HostStats& stats() { return stats_; }
    const ChaosStats& chaos_stats() const { return chaos_; }
    MgmtPlane& mgmt() { return mgmt_; }
    AskSwitchController& controller() { return controller_; }
    DataChannel& channel(std::uint32_t i) { return *channels_.at(i); }
    std::uint32_t num_channels() const
    {
        return static_cast<std::uint32_t>(channels_.size());
    }

    /** Channel serving a task (hash-based load balancing, §3.1). */
    DataChannel& channel_for_task(TaskId task);

  private:
    friend class DataChannel;

    struct ReceiveTask
    {
        TaskId id = 0;
        /** The durable half. Only start_rx_task and apply_rx change
         *  it, each right after its record is appended; finalize takes
         *  the aggregate out at delivery. */
        WalRxTaskState state;
        TaskDoneFn on_done;

        std::uint64_t packets_since_swap = 0;
        bool swap_in_flight = false;
        std::uint32_t swap_target = 0;
        std::uint32_t swap_tries = 0;
        /** The swap path proved dead: no more swaps until a reset. */
        bool swaps_given_up = false;
        sim::EventId swap_timer = sim::kInvalidEvent;
        bool finalize_pending = false;
        bool finalizing = false;

        /** A fresh value of the daemon's generation counter at start,
         *  prepare_replay and recovery: fetch/finalize callbacks
         *  scheduled in an earlier life must not touch the task. */
        std::uint64_t generation = 0;
        /** Last DATA/FIN arrival (sender-liveness timeout). */
        sim::SimTime last_activity = 0;
        sim::EventId liveness_timer = sim::kInvalidEvent;
    };

    /** Charge work to the control-channel thread (fetches, setup). */
    sim::SimTime charge_control(Nanoseconds cost);

    void dispatch_to_sender_channel(const AskHeader& hdr);
    /** DATA and LONG_DATA (bypass) frames alike. */
    void handle_data(net::Packet&& pkt, const AskHeader& hdr);
    void handle_fin(const net::Packet& pkt, const AskHeader& hdr);
    void handle_swap_ack(const AskHeader& hdr);

    void process_data(ReceiveTask& task, const net::Packet& pkt,
                      const AskHeader& hdr, DataChannel& ch);
    void send_ack_to(net::NodeId sender, const AskHeader& data_hdr);
    void maybe_start_swap(ReceiveTask& task);
    void send_swap(TaskId task_id);
    void complete_swap(ReceiveTask& task);
    void maybe_finalize(ReceiveTask& task);
    void finalize(ReceiveTask& task);
    void arm_liveness(TaskId task_id);
    void notify_task_failure(TaskId task, TaskStatus status,
                             const std::string& reason);

    /** One archived submit_send (kept until forget_task for replay).
     *  The stream is the one the channel's packet builder reads. */
    struct ArchivedSend
    {
        net::NodeId receiver = 0;
        /** Already lifted (kCount values are 1). */
        std::shared_ptr<const KvStream> stream;
        ReduceOp op = ReduceOp::kAdd;
        std::function<void()> on_complete;
    };

    AskConfig config_;
    KeySpace key_space_;
    net::CostModel cost_model_;
    net::Network& network_;
    HostId host_index_;
    net::NodeId switch_node_;
    AskSwitchController& controller_;
    MgmtPlane& mgmt_;

    std::vector<std::unique_ptr<DataChannel>> channels_;
    std::unordered_map<TaskId, ReceiveTask> rx_tasks_;
    std::unordered_map<TaskId, std::vector<ArchivedSend>> sent_archive_;
    std::function<void(TaskId, TaskStatus, const std::string&)>
        on_task_failure_;
    bool degraded_ = false;
    /** Host write-ahead log (owned by the cluster's WalStore). */
    Wal& wal_;
    /** Crashed and not yet restarted: all traffic is dropped. */
    bool crashed_ = false;
    /** Borrowed observability hooks (may be null). The RTT histogram is
     *  shared across daemons: one `host.rtt_ns` per cluster. */
    obs::PacketTracer* tracer_ = nullptr;
    obs::LogHistogram* rtt_hist_ = nullptr;
    HostStats stats_;
    ChaosStats chaos_;
    /** Busy-until of the control-channel thread (region fetches run
     *  here so they never stall the data path; §4: "one thread as the
     *  control channel"). */
    sim::SimTime control_busy_ = 0;
    /** Round-robin cursor for deferred-aggregation work. */
    std::uint64_t bg_round_robin_ = 0;
    /** Last generation handed to a ReceiveTask. crash() keeps it, so
     *  every later value voids the events the dead process scheduled. */
    std::uint64_t generations_ = 0;
};

}  // namespace ask::core

#endif  // ASK_ASK_DAEMON_H
