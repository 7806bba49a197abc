/**
 * @file
 * AskCluster: the top-level facade wiring a complete ASK deployment —
 * simulator, network fabric, one or more PISA switches running the ASK
 * program, the switch control plane, and one daemon per server. This
 * is the public entry point used by examples, tests, and benchmarks.
 *
 * Topology-first API: a ClusterConfig carries a Topology (racks, hosts
 * per rack, tier links) built with TopologyBuilder. Every topology is
 * wired one way: each rack's ToR runs an AskSwitchProgram provisioned
 * for *its rack's channel shard*, every daemon attaches to its rack's
 * ToR, and one AskSwitchController spans every switch. A multi-rack
 * topology adds an aggregation-tier switch, provisioned for every
 * channel, that merges the ToR partial aggregates; its ToRs become tree
 * leaves. A one-rack cluster is the one-switch case. See
 * docs/ARCHITECTURE.md for the life of a cross-rack DATA packet.
 */
#ifndef ASK_ASK_CLUSTER_H
#define ASK_ASK_CLUSTER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ask/config.h"
#include "ask/controller.h"
#include "ask/daemon.h"
#include "ask/mgmt.h"
#include "ask/switch_program.h"
#include "ask/topology.h"
#include "ask/wal.h"
#include "net/cost_model.h"
#include "net/network.h"
#include "obs/observability.h"
#include "obs/sampler.h"
#include "pisa/pisa_switch.h"
#include "sim/chaos.h"
#include "sim/simulator.h"

namespace ask::core {

/**
 * Quiet period after a switch-reboot or sender-crash recovery during
 * which the receiver drops traffic of restarting tasks: packets
 * forwarded before the failure must drain from the fabric before the
 * replay starts, or they would be double-counted.
 */
inline constexpr Nanoseconds kRecoveryDrain = 400 * units::kMicrosecond;

/** Cluster-level deployment parameters. */
struct ClusterConfig
{
    AskConfig ask;
    net::CostModelSpec cost;

    /**
     * The physical layout: racks, hosts per rack, tier links. Build
     * one with TopologyBuilder. When unset, one rack of two hosts.
     */
    std::optional<Topology> topology;

    /** Per-port line rate (host <-> ToR). */
    double link_gbps = 100.0;
    /** One-way cable propagation delay (host <-> ToR). */
    Nanoseconds link_propagation_ns = 500;
    /** Fault injection on every host<->switch cable. Tier links carry
     *  their own FaultSpec in the Topology. */
    net::FaultSpec faults = net::FaultSpec::reliable();
    /** Seed for fault streams. */
    std::uint64_t seed = 1;

    /** Management-network latency (controller RPCs). */
    Nanoseconds mgmt_latency_ns = 20 * units::kMicrosecond;
    /** Latency of the receiver->sender task notification (§3.1 step 4). */
    Nanoseconds notify_latency_ns = 50 * units::kMicrosecond;

    /** Pipeline depth; the default fits the 32-AA program. Chained
     *  pipelines are modeled as more stages. */
    std::size_t switch_stages = pisa::kDefaultStagesPerPipeline;
    std::size_t switch_sram_per_stage = pisa::kDefaultStageSramBytes;
};

/** One sender's contribution to a task. */
struct StreamSpec
{
    HostId host = HostId{0};
    KvStream stream;
};

/** Result of a completed aggregation task. */
struct TaskResult
{
    AggregateMap result;
    TaskReport report;

    /** The task produced a result (report.status == TaskStatus::kOk). */
    bool ok() const { return report.ok(); }
};

/** A fully wired ASK deployment. */
class AskCluster
{
  public:
    explicit AskCluster(const ClusterConfig& config);

    ~AskCluster();

    AskCluster(const AskCluster&) = delete;
    AskCluster& operator=(const AskCluster&) = delete;

    /**
     * Submit an aggregation task: `receiver_host` runs the receiver,
     * each StreamSpec's host streams its tuples. `on_done` fires at
     * completion (simulated time). Call run() to execute. Per-task
     * knobs (region length, swap policy, reduce op) travel in
     * `options`: `{.region_len = 32}`.
     *
     * In a multi-switch fabric, shadow-copy swaps are forced to
     * SwapPolicy::kDisabled: a swap epoch would have to flip atomically
     * across every switch on the task's paths, which the tier protocol
     * does not attempt (finalize drains both copies instead).
     */
    void submit_task(TaskId task, HostId receiver_host,
                     std::vector<StreamSpec> streams,
                     const TaskOptions& options = {},
                     TaskDoneFn on_done = nullptr);

    /** Convenience: submit one task, run the simulator to completion,
     *  and return the result. */
    TaskResult run_task(TaskId task, HostId receiver_host,
                        std::vector<StreamSpec> streams,
                        const TaskOptions& options = {});

    /** Drain the event queue. Returns the final simulated time. */
    sim::SimTime run() { return simulator_.run(); }

    sim::Simulator& simulator() { return simulator_; }
    net::Network& network() { return network_; }
    AskDaemon& daemon(HostId host) { return *daemons_.at(host.value()); }
    std::uint32_t num_hosts() const
    {
        return static_cast<std::uint32_t>(daemons_.size());
    }

    // ---- topology ---------------------------------------------------------

    /** The deployed layout (one rack of two hosts when the config
     *  carried none). */
    const Topology& topology() const { return topo_; }
    std::uint32_t num_racks() const { return topo_.num_racks(); }
    /** Switches in the fabric: one ToR per rack, plus the aggregation
     *  tier when there is more than one rack. */
    std::uint32_t num_switches() const
    {
        return static_cast<std::uint32_t>(switches_.size());
    }
    RackId rack_of(HostId host) const { return topo_.rack_of_host(host); }

    // ---- per-switch accessors ---------------------------------------------

    pisa::PisaSwitch& pisa_switch(SwitchId s)
    {
        return *switches_.at(s.value());
    }
    AskSwitchProgram& program(SwitchId s) { return *programs_.at(s.value()); }
    const SwitchAggStats& switch_stats(SwitchId s) const
    {
        return programs_.at(s.value())->stats();
    }
    net::NodeId switch_node(SwitchId s) const
    {
        return switches_.at(s.value())->node_id();
    }

    /** The control plane over every switch. */
    AskSwitchController& controller() { return *controller_; }

    const ClusterConfig& config() const { return config_; }

    /** Aggregate host stats over all daemons. */
    HostStats total_host_stats() const;

    /** Aggregate switch stats over the whole fabric. */
    SwitchAggStats total_switch_stats() const;

    /** The shared management plane (control network + controller RPCs). */
    MgmtPlane& mgmt() { return *mgmt_; }

    // ---- observability ----------------------------------------------------

    /** The cluster-wide packet tracer. Disabled by default; enable it
     *  with `tracer().set_enabled(true)`. */
    obs::PacketTracer& tracer() { return obs_.tracer; }

    /**
     * Point-in-time copy of every metric: the registry's histograms and
     * series, plus every counter of the stats folds — `net.*`, `pisa.*`
     * and `switch.*` per switch (rack 0's ToR unsuffixed, then `.sN.`,
     * the tier `.tier.`), `host.*` (total_host_stats()) and `chaos.*`
     * (chaos_stats()).
     */
    obs::MetricsSnapshot metrics_snapshot() const;

    /**
     * Start periodic time-series sampling (simulated time): goodput,
     * per-channel core occupancy, switch aggregation ratio, and
     * cwnd/RTO means, recorded into the registry every `interval_ns`.
     * Call once, before run().
     */
    void enable_sampling(Nanoseconds interval_ns);

    /**
     * Arm a chaos plan: every episode kind is wired to the matching
     * recovery machinery — link overrides on the fabric, register wipe
     * plus region-reinstall/fence/replay on switch reboot (the subject
     * selects which switch of the fabric reboots), outage and delay
     * windows on the management plane, and the data-plane blackhole on
     * every switch program. May be called once per cluster. Throws
     * ask::ConfigError for a kHostCrash episode of zero duration (its
     * process would never restart).
     */
    void arm_chaos(const sim::ChaosPlan& plan);

    /** Fault-injection/recovery counters over every component. */
    ChaosStats chaos_stats() const;

    /** The cluster's stable storage: every host process (the daemons
     *  and the controller) writes to a WAL here before acting, and
     *  crash recovery replays it. */
    WalStore& wal_store() { return wal_store_; }

    /** The armed fault scheduler (null until arm_chaos). */
    sim::FaultScheduler* fault_scheduler() { return fault_scheduler_.get(); }

    // ---- host-crash recovery (also callable directly from tests) ---------

    /** Crash host `host`'s daemon process (its WAL survives). */
    void crash_host(HostId host);
    /** Restart a crashed daemon: WAL replay, deferred-work drain, and —
     *  when the host was mid-send for an active task — reset_and_replay. */
    void restart_host(HostId host);
    /** Crash the controller process (allocation journal lost; the
     *  management endpoint goes down with it). */
    void crash_controller();
    /** Restart the controller: journal rebuild from its WAL, then the
     *  management endpoint returns. */
    void restart_controller();

  private:
    /** A task in flight, from submit_task to finish_task: what
     *  recovery needs to know, and whom to tell when it is done. */
    struct ActiveTask
    {
        std::uint32_t receiver_host = 0;
        std::vector<std::uint32_t> sender_hosts;
        /** When each stream (indexed like sender_hosts) was last fully
         *  ACKed and FIN-ACKed; 0 = not since its submit or the last
         *  reset_and_replay. The streams' completion callbacks hold it
         *  too: a FIN_ACK can arrive after delivery, when the task id
         *  may already name a new task. */
        std::shared_ptr<std::vector<sim::SimTime>> stream_done;
        /** The application's completion callback. It lives here, not
         *  in the daemon: a receiver crash destroys the daemon's copy,
         *  and recovery re-points the rebuilt task at finish_task. */
        TaskDoneFn on_done;
    };

    void on_switch_reboot_start(const sim::ChaosEvent& e);
    void on_switch_reboot_end(const sim::ChaosEvent& e);

    /** Which switch a chaos event's subject lands on. */
    SwitchId subject_switch(const sim::ChaosEvent& e) const
    {
        return SwitchId{e.subject % num_switches()};
    }

    /** The management endpoint is dark while the controller is down,
     *  any switch of the fabric is offline or a scripted outage window
     *  is open. Every site that changes one of those calls this. */
    void update_mgmt_outage();

    /** The ToR serving `host`. */
    pisa::PisaSwitch& tor_of(std::uint32_t host)
    {
        return *switches_[topo_.rack_of_host(HostId{host}).value()];
    }

    /** Run `fn` now, or queue it until `host` restarts if it is
     *  crashed (recovery work aimed at a dead process must wait for —
     *  and compose with — its WAL rebuild). */
    void run_on_host(std::uint32_t host, std::function<void()> fn);

    /** Deliver a task's completion: drop it from active_tasks_, forget
     *  its senders' archives, stamp senders_done onto the report, then
     *  call its on_done. */
    void finish_task(TaskId task, AggregateMap result, TaskReport report);

    /** Fail an active task: its receiver delivers a failed report, or
     *  this does when the receiver holds no state for it. */
    void fail_active_task(TaskId task, TaskStatus status,
                          const std::string& detail);

    /** Fail an active task whose durable state is unrecoverable (counted
     *  in crash_aborted_tasks). */
    void abort_active_task(TaskId task, TaskStatus status,
                           const std::string& detail);

    /**
     * Re-establish exactness from the source archives after a switch
     * reboot or a sender crash: silence every live sender of every
     * active task, clear each task's partial aggregate on every switch,
     * fence every live channel, reset every receiver, and replay all
     * archived streams once the drain window closes.
     */
    void reset_and_replay();

    ClusterConfig config_;
    Topology topo_;
    /** Declared before every component: daemons and switch programs
     *  hold pointers into it (the RTT histogram, the tracer), so it
     *  must construct first (and destruct last). */
    obs::Observability obs_;
    /** Stable storage. Declared before the components that journal into
     *  it and survives their crashes by construction. */
    WalStore wal_store_;
    sim::Simulator simulator_;
    net::Network network_;
    /** One per SwitchId: ToRs 0..R-1, then the tier switch (if any). */
    std::vector<std::unique_ptr<pisa::PisaSwitch>> switches_;
    std::vector<std::unique_ptr<AskSwitchProgram>> programs_;
    std::unique_ptr<AskSwitchController> controller_;
    std::unique_ptr<MgmtPlane> mgmt_;
    std::vector<std::unique_ptr<AskDaemon>> daemons_;
    std::unique_ptr<sim::FaultScheduler> fault_scheduler_;
    std::unordered_map<TaskId, ActiveTask> active_tasks_;
    /** Bumped per reboot recovery: a replay scheduled by recovery N is
     *  void once recovery N+1 has re-fenced the channels (its frames
     *  would land on top of recovery N+1's own replay). */
    std::uint64_t recovery_epoch_ = 0;
    /** Recovery work aimed at a crashed host, drained at its restart
     *  (after the WAL rebuild it must compose with). */
    std::unordered_map<std::uint32_t, std::vector<std::function<void()>>>
        pending_on_restart_;
    bool controller_down_ = false;
    /** Scripted management-outage windows currently open. */
    std::uint32_t mgmt_outages_open_ = 0;
    ChaosStats chaos_stats_;
    std::unique_ptr<obs::Sampler> sampler_;
};

}  // namespace ask::core

#endif  // ASK_ASK_CLUSTER_H
