#include "ask/cluster.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace ask::core {

namespace {

/** The deployed layout: the config's Topology, or one rack of two
 *  hosts when it carries none. */
Topology
resolve_topology(const ClusterConfig& config)
{
    if (config.topology.has_value()) {
        Topology topo = *config.topology;
        topo.validate();
        return topo;
    }
    return TopologyBuilder().add_rack(2).build();
}

/** Metric prefix for switch `s` of `topo`: rack 0's ToR keeps the
 *  pre-fabric names, the rest are suffixed per switch. */
std::string
switch_prefix(const Topology& topo, std::uint32_t s, const char* base)
{
    if (s == 0)
        return strf("%s.", base);
    if (topo.has_tier() && s == topo.num_racks())
        return strf("%s.tier.", base);
    return strf("%s.s%u.", base, s);
}

}  // namespace

AskCluster::AskCluster(const ClusterConfig& config)
    : config_(config), topo_(resolve_topology(config)), network_(simulator_)
{
    config_.ask.validate();
    ASK_ASSERT(topo_.num_hosts() <= config_.ask.max_hosts,
               "more hosts than the switch provisions state for");

    const std::uint32_t cph = config_.ask.channels_per_host;

    // Switches attach first (ToRs in rack order, then the aggregation
    // tier), daemons after — node ids, and therefore every packet
    // schedule, depend on this order.
    for (std::uint32_t s = 0; s < topo_.num_switches(); ++s) {
        switches_.push_back(std::make_unique<pisa::PisaSwitch>(
            network_, config_.switch_stages, config_.switch_sram_per_stage));
        network_.attach(switches_.back().get());
    }

    // Each ToR provisions exactly its rack's channel shard — the
    // per-switch register state this buys is bounded by the rack size,
    // not the cluster size (fig13b measures this).
    for (std::uint32_t r = 0; r < topo_.num_racks(); ++r) {
        auto lo = static_cast<ChannelId>(topo_.host_lo(RackId{r}) * cph);
        auto hi =
            static_cast<ChannelId>(lo + topo_.hosts_in(RackId{r}) * cph);
        programs_.push_back(std::make_unique<AskSwitchProgram>(
            config_.ask, *switches_[r], lo, hi));
        // Leaf role: under a tier, a ToR must keep cross-rack packets
        // alive to the tier (which holds window state for every
        // channel) even when it absorbed every tuple — see
        // set_tree_leaf(). A lone ToR is the tree root.
        programs_.back()->set_tree_leaf(topo_.has_tier());
    }
    if (topo_.has_tier()) {
        // The tier merges everything, so it provisions every channel
        // any deployed host can use.
        programs_.push_back(std::make_unique<AskSwitchProgram>(
            config_.ask, *switches_[topo_.num_racks()], 0,
            static_cast<ChannelId>(topo_.num_hosts() * cph)));
    }
    std::vector<AskSwitchProgram*> progs;
    for (auto& p : programs_) {
        p->set_tracer(&obs_.tracer);
        progs.push_back(p.get());
    }
    Wal& controller_wal = wal_store_.controller_wal();
    controller_wal.set_append_counter(&chaos_stats_.wal_appends);
    controller_ =
        std::make_unique<AskSwitchController>(std::move(progs), controller_wal);

    MgmtRetryPolicy mgmt_policy;
    mgmt_policy.max_tries = config_.ask.mgmt_max_tries;
    mgmt_policy.backoff_cap_ns = config_.ask.mgmt_backoff_cap_ns;
    mgmt_ = std::make_unique<MgmtPlane>(simulator_, config_.mgmt_latency_ns,
                                        mgmt_policy);

    net::CostModel cost_model(config_.cost);
    for (std::uint32_t h = 0; h < topo_.num_hosts(); ++h) {
        pisa::PisaSwitch& tor = tor_of(h);
        Wal& wal = wal_store_.host_wal(h);
        wal.set_append_counter(&chaos_stats_.wal_appends);
        daemons_.push_back(std::make_unique<AskDaemon>(
            config_.ask, cost_model, network_, HostId{h}, tor.node_id(),
            *controller_, *mgmt_, wal, &obs_));
        // A sender that gives up on a stream (FIN or bypass budget) fails
        // its task: the receiver would otherwise wait for a FIN that
        // never comes.
        daemons_.back()->set_task_failure_handler(
            [this](TaskId task, TaskStatus status, const std::string& detail) {
                fail_active_task(task, status, detail);
            });
        network_.attach(daemons_.back().get());
        network_.connect(daemons_.back()->node_id(), tor.node_id(),
                         config_.link_gbps, config_.link_propagation_ns,
                         config_.faults, config_.seed + h);
    }

    if (topo_.has_tier()) {
        // Tier uplinks, then the FIBs. ToRs forward remote-host
        // destinations up; the tier forwards each host down its rack.
        net::NodeId tier_node = switches_[topo_.num_racks()]->node_id();
        for (std::uint32_t r = 0; r < topo_.num_racks(); ++r) {
            network_.connect(switches_[r]->node_id(), tier_node,
                             topo_.tier_link_gbps,
                             topo_.tier_link_propagation_ns,
                             topo_.tier_faults,
                             config_.seed + topo_.num_hosts() + r);
        }
        for (std::uint32_t h = 0; h < topo_.num_hosts(); ++h) {
            net::NodeId host_node = daemons_[h]->node_id();
            std::uint32_t hr = topo_.rack_of_host(HostId{h}).value();
            switches_[topo_.num_racks()]->set_route(
                host_node, switches_[hr]->node_id());
            for (std::uint32_t r = 0; r < topo_.num_racks(); ++r) {
                if (r != hr)
                    switches_[r]->set_route(host_node, tier_node);
            }
        }
    }
}

AskCluster::~AskCluster() = default;

void
AskCluster::update_mgmt_outage()
{
    bool down = controller_down_ || mgmt_outages_open_ > 0;
    for (const auto& s : switches_)
        down = down || s->offline();
    mgmt_->set_outage(down);
}

void
AskCluster::submit_task(TaskId task, HostId receiver_host,
                        std::vector<StreamSpec> streams,
                        const TaskOptions& options, TaskDoneFn on_done)
{
    ASK_ASSERT(receiver_host.value() < daemons_.size(), "bad receiver host");
    for (const auto& s : streams)
        ASK_ASSERT(s.host.value() < daemons_.size(), "bad sender host");

    TaskOptions opts = options;
    if (num_switches() > 1) {
        // No fabric-atomic epoch flip exists, so shadow-copy swaps are
        // off in multi-switch mode; finalize drains both copies.
        opts.swap_policy = TaskOptions::SwapPolicy::kDisabled;
    }

    // Resolve the reduction operator once, synchronously, and validate
    // it against every switch program's access plan before any async
    // setup: a tenant asking for an op the pipeline cannot host gets a
    // ConfigError here, not a half-started task failing later.
    ReduceOp rop = opts.op.value_or(config_.ask.op);
    opts.op = rop;
    for (const auto& p : programs_) {
        if (p->access_plan().find_reduce_op(static_cast<std::uint8_t>(rop)) ==
            nullptr) {
            fail_config("task ", task, " requests reduce op '",
                        reduce_op_name(rop),
                        "', which the switch access plan does not declare "
                        "(kFloat needs part_bits == 32)");
        }
    }

    AskDaemon& receiver = *daemons_[receiver_host.value()];
    net::NodeId receiver_node = receiver.node_id();
    auto n_senders = static_cast<std::uint32_t>(streams.size());

    // Register the task: recovery needs to know which hosts hold
    // replayable archives for which tasks, and finish_task delivers
    // the outcome to on_done from here.
    ActiveTask active;
    active.receiver_host = receiver_host.value();
    for (const auto& s : streams)
        active.sender_hosts.push_back(s.host.value());
    auto stream_done =
        std::make_shared<std::vector<sim::SimTime>>(streams.size(), 0);
    active.stream_done = stream_done;
    active.on_done = std::move(on_done);
    active_tasks_[task] = std::move(active);
    auto thin_done = [this, task](AggregateMap result, TaskReport report) {
        finish_task(task, std::move(result), std::move(report));
    };

    // §3.1 workflow: the receiver registers the task and obtains a switch
    // region; once ready, sender daemons are notified over the control
    // channel and begin streaming.
    receiver.start_receive(
        task, n_senders, opts, std::move(thin_done),
        /*on_ready=*/[this, task, receiver_node, rop, stream_done,
                      streams = std::move(streams)]() mutable {
            simulator_.schedule_after(
                config_.notify_latency_ns,
                [this, task, receiver_node, rop, stream_done,
                 streams = std::move(streams)]() mutable {
                    for (std::size_t i = 0; i < streams.size(); ++i) {
                        // The sender's archive keeps this callback, so
                        // a replay re-stamps the stream's completion.
                        auto on_complete = [this, stream_done, i] {
                            (*stream_done)[i] = simulator_.now();
                        };
                        // A sender notified while crashed accepts the
                        // stream when it restarts.
                        HostId host = streams[i].host;
                        run_on_host(
                            host.value(),
                            [this, host, task, receiver_node, rop,
                             stream = std::move(streams[i].stream),
                             on_complete]() mutable {
                                daemons_[host.value()]->submit_send(
                                    task, receiver_node, std::move(stream),
                                    on_complete, rop);
                            });
                    }
                });
        });
}

TaskResult
AskCluster::run_task(TaskId task, HostId receiver_host,
                     std::vector<StreamSpec> streams,
                     const TaskOptions& options)
{
    TaskResult out;
    bool completed = false;
    submit_task(task, receiver_host, std::move(streams), options,
                [&out, &completed](AggregateMap result, TaskReport report) {
                    out.result = std::move(result);
                    out.report = report;
                    completed = true;
                });
    run();
    ASK_ASSERT(completed, "task ", task, " did not complete");
    return out;
}

void
AskCluster::arm_chaos(const sim::ChaosPlan& plan)
{
    ASK_ASSERT(fault_scheduler_ == nullptr, "chaos already armed");
    // A crashed process restarts when its episode ends; a crash with no
    // duration has no end, so its process would stay down for good.
    for (const sim::ChaosEvent& e : plan.events) {
        if (e.kind == sim::ChaosKind::kHostCrash && e.duration == 0)
            fail_config("chaos: the host crash at ", e.at,
                        " ns has no duration, so it would never restart");
    }
    fault_scheduler_ = std::make_unique<sim::FaultScheduler>(simulator_);

    auto subject_host = [this](const sim::ChaosEvent& e) {
        return e.subject % static_cast<std::uint32_t>(daemons_.size());
    };
    auto host_node = [this, subject_host](const sim::ChaosEvent& e) {
        return daemons_[subject_host(e)]->node_id();
    };
    // Link chaos hits the subject host's access cable — the one to its
    // own ToR.
    auto tor_node = [this, subject_host](const sim::ChaosEvent& e) {
        return tor_of(subject_host(e)).node_id();
    };

    fault_scheduler_->set_handler(
        sim::ChaosKind::kLinkBlackout,
        [this, host_node, tor_node](const sim::ChaosEvent& e) {
            ++chaos_stats_.link_blackouts;
            network_.set_cable_override(host_node(e), tor_node(e),
                                        net::FaultSpec::blackout());
        },
        [this, host_node, tor_node](const sim::ChaosEvent& e) {
            network_.clear_cable_override(host_node(e), tor_node(e));
        });

    fault_scheduler_->set_handler(
        sim::ChaosKind::kBurstLoss,
        [this, host_node, tor_node](const sim::ChaosEvent& e) {
            ++chaos_stats_.burst_loss_windows;
            net::FaultSpec burst = config_.faults;
            burst.loss_prob = e.intensity;
            network_.set_cable_override(host_node(e), tor_node(e), burst);
        },
        [this, host_node, tor_node](const sim::ChaosEvent& e) {
            network_.clear_cable_override(host_node(e), tor_node(e));
        });

    fault_scheduler_->set_handler(
        sim::ChaosKind::kSwitchReboot,
        [this](const sim::ChaosEvent& e) { on_switch_reboot_start(e); },
        [this](const sim::ChaosEvent& e) { on_switch_reboot_end(e); });

    fault_scheduler_->set_handler(
        sim::ChaosKind::kMgmtOutage,
        [this](const sim::ChaosEvent&) {
            ++chaos_stats_.mgmt_outages;
            ++mgmt_outages_open_;
            update_mgmt_outage();
        },
        [this](const sim::ChaosEvent&) {
            --mgmt_outages_open_;
            update_mgmt_outage();
        });

    fault_scheduler_->set_handler(
        sim::ChaosKind::kMgmtDelay,
        [this](const sim::ChaosEvent& e) {
            ++chaos_stats_.mgmt_delay_windows;
            mgmt_->set_extra_delay(static_cast<Nanoseconds>(e.intensity));
        },
        [this](const sim::ChaosEvent&) { mgmt_->set_extra_delay(0); });

    fault_scheduler_->set_handler(
        sim::ChaosKind::kDataBlackhole,
        [this](const sim::ChaosEvent&) {
            ++chaos_stats_.data_blackholes;
            for (auto& p : programs_)
                p->set_data_blackhole(true);
        },
        [this](const sim::ChaosEvent&) {
            for (auto& p : programs_)
                p->set_data_blackhole(false);
        });

    fault_scheduler_->set_handler(
        sim::ChaosKind::kHostCrash,
        [this, subject_host](const sim::ChaosEvent& e) {
            if (e.subject == sim::kControllerSubject)
                crash_controller();
            else
                crash_host(HostId{subject_host(e)});
        },
        [this, subject_host](const sim::ChaosEvent& e) {
            if (e.subject == sim::kControllerSubject)
                restart_controller();
            else
                restart_host(HostId{subject_host(e)});
        });

    fault_scheduler_->set_unhandled_hook(
        [this](const sim::ChaosEvent&) { ++chaos_stats_.unhandled_events; });

    fault_scheduler_->arm(plan);
}

void
AskCluster::on_switch_reboot_start(const sim::ChaosEvent& e)
{
    SwitchId s = subject_switch(e);
    ++chaos_stats_.switch_reboots;
    // The crash destroys everything at once: the data plane stops
    // (offline drops all traffic), the register SRAM is volatile, the
    // control-plane task table lived in switch DRAM, and the switch CPU
    // takes the management endpoint down with it.
    pisa::PisaSwitch& sw = *switches_[s.value()];
    sw.set_offline(true);
    sw.pipeline().wipe_registers();
    programs_[s.value()]->on_reboot();
    update_mgmt_outage();
}

void
AskCluster::on_switch_reboot_end(const sim::ChaosEvent& e)
{
    SwitchId s = subject_switch(e);
    switches_[s.value()]->set_offline(false);

    // Recovery, in dependency order. (1) The controller re-installs
    // every journaled region — allocation truth lives host-side. Only
    // the rebooted data plane is missing bindings, so only it installs.
    chaos_stats_.regions_reinstalled += controller_->reinstall_after_reboot();

    // (2)-(5) The wipe took this switch's partial aggregates and
    // seen-window parity with it: silence the senders, clear, fence,
    // reset the receivers, drain, and replay.
    reset_and_replay();

    // (6) The switch CPU is back: management RPCs flow again — unless
    // something else (the controller, another switch, a scripted outage
    // window) still keeps the endpoint dark.
    update_mgmt_outage();
}

void
AskCluster::run_on_host(std::uint32_t host, std::function<void()> fn)
{
    if (daemons_.at(host)->crashed())
        pending_on_restart_[host].push_back(std::move(fn));
    else
        fn();
}

void
AskCluster::finish_task(TaskId task, AggregateMap result, TaskReport report)
{
    auto it = active_tasks_.find(task);
    if (it == active_tasks_.end())
        return;  // already delivered (e.g. aborted during recovery)
    ActiveTask done = std::move(it->second);
    active_tasks_.erase(it);
    for (std::uint32_t h : done.sender_hosts)
        run_on_host(h, [this, h, task] { daemons_[h]->forget_task(task); });
    // The senders are done when their last stream is, and not at all
    // while any stream is still open.
    for (sim::SimTime t : *done.stream_done) {
        if (t == 0) {
            report.senders_done = 0;
            break;
        }
        report.senders_done = std::max(report.senders_done, t);
    }
    // Last: a callback that resubmits the same id starts clean.
    if (done.on_done)
        done.on_done(std::move(result), std::move(report));
}

void
AskCluster::abort_active_task(TaskId task, TaskStatus status,
                              const std::string& detail)
{
    if (active_tasks_.count(task) == 0)
        return;
    ++chaos_stats_.crash_aborted_tasks;
    fail_active_task(task, status, detail);
}

void
AskCluster::fail_active_task(TaskId task, TaskStatus status,
                             const std::string& detail)
{
    auto it = active_tasks_.find(task);
    if (it == active_tasks_.end())
        return;
    AskDaemon& receiver = *daemons_[it->second.receiver_host];
    if (!receiver.crashed())
        receiver.fail_receive_task(task, status, detail);
    // fail_receive_task no-ops when the receiver holds no task state
    // (crashed, or the task never rebuilt); deliver from here.
    if (active_tasks_.count(task) != 0) {
        TaskReport report;
        report.finish_time = simulator_.now();
        report.status = status;
        report.detail = detail;
        finish_task(task, AggregateMap{}, std::move(report));
    }
}

void
AskCluster::crash_host(HostId host)
{
    AskDaemon& d = *daemons_.at(host.value());
    if (d.crashed())
        return;  // overlapping episodes: already down
    ++chaos_stats_.host_crashes;
    d.crash();
}

void
AskCluster::restart_host(HostId host)
{
    std::uint32_t h_idx = host.value();
    AskDaemon& d = *daemons_.at(h_idx);
    if (!d.crashed())
        return;
    auto make_done = [this](TaskId task) -> TaskDoneFn {
        return [this, task](AggregateMap result, TaskReport report) {
            finish_task(task, std::move(result), std::move(report));
        };
    };
    try {
        d.recover_from_wal(make_done);
        ++chaos_stats_.host_recoveries;
    } catch (const StateError& e) {
        ++chaos_stats_.wal_rejected;
        warn("cluster: host ", h_idx, " WAL rejected (", e.what(),
             "); restarting the process with empty state");
        wal_store_.host_wal(h_idx).clear();
        d.recover_from_wal(make_done);
        // Durable state evaporated with the log: every active task this
        // host served cannot complete exactly. Fail them over guessing.
        std::vector<TaskId> doomed;
        for (const auto& [task, info] : active_tasks_) {
            bool involved = info.receiver_host == h_idx;
            for (std::uint32_t h : info.sender_hosts)
                involved = involved || h == h_idx;
            if (involved)
                doomed.push_back(task);
        }
        for (TaskId task : doomed)
            abort_active_task(task, TaskStatus::kHostCrashed,
                              strf("host %u write-ahead log corrupt", h_idx));
        pending_on_restart_.erase(h_idx);
        return;
    }
    // Deferred recovery work that fired while the host was down (e.g. a
    // switch reboot's receiver reset) composes with the rebuilt state.
    auto pit = pending_on_restart_.find(h_idx);
    if (pit != pending_on_restart_.end()) {
        std::vector<std::function<void()>> fns = std::move(pit->second);
        pending_on_restart_.erase(pit);
        for (auto& fn : fns)
            fn();
    }
    // Mid-send crash: the dead process's in-flight accounting is gone,
    // so which of its tuples the switch registers absorbed is
    // unknowable. Re-establish exactness from the source archives. A
    // stream ACKed and FIN-ACKed before the crash left nothing unknown.
    auto mid_send = [&d, h_idx](const auto& kv) {
        const ActiveTask& t = kv.second;
        if (!d.has_send_archive(kv.first))
            return false;
        for (std::size_t i = 0; i < t.sender_hosts.size(); ++i) {
            if (t.sender_hosts[i] == h_idx && (*t.stream_done)[i] == 0)
                return true;
        }
        return false;
    };
    if (std::any_of(active_tasks_.begin(), active_tasks_.end(), mid_send))
        reset_and_replay();
}

void
AskCluster::crash_controller()
{
    if (controller_down_)
        return;
    controller_down_ = true;
    ++chaos_stats_.controller_crashes;
    // The controller process hosts the management endpoint: RPCs fail
    // (and retry) until it restarts.
    controller_->crash();
    update_mgmt_outage();
}

void
AskCluster::restart_controller()
{
    if (!controller_down_)
        return;
    controller_down_ = false;
    try {
        controller_->recover_from_wal();
        ++chaos_stats_.controller_recoveries;
    } catch (const StateError& e) {
        ++chaos_stats_.wal_rejected;
        warn("cluster: controller WAL rejected (", e.what(),
             "); aborting every active task");
        // Clear the log and drop any partially-rebuilt journal so the
        // journal restarts consistently empty.
        wal_store_.controller_wal().clear();
        controller_->crash();
        std::vector<TaskId> doomed;
        for (const auto& [task, info] : active_tasks_)
            doomed.push_back(task);
        for (TaskId task : doomed)
            abort_active_task(task, TaskStatus::kHostCrashed,
                              "controller write-ahead log corrupt");
    }
    // The endpoint returns — unless something else keeps it dark.
    update_mgmt_outage();
}

void
AskCluster::reset_and_replay()
{
    // The steps keep the numbers of the switch-reboot recovery, whose
    // step (1) is the region reinstall (DESIGN.md).
    //
    // (2) Silence every live sender of every active task BEFORE
    // fencing: the fence boundary is each channel's next_seq, and
    // nothing may be transmitted between reading it and the replay. A
    // crashed sender's channels emptied when it crashed. Every stream
    // completes anew in the replay.
    for (auto& [task, info] : active_tasks_) {
        for (std::uint32_t h : info.sender_hosts) {
            if (!daemons_[h]->crashed())
                daemons_[h]->abort_send(task);
        }
        std::fill(info.stream_done->begin(), info.stream_done->end(), 0);
    }

    // (2b) Discard every active task's partial aggregate on every switch
    // of the fabric: the replay streams each task from scratch, so any
    // partial left on a switch would be counted twice. After a
    // one-switch reboot the wipe already zeroed them.
    for (const auto& [task, info] : active_tasks_) {
        for (auto& p : programs_) {
            if (p->find_task(task) == nullptr)
                continue;
            p->reset_epoch(task);
            p->clear_region(task);
        }
    }

    // (3) Fence every data channel: stale-drop pre-reset sequences and
    // repair the compact-seen parity a wipe destroyed. The controller
    // fences each channel on every switch provisioning it. Crashed
    // hosts are skipped — their channels re-fence at the WAL checkpoint
    // when they restart.
    for (const auto& d : daemons_) {
        if (d->crashed())
            continue;
        for (std::uint32_t c = 0; c < d->num_channels(); ++c) {
            DataChannel& ch = d->channel(c);
            controller_->fence_channel(ch.global_id(), ch.next_seq());
            ++chaos_stats_.channels_fenced;
        }
    }

    // (4) Reset the receiver state of every active task and let the
    // fabric drain, (5) then replay the archived streams. The epoch
    // voids replays scheduled by an earlier recovery that this one
    // interrupted — they would stream on top of this epoch's replay.
    // Work aimed at a crashed host waits for its restart (and composes
    // with the WAL rebuild there): a rebuilt receiver whose registers
    // were wiped MUST still be reset, or the replay would land on top
    // of its journaled partial aggregate.
    std::uint64_t epoch = ++recovery_epoch_;
    sim::SimTime drain_until = simulator_.now() + kRecoveryDrain;
    for (const auto& [task, info] : active_tasks_) {
        run_on_host(info.receiver_host,
                    [this, task, host = info.receiver_host, drain_until] {
                        daemons_[host]->prepare_replay(task, drain_until);
                    });
        for (std::uint32_t h : info.sender_hosts) {
            simulator_.schedule_at(drain_until, [this, task, h, epoch] {
                if (recovery_epoch_ != epoch || active_tasks_.count(task) == 0)
                    return;
                run_on_host(h, [this, task, h, epoch] {
                    if (recovery_epoch_ == epoch &&
                        active_tasks_.count(task) != 0)
                        daemons_[h]->replay_task(task);
                });
            });
        }
    }
}

ChaosStats
AskCluster::chaos_stats() const
{
    ChaosStats total = chaos_stats_;
    total.merge(mgmt_->chaos_stats());
    for (const auto& d : daemons_)
        total.merge(d->chaos_stats());
    return total;
}

obs::MetricsSnapshot
AskCluster::metrics_snapshot() const
{
    obs::MetricsSnapshot snap = obs_.registry.snapshot();
    network_.add_counters(snap, "net.");
    for (std::uint32_t s = 0; s < num_switches(); ++s) {
        switches_[s]->add_counters(snap, switch_prefix(topo_, s, "pisa"));
        add_counters(snap, switch_prefix(topo_, s, "switch"),
                     programs_[s]->stats());
    }
    add_counters(snap, "host.", total_host_stats());
    add_counters(snap, "chaos.", chaos_stats());
    return snap;
}

HostStats
AskCluster::total_host_stats() const
{
    HostStats total;
    for (const auto& d : daemons_)
        total.merge(d->stats());
    return total;
}

SwitchAggStats
AskCluster::total_switch_stats() const
{
    SwitchAggStats total;
    for (const auto& p : programs_)
        total.merge(p->stats());
    return total;
}

void
AskCluster::enable_sampling(Nanoseconds interval_ns)
{
    ASK_ASSERT(sampler_ == nullptr, "sampling already enabled");
    sampler_ =
        std::make_unique<obs::Sampler>(simulator_, obs_.registry, interval_ns);

    // Goodput over the last period, from the fabric's cumulative byte
    // counter. Rate probes carry their own previous-sample state.
    sampler_->add_probe(
        "goodput_gbps",
        [this, prev_bytes = std::uint64_t{0},
         prev_t = simulator_.now()](sim::SimTime t) mutable {
            std::uint64_t bytes = network_.stats().bytes_sent;
            double gbps =
                t > prev_t ? 8.0 * static_cast<double>(bytes - prev_bytes) /
                                 static_cast<double>(t - prev_t)
                           : 0.0;
            prev_bytes = bytes;
            prev_t = t;
            return gbps;
        });

    // Per-channel core occupancy: busy-ns accumulated over the period.
    for (std::uint32_t h = 0; h < num_hosts(); ++h) {
        for (std::uint32_t c = 0; c < daemons_[h]->num_channels(); ++c) {
            DataChannel* ch = &daemons_[h]->channel(c);
            sampler_->add_probe(
                strf("occupancy.h%u.c%u", h, c),
                [ch, prev_busy = std::uint64_t{0},
                 prev_t = simulator_.now()](sim::SimTime t) mutable {
                    std::uint64_t busy = ch->busy_ns();
                    double frac =
                        t > prev_t
                            ? static_cast<double>(busy - prev_busy) /
                                  static_cast<double>(t - prev_t)
                            : 0.0;
                    prev_busy = busy;
                    prev_t = t;
                    return frac;
                });
        }
    }

    // Switch aggregation ratio over the last period: of the tuples that
    // entered any pipeline of the fabric, how many were consumed
    // in-network.
    sampler_->add_probe(
        "switch.agg_ratio",
        [this, prev_in = std::uint64_t{0},
         prev_agg = std::uint64_t{0}](sim::SimTime) mutable {
            SwitchAggStats total = total_switch_stats();
            std::uint64_t din = total.tuples_in - prev_in;
            std::uint64_t dagg = total.tuples_aggregated - prev_agg;
            prev_in = total.tuples_in;
            prev_agg = total.tuples_aggregated;
            return din > 0 ? static_cast<double>(dagg) /
                                 static_cast<double>(din)
                           : 0.0;
        });

    // Sender congestion state, averaged over every channel.
    sampler_->add_probe("cwnd.mean", [this](sim::SimTime) {
        double sum = 0.0;
        std::uint32_t n = 0;
        for (const auto& d : daemons_) {
            for (std::uint32_t c = 0; c < d->num_channels(); ++c, ++n)
                sum += static_cast<double>(d->channel(c).cwnd());
        }
        return n > 0 ? sum / n : 0.0;
    });
    sampler_->add_probe("rto.mean_ns", [this](sim::SimTime) {
        double sum = 0.0;
        std::uint32_t n = 0;
        for (const auto& d : daemons_) {
            for (std::uint32_t c = 0; c < d->num_channels(); ++c, ++n)
                sum += static_cast<double>(d->channel(c).rto());
        }
        return n > 0 ? sum / n : 0.0;
    });
}

}  // namespace ask::core
