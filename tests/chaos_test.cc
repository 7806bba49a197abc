/**
 * Chaos-injection tests: scheduled fault episodes against a full ASK
 * deployment. Exactness must survive a mid-task switch reboot (register
 * wipe + region reinstall + fence + replay) and a persistently sick
 * data plane (graceful degradation to host-side aggregation); tasks
 * whose dependencies are truly gone must fail with a clear error
 * instead of hanging.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ask/cluster.h"
#include "common/hash.h"
#include "common/random.h"
#include "sim/chaos.h"

namespace ask::core {
namespace {

using units::kMicrosecond;
using units::kMillisecond;

KvStream
mixed_stream(Rng& rng, std::size_t n, std::size_t distinct)
{
    KvStream s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t id = rng.next_below(distinct);
        std::size_t len = 1 + id % 12;  // short/medium/long mix
        std::string key;
        std::uint64_t x = mix64(id + 1);
        for (std::size_t j = 0; j < len; ++j)
            key.push_back(static_cast<char>('a' + (x >> (5 * (j % 12))) % 26));
        s.push_back({key, static_cast<Value>(1 + id % 7)});
    }
    return s;
}

KvStream
short_stream(Rng& rng, std::size_t n, std::size_t distinct)
{
    KvStream s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        s.push_back({"k" + std::to_string(rng.next_below(distinct)),
                     static_cast<Value>(1 + rng.next_below(5))});
    }
    return s;
}

AggregateMap
truth_of(const std::vector<StreamSpec>& streams, ReduceOp op)
{
    AggregateMap t;
    for (const auto& s : streams)
        aggregate_into(t, s.stream, op);
    return t;
}

ClusterConfig
base_config()
{
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(3).build();
    cc.ask.max_hosts = 3;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 128;
    cc.ask.medium_groups = 2;
    cc.ask.window = 16;
    cc.ask.swap_threshold_packets = 0;
    return cc;
}

std::vector<StreamSpec>
two_streams(std::uint64_t seed, std::size_t n)
{
    Rng rng = seeded_rng("chaos_test", seed);
    return {{1, mixed_stream(rng, n, 60)}, {2, mixed_stream(rng, n, 60)}};
}

/** Dry-run the task on an identical fault-free cluster to learn when it
 *  would finish, so chaos can be aimed at the middle of the run. */
sim::SimTime
undisturbed_finish_time(const ClusterConfig& cc,
                        const std::vector<StreamSpec>& streams)
{
    AskCluster cluster(cc);
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_TRUE(r.ok());
    return r.report.finish_time;
}

// ---------------------------------------------------------------------------
// Tentpole scenario 1: the switch crashes mid-task, losing every
// register and its task table. Recovery (reinstall + fence + replay)
// must keep the result exactly-once.
// ---------------------------------------------------------------------------

TEST(Chaos, SwitchRebootMidTaskStaysExact)
{
    ClusterConfig cc = base_config();
    cc.seed = 11;
    std::vector<StreamSpec> streams = two_streams(11, 1200);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot(mid, 200 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.switch_reboots, 1u);
    EXPECT_GE(cs.regions_reinstalled, 1u);
    EXPECT_GT(cs.channels_fenced, 0u);
    EXPECT_EQ(cs.tasks_reset, 1u);
    EXPECT_EQ(cs.streams_replayed, 2u);

    // Both streams were re-sent once the drain window after the reboot
    // closed: the senders finished only after the replay began.
    sim::SimTime replay_start = mid + 200 * kMicrosecond + kRecoveryDrain;
    EXPECT_GT(r.report.senders_done, replay_start);
    EXPECT_LE(r.report.senders_done, r.report.finish_time);
}

TEST(Chaos, SwitchRebootUnderLossWithSwapsStaysExact)
{
    // Reboot on top of a lossy fabric with shadow-copy swaps enabled:
    // the crash can race retransmissions, in-flight swaps, and fetches.
    ClusterConfig cc = base_config();
    cc.ask.swap_threshold_packets = 32;
    cc.faults = net::FaultSpec::lossy(0.08, 0.04, 0.1);
    cc.seed = 23;
    std::vector<StreamSpec> streams = two_streams(23, 1000);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot(mid, 300 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().switch_reboots, 1u);
}

TEST(Chaos, TwoRebootsBackToBackStayExact)
{
    ClusterConfig cc = base_config();
    cc.seed = 31;
    std::vector<StreamSpec> streams = two_streams(31, 1200);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    sim::SimTime finish = undisturbed_finish_time(cc, streams);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot(finish / 3, 150 * kMicrosecond);
    plan.switch_reboot(finish, 150 * kMicrosecond);  // mid-recovery run
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().switch_reboots, 2u);
    EXPECT_GE(cluster.chaos_stats().streams_replayed, 2u);
}

// ---------------------------------------------------------------------------
// Tentpole scenario 2: the data plane silently eats aggregation traffic
// ("sick program"). The daemon must detect the dead path via its
// retransmission budget and degrade to host-side aggregation — slower,
// still exact.
// ---------------------------------------------------------------------------

TEST(Chaos, DataBlackholeDegradesToHostAggregation)
{
    ClusterConfig cc = base_config();
    cc.ask.max_data_tries = 6;  // detect the dead path quickly
    cc.seed = 41;
    Rng rng = seeded_rng("chaos_test", 41);
    std::vector<StreamSpec> streams{{1, mixed_stream(rng, 300, 40)},
                                    {2, mixed_stream(rng, 300, 40)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    // The data plane is sick from the very start, forever: task setup
    // (management plane) still works, but no DATA is ever aggregated.
    plan.data_blackhole(0, 3600UL * units::kSecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.data_blackholes, 1u);
    EXPECT_GE(cs.degraded_entries, 1u);  // at least one sender fell back
    EXPECT_GT(cluster.switch_stats(SwitchId{0}).blackholed, 0u);
    // Everything after the fallback travels the long-key bypass.
    EXPECT_GT(cluster.total_host_stats().long_packets_sent, 0u);
    EXPECT_GT(cluster.total_host_stats().tuples_aggregated_locally, 0u);
}

TEST(Chaos, TransientBlackholeRecoversAndStaysExact)
{
    // A blackhole shorter than the retransmission budget: senders ride
    // it out with retransmissions and never degrade.
    ClusterConfig cc = base_config();
    cc.seed = 43;
    std::vector<StreamSpec> streams = two_streams(43, 600);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    // Covers the data phase (senders start streaming at ~70us: mgmt
    // setup plus the task notification) but is far shorter than the
    // retransmission budget.
    plan.data_blackhole(0, 300 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_GT(cluster.switch_stats(SwitchId{0}).blackholed, 0u);
    EXPECT_EQ(cluster.chaos_stats().degraded_entries, 0u);
}

// ---------------------------------------------------------------------------
// Link episodes: blackouts and burst loss delay but never corrupt.
// ---------------------------------------------------------------------------

TEST(Chaos, LinkEpisodesStayExact)
{
    ClusterConfig cc = base_config();
    cc.seed = 53;
    std::vector<StreamSpec> streams = two_streams(53, 1000);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    sim::SimTime finish = undisturbed_finish_time(cc, streams);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.link_blackout(finish / 4, 400 * kMicrosecond, /*host=*/1);
    plan.burst_loss(finish / 2, 600 * kMicrosecond, /*host=*/2, 0.5);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().link_blackouts, 1u);
    EXPECT_EQ(cluster.chaos_stats().burst_loss_windows, 1u);
}

TEST(Chaos, RandomizedPlanOnLossyFabricStaysExact)
{
    ClusterConfig cc = base_config();
    cc.faults = net::FaultSpec::lossy(0.05, 0.02, 0.1);
    cc.ask.swap_threshold_packets = 48;
    cc.seed = 67;

    std::vector<StreamSpec> streams = two_streams(67, 1200);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);

    AskCluster cluster(cc);
    cluster.arm_chaos(sim::ChaosPlan::randomized(
        /*seed=*/67, /*horizon=*/50 * kMillisecond, /*episodes=*/12,
        /*num_hosts=*/cluster.num_hosts(), /*mean_duration=*/200 * kMicrosecond,
        /*intensity=*/0.4));

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
}

// ---------------------------------------------------------------------------
// Management-plane episodes: retry with backoff, bounded give-up.
// ---------------------------------------------------------------------------

TEST(Chaos, MgmtOutageIsRiddenOutByRetries)
{
    ClusterConfig cc = base_config();
    cc.seed = 71;
    Rng rng = seeded_rng("chaos_test", 71);
    std::vector<StreamSpec> streams{{1, mixed_stream(rng, 300, 40)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    // The outage covers task setup; retries with backoff outlast it.
    plan.mgmt_outage(0, 500 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_GT(cluster.chaos_stats().mgmt_retries, 0u);
    EXPECT_EQ(cluster.chaos_stats().mgmt_giveups, 0u);
}

TEST(Chaos, PermanentMgmtOutageFailsSetupWithClearError)
{
    AskCluster cluster(base_config());
    sim::ChaosPlan plan;
    plan.mgmt_outage(0, 3600UL * units::kSecond);
    cluster.arm_chaos(plan);

    Rng rng = seeded_rng("chaos_test", 73);
    TaskReport report;
    bool done = false;
    cluster.submit_task(1, 0, {{1, mixed_stream(rng, 100, 20)}}, {},
                        [&](AggregateMap, TaskReport rep) {
                            report = std::move(rep);
                            done = true;
                        });
    cluster.run();
    ASSERT_TRUE(done);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status, TaskStatus::kMgmtUnreachable) << report.detail;
    EXPECT_GE(cluster.chaos_stats().mgmt_giveups, 1u);
}

/** Whether the management plane is down at `at` on an idle cluster
 *  armed with `plan`, read by an event scheduled for that instant. */
bool
mgmt_down_at(const sim::ChaosPlan& plan, sim::SimTime at)
{
    AskCluster cluster(base_config());
    cluster.arm_chaos(plan);
    bool down = false;
    cluster.simulator().schedule_at(at, [&] { down = cluster.mgmt().down(); });
    cluster.run();
    return down;
}

TEST(Chaos, OverlappingMgmtOutagesEndWithTheLastWindow)
{
    sim::ChaosPlan plan;
    plan.mgmt_outage(100 * kMicrosecond, 400 * kMicrosecond);  // [100, 500)
    plan.mgmt_outage(300 * kMicrosecond, 600 * kMicrosecond);  // [300, 900)
    EXPECT_TRUE(mgmt_down_at(plan, 700 * kMicrosecond));
    EXPECT_FALSE(mgmt_down_at(plan, 950 * kMicrosecond));
}

TEST(Chaos, SwitchRebootInsideAMgmtOutageKeepsThePlaneDown)
{
    sim::ChaosPlan plan;
    plan.mgmt_outage(100 * kMicrosecond, 500 * kMicrosecond);  // [100, 600)
    plan.switch_reboot(200 * kMicrosecond, 100 * kMicrosecond);
    EXPECT_TRUE(mgmt_down_at(plan, 400 * kMicrosecond));
    EXPECT_FALSE(mgmt_down_at(plan, 650 * kMicrosecond));
}

TEST(Chaos, ControllerRestartInsideAMgmtOutageKeepsThePlaneDown)
{
    sim::ChaosPlan plan;
    plan.mgmt_outage(100 * kMicrosecond, 500 * kMicrosecond);  // [100, 600)
    plan.controller_crash(200 * kMicrosecond, 100 * kMicrosecond);
    EXPECT_TRUE(mgmt_down_at(plan, 400 * kMicrosecond));
    EXPECT_FALSE(mgmt_down_at(plan, 650 * kMicrosecond));
}

// ---------------------------------------------------------------------------
// Satellite: region exhaustion propagates to the application.
// ---------------------------------------------------------------------------

TEST(Chaos, RegionExhaustionFailsSecondTask)
{
    ClusterConfig cc = base_config();
    cc.seed = 83;
    AskCluster cluster(cc);

    Rng rng = seeded_rng("chaos_test", 83);
    std::vector<StreamSpec> s1{{1, mixed_stream(rng, 400, 50)}};
    AggregateMap truth = truth_of(s1, ReduceOp::kAdd);

    TaskResult first;
    TaskReport second;
    bool second_done = false;
    // Task 1 claims the whole free pool (region_len = 0); task 2 then
    // asks for 32 aggregators/AA while nothing is free.
    cluster.submit_task(1, 0, s1, {},
                        [&](AggregateMap m, TaskReport rep) {
                            first.result = std::move(m);
                            first.report = std::move(rep);
                        });
    cluster.submit_task(2, 1, {{2, mixed_stream(rng, 100, 20)}},
                        {.region_len = 32},
                        [&](AggregateMap, TaskReport rep) {
                            second = std::move(rep);
                            second_done = true;
                        });
    cluster.run();

    ASSERT_TRUE(first.ok()) << first.report.detail;
    EXPECT_EQ(first.result, truth);
    EXPECT_GT(first.report.senders_done, 0);
    ASSERT_TRUE(second_done);
    EXPECT_FALSE(second.ok());
    EXPECT_EQ(second.status, TaskStatus::kRegionExhausted) << second.detail;
    EXPECT_EQ(cluster.chaos_stats().alloc_failures, 1u);
    // Task 2's senders were never notified, so none of them finished.
    EXPECT_EQ(second.senders_done, 0);
}

// ---------------------------------------------------------------------------
// Satellite: a dead sender fails the receive task within the liveness
// timeout instead of hanging forever.
// ---------------------------------------------------------------------------

TEST(Chaos, DeadSenderFailsReceiverByLivenessTimeout)
{
    ClusterConfig cc = base_config();
    cc.ask.sender_liveness_timeout_ns = 5 * kMillisecond;
    AskCluster cluster(cc);

    Rng rng = seeded_rng("chaos_test", 91);
    KvStream stream = mixed_stream(rng, 200, 30);

    TaskReport report;
    bool done = false;
    AskDaemon& rx = cluster.daemon(0);
    // The receiver expects two senders but only one ever streams.
    rx.start_receive(
        1, /*expected_senders=*/2, {},
        [&](AggregateMap, TaskReport rep) {
            report = std::move(rep);
            done = true;
        },
        [&] { cluster.daemon(1).submit_send(1, rx.node_id(), stream); });
    sim::SimTime end = cluster.run();

    ASSERT_TRUE(done);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status, TaskStatus::kSenderTimeout) << report.detail;
    EXPECT_EQ(cluster.chaos_stats().sender_timeouts, 1u);
    // It failed within (roughly) the timeout, not after hours of FIN
    // retries: the last activity is the lone sender's final packet.
    EXPECT_LT(end, 60 * kMillisecond);
}

// ---------------------------------------------------------------------------
// The FIN retransmission budget: exhausting it reports the task failed
// instead of retrying forever.
// ---------------------------------------------------------------------------

/** What a task whose receiver's cable is dark from the start ends with,
 *  under the FIN budget and a receiver liveness timeout of `liveness`
 *  (0 = none). */
struct FinGiveup
{
    bool done = false;
    TaskReport report;
    ChaosStats stats;
};

FinGiveup
run_fin_giveup(Nanoseconds liveness)
{
    ClusterConfig cc = base_config();
    cc.ask.sender_liveness_timeout_ns = liveness;
    AskCluster cluster(cc);

    Rng rng = seeded_rng("chaos_test", 97);
    // Short keys only: the switch consumes every tuple and impersonates
    // the ACKs, so DATA completes even with the receiver dark — only
    // the FIN needs the receiver.
    KvStream stream = short_stream(rng, 200, 8);

    sim::ChaosPlan plan;
    // The receiver's cable is dark from the start. Task setup and the
    // sender notification use the management/control path, so streaming
    // still begins.
    plan.link_blackout(0, 3600UL * units::kSecond, /*host=*/0);
    cluster.arm_chaos(plan);

    FinGiveup out;
    cluster.submit_task(1, 0, {{1, stream}}, {},
                        [&](AggregateMap, TaskReport rep) {
                            out.report = std::move(rep);
                            out.done = true;
                        });
    cluster.run();
    out.stats = cluster.chaos_stats();
    return out;
}

TEST(Chaos, FinBudgetFailsSenderWhenReceiverIsGone)
{
    // The sender gives up on its FIN (1,000 tries, ~0.4 s) before the
    // receiver's liveness timeout, and its give-up fails the task.
    FinGiveup r = run_fin_giveup(2 * units::kSecond);
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.report.status, TaskStatus::kSendBudgetExhausted)
        << r.report.detail;
    EXPECT_EQ(r.stats.fin_giveups, 1u);
    EXPECT_EQ(r.stats.sender_timeouts, 0u);
    // fin_giveups counts it; it is not a crash abort.
    EXPECT_EQ(r.stats.crash_aborted_tasks, 0u);
}

TEST(Chaos, FinBudgetFailsTheTaskWithoutALivenessTimeout)
{
    // No liveness timeout: only the sender's give-up can end the task.
    FinGiveup r = run_fin_giveup(0);
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.report.status, TaskStatus::kSendBudgetExhausted)
        << r.report.detail;
    EXPECT_EQ(r.stats.fin_giveups, 1u);
}

// ---------------------------------------------------------------------------
// Kitchen sink: every episode kind in one run, exactness holds.
// ---------------------------------------------------------------------------

TEST(Chaos, EverythingEverywhereStaysExact)
{
    ClusterConfig cc = base_config();
    cc.faults = net::FaultSpec::lossy(0.03, 0.01, 0.05);
    cc.seed = 101;
    std::vector<StreamSpec> streams = two_streams(101, 1500);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    sim::SimTime finish = undisturbed_finish_time(cc, streams);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.burst_loss(finish / 6, 200 * kMicrosecond, 1, 0.4);
    plan.mgmt_delay(finish / 5, 2 * kMillisecond,
                    /*extra=*/100 * kMicrosecond);
    plan.switch_reboot(finish / 2, 250 * kMicrosecond);
    plan.link_blackout(finish * 3 / 4, 300 * kMicrosecond, 2);
    plan.mgmt_outage(finish * 5 / 6, 200 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.switch_reboots, 1u);
    EXPECT_EQ(cs.mgmt_delay_windows, 1u);
    EXPECT_EQ(cs.burst_loss_windows, 1u);
}

// ---------------------------------------------------------------------------
// Host durability: crash a host process mid-task; the WAL rebuild plus
// re-fencing must keep the delivered aggregate exactly-once.
// ---------------------------------------------------------------------------

TEST(Chaos, ReceiverCrashMidTaskRecoversExactly)
{
    ClusterConfig cc = base_config();
    cc.seed = 103;
    std::vector<StreamSpec> streams = two_streams(103, 1200);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(mid, 300 * kMicrosecond, /*host=*/0);  // the receiver
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.host_crashes, 1u);
    EXPECT_EQ(cs.host_recoveries, 1u);
    EXPECT_EQ(cs.wal_rejected, 0u);
    EXPECT_GT(cs.wal_appends, 0u);
    // The WAL is intact after the run and shows the recovery marker.
    EXPECT_TRUE(cluster.wal_store().host_wal(0).verify());
}

TEST(Chaos, SenderCrashMidTaskReplaysAndStaysExact)
{
    ClusterConfig cc = base_config();
    cc.seed = 107;
    std::vector<StreamSpec> streams = two_streams(107, 1200);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(mid, 300 * kMicrosecond, /*host=*/1);  // a sender
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.host_crashes, 1u);
    EXPECT_EQ(cs.host_recoveries, 1u);
    // A sender lost its in-flight accounting: exactness was
    // re-established by the cluster-wide replay reset.
    EXPECT_GE(cs.streams_replayed, 1u);
    EXPECT_GE(cs.tasks_reset, 1u);
    // The crashed sender re-sent its stream from the WAL, where no
    // completion callback survives: when it finished is unknown.
    EXPECT_EQ(r.report.senders_done, 0);
}

TEST(Chaos, SenderCrashAfterItsStreamCompletedNeedsNoReplay)
{
    // The sender crashes after its stream was ACKed and FIN-ACKed but
    // before the task is done. Nothing of that stream is unknown, so
    // its restart resets and replays nothing: the task finishes as if
    // undisturbed, with the completion time stamped before the crash.
    ClusterConfig cc = base_config();
    cc.seed = 108;
    std::vector<StreamSpec> streams = two_streams(108, 1200);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    TaskReport undisturbed;
    {
        AskCluster dry(cc);
        TaskResult r = dry.run_task(1, 0, streams);
        ASSERT_TRUE(r.ok());
        undisturbed = r.report;
    }
    ASSERT_GT(undisturbed.senders_done, 0);

    // Both streams are done; the finalize fetch is still under way when
    // the sender comes back.
    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(undisturbed.senders_done + 2 * kMicrosecond,
                    5 * kMicrosecond, /*host=*/1);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.host_recoveries, 1u);
    EXPECT_EQ(cs.streams_replayed, 0u);
    EXPECT_EQ(cs.tasks_reset, 0u);
    EXPECT_EQ(r.report.senders_done, undisturbed.senders_done);
    EXPECT_EQ(r.report.finish_time, undisturbed.finish_time);
}

TEST(Chaos, CrashWithoutDurationIsRejected)
{
    // A crashed process restarts when its episode ends. A crash of zero
    // duration has no end, so arming one is a configuration error, and
    // the rejected plan leaves the cluster unarmed.
    AskCluster cluster(base_config());
    sim::ChaosPlan host;
    host.host_crash(10 * kMicrosecond, 0, /*host=*/1);
    EXPECT_THROW(cluster.arm_chaos(host), ConfigError);
    sim::ChaosPlan controller;
    controller.controller_crash(10 * kMicrosecond, 0);
    EXPECT_THROW(cluster.arm_chaos(controller), ConfigError);
    EXPECT_EQ(cluster.fault_scheduler(), nullptr);

    sim::ChaosPlan episode;
    episode.host_crash(10 * kMicrosecond, 5 * kMicrosecond, /*host=*/1);
    cluster.arm_chaos(episode);
    cluster.run();
    EXPECT_EQ(cluster.chaos_stats().host_crashes, 1u);
    EXPECT_EQ(cluster.chaos_stats().host_recoveries, 1u);
}

TEST(Chaos, ReplayedTaskCountsOnlyTheReplaysPackets)
{
    // A switch reboot resets the task and replays both streams. The
    // report then counts what the replay delivered, as a receiver
    // rebuilt from its log after the reset does. Long keys bypass the
    // switch, so every packet reaches the receiver and the count is the
    // undisturbed run's.
    ClusterConfig cc = base_config();
    cc.seed = 109;
    Rng rng = seeded_rng("chaos_test", 109);
    std::vector<StreamSpec> streams;
    for (std::uint32_t h : {1u, 2u}) {
        KvStream s;
        for (std::size_t i = 0; i < 6000; ++i)
            s.push_back({"a-long-key-that-bypasses-the-switch-" +
                             std::to_string(rng.next_below(500)),
                         1});
        streams.push_back({HostId{h}, std::move(s)});
    }
    ASSERT_EQ(KeySpace(cc.ask).classify(streams[0].stream[0].key),
              KeyClass::kLong);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    TaskReport undisturbed;
    {
        AskCluster dry(cc);
        TaskResult r = dry.run_task(1, HostId{0}, streams);
        ASSERT_TRUE(r.ok());
        undisturbed = r.report;
    }
    ASSERT_GT(undisturbed.senders_done, 0);

    // Halfway between the senders' start and their last ACK.
    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot((undisturbed.start_time + cc.notify_latency_ns +
                        undisturbed.senders_done) /
                           2,
                       200 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, HostId{0}, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().streams_replayed, 2u);
    EXPECT_EQ(r.report.packets_received, undisturbed.packets_received);
}

TEST(Chaos, DisabledSwapsStayDisabledAfterAReset)
{
    // A switch reboot resets a kDisabled task for a replay. The reset
    // keeps the swap policy, as a receiver rebuilt from its log after
    // the reset does, so the replay never swaps either.
    ClusterConfig cc = base_config();
    cc.ask.swap_threshold_packets = 24;
    std::vector<StreamSpec> streams = two_streams(113, 1200);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    const TaskOptions opts{.swap_policy = TaskOptions::SwapPolicy::kDisabled};
    TaskReport undisturbed;
    {
        AskCluster dry(cc);
        TaskResult r = dry.run_task(1, HostId{0}, streams, opts);
        ASSERT_TRUE(r.ok()) << r.report.detail;
        undisturbed = r.report;
    }
    ASSERT_GT(undisturbed.senders_done, 0);

    // Halfway between the senders' start and their last ACK.
    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot((undisturbed.start_time + cc.notify_latency_ns +
                        undisturbed.senders_done) /
                           2,
                       100 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, HostId{0}, streams, opts);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().tasks_reset, 1u);
    EXPECT_EQ(r.report.swaps, 0u);
    EXPECT_EQ(cluster.daemon(HostId{0}).stats().swap_requests, 0u);
}

TEST(Chaos, ReceiverCrashWithSwapsAndLossStaysExact)
{
    // Crash the receiver while shadow-copy swaps are in play on a lossy
    // fabric: recovery must reconcile a swap the switch may have
    // advanced past the last committed epoch in the WAL.
    ClusterConfig cc = base_config();
    cc.ask.swap_threshold_packets = 24;
    cc.faults = net::FaultSpec::lossy(0.05, 0.02, 0.08);
    cc.seed = 109;
    std::vector<StreamSpec> streams = two_streams(109, 1000);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(mid, 200 * kMicrosecond, /*host=*/0);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().host_recoveries, 1u);
}

TEST(Chaos, ControllerCrashMidTaskStaysExact)
{
    ClusterConfig cc = base_config();
    cc.seed = 113;
    std::vector<StreamSpec> streams = two_streams(113, 1200);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.controller_crash(mid, 500 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.controller_crashes, 1u);
    EXPECT_EQ(cs.controller_recoveries, 1u);
    EXPECT_TRUE(cluster.wal_store().controller_wal().verify());
}

TEST(Chaos, ControllerCrashThenSwitchRebootStaysExact)
{
    // The reboot's reinstall runs against a down controller; the
    // controller's own recovery must restore the missing installs.
    ClusterConfig cc = base_config();
    cc.seed = 127;
    std::vector<StreamSpec> streams = two_streams(127, 1500);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    sim::SimTime finish = undisturbed_finish_time(cc, streams);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.controller_crash(finish / 3, 500 * kMicrosecond);
    plan.switch_reboot(finish / 3 + 100 * kMicrosecond,
                       200 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().controller_recoveries, 1u);
    EXPECT_EQ(cluster.chaos_stats().switch_reboots, 1u);
}

TEST(Chaos, CrashPlansLeaveNoUnhandledEvents)
{
    // Satellite: with the full cluster wiring armed, every chaos kind —
    // including the crash/restart events — must reach a handler.
    ClusterConfig cc = base_config();
    cc.seed = 131;
    std::vector<StreamSpec> streams = two_streams(131, 800);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(mid, 200 * kMicrosecond, 1);
    plan.controller_crash(mid + 400 * kMicrosecond, 300 * kMicrosecond);
    plan.mgmt_outage(mid / 2, 100 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(cluster.chaos_stats().unhandled_events, 0u);
}

TEST(Chaos, CorruptWalAbortsTaskWithHostCrashedStatus)
{
    // Crash the receiver, then damage its log before the restart: the
    // replay must reject the log (typed error, no UB) and fail the
    // task with kHostCrashed instead of rebuilding silently-wrong
    // state.
    ClusterConfig cc = base_config();
    cc.seed = 137;
    std::vector<StreamSpec> streams = two_streams(137, 1000);
    sim::SimTime mid = undisturbed_finish_time(cc, streams) / 2;

    AskCluster cluster(cc);
    TaskReport report;
    bool done = false;
    cluster.submit_task(1, 0, streams, {},
                        [&](AggregateMap, TaskReport rep) {
                            report = std::move(rep);
                            done = true;
                        });
    cluster.simulator().schedule_at(mid, [&] {
        cluster.crash_host(0);
        // Media corruption inside the first journaled record.
        cluster.wal_store().host_wal(0).flip_byte(10);
        cluster.restart_host(0);
    });
    cluster.run();

    ASSERT_TRUE(done);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.status, TaskStatus::kHostCrashed) << report.detail;
    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.wal_rejected, 1u);
    EXPECT_GE(cs.crash_aborted_tasks, 1u);
}

TEST(Chaos, CrashAfterDrainRecoversToEmptyState)
{
    // A crash landing after the task finished must recover cleanly from
    // a log whose every task reached its done record.
    ClusterConfig cc = base_config();
    cc.seed = 139;
    std::vector<StreamSpec> streams = two_streams(139, 400);
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    sim::SimTime finish = undisturbed_finish_time(cc, streams);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(finish * 2, 100 * kMicrosecond, 0);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().host_recoveries, 1u);

    // The drained log folds to nothing but its channels' checkpoints.
    WalDaemonState state = rebuild_daemon_state(
        cluster.wal_store().host_wal(0).replay(), cc.ask.window);
    WalDaemonState empty;
    empty.resume_seq = state.resume_seq;
    EXPECT_EQ(state, empty);
}

// ---------------------------------------------------------------------------
// Bounded logs and the shared stream: a sender keeps one copy of each
// submitted stream (archive, packet builder and replay share it), and
// each host's WAL retires a task's records once the task is done.
// ---------------------------------------------------------------------------

TEST(Chaos, LogsStayBoundedOverManyLossyTasks)
{
    // 200 sequential tasks over 1%-lossy cables. Once a task is done and
    // forgotten, only the channels' latest seq checkpoints stay live, so
    // the largest log after task i must not grow with i.
    ClusterConfig cc = base_config();
    cc.faults = net::FaultSpec::lossy(0.01);
    cc.seed = 151;
    AskCluster cluster(cc);

    WalRecord checkpoint;
    checkpoint.kind = WalRecordKind::kSeqCheckpoint;
    Wal one("one");
    one.append(checkpoint);
    std::size_t channels =
        std::size_t{cluster.num_hosts()} * cc.ask.channels_per_host;
    std::size_t bound = 2 * channels * one.size_bytes();

    std::size_t largest_early = 0;
    std::size_t largest_late = 0;
    for (TaskId task = 1; task <= 200; ++task) {
        std::vector<StreamSpec> streams = two_streams(1000 + task, 150);
        AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
        TaskResult r = cluster.run_task(task, 0, streams);
        ASSERT_TRUE(r.ok()) << "task " << task << ": " << r.report.detail;
        ASSERT_EQ(r.result, truth) << "task " << task;

        std::size_t largest = cluster.wal_store().controller_wal().size_bytes();
        for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h) {
            const Wal& log = cluster.wal_store().host_wal(h);
            largest = std::max(largest, log.size_bytes());
            ASSERT_LE(log.records(), channels) << "task " << task;
        }
        ASSERT_LE(largest, bound) << "task " << task;
        std::size_t& half = task <= 100 ? largest_early : largest_late;
        half = std::max(half, largest);
    }
    EXPECT_LE(largest_late, largest_early);
    EXPECT_GT(cluster.total_host_stats().retransmissions, 0u);
    EXPECT_TRUE(cluster.wal_store().host_wal(0).verify());
}

TEST(Chaos, LogsStayBoundedOverManyConcurrentLossyTasks)
{
    // 48 tasks in waves of 16 concurrent submit_task calls over four
    // hosts on 1%-lossy cables; every host receives some tasks and
    // sends for others. Once a wave is done, every task of it is
    // forgotten: no host keeps its send archive, and each log holds at
    // most the channels' latest seq checkpoints.
    ClusterConfig cc = base_config();
    cc.topology = TopologyBuilder().add_rack(4).build();
    cc.ask.max_hosts = 4;
    cc.faults = net::FaultSpec::lossy(0.01);
    cc.seed = 167;
    AskCluster cluster(cc);

    WalRecord checkpoint;
    checkpoint.kind = WalRecordKind::kSeqCheckpoint;
    Wal one("one");
    one.append(checkpoint);
    std::size_t channels =
        std::size_t{cluster.num_hosts()} * cc.ask.channels_per_host;
    std::size_t bound = 2 * channels * one.size_bytes();

    constexpr TaskId kWave = 16;
    for (TaskId first = 1; first <= 48; first += kWave) {
        TaskId done = 0;
        for (TaskId task = first; task < first + kWave; ++task) {
            std::uint32_t rx = task % 4;
            Rng rng = seeded_rng("chaos_test", 2000 + task);
            std::vector<StreamSpec> streams{
                {(rx + 1) % 4, mixed_stream(rng, 150, 40)},
                {(rx + 2) % 4, mixed_stream(rng, 150, 40)}};
            cluster.submit_task(
                task, HostId{rx}, streams,
                {.region_len = cc.ask.copy_size() / kWave},
                [&done, task, truth = truth_of(streams, ReduceOp::kAdd)](
                    AggregateMap m, TaskReport rep) {
                    EXPECT_TRUE(rep.ok()) << "task " << task << ": "
                                          << rep.detail;
                    EXPECT_EQ(m, truth) << "task " << task;
                    ++done;
                });
        }
        cluster.run();
        ASSERT_EQ(done, kWave) << "wave from task " << first;

        for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h) {
            const Wal& log = cluster.wal_store().host_wal(h);
            ASSERT_LE(log.records(), channels) << "host " << h;
            ASSERT_LE(log.size_bytes(), bound) << "host " << h;
            for (TaskId task = first; task < first + kWave; ++task)
                EXPECT_FALSE(cluster.daemon(HostId{h}).has_send_archive(task))
                    << "host " << h << ", task " << task;
        }
    }
    EXPECT_GT(cluster.total_host_stats().retransmissions, 0u);
}

TEST(Chaos, SwitchRebootsReplayTheSharedStreamExactly)
{
    // Two reboots in one task: each aborts the senders' jobs and
    // re-sends the archived stream from the copy the first send's
    // packet builder read. A replay that saw a partly drained or
    // re-lifted stream would miscount under kCount.
    ClusterConfig cc = base_config();
    cc.ask.op = ReduceOp::kCount;
    cc.seed = 157;
    std::vector<StreamSpec> streams = two_streams(157, 1500);
    AggregateMap truth = truth_of(streams, ReduceOp::kCount);
    sim::SimTime finish = undisturbed_finish_time(cc, streams);

    // The second reboot lands halfway through the first replay (which
    // starts once the first recovery's drain window closes).
    sim::SimTime first = finish / 3;
    sim::SimTime replay_start =
        first + 100 * kMicrosecond + kRecoveryDrain;
    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot(first, 100 * kMicrosecond);
    plan.switch_reboot(replay_start + finish / 2, 100 * kMicrosecond);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.switch_reboots, 2u);
    EXPECT_EQ(cs.streams_replayed, 4u);
    // Every submit and replay handed the channel the whole stream.
    for (const StreamSpec& s : streams)
        EXPECT_EQ(cluster.daemon(s.host).stats().tuples_sent,
                  3 * s.stream.size());
    // The task is done: the archives are gone and so are the submits.
    for (const StreamSpec& s : streams) {
        EXPECT_FALSE(cluster.daemon(s.host).has_send_archive(1));
        EXPECT_TRUE(rebuild_daemon_state(
                        cluster.wal_store().host_wal(s.host.value()).replay(),
                        cc.ask.window)
                        .sends.empty());
    }
}

TEST(Chaos, HostCrashAfterCompactionsRecoversExactly)
{
    // Five finished tasks compact every host log several times; then
    // the receiver crashes in the middle of a sixth and must rebuild
    // that task from the compacted log.
    ClusterConfig cc = base_config();
    cc.faults = net::FaultSpec::lossy(0.02);
    cc.seed = 163;
    auto streams_of = [](TaskId task) { return two_streams(163 + task, 600); };

    sim::SimTime start = 0;
    sim::SimTime finish = 0;
    {
        AskCluster dry(cc);
        for (TaskId task = 1; task <= 5; ++task)
            ASSERT_TRUE(dry.run_task(task, 0, streams_of(task)).ok());
        start = dry.simulator().now();
        TaskResult r = dry.run_task(6, 0, streams_of(6));
        ASSERT_TRUE(r.ok());
        finish = r.report.finish_time;
    }

    AskCluster cluster(cc);
    for (TaskId task = 1; task <= 5; ++task) {
        std::vector<StreamSpec> streams = streams_of(task);
        TaskResult r = cluster.run_task(task, 0, streams);
        ASSERT_TRUE(r.ok()) << r.report.detail;
        EXPECT_EQ(r.result, truth_of(streams, ReduceOp::kAdd));
    }
    const Wal& log = cluster.wal_store().host_wal(0);
    EXPECT_GE(log.compactions(), 5u);

    sim::SimTime mid = start + (finish - start) / 2;
    cluster.simulator().schedule_at(mid, [&] { cluster.crash_host(0); });
    cluster.simulator().schedule_at(mid + 200 * kMicrosecond,
                                    [&] { cluster.restart_host(0); });
    std::vector<StreamSpec> streams = streams_of(6);
    TaskResult r = cluster.run_task(6, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth_of(streams, ReduceOp::kAdd));
    EXPECT_EQ(cluster.chaos_stats().host_crashes, 1u);
    EXPECT_EQ(cluster.chaos_stats().host_recoveries, 1u);
    EXPECT_TRUE(log.verify());
}

}  // namespace
}  // namespace ask::core
