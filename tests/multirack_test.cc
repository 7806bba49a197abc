/**
 * Multi-rack fabric tests: each rack's ToR runs an AskSwitchProgram
 * provisioned for its rack's channel shard, and an aggregation-tier
 * switch merges the ToR partial aggregates before delivery (tree
 * aggregation). A single rack is wired the same way, as the one-switch
 * case. Exactly-once correctness must hold for intra-rack,
 * cross-rack, and mixed tasks — including through a mid-task ToR
 * reboot — and per-ToR reliability state must stay bounded by the rack
 * size, not the cluster size.
 *
 * Tree roles under test (see AskSwitchProgram::set_tree_leaf): a leaf
 * ToR never consumes a cross-rack packet, even when it absorbed every
 * tuple — it forwards an empty-bitmap residual so the tier observes
 * every sequence number (the seen window is self-cleaning and assumes a
 * gap-free stream). Only the tier — or a ToR whose receiver is directly
 * attached — impersonates the receiver and ACKs.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ask/cluster.h"
#include "ask/topology.h"
#include "common/hash.h"
#include "common/random.h"
#include "sim/chaos.h"

namespace ask::core {
namespace {

using units::kMicrosecond;

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

AggregateMap
truth_of(const std::vector<StreamSpec>& streams, ReduceOp op)
{
    AggregateMap t;
    for (const auto& s : streams)
        aggregate_into(t, s.stream, op);
    return t;
}

/** 2 racks x 2 hosts: hosts 0,1 behind ToR 0; hosts 2,3 behind ToR 1;
 *  the tier switch is SwitchId{2}. */
ClusterConfig
fabric_config(std::uint64_t seed)
{
    ClusterConfig cc;
    cc.topology = TopologyBuilder().racks(2, 2).build();
    cc.ask.max_hosts = 4;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 128;
    cc.ask.medium_groups = 2;
    cc.ask.window = 16;
    cc.ask.channels_per_host = 2;
    cc.ask.swap_threshold_packets = 0;
    cc.seed = seed;
    return cc;
}

KvStream
rack_stream(std::uint64_t seed, std::size_t n, std::size_t distinct = 48)
{
    Rng rng = seeded_rng("multirack_test", seed);
    return mixed_stream(rng, n, distinct);
}

constexpr SwitchId kTor0{0};
constexpr SwitchId kTor1{1};
constexpr SwitchId kTier{2};

TEST(MultiRack, TopologyAccessorsDescribeTheFabric)
{
    AskCluster cluster(fabric_config(1));
    EXPECT_EQ(cluster.num_racks(), 2u);
    EXPECT_EQ(cluster.num_switches(), 3u);
    EXPECT_EQ(cluster.num_hosts(), 4u);
    EXPECT_EQ(cluster.rack_of(HostId{1}), RackId{0});
    EXPECT_EQ(cluster.rack_of(HostId{2}), RackId{1});
    EXPECT_EQ(cluster.topology().tier_switch(), kTier);

    // ToRs provision their rack's shard; the tier provisions everything.
    std::uint32_t cph = cluster.config().ask.channels_per_host;
    EXPECT_EQ(cluster.program(kTor0).provisioned_lo(), 0u);
    EXPECT_EQ(cluster.program(kTor0).provisioned_hi(), 2 * cph);
    EXPECT_EQ(cluster.program(kTor1).provisioned_lo(), 2 * cph);
    EXPECT_EQ(cluster.program(kTor1).provisioned_hi(), 4 * cph);
    EXPECT_EQ(cluster.program(kTier).provisioned_lo(), 0u);
    EXPECT_EQ(cluster.program(kTier).provisioned_hi(), 4 * cph);
    EXPECT_TRUE(cluster.program(kTor0).tree_leaf());
    EXPECT_TRUE(cluster.program(kTor1).tree_leaf());
    EXPECT_FALSE(cluster.program(kTier).tree_leaf());
}

TEST(MultiRack, IntraRackTaskAggregatesAndAcksOnItsToR)
{
    AskCluster cluster(fabric_config(2));
    std::vector<StreamSpec> streams = {{HostId{1}, rack_stream(2, 600)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);

    TaskResult r = cluster.run_task(1, HostId{0}, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    // The receiver is directly attached, so the leaf may consume: the
    // rack-0 ToR aggregated and ACKed locally; the rest of the fabric
    // never saw a DATA packet.
    EXPECT_GT(cluster.switch_stats(kTor0).tuples_aggregated, 0u);
    EXPECT_GT(cluster.switch_stats(kTor0).packets_acked, 0u);
    EXPECT_EQ(cluster.switch_stats(kTor1).data_packets, 0u);
    EXPECT_EQ(cluster.switch_stats(kTier).data_packets, 0u);
}

TEST(MultiRack, CrossRackResidualsDieAtTheTier)
{
    AskCluster cluster(fabric_config(3));
    // Few distinct keys and a roomy region: the sender's ToR absorbs
    // whole packets, which must still reach the tier as residuals.
    std::vector<StreamSpec> streams = {{HostId{2}, rack_stream(3, 600, 24)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);

    TaskResult r = cluster.run_task(2, HostId{0}, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);

    // The sender's ToR aggregates but never impersonates the receiver.
    EXPECT_GT(cluster.switch_stats(kTor1).tuples_aggregated, 0u);
    EXPECT_EQ(cluster.switch_stats(kTor1).packets_acked, 0u);
    EXPECT_GT(cluster.switch_stats(kTor1).residual_forwarded, 0u);
    // The tier observed every packet and ACKed the fully absorbed ones.
    EXPECT_GT(cluster.switch_stats(kTier).packets_acked, 0u);
    // The receiver's ToR does not provision the sender's channels: it
    // bypass-forwards without recording any reliability state.
    EXPECT_EQ(cluster.switch_stats(kTor0).data_packets, 0u);
    EXPECT_EQ(cluster.switch_stats(kTor0).duplicates, 0u);
}

TEST(MultiRack, FabricKeepsOneControllerJournal)
{
    // Which switch owns which channel shard is read through program(s)
    // (TopologyAccessorsDescribeTheFabric).
    AskCluster cluster(fabric_config(4));

    // A region change is one journal record, however many switches
    // install it.
    std::uint64_t appends = cluster.chaos_stats().wal_appends;
    ASSERT_TRUE(cluster.controller().allocate(9, 4).has_value());
    EXPECT_EQ(cluster.chaos_stats().wal_appends, appends + 1);
    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s)
        EXPECT_NE(cluster.program(SwitchId{s}).find_task(9), nullptr) << s;
    cluster.controller().release(9);
    EXPECT_EQ(cluster.chaos_stats().wal_appends, appends + 2);

    std::vector<StreamSpec> streams = {{HostId{1}, rack_stream(4, 300)},
                                       {HostId{3}, rack_stream(5, 300)}};
    TaskResult r = cluster.run_task(3, HostId{0}, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth_of(streams, ReduceOp::kAdd));

    // The controller's one log beside one log per host, and the
    // released region leaves no live record in it.
    obs::Json logs = cluster.wal_store().describe();
    EXPECT_EQ(logs.size(), 1 + cluster.num_hosts());
    EXPECT_NE(logs.find("controller"), nullptr);
    EXPECT_EQ(cluster.wal_store().controller_wal().records(), 0u);
}

TEST(MultiRack, CollidingKeysMergeAtTheTier)
{
    AskCluster cluster(fabric_config(5));
    // A tiny region forces collisions at the ToRs; the collided tuples
    // travel upward and the tier performs a genuine second-level merge.
    std::vector<StreamSpec> streams = {{HostId{1}, rack_stream(6, 500)},
                                       {HostId{2}, rack_stream(7, 500)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);

    TaskOptions opts;
    opts.region_len = 2;
    TaskResult r = cluster.run_task(4, HostId{0}, streams, opts);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_GT(cluster.switch_stats(kTor1).tuples_collided, 0u);
    EXPECT_GT(cluster.switch_stats(kTier).tuples_aggregated, 0u);
}

TEST(MultiRack, MinMaxAcrossRacksMergeWithBoundOp)
{
    // Regression: the ToR residual path and the tier's software merge
    // used to assume '+'. A min/max task spanning both racks — with a
    // tiny region forcing collisions and genuine second-level merges —
    // must equal the sequential fold under the bound operator (a sum
    // would overshoot min and scramble max whenever the same key is
    // merged at two levels).
    for (ReduceOp op : {ReduceOp::kMin, ReduceOp::kMax}) {
        AskCluster cluster(fabric_config(20));
        std::vector<StreamSpec> streams = {{HostId{1}, rack_stream(30, 500)},
                                           {HostId{2}, rack_stream(31, 500)}};
        AggregateMap truth = truth_of(streams, op);

        TaskOptions opts;
        opts.op = op;
        opts.region_len = 2;
        TaskResult r = cluster.run_task(5, HostId{0}, streams, opts);
        ASSERT_TRUE(r.ok()) << r.report.detail;
        EXPECT_EQ(r.result, truth) << reduce_op_name(op);
        EXPECT_GT(cluster.switch_stats(kTier).tuples_aggregated, 0u)
            << reduce_op_name(op);
    }
}

TEST(MultiRack, CountTaskSurvivesToRRebootExactlyOnce)
{
    // count is not idempotent: any retransmission the reboot provokes
    // that slipped past the seen window would inflate the tally. The
    // delivered counts must match the sequential fold exactly.
    ClusterConfig cc = fabric_config(21);
    std::vector<StreamSpec> streams = {{HostId{2}, rack_stream(32, 900)},
                                       {HostId{3}, rack_stream(33, 900)}};
    TaskOptions opts;
    opts.op = ReduceOp::kCount;
    AggregateMap truth = truth_of(streams, ReduceOp::kCount);

    sim::SimTime mid;
    {
        AskCluster dry(cc);
        TaskResult r = dry.run_task(1, HostId{0}, streams, opts);
        ASSERT_TRUE(r.ok()) << r.report.detail;
        mid = r.report.finish_time / 2;
    }

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    sim::ChaosEvent reboot;
    reboot.kind = sim::ChaosKind::kSwitchReboot;
    reboot.at = mid;
    reboot.duration = 200 * kMicrosecond;
    reboot.subject = 1;  // the senders' ToR
    plan.add(reboot);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, HostId{0}, streams, opts);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().switch_reboots, 1u);
}

TEST(MultiRack, ConcurrentTasksInBothRacksStayExact)
{
    AskCluster cluster(fabric_config(6));
    std::vector<StreamSpec> sa = {{HostId{1}, rack_stream(8, 400)},
                                  {HostId{2}, rack_stream(9, 400)}};
    std::vector<StreamSpec> sb = {{HostId{3}, rack_stream(10, 400)}};
    AggregateMap ta = truth_of(sa, ReduceOp::kAdd);
    AggregateMap tb = truth_of(sb, ReduceOp::kAdd);

    // Explicit regions: a defaulted task would claim the whole pool
    // (copy_size = 64 here) and starve the one allocated after it.
    TaskOptions half;
    half.region_len = 24;

    AggregateMap ra, rb;
    int done = 0;
    cluster.submit_task(10, HostId{0}, sa, half,
                        [&](AggregateMap m, TaskReport) {
                            ra = std::move(m);
                            ++done;
                        });
    cluster.submit_task(11, HostId{2}, sb, half,
                        [&](AggregateMap m, TaskReport) {
                            rb = std::move(m);
                            ++done;
                        });
    cluster.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(ra, ta);
    EXPECT_EQ(rb, tb);
}

TEST(MultiRack, ToRRebootMidTaskStaysExact)
{
    ClusterConfig cc = fabric_config(7);
    std::vector<StreamSpec> streams = {{HostId{2}, rack_stream(11, 1200)},
                                       {HostId{3}, rack_stream(12, 1200)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);

    // Dry-run on an identical fault-free fabric to aim the reboot at
    // the middle of the task.
    sim::SimTime mid;
    {
        AskCluster dry(cc);
        TaskResult r = dry.run_task(1, HostId{0}, streams);
        ASSERT_TRUE(r.ok()) << r.report.detail;
        mid = r.report.finish_time / 2;
    }

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    sim::ChaosEvent reboot;
    reboot.kind = sim::ChaosKind::kSwitchReboot;
    reboot.at = mid;
    reboot.duration = 200 * kMicrosecond;
    reboot.subject = 1;  // the senders' ToR (subject % num_switches)
    plan.add(reboot);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, HostId{0}, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().switch_reboots, 1u);
}

TEST(MultiRack, TierRebootMidTaskStaysExact)
{
    ClusterConfig cc = fabric_config(8);
    std::vector<StreamSpec> streams = {{HostId{1}, rack_stream(13, 1000)},
                                       {HostId{2}, rack_stream(14, 1000)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);

    sim::SimTime mid;
    {
        AskCluster dry(cc);
        TaskResult r = dry.run_task(1, HostId{3}, streams);
        ASSERT_TRUE(r.ok()) << r.report.detail;
        mid = r.report.finish_time / 2;
    }

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    sim::ChaosEvent reboot;
    reboot.kind = sim::ChaosKind::kSwitchReboot;
    reboot.at = mid;
    reboot.duration = 200 * kMicrosecond;
    reboot.subject = 2;  // the aggregation tier
    plan.add(reboot);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, HostId{3}, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().switch_reboots, 1u);
}

TEST(MultiRack, SenderCrashMidTaskStaysExact)
{
    // A cross-rack sender crashes mid-task. Its in-flight accounting
    // died with it, so its restart resets and replays every active
    // task: the partials on its ToR and on the tier must both be
    // cleared, or the replay would count them twice. A small region
    // makes the ToR collide, so the tier holds partials too.
    ClusterConfig cc = fabric_config(9);
    std::vector<StreamSpec> streams = {{HostId{2}, rack_stream(15, 1200)},
                                       {HostId{3}, rack_stream(16, 1200)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    TaskOptions opts;
    opts.region_len = 4;

    sim::SimTime mid;
    {
        AskCluster dry(cc);
        TaskResult r = dry.run_task(1, HostId{0}, streams, opts);
        ASSERT_TRUE(r.ok()) << r.report.detail;
        mid = r.report.finish_time / 2;
    }

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.host_crash(mid, 200 * kMicrosecond, /*host=*/2);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, HostId{0}, streams, opts);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.host_crashes, 1u);
    EXPECT_EQ(cs.host_recoveries, 1u);
    EXPECT_GT(cs.streams_replayed, 0u);
    EXPECT_GT(cluster.switch_stats(kTor1).tuples_aggregated, 0u);
    EXPECT_GT(cluster.switch_stats(kTier).tuples_aggregated, 0u);
}

TEST(MultiRack, FinalizeDuringAnotherRacksRebootWaitsForTheRecovery)
{
    // Receiver and sender share rack 0, so the task's FINs reach the
    // receiver through its own ToR while rack 1's ToR reboots, and the
    // receiver finalizes with the rebooting switch holding no task
    // table. Pricing the fetch must skip that switch; the fetch itself
    // waits out the dark management plane, and the recovery at the
    // reboot's end voids it and replays the task.
    ClusterConfig cc = fabric_config(10);
    std::vector<StreamSpec> streams = {{HostId{1}, rack_stream(17, 600)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    TaskOptions opts;
    opts.region_len = 64;

    TaskReport undisturbed;
    {
        AskCluster dry(cc);
        TaskResult r = dry.run_task(1, HostId{0}, streams, opts);
        ASSERT_TRUE(r.ok()) << r.report.detail;
        undisturbed = r.report;
    }
    const sim::SimTime reboot_at = undisturbed.start_time + kMicrosecond;
    const sim::SimTime reboot_len = 1000 * kMicrosecond;
    // The reboot covers every FIN of the undisturbed run.
    ASSERT_LT(undisturbed.finish_time, reboot_at + reboot_len);

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    sim::ChaosEvent reboot;
    reboot.kind = sim::ChaosKind::kSwitchReboot;
    reboot.at = reboot_at;
    reboot.duration = reboot_len;
    reboot.subject = 1;  // rack 1's ToR, which no packet of the task uses
    plan.add(reboot);
    cluster.arm_chaos(plan);

    TaskResult r = cluster.run_task(1, HostId{0}, streams, opts);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_GT(r.report.finish_time, reboot_at + reboot_len);
    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.switch_reboots, 1u);
    EXPECT_EQ(cs.streams_replayed, 1u);
}

TEST(MultiRack, OneRackIsAOneSwitchFabric)
{
    // One rack is the one-switch case of the fabric wiring: its ToR
    // provisions exactly its own hosts' channels, although the default
    // max_hosts leaves room for more, and with no tier above it the ToR
    // is the tree root.
    ClusterConfig cc = fabric_config(21);
    cc.topology = TopologyBuilder().add_rack(3).build();
    cc.ask.max_hosts = AskConfig{}.max_hosts;
    cc.faults = net::FaultSpec::lossy(0.02, 0.0, 0.0);
    std::vector<StreamSpec> streams = {{HostId{1}, rack_stream(21, 1000)},
                                       {HostId{2}, rack_stream(22, 1000)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);

    sim::SimTime mid;
    {
        AskCluster dry(cc);
        TaskResult r = dry.run_task(1, HostId{0}, streams);
        ASSERT_TRUE(r.ok()) << r.report.detail;
        mid = r.report.finish_time / 2;
    }

    AskCluster cluster(cc);
    std::uint32_t cph = cc.ask.channels_per_host;
    ASSERT_LT(3u, cc.ask.max_hosts);
    EXPECT_EQ(cluster.num_switches(), 1u);
    EXPECT_EQ(cluster.program(kTor0).provisioned_lo(), 0u);
    EXPECT_EQ(cluster.program(kTor0).provisioned_hi(), 3 * cph);
    EXPECT_FALSE(cluster.program(kTor0).tree_leaf());
    EXPECT_EQ(cluster.controller().num_switches(), 1u);

    sim::ChaosPlan plan;
    sim::ChaosEvent reboot;
    reboot.kind = sim::ChaosKind::kSwitchReboot;
    reboot.at = mid;
    reboot.duration = 200 * kMicrosecond;
    reboot.subject = 0;
    plan.add(reboot);
    cluster.arm_chaos(plan);

    TaskResult r;
    bool done = false;
    cluster.submit_task(1, HostId{0}, streams, {},
                        [&](AggregateMap result, TaskReport report) {
                            r.result = std::move(result);
                            r.report = std::move(report);
                            done = true;
                        });
    // Mid-task, the region's allocation is the one live record of the
    // controller's journal.
    cluster.simulator().run_until(mid - 1);
    EXPECT_EQ(cluster.wal_store().controller_wal().records(), 1u);
    obs::Json logs = cluster.wal_store().describe();
    EXPECT_EQ(logs.size(), 1 + cluster.num_hosts());

    cluster.run();
    ASSERT_TRUE(done);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(cluster.chaos_stats().switch_reboots, 1u);
}

TEST(MultiRack, PerSwitchStateBoundedByRackSize)
{
    // The same 4 hosts as one rack vs two: each ToR of the fabric holds
    // exactly half the channel-indexed reliability state of the
    // monolithic switch (the tier, which provisions everything, is the
    // part that does not shrink — the ToRs are what rack growth adds).
    ClusterConfig flat = fabric_config(9);
    flat.topology = TopologyBuilder().add_rack(4).build();
    ClusterConfig split = fabric_config(9);

    AskCluster one(flat);
    AskCluster two(split);
    std::uint64_t whole = one.program(SwitchId{0}).reliability_state_bits();
    std::uint64_t tor = two.program(kTor0).reliability_state_bits();
    EXPECT_EQ(tor * 2, whole);
    EXPECT_EQ(two.program(kTor1).reliability_state_bits(), tor);
    EXPECT_EQ(two.program(kTier).reliability_state_bits(), whole);
}

}  // namespace
}  // namespace ask::core
