/**
 * Robustness and configuration-sweep tests: the exactly-once invariant
 * across window sizes, AA counts, channel counts, mid-task switch
 * reboots, aggregation operators, and protocol edge cases (FIN retries,
 * roaming duplicates, value wraparound, FIFO job ordering).
 */
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "ask/cluster.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "sim/chaos.h"
#include "workload/generators.h"
#include "workload/text_corpus.h"

namespace ask::core {
namespace {

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

// ---------------------------------------------------------------------------
// Sweep: window size x a mid-task switch reboot x loss, exactness must
// hold. The reboot wipes the window registers, and fence_channel's parity
// pre-set (seen_rule::fence) must keep the rest of the task exact.
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<std::uint32_t /*window*/, bool /*reboot*/,
                              double /*loss*/>;

class ReliabilitySweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(ReliabilitySweep, ExactUnderFaults)
{
    auto [window, reboot, loss] = GetParam();
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(3).build();
    cc.ask.max_hosts = 3;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 128;
    cc.ask.medium_groups = 2;
    cc.ask.window = window;
    cc.ask.swap_threshold_packets = 32;
    cc.faults = net::FaultSpec::lossy(loss, loss / 2, 0.1);
    cc.seed = window * 7 + (reboot ? 1 : 0) + 1;

    Rng rng = seeded_rng("robustness_test", cc.seed);
    std::vector<StreamSpec> streams{{1, mixed_stream(rng, 400, 60)},
                                    {2, mixed_stream(rng, 400, 60)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);

    sim::SimTime mid = 0;  // the reboot hits the undisturbed run's middle
    if (reboot) {
        AskCluster dry(cc);
        TaskResult d = dry.run_task(1, 0, streams);
        ASSERT_TRUE(d.ok()) << d.report.detail;
        mid = d.report.finish_time / 2;
    }
    AskCluster cluster(cc);
    if (reboot) {
        sim::ChaosPlan plan;
        plan.switch_reboot(mid, 100 * units::kMicrosecond);
        cluster.arm_chaos(plan);
    }
    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok()) << r.report.detail;
    EXPECT_EQ(r.result, truth)
        << "W=" << window << " reboot=" << reboot << " loss=" << loss;
    EXPECT_EQ(cluster.chaos_stats().switch_reboots, reboot ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    WindowsSeenLoss, ReliabilitySweep,
    ::testing::Combine(::testing::Values(4u, 16u, 64u, 256u),
                       ::testing::Bool(),
                       ::testing::Values(0.0, 0.05, 0.25)));

// ---------------------------------------------------------------------------
// Sweep: slot-layout geometry (AA count, medium groups, channels).
// ---------------------------------------------------------------------------

using LayoutParam =
    std::tuple<std::uint32_t /*num_aas*/, std::uint32_t /*medium groups*/,
               std::uint32_t /*channels*/>;

class LayoutSweep : public ::testing::TestWithParam<LayoutParam>
{
};

TEST_P(LayoutSweep, ExactAcrossGeometries)
{
    auto [aas, groups, channels] = GetParam();
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.num_aas = aas;
    cc.ask.medium_groups = groups;
    cc.ask.aggregators_per_aa = 64;
    cc.ask.channels_per_host = channels;
    cc.ask.window = 16;
    cc.ask.swap_threshold_packets = 0;
    if (aas > 32)
        cc.switch_stages = 34;  // 64 AAs need two chained pipelines
    AskCluster cluster(cc);

    Rng rng = seeded_rng("robustness_test", aas * 31 + groups * 7 + channels);
    std::vector<StreamSpec> streams{{1, mixed_stream(rng, 500, 80)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_EQ(r.result, truth) << "aas=" << aas << " groups=" << groups;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LayoutSweep,
    ::testing::Values(LayoutParam{4, 0, 1}, LayoutParam{8, 0, 2},
                      LayoutParam{8, 2, 1}, LayoutParam{16, 4, 2},
                      LayoutParam{32, 8, 4}, LayoutParam{64, 8, 2}));

// ---------------------------------------------------------------------------
// Aggregation operators.
// ---------------------------------------------------------------------------

TEST(AggOps, MaxEndToEnd)
{
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 128;
    cc.ask.medium_groups = 2;
    cc.ask.op = ReduceOp::kMax;
    cc.ask.swap_threshold_packets = 0;
    AskCluster cluster(cc);

    Rng rng = seeded_rng("robustness_test", 5);
    KvStream s;
    for (int i = 0; i < 800; ++i) {
        s.push_back({"k" + std::to_string(rng.next_below(30)),
                     static_cast<Value>(rng.next_below(100000))});
    }
    std::vector<StreamSpec> streams{{1, std::move(s)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kMax);
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_EQ(r.result, truth);
}

TEST(AggOps, MinEndToEnd)
{
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 128;
    cc.ask.medium_groups = 0;
    cc.ask.op = ReduceOp::kMin;
    cc.ask.swap_threshold_packets = 0;
    AskCluster cluster(cc);

    Rng rng = seeded_rng("robustness_test", 6);
    KvStream s;
    for (int i = 0; i < 800; ++i) {
        s.push_back({u64_key(rng.next_below(40)),
                     static_cast<Value>(1 + rng.next_below(100000))});
    }
    std::vector<StreamSpec> streams{{1, std::move(s)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kMin);
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_EQ(r.result, truth);
}

TEST(AggOps, SwitchAddWrapsAt32Bits)
{
    // The switch ALU adds modulo 2^32 (paper: 32-bit vParts). Two values
    // that overflow must wrap on the switch exactly as apply_op says.
    EXPECT_EQ(apply_op(ReduceOp::kAdd, 0xffffffffu, 2u), 1u);

    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.num_aas = 4;
    cc.ask.aggregators_per_aa = 16;
    cc.ask.medium_groups = 0;
    cc.ask.swap_threshold_packets = 0;
    AskCluster cluster(cc);
    KvStream s{{"w", 0xffffffffu}, {"w", 2u}};
    TaskResult r = cluster.run_task(1, 0, {{1, s}});
    // Both tuples hit the same switch aggregator; the fetched value is
    // the wrapped 32-bit sum.
    EXPECT_EQ(r.result.at("w"), 1u);
}

// ---------------------------------------------------------------------------
// Protocol edge cases.
// ---------------------------------------------------------------------------

TEST(Protocol, FinSurvivesHeavyLoss)
{
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 128;
    cc.ask.medium_groups = 0;
    cc.faults = net::FaultSpec::lossy(0.4, 0.1, 0.2);  // brutal
    cc.seed = 99;
    AskCluster cluster(cc);

    Rng rng = seeded_rng("robustness_test", 99);
    std::vector<StreamSpec> streams{{1, mixed_stream(rng, 100, 20)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.result, truth);
    EXPECT_GT(cluster.total_host_stats().retransmissions, 0u);
}

TEST(Protocol, ChannelServesTasksFifo)
{
    // Two tasks that hash to the same sender channel complete in
    // submission order (the channel serves send jobs FIFO, §3.1).
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 256;
    cc.ask.medium_groups = 0;
    cc.ask.channels_per_host = 1;  // force sharing
    AskCluster cluster(cc);

    Rng rng = seeded_rng("robustness_test", 3);
    std::vector<sim::SimTime> finish(2, 0);
    for (TaskId t = 0; t < 2; ++t) {
        std::vector<StreamSpec> streams{{1, mixed_stream(rng, 300, 30)}};
        cluster.submit_task(t + 1, 0, std::move(streams), {.region_len = 32},
                            [&finish, t, &cluster](AggregateMap,
                                                   TaskReport rep) {
                                finish[t] = rep.finish_time;
                                (void)cluster;
                            });
    }
    cluster.run();
    ASSERT_GT(finish[0], 0);
    ASSERT_GT(finish[1], 0);
    EXPECT_LT(finish[0], finish[1]);
}

TEST(Protocol, ManySequentialTasksDoNotLeakSwitchMemory)
{
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 64;
    cc.ask.medium_groups = 0;
    cc.ask.max_tasks = 4;
    AskCluster cluster(cc);

    std::uint32_t free_before = cluster.controller().free_aggregators();
    Rng rng = seeded_rng("robustness_test", 8);
    for (TaskId t = 1; t <= 12; ++t) {
        std::vector<StreamSpec> streams{{1, mixed_stream(rng, 100, 10)}};
        AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
        TaskResult r = cluster.run_task(t, 0, streams);
        EXPECT_EQ(r.result, truth) << "task " << t;
    }
    // Every region was released; the whole pool is free again.
    EXPECT_EQ(cluster.controller().free_aggregators(), free_before);
}

TEST(Protocol, CorpusWorkloadWithFaultsStaysExact)
{
    // The full stack — variable-length corpus keys, medium-key groups,
    // long-key bypass, shadow swaps, faulty network — in one pot.
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(3).build();
    cc.ask.max_hosts = 3;
    cc.ask.aggregators_per_aa = 512;
    cc.ask.swap_threshold_packets = 64;
    cc.faults = net::FaultSpec::lossy(0.08, 0.04, 0.15);
    cc.seed = 17;
    AskCluster cluster(cc);

    workload::CorpusProfile p = workload::newsgroups_profile();
    p.vocabulary = 4000;
    workload::TextCorpus corpus(p, 17);
    std::vector<StreamSpec> streams{{1, corpus.generate(5000)},
                                    {2, corpus.generate(5000)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_EQ(r.result, truth);
    EXPECT_GT(cluster.switch_stats(SwitchId{0}).long_packets, 0u);
    EXPECT_GT(cluster.switch_stats(SwitchId{0}).tuples_aggregated, 0u);
}

TEST(Protocol, SingleHostSelfAggregation)
{
    // Degenerate deployment: the receiver aggregates its own stream
    // through the switch (a co-located mapper with no remote senders).
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(1).build();
    cc.ask.max_hosts = 1;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 64;
    cc.ask.medium_groups = 0;
    AskCluster cluster(cc);

    Rng rng = seeded_rng("robustness_test", 4);
    std::vector<StreamSpec> streams{{0, mixed_stream(rng, 200, 20)}};
    AggregateMap truth = truth_of(streams, ReduceOp::kAdd);
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_EQ(r.result, truth);
}

TEST(Protocol, LargeValuesSurviveWire)
{
    // Values use the full 32-bit vPart range on the wire.
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.num_aas = 4;
    cc.ask.aggregators_per_aa = 64;
    cc.ask.medium_groups = 0;
    AskCluster cluster(cc);
    KvStream s{{"a", 0xfffffffeu}, {"b", 0x80000000u}, {"c", 1u}};
    TaskResult r = cluster.run_task(1, 0, {{1, s}});
    EXPECT_EQ(r.result.at("a"), 0xfffffffeu);
    EXPECT_EQ(r.result.at("b"), 0x80000000u);
    EXPECT_EQ(r.result.at("c"), 1u);
}

}  // namespace
}  // namespace ask::core
