/**
 * End-to-end integration tests: full AskCluster deployments running
 * aggregation tasks over reliable and faulty networks. The central
 * invariant is *exactly-once aggregation*: for any loss/duplication/
 * reordering pattern, the final result equals the ground-truth host
 * aggregation of all sender streams (paper §3.3).
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ask/cluster.h"
#include "common/random.h"
#include "common/string_util.h"

namespace ask::core {
namespace {

ClusterConfig
small_cluster(std::uint32_t hosts)
{
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(hosts).build();
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 256;
    cc.ask.medium_groups = 2;
    cc.ask.medium_segments = 2;
    cc.ask.window = 16;
    cc.ask.channels_per_host = 2;
    cc.ask.max_hosts = hosts;
    cc.ask.max_tasks = 8;
    cc.ask.swap_threshold_packets = 0;
    return cc;
}

KvStream
random_stream(Rng& rng, std::size_t n, std::size_t distinct,
              std::size_t max_len = 6)
{
    KvStream s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t id = rng.next_below(distinct);
        std::string key = "k" + std::to_string(id);
        if (key.size() > max_len)
            key.resize(max_len);
        s.push_back({key, static_cast<Value>(1 + rng.next_below(5))});
    }
    return s;
}

AggregateMap
ground_truth(const std::vector<StreamSpec>& streams)
{
    AggregateMap truth;
    for (const auto& s : streams)
        aggregate_into(truth, s.stream, ReduceOp::kAdd);
    return truth;
}

TEST(Integration, SingleSenderExactResult)
{
    AskCluster cluster(small_cluster(2));
    Rng rng = seeded_rng("integration_test", 1);
    std::vector<StreamSpec> streams{{1, random_stream(rng, 500, 40)}};
    AggregateMap truth = ground_truth(streams);

    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.result, truth);
}

TEST(Integration, MultiSenderExactResult)
{
    AskCluster cluster(small_cluster(4));
    Rng rng = seeded_rng("integration_test", 2);
    std::vector<StreamSpec> streams;
    for (std::uint32_t h = 1; h < 4; ++h)
        streams.push_back({h, random_stream(rng, 400, 60)});
    AggregateMap truth = ground_truth(streams);

    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_EQ(r.result, truth);
    // Multiple senders' tuples for the same key merged on the switch.
    EXPECT_GT(cluster.switch_stats(SwitchId{0}).tuples_aggregated, 0u);
}

TEST(Integration, ReceiverCanAlsoSend)
{
    // A co-located mapper: the receiver host itself contributes a stream.
    AskCluster cluster(small_cluster(2));
    Rng rng = seeded_rng("integration_test", 3);
    std::vector<StreamSpec> streams{
        {0, random_stream(rng, 200, 30)},
        {1, random_stream(rng, 200, 30)},
    };
    AggregateMap truth = ground_truth(streams);
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_EQ(r.result, truth);
}

TEST(Integration, EmptyStreamCompletes)
{
    AskCluster cluster(small_cluster(2));
    std::vector<StreamSpec> streams{{1, KvStream{}}};
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.result.empty());
}

TEST(Integration, MixedKeyLengthsIncludingLong)
{
    AskCluster cluster(small_cluster(2));
    Rng rng = seeded_rng("integration_test", 4);
    KvStream s;
    for (int i = 0; i < 600; ++i) {
        std::size_t len = 1 + rng.next_below(14);  // short/medium/long mix
        std::string key(len, 'a');
        for (auto& c : key)
            c = static_cast<char>('a' + rng.next_below(8));
        s.push_back({key, 1});
    }
    std::vector<StreamSpec> streams{{1, std::move(s)}};
    AggregateMap truth = ground_truth(streams);

    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_EQ(r.result, truth);
    // Long keys really did bypass the switch.
    EXPECT_GT(cluster.total_host_stats().long_packets_sent, 0u);
}

TEST(Integration, ConservationOfTuples)
{
    // Every valid tuple is aggregated exactly once: on the switch or at
    // the receiver.
    AskCluster cluster(small_cluster(3));
    Rng rng = seeded_rng("integration_test", 5);
    std::vector<StreamSpec> streams{
        {1, random_stream(rng, 700, 25)},
        {2, random_stream(rng, 700, 25)},
    };
    std::uint64_t total = 1400;
    TaskResult r = cluster.run_task(1, 0, streams);

    const SwitchAggStats& sw = cluster.switch_stats(SwitchId{0});
    HostStats hosts = cluster.total_host_stats();
    EXPECT_EQ(sw.tuples_aggregated + hosts.tuples_aggregated_locally, total);
    EXPECT_EQ(sw.tuples_in, total);
    ASSERT_TRUE(r.ok());
}

TEST(Integration, SmallRegionFallsBackToReceiver)
{
    // With a one-aggregator region, most tuples collide and the receiver
    // does the work — the result must still be exact.
    AskCluster cluster(small_cluster(2));
    Rng rng = seeded_rng("integration_test", 6);
    std::vector<StreamSpec> streams{{1, random_stream(rng, 500, 50)}};
    AggregateMap truth = ground_truth(streams);
    TaskResult r = cluster.run_task(1, 0, streams, {.region_len = 1});
    EXPECT_EQ(r.result, truth);
    EXPECT_GT(cluster.total_host_stats().tuples_aggregated_locally, 0u);
}

TEST(Integration, SequentialTasksReuseChannelsAndRegions)
{
    AskCluster cluster(small_cluster(2));
    Rng rng = seeded_rng("integration_test", 7);
    for (TaskId t = 1; t <= 4; ++t) {
        std::vector<StreamSpec> streams{{1, random_stream(rng, 300, 20)}};
        AggregateMap truth = ground_truth(streams);
        TaskResult r = cluster.run_task(t, 0, streams);
        EXPECT_EQ(r.result, truth) << "task " << t;
    }
}

TEST(Integration, ConcurrentTasksMultiplexTheService)
{
    AskCluster cluster(small_cluster(4));
    Rng rng = seeded_rng("integration_test", 8);
    std::vector<std::vector<StreamSpec>> specs;
    std::vector<AggregateMap> truths;
    std::vector<TaskResult> results(3);
    std::vector<bool> done(3, false);

    for (TaskId t = 0; t < 3; ++t) {
        std::vector<StreamSpec> streams{
            {(t + 1) % 4, random_stream(rng, 300, 30)},
            {(t + 2) % 4, random_stream(rng, 300, 30)},
        };
        truths.push_back(ground_truth(streams));
        cluster.submit_task(100 + t, t, streams, {.region_len = 32},
                            [&results, &done, t](AggregateMap m, TaskReport rep) {
                                results[t].result = std::move(m);
                                results[t].report = rep;
                                done[t] = true;
                            });
    }
    cluster.run();
    for (TaskId t = 0; t < 3; ++t) {
        ASSERT_TRUE(done[t]) << "task " << t;
        EXPECT_EQ(results[t].result, truths[t]) << "task " << t;
    }
}

TEST(Integration, ShadowCopySwapsPreserveExactness)
{
    ClusterConfig cc = small_cluster(2);
    cc.ask.swap_threshold_packets = 8;  // swap aggressively
    AskCluster cluster(cc);
    Rng rng = seeded_rng("integration_test", 9);
    // More distinct keys than the (tiny) region: collisions keep packets
    // flowing to the receiver, which triggers periodic swaps.
    KvStream s;
    for (int i = 0; i < 3000; ++i)
        s.push_back({"k" + std::to_string(rng.next_below(50)), 1});
    std::vector<StreamSpec> streams{{1, std::move(s)}};
    AggregateMap truth = ground_truth(streams);

    TaskResult r = cluster.run_task(1, 0, streams, {.region_len = 2});
    EXPECT_EQ(r.result, truth);
    EXPECT_GT(r.report.swaps, 0u);
    EXPECT_GT(cluster.switch_stats(SwitchId{0}).swaps, 0u);
}

// ---------------------------------------------------------------------------
// Fault-injection property tests: exactly-once under loss/dup/reorder.
// ---------------------------------------------------------------------------

struct FaultCase
{
    double loss;
    double dup;
    double reorder;
    std::uint64_t seed;
};

class FaultyNetwork : public ::testing::TestWithParam<FaultCase>
{
};

TEST_P(FaultyNetwork, ExactlyOnceAggregation)
{
    const FaultCase& fc = GetParam();
    ClusterConfig cc = small_cluster(3);
    cc.faults = net::FaultSpec::lossy(fc.loss, fc.dup, fc.reorder);
    cc.seed = fc.seed;
    cc.ask.swap_threshold_packets = 16;  // swaps in the mix too
    AskCluster cluster(cc);

    Rng rng = seeded_rng("integration_test", fc.seed);
    std::vector<StreamSpec> streams{
        {1, random_stream(rng, 600, 40, /*max_len=*/10)},
        {2, random_stream(rng, 600, 40, /*max_len=*/10)},
    };
    AggregateMap truth = ground_truth(streams);

    TaskResult r = cluster.run_task(1, 0, streams);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.result, truth)
        << "loss=" << fc.loss << " dup=" << fc.dup << " seed=" << fc.seed;
    if (fc.loss > 0.0) {
        EXPECT_GT(cluster.total_host_stats().retransmissions, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    LossDupReorder, FaultyNetwork,
    ::testing::Values(FaultCase{0.01, 0.0, 0.0, 11}, FaultCase{0.05, 0.0, 0.0, 12},
                      FaultCase{0.20, 0.0, 0.0, 13}, FaultCase{0.0, 0.05, 0.0, 14},
                      FaultCase{0.0, 0.0, 0.30, 15}, FaultCase{0.05, 0.05, 0.10, 16},
                      FaultCase{0.15, 0.10, 0.20, 17}, FaultCase{0.30, 0.10, 0.30, 18}));

TEST(Integration, LossyLongKeysStillExact)
{
    ClusterConfig cc = small_cluster(2);
    cc.faults = net::FaultSpec::lossy(0.1, 0.05, 0.1);
    AskCluster cluster(cc);
    Rng rng = seeded_rng("integration_test", 21);
    KvStream s;
    for (int i = 0; i < 400; ++i) {
        std::string key = "long-key-number-" + std::to_string(rng.next_below(37));
        s.push_back({key, 2});
    }
    std::vector<StreamSpec> streams{{1, std::move(s)}};
    AggregateMap truth = ground_truth(streams);
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_EQ(r.result, truth);
}

TEST(Integration, ReportAccountsForAllTuples)
{
    AskCluster cluster(small_cluster(2));
    Rng rng = seeded_rng("integration_test", 22);
    std::vector<StreamSpec> streams{{1, random_stream(rng, 500, 30)}};
    TaskResult r = cluster.run_task(1, 0, streams);
    // Every distinct key came from the switch fetch or local merge.
    EXPECT_GT(r.report.tuples_fetched_from_switch +
                  r.report.tuples_aggregated_locally,
              0u);
    EXPECT_GT(r.report.finish_time, r.report.start_time);
}

TEST(Integration, ValueStreamBackwardCompatibility)
{
    // The paper's §5.6: value-stream (gradient) aggregation is the
    // special case where the key is the vector index.
    AskCluster cluster(small_cluster(3));
    const std::size_t dim = 512;
    std::vector<StreamSpec> streams;
    for (std::uint32_t h = 1; h < 3; ++h) {
        KvStream s;
        for (std::size_t i = 0; i < dim; ++i)
            s.push_back({u64_key(i), static_cast<Value>(h * 10 + i % 7)});
        streams.push_back({h, std::move(s)});
    }
    AggregateMap truth = ground_truth(streams);
    TaskResult r = cluster.run_task(1, 0, streams);
    EXPECT_EQ(r.result, truth);
    EXPECT_EQ(r.result.size(), dim);
}

}  // namespace
}  // namespace ask::core
