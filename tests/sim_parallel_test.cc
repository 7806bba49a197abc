/**
 * Tests for the parallel job pool (sim/engine.h). The central claim
 * under test is the determinism contract of docs/CONCURRENCY.md: for a
 * fixed input, every observable result — folded job results, aggregate
 * maps — is bit-for-bit identical at any thread count, including 1.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ask/cluster.h"
#include "sim/engine.h"
#include "sim/options.h"
#include "sim/simulator.h"

namespace ask::sim {
namespace {

TEST(SimOptions, DefaultIsSequential)
{
    SimOptions options;
    EXPECT_EQ(options.num_threads, 1u);
}

TEST(ParallelEngine, RunIsolatedFoldsIdenticallyAtEveryThreadCount)
{
    auto campaign = [](unsigned threads) {
        SimOptions options;
        options.num_threads = threads;
        ParallelEngine engine(options);
        std::vector<std::uint64_t> results(64);
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < results.size(); ++i) {
            jobs.push_back([&results, i] {
                // A little simulation per job: independent state only.
                Simulator s;
                std::uint64_t acc = i;
                for (SimTime t = 1; t <= 20; ++t)
                    s.schedule_at(t * 3, [&acc, t] { acc = acc * 31 + t; });
                s.run();
                results[i] = acc;
            });
        }
        engine.run_isolated(jobs);
        return results;
    };
    std::vector<std::uint64_t> reference = campaign(1);
    for (unsigned threads : {2u, 4u})
        EXPECT_EQ(campaign(threads), reference) << "threads " << threads;
}

// ---- whole clusters as jobs ----------------------------------------------

core::ClusterConfig
small_cluster(std::uint32_t hosts)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(hosts).build();
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

core::KvStream
counting_stream(std::size_t n, std::uint64_t salt)
{
    core::KvStream s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::string key = "k" + std::to_string((i * 7 + salt) % 23);
        s.push_back({key, static_cast<core::Value>(1 + (i + salt) % 5)});
    }
    return s;
}

/** One cluster, one task: hosts 1 and 2 stream to host 0. */
core::TaskResult
run_cluster(std::uint64_t salt)
{
    core::AskCluster cluster(small_cluster(3));
    std::vector<core::StreamSpec> streams{
        {core::HostId{1}, counting_stream(400, salt)},
        {core::HostId{2}, counting_stream(300, salt + 1)}};
    return cluster.run_task(1, core::HostId{0}, std::move(streams));
}

TEST(ParallelEngine, ClustersAsJobsMatchStandaloneRuns)
{
    // Reference: each cluster runs alone on the calling thread.
    const std::vector<std::uint64_t> salts{5, 9};
    std::vector<core::TaskResult> want;
    for (std::uint64_t salt : salts) {
        want.push_back(run_cluster(salt));
        ASSERT_TRUE(want.back().ok()) << want.back().report.detail;
    }

    // The same deployments as jobs of one engine: every job owns its
    // whole cluster, so the pool may run them on any worker.
    for (unsigned threads : {1u, 2u, 4u}) {
        SimOptions options;
        options.num_threads = threads;
        ParallelEngine engine(options);
        std::vector<core::TaskResult> got(salts.size());
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < salts.size(); ++i) {
            jobs.push_back(
                [&got, &salts, i] { got[i] = run_cluster(salts[i]); });
        }
        engine.run_isolated(jobs);

        for (std::size_t i = 0; i < salts.size(); ++i) {
            EXPECT_TRUE(got[i].ok()) << "threads " << threads;
            EXPECT_EQ(got[i].result, want[i].result) << "threads " << threads;
            EXPECT_EQ(got[i].report.finish_time, want[i].report.finish_time)
                << "threads " << threads;
        }
    }
}

}  // namespace
}  // namespace ask::sim
