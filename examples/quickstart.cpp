/**
 * Quickstart — the smallest complete ASK program.
 *
 * Builds a two-server cluster attached to a simulated programmable
 * switch, runs one key-value aggregation task (server 1 streams word
 * counts, server 0 receives the aggregate), and prints the result along
 * with how much work the switch absorbed.
 *
 *   ./build/examples/quickstart
 */
#include <iostream>
#include <vector>

#include "ask/cluster.h"

int
main()
{
    using namespace ask;

    // 1. Describe the deployment: 2 servers on a 100 Gbps switch. The
    //    default AskConfig is the paper's: 32 aggregator arrays of
    //    32768 aggregators, window W=256, 4 data channels per host.
    core::ClusterConfig config;
    config.topology = core::TopologyBuilder().add_rack(2).build();
    config.ask.max_hosts = 2;

    core::AskCluster cluster(config);

    // 2. Prepare a key-value stream (WordCount-style tuples).
    core::KvStream stream = {
        {"in", 1},   {"network", 1}, {"aggregation", 1}, {"for", 1},
        {"key", 1},  {"value", 1},   {"streams", 1},     {"in", 1},
        {"the", 1},  {"network", 1}, {"for", 1},         {"the", 1},
        {"win", 1},  {"in", 1},
    };

    // 3. Run the aggregation task: host 1 sends, host 0 receives. Task
    //    knobs travel in TaskOptions; everything defaults sensibly, so
    //    name only what you change.
    core::TaskResult result =
        cluster.run_task(/*task=*/1, /*receiver_host=*/0,
                         {{/*host=*/1, stream}}, {.region_len = 64});
    if (!result.report.ok()) {
        std::cerr << "task failed: " << result.report.detail << "\n";
        return 1;
    }

    // 4. Use the aggregate.
    std::cout << "aggregated " << result.result.size() << " distinct keys in "
              << units::to_seconds(result.report.finish_time) * 1e3
              << " ms (simulated):\n";
    for (const auto& [key, value] : result.result)
        std::cout << "  " << key << " -> " << value << "\n";

    const core::SwitchAggStats& sw = cluster.switch_stats(core::SwitchId{0});
    std::cout << "switch aggregated " << sw.tuples_aggregated
              << " tuples and fully absorbed " << sw.packets_acked
              << " packets\n";

    // 5. Every component also publishes counters to the cluster's
    //    metrics registry; snapshot it for a machine-readable view.
    obs::MetricsSnapshot snap = cluster.metrics_snapshot();
    std::cout << "\nmetrics snapshot:\n"
              << "  net.packets_delivered  = "
              << snap.counter("net.packets_delivered") << "\n"
              << "  switch.tuples_aggregated = "
              << snap.counter("switch.tuples_aggregated") << "\n"
              << "  host.data_packets_sent = "
              << snap.counter("host.data_packets_sent") << "\n";
    return 0;
}
