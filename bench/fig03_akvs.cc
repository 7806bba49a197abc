/**
 * Figure 3 — Aggregated key-value tuples per second (AKV/s) on a single
 * machine: (a) vanilla Spark vs CPU cores, (b) the strawman in-network
 * aggregation (one tuple per packet) vs cores, (c) ASK (vectorized) vs
 * data channels. Paper headlines: strawman hits 100 Gbps line rate with
 * 16 cores and peaks at 3.4x Spark; ASK reaches up to 155x Spark at a
 * matched small-core budget.
 */
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <utility>
#include <vector>

#include "ask/cluster.h"
#include "baselines/strawman.h"
#include "bench_util.h"
#include "common/logging.h"
#include "net/cost_model.h"
#include "workload/generators.h"

namespace {

using namespace ask;

/** Run an ASK/strawman aggregation and return AKV/s. The stream is
 *  split into one task per data channel (each task binds to one
 *  channel, so this is how a single job saturates several cores).
 *  Each task's delivered aggregate is checked against its input. */
double
measure_akvs(core::ClusterConfig cc, std::uint64_t tuples,
             std::uint64_t distinct, bench::ExactRuns& exact)
{
    core::AskCluster cluster(cc);
    std::uint32_t parts = std::min(2 * cc.ask.channels_per_host,
                                   cc.ask.max_tasks);
    std::uint64_t per_part = tuples / parts;
    std::uint64_t keys_per_part = std::max<std::uint64_t>(1, distinct / parts);
    std::uint32_t region = cc.ask.copy_size() / parts;

    // Task ids chosen so the sender's hash load balancing is even.
    std::vector<std::uint32_t> ids =
        core::balanced_task_ids({1}, cc.ask.channels_per_host, parts);
    const core::KeySpace& ks = cluster.daemon(1).key_space();
    std::uint32_t keys_per_slot = std::max<std::uint64_t>(
        1, keys_per_part / cc.ask.short_aas());
    // Throughput is measured to the point all senders finished (their
    // data ACKed), matching the paper's sender-side metric; setup
    // latency is subtracted.
    sim::SimTime senders_done = 0;
    for (std::uint32_t p = 0; p < parts; ++p) {
        std::vector<core::StreamSpec> streams = {
            {1, bench::balanced_uniform_stream(ks, keys_per_slot, per_part,
                                               p * (keys_per_part + 1))}};
        core::AggregateMap truth = bench::fold(streams);
        cluster.submit_task(
            ids[p], 0, std::move(streams), {.region_len = region},
            [&senders_done, &exact, truth = std::move(truth)](
                core::AggregateMap result, core::TaskReport rep) {
                senders_done = std::max(senders_done, rep.senders_done);
                exact.check({std::move(result), std::move(rep)}, truth);
            });
    }
    cluster.run();
    Nanoseconds fixed = cc.mgmt_latency_ns + cc.notify_latency_ns;
    return static_cast<double>(per_part * parts) /
           units::to_seconds(std::max<Nanoseconds>(senders_done - fixed, 1));
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchReport report(
        "fig03_akvs", "single-machine AKV/s: Spark vs strawman INA vs ASK",
        argc, argv);
    bool full = report.full();
    std::uint64_t tuples = report.smoke() ? 300000 : (full ? 8000000 : 1500000);
    std::uint64_t distinct = 1 << 14;
    report.param("tuples", tuples);
    report.param("distinct_keys", distinct);
    bench::ExactRuns exact;

    bench::banner("Figure 3", "single-machine AKV/s: Spark vs strawman INA vs ASK");

    // (a) Vanilla Spark: the calibrated curve (JVM aggregation path).
    TextTable spark;
    spark.header({"cores", "Spark AKV/s"});
    for (std::uint32_t c : {1u, 2u, 4u, 8u, 16u, 32u, 56u}) {
        spark.row({std::to_string(c), fmt_count(net::spark_akvs(c))});
        report.row({{"series", "spark"},
                    {"cores", c},
                    {"akvs", net::spark_akvs(c)}});
    }
    std::cout << "\n(a) vanilla Spark\n";
    spark.print(std::cout);

    // (b) Strawman INA: one 8-byte tuple per packet through the switch.
    std::cout << "\n(b) strawman in-network aggregation (1 tuple/packet)\n";
    TextTable straw;
    straw.header({"cores", "AKV/s", "vs Spark same cores"});
    double straw16 = 0;
    for (std::uint32_t c : {1u, 2u, 4u, 8u, 16u}) {
        core::ClusterConfig cc =
            baselines::strawman_cluster(2, c, static_cast<std::uint32_t>(distinct));
        double akvs = measure_akvs(cc, tuples / 4, distinct, exact);
        if (c == 16)
            straw16 = akvs;
        straw.row({std::to_string(c), fmt_count(akvs),
                   fmt_double(akvs / net::spark_akvs(c), 1) + "x"});
        report.row({{"series", "strawman"},
                    {"cores", c},
                    {"akvs", akvs},
                    {"vs_spark", akvs / net::spark_akvs(c)}});
    }
    straw.print(std::cout);
    report.note("paper: strawman ~5x Spark at 16 cores; line rate = 145M AKV/s");
    std::cout << "measured strawman(16)/Spark(16) = "
              << fmt_double(straw16 / net::spark_akvs(16), 2) << "x (paper ~5x)\n";

    // (c) ASK: 32-tuple vectorized packets.
    std::cout << "\n(c) ASK (vectorized, 32 tuples/packet)\n";
    TextTable askt;
    askt.header({"data channels", "AKV/s", "vs Spark same cores"});
    double ask4 = 0;
    for (std::uint32_t ch : {1u, 2u, 4u}) {
        core::ClusterConfig cc;
        cc.topology = core::TopologyBuilder().add_rack(2).build();
        cc.ask.max_hosts = 2;
        cc.ask.channels_per_host = ch;
        cc.ask.medium_groups = 0;  // 4-byte uniform keys: all AAs short
        cc.ask.swap_threshold_packets = 0;
        double akvs = measure_akvs(cc, tuples, distinct, exact);
        if (ch == 4)
            ask4 = akvs;
        askt.row({std::to_string(ch), fmt_count(akvs),
                  fmt_double(akvs / net::spark_akvs(ch), 1) + "x"});
        report.row({{"series", "ask"},
                    {"channels", ch},
                    {"akvs", akvs},
                    {"vs_spark", akvs / net::spark_akvs(ch)}});
    }
    askt.print(std::cout);
    std::cout << "measured ASK(4 dCh)/Spark(4 cores) = "
              << fmt_double(ask4 / net::spark_akvs(4), 0)
              << "x (paper: up to 155x)\n";
    return exact.finish(report);
}
