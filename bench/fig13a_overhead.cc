/**
 * Figure 13(a) — Bandwidth overhead: aggregation throughput (goodput +
 * header overhead) of ASK vs pure network transmission (NoAggr, MTU
 * packets) as the number of data channels grows. Paper: both saturate
 * the 100 Gbps NIC, with goodputs 73.96 (ASK) vs 91.75 Gbps (NoAggr);
 * NoAggr needs 2 cores, ASK 4.
 */
#include <cstdint>
#include <iostream>
#include <utility>
#include <vector>

#include "ask/cluster.h"
#include "baselines/noaggr.h"
#include "bench_util.h"
#include "common/logging.h"
#include "workload/generators.h"

namespace {

using namespace ask;

struct Rates
{
    double goodput;
    double throughput;
};

/** ASK's rates over `channels` tasks; each task's delivered aggregate
 *  is checked against its input. */
Rates
ask_rates(std::uint32_t channels, std::uint64_t tuples,
          bench::ExactRuns& exact)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.channels_per_host = channels;
    cc.ask.medium_groups = 0;
    core::AskCluster cluster(cc);

    // One task per channel (balanced ids) so the sender saturates all
    // its cores, as the paper's bulk-transfer job does.
    std::uint32_t parts = channels;
    auto ids = core::balanced_task_ids({1}, channels, parts);
    std::uint64_t per_part = tuples / parts;
    const core::KeySpace& ks = cluster.daemon(1).key_space();
    sim::SimTime senders_done = 0;
    for (std::uint32_t p = 0; p < parts; ++p) {
        std::vector<core::StreamSpec> streams = {
            {1, bench::balanced_uniform_stream(
                    ks, 32, per_part, static_cast<std::uint64_t>(p) << 20)}};
        core::AggregateMap truth = bench::fold(streams);
        cluster.submit_task(
            ids[p], 0, std::move(streams),
            {.region_len = cc.ask.copy_size() / parts},
            [&senders_done, &exact, truth = std::move(truth)](
                core::AggregateMap result, core::TaskReport rep) {
                senders_done = std::max(senders_done, rep.senders_done);
                exact.check({std::move(result), std::move(rep)}, truth);
            });
    }
    cluster.run();

    net::NodeId sender = cluster.daemon(1).node_id();
    std::uint64_t wire = cluster.network().link_bytes(
        sender, cluster.switch_node(core::SwitchId{0}));
    Nanoseconds fixed = cc.mgmt_latency_ns + cc.notify_latency_ns;
    Nanoseconds elapsed = std::max<Nanoseconds>(senders_done - fixed, 1);
    Rates out;
    out.goodput =
        units::gbps(static_cast<double>(per_part * parts) * 8.0, elapsed);
    out.throughput = units::gbps(static_cast<double>(wire), elapsed);
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchReport report(
        "fig13a_overhead", "throughput/goodput vs data channels: ASK vs NoAggr",
        argc, argv);
    bool full = report.full();
    std::uint64_t ask_tuples =
        report.smoke() ? 600000 : (full ? 16000000 : 3000000);
    std::uint64_t noaggr_tuples =
        report.smoke() ? 300000 : (full ? 4000000 : 1500000);
    report.param("ask_tuples", ask_tuples);
    report.param("noaggr_tuples_per_sender", noaggr_tuples);
    bench::ExactRuns exact;

    bench::banner("Figure 13(a)",
                  "throughput/goodput vs data channels: ASK vs NoAggr");

    TextTable t;
    t.header({"solution", "channels", "goodput (Gbps)", "throughput (Gbps)"});
    for (std::uint32_t ch : {1u, 2u, 4u}) {
        baselines::BulkSpec spec;
        spec.sender_channels = ch;
        spec.tuples_per_sender = noaggr_tuples;
        baselines::BulkResult r = baselines::run_noaggr(spec);
        t.row({"NoAggr", std::to_string(ch), fmt_double(r.goodput_gbps, 2),
               fmt_double(r.throughput_gbps, 2)});
        report.row({{"solution", "noaggr"},
                    {"channels", ch},
                    {"goodput_gbps", r.goodput_gbps},
                    {"throughput_gbps", r.throughput_gbps}});
    }
    for (std::uint32_t ch : {1u, 2u, 4u}) {
        Rates r = ask_rates(ch, ask_tuples, exact);
        t.row({"ASK", std::to_string(ch), fmt_double(r.goodput, 2),
               fmt_double(r.throughput, 2)});
        report.row({{"solution", "ask"},
                    {"channels", ch},
                    {"goodput_gbps", r.goodput},
                    {"throughput_gbps", r.throughput}});
    }
    t.print(std::cout);
    report.note("paper: NoAggr 91.75 Gbps goodput (saturates with 2 cores); "
                "ASK 73.96 Gbps (saturates with 4) — overhead is the ASK "
                "header and per-slot key segments");
    return exact.finish(report);
}
