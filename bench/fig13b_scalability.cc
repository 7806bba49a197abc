/**
 * Figure 13(b) — Scalability, in two sweeps.
 *
 * Senders sweep (the paper's axis): average per-sender throughput as
 * sending hosts grow from 1 to 8 against one receiver on a single
 * switch. Paper: ASK stays flat (~92.61 Gbps x 8 — the switch absorbs
 * and ACKs most traffic, so the receiver link never bottlenecks),
 * while NoAggr decays as 1/n (11.88 Gbps per sender at 8).
 *
 * Fabric sweep (this repo's multi-switch extension): aggregate goodput
 * as the topology grows from one rack to eight racks of two hosts
 * under a shared aggregation tier. Each rack's ToR shards its own
 * hosts' channels, so per-ToR reliability state stays bounded by rack
 * size while aggregate goodput scales with sender count; the tier —
 * the tree root holding the full channel range — is reported
 * separately. Flags: --racks N pins the fabric sweep to one rack
 * count; --switches N asks for a total switch budget instead (N-1
 * racks plus the tier; 1 means the classic single switch).
 *
 * Every task's delivered aggregate is checked against the fold of its
 * input (params exact_runs/runs); a difference exits 1.
 */
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <vector>

#include "ask/cluster.h"
#include "baselines/noaggr.h"
#include "bench_util.h"
#include "common/logging.h"
#include "sim/engine.h"
#include "workload/generators.h"

namespace {

using namespace ask;

/** Fixed rack width of the fabric sweep: receiver + senders. */
constexpr std::uint32_t kHostsPerRack = 2;

double
ask_per_sender_gbps(std::uint32_t senders, std::uint64_t tuples_per_sender,
                    bench::ExactRuns& exact)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(senders + 1).build();
    cc.ask.max_hosts = senders + 1;
    cc.ask.medium_groups = 0;
    core::AskCluster cluster(cc);

    // Split the job into several tasks so every sender exercises all of
    // its data channels; every task has a stream from every sender.
    std::uint32_t parts = 2 * cc.ask.channels_per_host;
    std::vector<core::HostId> sender_hosts;
    for (std::uint32_t s = 1; s <= senders; ++s)
        sender_hosts.push_back(s);
    auto ids = core::balanced_task_ids(sender_hosts, cc.ask.channels_per_host,
                                       parts);
    ASK_ASSERT(ids.size() == parts, "could not balance task ids");
    std::uint64_t per_part = tuples_per_sender / parts;
    sim::SimTime senders_done = 0;
    for (std::uint32_t p = 0; p < parts; ++p) {
        std::vector<core::StreamSpec> streams;
        for (std::uint32_t s = 1; s <= senders; ++s) {
            // All senders share each task's small, slot-balanced key
            // space, as in the paper's scalability microbenchmark: the
            // aggregator load factor stays tiny (almost every packet is
            // fully absorbed, so the receiver link never bottlenecks)
            // and every packet is full. A stolen key would forward every
            // packet containing it — vectorization amplifies collisions
            // (see EXPERIMENTS.md) — so low load matters here.
            const core::KeySpace& ks = cluster.daemon(s).key_space();
            streams.push_back({s, bench::balanced_uniform_stream(
                                      ks, 2, per_part,
                                      static_cast<std::uint64_t>(p) << 16)});
        }
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
    Nanoseconds fixed = cc.mgmt_latency_ns + cc.notify_latency_ns;
    Nanoseconds elapsed = std::max<Nanoseconds>(senders_done - fixed, 1);
    double total_tuple_bytes =
        static_cast<double>(per_part) * parts * senders * 8.0;
    return units::gbps(total_tuple_bytes, elapsed) / senders;
}

/** One measured point of the fabric sweep. */
struct FabricPoint
{
    std::uint32_t racks = 0;
    std::uint32_t switches = 0;
    std::uint32_t senders = 0;
    double goodput_gbps = 0.0;       ///< aggregate across all senders
    double gbps_per_sender = 0.0;
    std::uint64_t tor_state_bits = 0;   ///< max over ToRs (bounded by rack)
    std::uint64_t tier_state_bits = 0;  ///< tree root; 0 without a tier
};

FabricPoint
fabric_goodput(std::uint32_t racks, std::uint64_t tuples_per_sender,
               bench::ExactRuns& exact)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().racks(racks, kHostsPerRack).build();
    cc.ask.max_hosts = cc.topology->num_hosts();
    cc.ask.medium_groups = 0;
    core::AskCluster cluster(cc);

    FabricPoint pt;
    pt.racks = racks;
    pt.switches = cluster.num_switches();
    pt.senders = cc.topology->num_hosts() - 1;

    // Host 0 receives; every other host in every rack streams to it.
    // Cross-rack flows are absorbed rack-locally at each ToR and their
    // residuals die at the tier, so each sender's edge link — not the
    // receiver's — stays the limiting resource.
    std::uint32_t parts = 2 * cc.ask.channels_per_host;
    std::vector<core::HostId> sender_hosts;
    for (std::uint32_t s = 1; s <= pt.senders; ++s)
        sender_hosts.push_back(s);
    // Exact simultaneous channel balance over many hosts may be
    // infeasible; widen the per-channel cap until an id set exists.
    // The hosts' edge links, not the channel split, bound throughput,
    // so a one-task skew costs little.
    std::vector<std::uint32_t> ids;
    for (std::uint32_t slack = 0; ids.size() != parts && slack <= 3; ++slack)
        ids = core::balanced_task_ids(sender_hosts, cc.ask.channels_per_host,
                                      parts, slack);
    ASK_ASSERT(ids.size() == parts, "could not balance task ids");
    std::uint64_t per_part = tuples_per_sender / parts;
    sim::SimTime senders_done = 0;
    for (std::uint32_t p = 0; p < parts; ++p) {
        std::vector<core::StreamSpec> streams;
        for (core::HostId s : sender_hosts) {
            const core::KeySpace& ks = cluster.daemon(s).key_space();
            streams.push_back({s, bench::balanced_uniform_stream(
                                      ks, 2, per_part,
                                      static_cast<std::uint64_t>(p) << 16)});
        }
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
    Nanoseconds fixed = cc.mgmt_latency_ns + cc.notify_latency_ns;
    Nanoseconds elapsed = std::max<Nanoseconds>(senders_done - fixed, 1);
    double total_tuple_bytes =
        static_cast<double>(per_part) * parts * pt.senders * 8.0;
    pt.goodput_gbps = units::gbps(total_tuple_bytes, elapsed);
    pt.gbps_per_sender = pt.goodput_gbps / pt.senders;

    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s) {
        std::uint64_t bits =
            cluster.program(core::SwitchId{s}).reliability_state_bits();
        if (cc.topology->has_tier() &&
            core::SwitchId{s} == cc.topology->tier_switch())
            pt.tier_state_bits = bits;
        else
            pt.tor_state_bits = std::max(pt.tor_state_bits, bits);
    }
    return pt;
}

void
print_usage()
{
    std::cout
        << "usage: fig13b_scalability [--smoke|--full] [--racks N] "
           "[--switches N]\n"
           "  --smoke       CI-scale volumes (seconds), same shape\n"
           "  --full        paper-scale volumes (slower)\n"
           "  --racks N     pin the fabric sweep to N racks of "
        << kHostsPerRack
        << " hosts\n"
           "  --switches N  pin by total switch count instead: N-1 racks\n"
           "                plus the aggregation tier (1 = single switch)\n"
           "  --help        this text\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    std::uint32_t racks_override = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            print_usage();
            return 0;
        }
        if (std::strcmp(argv[i], "--racks") == 0 && i + 1 < argc) {
            racks_override =
                static_cast<std::uint32_t>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--switches") == 0 && i + 1 < argc) {
            auto switches =
                static_cast<std::uint32_t>(std::atoi(argv[++i]));
            // A lone switch is the rackless classic; otherwise one
            // switch is the tier and the rest are ToRs. Two switches
            // cannot form a tree (a tier needs >=2 ToRs below it).
            if (switches == 2) {
                std::cerr << "fig13b_scalability: --switches 2 has no tree "
                             "shape (1 ToR + tier is pointless); use "
                             "--switches 1 or >= 3\n";
                return 2;
            }
            racks_override = switches <= 1 ? 1 : switches - 1;
        }
    }
    if (racks_override > 64) {
        std::cerr << "fig13b_scalability: refusing > 64 racks\n";
        return 2;
    }

    bench::BenchReport report(
        "fig13b_scalability",
        "goodput scaling: per-sender vs sender count, aggregate vs fabric "
        "size",
        argc, argv);
    bool full = report.full();
    std::uint64_t tuples = report.smoke() ? 300000 : (full ? 4000000 : 1200000);
    std::uint64_t noaggr_tuples =
        report.smoke() ? 150000 : (full ? 2000000 : 600000);
    std::uint64_t fabric_tuples =
        report.smoke() ? 120000 : (full ? 2000000 : 600000);
    report.param("ask_tuples_per_sender", tuples);
    report.param("noaggr_tuples_per_sender", noaggr_tuples);
    report.param("fabric_tuples_per_sender", fabric_tuples);
    report.param("fabric_hosts_per_rack", kHostsPerRack);

    // Every sweep point below — (senders, NoAggr) pairs and fabric
    // sizes — is an independent replica simulation (its own cluster,
    // simulator, and streams), so both sweeps fan their points out
    // over ASK_SIM_THREADS engine workers and emit rows in sweep order
    // afterwards: the table and report bytes are identical at any
    // thread count (held by the sim_parallel_ab ctest's fuzz/bench
    // A/B diffs and measured by the sim_parallel bench).
    sim::ParallelEngine engine;
    bench::ExactRuns exact;

    if (racks_override == 0) {
        bench::banner("Figure 13(b)",
                      "average per-sender goodput vs number of senders");

        TextTable t;
        t.header({"senders", "ASK (Gbps/sender)", "NoAggr (Gbps/sender)",
                  "NoAggr ideal 95/n"});
        const std::vector<std::uint32_t> sender_counts = {1, 2, 4, 8};
        std::vector<double> ask_gbps(sender_counts.size());
        std::vector<baselines::BulkResult> noaggr(sender_counts.size());
        std::vector<bench::ExactRuns> ask_exact(sender_counts.size());
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < sender_counts.size(); ++i) {
            jobs.push_back([&, i] {
                baselines::BulkSpec spec;
                spec.num_senders = sender_counts[i];
                spec.tuples_per_sender = noaggr_tuples;
                noaggr[i] = baselines::run_noaggr(spec);
                ask_gbps[i] =
                    ask_per_sender_gbps(sender_counts[i], tuples, ask_exact[i]);
            });
        }
        engine.run_isolated(jobs);
        for (std::size_t i = 0; i < sender_counts.size(); ++i) {
            exact.add(ask_exact[i]);
            std::uint32_t n = sender_counts[i];
            t.row({std::to_string(n), fmt_double(ask_gbps[i], 2),
                   fmt_double(noaggr[i].per_sender_goodput_gbps, 2),
                   fmt_double(94.9 / n, 2)});
            report.row({{"senders", n},
                        {"ask_gbps_per_sender", ask_gbps[i]},
                        {"noaggr_gbps_per_sender",
                         noaggr[i].per_sender_goodput_gbps},
                        {"noaggr_ideal_gbps_per_sender", 94.9 / n}});
        }
        t.print(std::cout);
        report.note(
            "paper: ASK flat (~92.61 Gbps per sender up to 8 senders); "
            "NoAggr 11.88 Gbps per sender at 8 (receiver link bound)");
    }

    bench::banner("Fabric scalability",
                  "aggregate goodput and per-switch state vs fabric size");

    std::vector<std::uint32_t> rack_counts = {1, 2, 4, 8};
    if (racks_override != 0)
        rack_counts = {racks_override};

    TextTable ft;
    ft.header({"racks", "switches", "senders", "goodput (Gbps)",
               "Gbps/sender", "ToR state (bits)", "tier state (bits)"});
    std::vector<FabricPoint> points(rack_counts.size());
    std::vector<bench::ExactRuns> fabric_exact(rack_counts.size());
    std::vector<std::function<void()>> fabric_jobs;
    for (std::size_t i = 0; i < rack_counts.size(); ++i) {
        fabric_jobs.push_back([&, i] {
            points[i] =
                fabric_goodput(rack_counts[i], fabric_tuples, fabric_exact[i]);
        });
    }
    engine.run_isolated(fabric_jobs);
    for (const bench::ExactRuns& e : fabric_exact)
        exact.add(e);
    for (const FabricPoint& pt : points) {
        ft.row({std::to_string(pt.racks), std::to_string(pt.switches),
                std::to_string(pt.senders), fmt_double(pt.goodput_gbps, 2),
                fmt_double(pt.gbps_per_sender, 2),
                std::to_string(pt.tor_state_bits),
                std::to_string(pt.tier_state_bits)});
        report.row({{"racks", pt.racks},
                    {"switches", pt.switches},
                    {"fabric_senders", pt.senders},
                    {"goodput_gbps", pt.goodput_gbps},
                    {"fabric_gbps_per_sender", pt.gbps_per_sender},
                    {"tor_state_bits", pt.tor_state_bits},
                    {"tier_state_bits", pt.tier_state_bits}});
    }
    ft.print(std::cout);
    report.note(
        "fabric: ToR reliability state is bounded by its own rack "
        "(constant as racks grow); only the tier — the tree root — "
        "scales with the whole fabric, and aggregate goodput grows "
        "with sender count because residuals die at the tier instead "
        "of converging on the receiver link");
    return exact.finish(report);
}
