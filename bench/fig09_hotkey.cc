/**
 * Figure 9 — Effectiveness of hot-key-agnostic prioritization: fraction
 * of key-value tuples aggregated by the switch as the aggregator pool
 * shrinks relative to the number of distinct keys, (a) without and
 * (b) with the shadow-copy mechanism, on Zipf / Zipf-reverse / Uniform
 * key streams. Paper: with prioritization, a 1/16 aggregator-to-key
 * ratio still aggregates 95.85 % of tuples on the Zipf stream.
 */
#include <cstdint>
#include <iostream>

#include "ask/cluster.h"
#include "bench_util.h"
#include "workload/generators.h"

namespace {

using namespace ask;

double
switch_fraction(bool prioritize, std::uint32_t region_per_aa,
                const core::KvStream& stream, const core::AggregateMap& truth,
                bench::ExactRuns& exact)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.medium_groups = 0;  // numeric keys: all AAs short
    cc.ask.shadow_copies = prioritize;
    cc.ask.swap_threshold_packets = prioritize ? 256 : 0;
    core::AskCluster cluster(cc);

    core::TaskResult r = cluster.run_task(
        1, 0, {{1, stream}}, {.region_len = region_per_aa});
    exact.check(r, truth);
    const core::SwitchAggStats& sw = cluster.switch_stats(core::SwitchId{0});
    return 100.0 * static_cast<double>(sw.tuples_aggregated) /
           static_cast<double>(sw.tuples_in);
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchReport report("fig09_hotkey",
                              "switch-aggregated tuple % vs aggregator/key "
                              "ratio, +/- hot-key prioritization",
                              argc, argv);
    bool full = report.full();
    // Paper: 2^16 distinct keys, ~1e8 tuples; scaled here with the same
    // aggregator-to-distinct-key ratios.
    std::uint64_t distinct =
        report.smoke() ? 1 << 11 : (full ? 1 << 15 : 1 << 13);
    std::uint64_t tuples = report.smoke() ? 150000 : (full ? 8000000 : 1000000);
    report.param("distinct_keys", distinct);
    report.param("tuples", tuples);

    bench::banner("Figure 9", "switch-aggregated tuple % vs aggregator/key "
                              "ratio, +/- hot-key prioritization");

    workload::ZipfGenerator zipf(distinct, 1.0, 31);
    workload::ZipfGenerator zipf_r(distinct, 1.0, 31);
    workload::UniformGenerator uni(distinct, 31);
    core::KvStream zipf_hot = zipf.generate(tuples, workload::KeyOrder::kHotFirst);
    core::KvStream zipf_cold =
        zipf_r.generate(tuples, workload::KeyOrder::kColdFirst);
    core::KvStream uniform = uni.generate(tuples);
    core::AggregateMap zipf_hot_truth = bench::fold(zipf_hot);
    core::AggregateMap zipf_cold_truth = bench::fold(zipf_cold);
    core::AggregateMap uniform_truth = bench::fold(uniform);
    bench::ExactRuns exact;

    for (bool prioritize : {false, true}) {
        std::cout << "\n(" << (prioritize ? "b) with" : "a) without")
                  << " prioritization\n";
        TextTable t;
        t.header({"aggr/key ratio", "Zipf (%)", "Zipf-reverse (%)",
                  "Uniform (%)"});
        for (int shift = 8; shift >= 0; shift -= 2) {
            // total aggregators (across the short AAs, per active copy)
            // = distinct >> shift.
            std::uint64_t total = distinct >> shift;
            std::uint32_t per_aa = static_cast<std::uint32_t>(
                std::max<std::uint64_t>(1, total / 32));
            std::string ratio =
                shift == 0 ? "1" : "1/" + std::to_string(1u << shift);
            double zipf_pct = switch_fraction(prioritize, per_aa, zipf_hot,
                                              zipf_hot_truth, exact);
            double zipf_r_pct = switch_fraction(prioritize, per_aa, zipf_cold,
                                                zipf_cold_truth, exact);
            double uni_pct = switch_fraction(prioritize, per_aa, uniform,
                                             uniform_truth, exact);
            t.row({ratio, fmt_double(zipf_pct, 2), fmt_double(zipf_r_pct, 2),
                   fmt_double(uni_pct, 2)});
            report.row({{"prioritization", prioritize},
                        {"aggr_key_ratio", ratio},
                        {"zipf_pct", zipf_pct},
                        {"zipf_reverse_pct", zipf_r_pct},
                        {"uniform_pct", uni_pct}});
        }
        t.print(std::cout);
    }
    report.note("paper: without prioritization cold keys pin aggregators for "
                "the task lifetime; with it, ratio 1/16 reaches 95.85 % on Zipf");
    return exact.finish(report);
}
