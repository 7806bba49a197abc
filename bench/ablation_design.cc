/**
 * Ablation — the design choices DESIGN.md calls out:
 *  1. Compact W-bit `seen` vs the reference 2W-bit design: switch SRAM
 *     per data channel (paper §3.3 claims 50 % savings) and end-to-end
 *     equivalence under loss.
 *  2. Shadow copies on/off at a fixed aggregator budget (the Fig. 9
 *     mechanism, summarized at one operating point).
 *  3. Vectorization degree: goodput at 1 vs 32 tuples/packet (the
 *     strawman gap of §2.3).
 */
#include <cstdint>
#include <iostream>

#include "ask/cluster.h"
#include "bench_util.h"
#include "net/cost_model.h"
#include "pisa/pisa_switch.h"
#include "workload/generators.h"

namespace {

using namespace ask;

double
switch_fraction(bool shadow, const core::KvStream& stream)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.medium_groups = 0;
    cc.ask.shadow_copies = shadow;
    cc.ask.swap_threshold_packets = shadow ? 256 : 0;
    core::AskCluster cluster(cc);
    cluster.run_task(1, 0, {{1, stream}}, {.region_len = 32});
    const core::SwitchAggStats& sw = cluster.switch_stats(core::SwitchId{0});
    return 100.0 * static_cast<double>(sw.tuples_aggregated) /
           static_cast<double>(sw.tuples_in);
}

std::size_t
seen_sram_per_channel(bool compact)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    pisa::PisaSwitch sw(network);
    core::AskConfig cfg;
    cfg.compact_seen = compact;
    core::AskSwitchProgram program(cfg, sw);
    std::size_t bytes = 0;
    for (const char* name : {"seen", "seen_even", "seen_odd"}) {
        if (auto* arr = sw.pipeline().find_array(name))
            bytes += arr->sram_bytes();
    }
    return bytes / cfg.max_channels();
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchReport report(
        "ablation_design", "seen compaction, shadow copies, vectorization",
        argc, argv);
    std::uint64_t tuples = report.smoke() ? 100000 : 400000;
    report.param("shadow_tuples", tuples);

    bench::banner("Ablation", "seen compaction, shadow copies, vectorization");

    // 1. seen SRAM.
    TextTable seen;
    seen.header({"seen design", "SRAM/channel (bytes)"});
    std::size_t compact_bytes = seen_sram_per_channel(true);
    std::size_t reference_bytes = seen_sram_per_channel(false);
    seen.row({"compact (W bits)", std::to_string(compact_bytes)});
    seen.row({"reference (2W bits)", std::to_string(reference_bytes)});
    std::cout << "\n1. receive-window state (W = 256)\n";
    seen.print(std::cout);
    report.row({{"section", "seen_sram"},
                {"compact_bytes_per_channel", std::uint64_t{compact_bytes}},
                {"reference_bytes_per_channel",
                 std::uint64_t{reference_bytes}}});
    report.note("paper §3.3: the compact design halves the seen footprint; "
                "behavioral equivalence is property-tested in "
                "tests/seen_window_test.cc");

    // 2. shadow copies at a fixed aggregator budget.
    workload::ZipfGenerator zipf(1 << 13, 1.0, 13);
    core::KvStream stream = zipf.generate(tuples);
    std::cout << "\n2. hot-key prioritization at a 1/8 aggregator/key ratio\n";
    TextTable shadow;
    shadow.header({"shadow copies", "tuples aggregated on switch (%)"});
    double off_pct = switch_fraction(false, stream);
    double on_pct = switch_fraction(true, stream);
    shadow.row({"off (FCFS only)", fmt_double(off_pct, 2)});
    shadow.row({"on (periodic swap)", fmt_double(on_pct, 2)});
    shadow.print(std::cout);
    report.row({{"section", "shadow_copies"},
                {"off_pct", off_pct},
                {"on_pct", on_pct}});

    // 3. vectorization degree: ideal goodput at the wire.
    std::cout << "\n3. vectorization: wire efficiency by tuples/packet\n";
    TextTable vec;
    vec.header({"tuples/packet", "ideal goodput (Gbps)"});
    for (std::uint32_t x : {1u, 8u, 32u, 64u}) {
        double gbps = 8.0 * x / (8.0 * x + 78.0) * 100.0;
        vec.row({std::to_string(x), fmt_double(gbps, 2)});
        report.row({{"section", "vectorization"},
                    {"tuples_per_packet", x},
                    {"ideal_goodput_gbps", gbps}});
    }
    vec.print(std::cout);
    report.note("paper §2.3: single-tuple packets cap goodput at 9.76 Gbps "
                "even at a 100 Gbps line rate");
    return 0;
}
