/**
 * Table 1 — Traffic reduction on the four production-trace stand-ins
 * (yelp, NG, BAC, LMDB): percentage of key-value tuples aggregated by
 * the switch and percentage of data packets fully absorbed (ACKed) by
 * the switch. Paper: 85.73-94.32 % tuples, 72.01-90.36 % packets.
 */
#include <cstdint>
#include <iostream>

#include "ask/cluster.h"
#include "bench_util.h"
#include "workload/text_corpus.h"

namespace {

using namespace ask;

struct Measured
{
    double tuple_pct;
    double packet_pct;
};

Measured
measure(const workload::CorpusProfile& profile, std::uint64_t tuples,
        std::uint64_t vocab_scale, bench::ExactRuns& exact)
{
    workload::CorpusProfile p = profile;
    p.vocabulary /= vocab_scale;  // scaled with the stream volume

    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    core::AskCluster cluster(cc);

    workload::TextCorpus corpus(p, 11);
    core::KvStream stream = corpus.generate(tuples);
    core::TaskResult r = cluster.run_task(1, 0, {{1, stream}});
    exact.check(r, bench::fold(stream));

    // Denominators include the long-key traffic that bypasses the
    // switch (the paper counts all incoming tuples/packets).
    const core::SwitchAggStats& sw = cluster.switch_stats(core::SwitchId{0});
    std::uint64_t all_tuples = cluster.total_host_stats().tuples_sent;
    Measured m;
    m.tuple_pct = 100.0 * static_cast<double>(sw.tuples_aggregated) /
                  static_cast<double>(all_tuples);
    m.packet_pct = 100.0 * static_cast<double>(sw.packets_acked) /
                   static_cast<double>(sw.packets_acked +
                                       sw.packets_forwarded + sw.long_packets);
    return m;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchReport report("table1_traffic",
                              "traffic reduction on text-corpus traces",
                              argc, argv);
    bool full = report.full();
    std::uint64_t tuples = report.smoke() ? 150000 : (full ? 4000000 : 600000);
    std::uint64_t vocab_scale = report.smoke() ? 32 : (full ? 4 : 16);
    report.param("tuples", tuples);
    report.param("vocab_scale", vocab_scale);

    bench::banner("Table 1", "traffic reduction on text-corpus traces");

    struct Ref { const char* tuple; const char* packet; };
    const Ref refs[] = {{"92.18", "72.01"},
                        {"85.73", "84.35"},
                        {"94.32", "90.36"},
                        {"91.49", "88.59"}};

    TextTable t;
    t.header({"dataset", "tuples agg (%)", "paper", "pkts ACKed (%)", "paper"});
    bench::ExactRuns exact;
    int i = 0;
    for (const auto& profile : workload::all_corpus_profiles()) {
        Measured m = measure(profile, tuples, vocab_scale, exact);
        t.row({profile.name, fmt_double(m.tuple_pct, 2), refs[i].tuple,
               fmt_double(m.packet_pct, 2), refs[i].packet});
        report.row({{"dataset", profile.name},
                    {"tuples_aggregated_pct", m.tuple_pct},
                    {"paper_tuples_pct", refs[i].tuple},
                    {"packets_acked_pct", m.packet_pct},
                    {"paper_packets_pct", refs[i].packet}});
        ++i;
    }
    t.print(std::cout);
    report.note("synthetic corpora calibrated to each dataset's skew and "
                "word-length statistics; vocabulary scaled 1/" +
                std::to_string(vocab_scale) + " with the stream volume");
    return exact.finish(report);
}
