/**
 * WordCount — the paper's motivating big-data scenario (§5.5).
 *
 * Runs a MapReduce-style WordCount over a synthetic text corpus on a
 * three-server cluster, once with host-only aggregation economics
 * (vanilla Spark model) and once with the aggregation offloaded to the
 * ASK service, then compares job completion time and CPU use. Also
 * demonstrates the variable-length-key machinery: real words span the
 * short / medium (coalesced) / long key classes.
 *
 *   ./build/examples/wordcount
 */
#include <iostream>

#include "apps/minimr.h"
#include "ask/cluster.h"
#include "common/string_util.h"
#include "common/table.h"
#include "workload/text_corpus.h"

int
main()
{
    using namespace ask;

    // --- Part 1: word-level view on a small corpus. --------------------
    workload::CorpusProfile profile = workload::movie_reviews_profile();
    profile.vocabulary = 20000;
    workload::TextCorpus corpus(profile, 2026);

    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(3).build();
    cc.ask.max_hosts = 3;
    core::AskCluster cluster(cc);

    std::vector<core::StreamSpec> streams{
        {1, corpus.generate(40000)},
        {2, corpus.generate(40000)},
    };
    core::TaskResult r = cluster.run_task(1, 0, streams);

    std::cout << "WordCount over " << 2 * 40000 << " words, "
              << r.result.size() << " distinct\n";
    const core::SwitchAggStats& sw = cluster.switch_stats(core::SwitchId{0});
    std::cout << "switch absorbed "
              << 100.0 * sw.tuples_aggregated /
                     std::max<std::uint64_t>(1, sw.tuples_in)
              << "% of short/medium-key tuples; " << sw.long_packets
              << " long-key packets bypassed to the host\n\n";

    // --- Part 2: job-level economics (Figure 10's story). ---------------
    TextTable t;
    t.header({"backend", "JCT (s)", "mapper TCT (s)", "CPU (%)"});
    for (auto backend : {apps::MrBackend::kSpark, apps::MrBackend::kAsk}) {
        apps::MrJobSpec spec;
        spec.backend = backend;
        spec.tuples_per_mapper = 50000000;
        spec.sim_scale = 2000;
        apps::MrJobResult jr = apps::run_mr_job(spec);
        t.row({apps::mr_backend_name(backend), fmt_double(jr.jct_s, 2),
               fmt_double(jr.mapper_tct_s, 2),
               fmt_double(jr.cpu_fraction * 100, 1)});
    }
    t.print(std::cout);
    std::cout << "\nASK removes the aggregation from the mappers' CPUs: the "
                 "switch does it at line rate.\n";
    return 0;
}
