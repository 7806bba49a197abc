/**
 * Figure 10 — WordCount job completion time: Spark / SparkSHM /
 * SparkRDMA / Spark-with-ASK on 3 machines x 32 mappers x 32 reducers,
 * 2^18 distinct keys per mapper, sweeping {5,10,15,20}e7 tuples per
 * mapper. Paper: ASK cuts JCT by 67.3-75.1 % vs all baselines; the
 * SHM/RDMA variants give no significant gain over vanilla Spark.
 */
#include <algorithm>
#include <cstdint>
#include <iostream>

#include "apps/minimr.h"
#include "bench_util.h"

int
main(int argc, char** argv)
{
    using namespace ask;
    using apps::MrBackend;
    bench::BenchReport report("fig10_jct",
                              "WordCount JCT vs tuples per mapper", argc,
                              argv);
    bool full = report.full();
    std::uint64_t sim_scale = report.smoke() ? 8000 : (full ? 500 : 2000);
    report.param("sim_scale", sim_scale);

    bench::banner("Figure 10", "WordCount JCT vs tuples per mapper");

    bench::ExactRuns exact;
    TextTable t;
    t.header({"tuples/mapper", "Spark (s)", "SparkSHM (s)", "SparkRDMA (s)",
              "ASK (s)", "ASK reduction"});
    for (std::uint64_t volume : {50000000ULL, 100000000ULL, 150000000ULL,
                                 200000000ULL}) {
        apps::MrJobSpec spec;
        spec.tuples_per_mapper = volume;
        spec.sim_scale = sim_scale;

        double jct[4];
        MrBackend backends[] = {MrBackend::kSpark, MrBackend::kSparkShm,
                                MrBackend::kSparkRdma, MrBackend::kAsk};
        for (int i = 0; i < 4; ++i) {
            spec.backend = backends[i];
            apps::MrJobResult r = apps::run_mr_job(spec);
            jct[i] = r.jct_s;
            exact.add(r.ask_tasks, r.exact_tasks);
        }
        double best_baseline = std::min({jct[0], jct[1], jct[2]});
        t.row({std::to_string(volume / 10000000) + "e7",
               fmt_double(jct[0], 2), fmt_double(jct[1], 2),
               fmt_double(jct[2], 2), fmt_double(jct[3], 2),
               fmt_double(100.0 * (1.0 - jct[3] / best_baseline), 1) + "%"});
        report.row({{"tuples_per_mapper", volume},
                    {"spark_s", jct[0]},
                    {"spark_shm_s", jct[1]},
                    {"spark_rdma_s", jct[2]},
                    {"ask_s", jct[3]},
                    {"ask_reduction_pct",
                     100.0 * (1.0 - jct[3] / best_baseline)}});
    }
    t.print(std::cout);
    report.note("paper: ASK reduces JCT by 67.3-75.1 % in all settings");
    return exact.finish(report);
}
