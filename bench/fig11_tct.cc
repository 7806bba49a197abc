/**
 * Figure 11 — Task completion times of the Figure 10 job at 1.5e8
 * tuples per mapper: mean mapper TCT and mean reducer TCT per backend.
 * Paper: ASK mappers average 1.67 s (they only hand tuples to the
 * daemon) vs 15.89-17.67 s for the Spark variants; ASK reducers run
 * longer than its mappers because co-located mapper data is aggregated
 * by the local reducers.
 */
#include <iostream>

#include "apps/minimr.h"
#include "bench_util.h"

int
main(int argc, char** argv)
{
    using namespace ask;
    using apps::MrBackend;
    bench::BenchReport report("fig11_tct",
                              "mapper/reducer TCT at 1.5e8 tuples/mapper",
                              argc, argv);
    bool full = report.full();
    std::uint64_t sim_scale = report.smoke() ? 8000 : (full ? 500 : 2000);
    report.param("sim_scale", sim_scale);
    report.param("tuples_per_mapper", std::uint64_t{150000000});

    bench::banner("Figure 11", "mapper/reducer TCT at 1.5e8 tuples/mapper");

    struct Ref { MrBackend backend; const char* paper_mapper; };
    const Ref refs[] = {
        {MrBackend::kSpark, "~17.7"},
        {MrBackend::kSparkShm, "~15.9"},
        {MrBackend::kSparkRdma, "~16.8"},
        {MrBackend::kAsk, "1.67"},
    };

    bench::ExactRuns exact;
    TextTable t;
    t.header({"backend", "mapper TCT (s)", "paper", "reducer TCT (s)"});
    for (const Ref& ref : refs) {
        apps::MrJobSpec spec;
        spec.backend = ref.backend;
        spec.tuples_per_mapper = 150000000;
        spec.sim_scale = sim_scale;
        apps::MrJobResult r = apps::run_mr_job(spec);
        exact.add(r.ask_tasks, r.exact_tasks);
        t.row({apps::mr_backend_name(ref.backend),
               fmt_double(r.mapper_tct_s, 2), ref.paper_mapper,
               fmt_double(r.reducer_tct_s, 2)});
        report.row({{"backend", apps::mr_backend_name(ref.backend)},
                    {"mapper_tct_s", r.mapper_tct_s},
                    {"paper_mapper_tct_s", ref.paper_mapper},
                    {"reducer_tct_s", r.reducer_tct_s}});
    }
    t.print(std::cout);
    report.note("paper: ASK mapper mean 1.67 s vs 15.89-17.67 s; the mapper "
                "saving outweighs the longer ASK reducer phase");
    return exact.finish(report);
}
