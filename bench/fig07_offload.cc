/**
 * Figure 7 — Computation offload: job completion time and CPU use of
 * ASK (1/2/4 data channels) vs the host-only PreAggr baseline
 * (8..56 threads) on a 51.2 GB (6.4e9-tuple) uniform MapReduce job.
 * Paper: PreAggr 111.20 s @ 8 thr / 33.22 s @ 32 thr; ASK ~16 s with
 * 1 dCh and ~6 s with 4 dCh at 1.78/3.57/7.14 % CPU.
 */
#include <cstdint>
#include <iostream>

#include "ask/cluster.h"
#include "baselines/preaggr.h"
#include "bench_util.h"
#include "workload/generators.h"

namespace {

using namespace ask;

constexpr std::uint64_t kPaperTuples = 6400000000ULL;  // 51.2 GB / 8 B
constexpr std::uint64_t kPaperDistinct = 33554432;     // 256 MB combined

/** ASK JCT for the Figure 7 job, DES-scaled. The job splits into one
 *  aggregation task per data channel, as the map tasks of a real job
 *  would. */
double
ask_jct_seconds(std::uint32_t channels, std::uint64_t sim_scale)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(2).build();
    cc.ask.max_hosts = 2;
    cc.ask.channels_per_host = channels;
    cc.ask.medium_groups = 0;
    core::AskCluster cluster(cc);

    std::uint64_t tuples = kPaperTuples / sim_scale;
    std::uint64_t distinct = kPaperDistinct / sim_scale;
    std::uint32_t parts = 2 * channels;
    auto ids = bench::balanced_task_ids(1, channels, parts);
    std::uint32_t keys_per_slot = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(1,
                                distinct / parts / cc.ask.short_aas()));
    const core::KeySpace& ks = cluster.daemon(1).key_space();
    std::vector<bench::StreamingTask> tasks;
    for (std::uint32_t p = 0; p < parts; ++p) {
        tasks.push_back({ids[p], 0,
                         {{1, bench::balanced_uniform_stream(
                                  ks, keys_per_slot, tuples / parts,
                                  static_cast<std::uint64_t>(p) << 24)}},
                         {.region_len = cc.ask.copy_size() / parts}});
    }
    bench::StreamingResult sr =
        bench::run_streaming_tasks(cluster, std::move(tasks));

    Nanoseconds fixed = cc.mgmt_latency_ns + cc.notify_latency_ns;
    Nanoseconds stream = std::max<Nanoseconds>(sr.senders_done - fixed, 1);
    // Streaming rescales with volume; add the (unscaled) final fetch.
    double fetch_s = units::to_seconds(
        static_cast<Nanoseconds>(2.0 * cc.ask.copy_size() * cc.ask.num_aas * 2));
    return units::to_seconds(stream) * static_cast<double>(sim_scale) +
           units::to_seconds(fixed) + fetch_s;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::BenchReport report(
        "fig07_offload", "JCT and CPU: ASK data channels vs PreAggr threads",
        argc, argv);
    bool full = report.full();
    std::uint64_t sim_scale = report.smoke() ? 16000 : (full ? 1000 : 4000);
    report.param("sim_scale", sim_scale);
    report.param("paper_tuples", kPaperTuples);

    bench::banner("Figure 7",
                  "JCT and CPU: ASK data channels vs PreAggr threads");

    TextTable t;
    t.header({"solution", "JCT (s)", "CPU (%)", "paper JCT (s)"});

    baselines::PreAggrSpec ps;
    ps.tuples = kPaperTuples;
    ps.distinct_keys = kPaperDistinct;
    struct Ref { std::uint32_t threads; const char* paper; };
    for (Ref ref : {Ref{8, "111.20"}, Ref{16, "-"}, Ref{32, "33.22"},
                    Ref{56, "-"}}) {
        ps.threads = ref.threads;
        auto r = baselines::run_preaggr(ps);
        t.row({"PreAggr " + std::to_string(ref.threads) + " thr",
               fmt_double(r.jct_s, 2), fmt_double(r.cpu_fraction * 100, 2),
               ref.paper});
        report.row({{"solution", "preaggr"},
                    {"threads", ref.threads},
                    {"jct_s", r.jct_s},
                    {"cpu_pct", r.cpu_fraction * 100},
                    {"paper_jct_s", ref.paper}});
    }

    struct AskRef { std::uint32_t ch; const char* paper; };
    for (AskRef ref : {AskRef{1, "~16"}, AskRef{2, "-"}, AskRef{4, "~6"}}) {
        double jct = ask_jct_seconds(ref.ch, sim_scale);
        double cpu = 100.0 * ref.ch / 56.0;
        t.row({"ASK " + std::to_string(ref.ch) + " dCh", fmt_double(jct, 2),
               fmt_double(cpu, 2), ref.paper});
        report.row({{"solution", "ask"},
                    {"channels", ref.ch},
                    {"jct_s", jct},
                    {"cpu_pct", cpu},
                    {"paper_jct_s", ref.paper}});
    }
    t.print(std::cout);
    report.note("ASK rows are DES runs at 1/" + std::to_string(sim_scale) +
                " volume, streaming time rescaled (fixed costs not scaled)");
    report.note("paper CPU: 1.78/3.57/7.14 % for 1/2/4 dCh; PreAggr "
                "14.3 % @ 8 thr to 100 % @ 56 thr");
    return 0;
}
