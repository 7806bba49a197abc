#include "apps/minimr.h"

#include <algorithm>
#include <vector>

#include "ask/cluster.h"
#include "common/logging.h"
#include "workload/generators.h"

namespace ask::apps {

const char*
mr_backend_name(MrBackend b)
{
    switch (b) {
      case MrBackend::kSpark:
        return "Spark";
      case MrBackend::kSparkShm:
        return "SparkSHM";
      case MrBackend::kSparkRdma:
        return "SparkRDMA";
      case MrBackend::kAsk:
        return "ASK";
    }
    return "?";
}

namespace {

/** ASK mappers only write tuples into the daemon's shared memory. */
constexpr double kAskMapperNsPerTuple = 11.0;

MrJobResult
run_spark_backend(const MrJobSpec& spec)
{
    baselines::SparkJobSpec s;
    s.machines = spec.machines;
    s.mappers_per_machine = spec.mappers_per_machine;
    s.reducers_per_machine = spec.reducers_per_machine;
    s.tuples_per_mapper = spec.tuples_per_mapper;
    s.distinct_keys_per_mapper = spec.distinct_keys_per_mapper;
    s.cores_per_machine = spec.cores_per_machine;
    s.variant = spec.backend == MrBackend::kSpark
                    ? baselines::SparkVariant::kVanilla
                    : (spec.backend == MrBackend::kSparkShm
                           ? baselines::SparkVariant::kShm
                           : baselines::SparkVariant::kRdma);
    baselines::SparkJobResult r = baselines::run_spark_job(s);

    MrJobResult out;
    out.jct_s = r.jct_s;
    out.mapper_tct_s = r.mapper_tct_s;
    out.reducer_tct_s = r.reducer_tct_s;
    // All mapper/reducer slots compute simultaneously.
    out.cpu_fraction =
        std::min(1.0, static_cast<double>(spec.mappers_per_machine) /
                          spec.cores_per_machine);
    return out;
}

MrJobResult
run_ask_backend(const MrJobSpec& spec)
{
    ASK_ASSERT(spec.sim_scale >= 1, "sim_scale must be >= 1");

    // --- Map phase: mappers only hand tuples to the local ASK daemon.
    MrJobResult out;
    out.mapper_tct_s = static_cast<double>(spec.tuples_per_mapper) *
                       kAskMapperNsPerTuple * 1e-9;

    // --- Aggregation phase on the simulator (scaled volume).
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(spec.machines).build();
    cc.ask.channels_per_host = spec.ask_channels;
    cc.ask.max_hosts = spec.machines;
    cc.cost = spec.cost;
    // Numeric shuffle keys fit one aggregator segment: configure the
    // slot layout all-short so every AA serves the workload (the paper
    // dedicates AAs to medium keys only for variable-length corpora).
    cc.ask.medium_groups = 0;

    core::AskCluster cluster(cc);

    // The shuffle's reduce partitions become ASK aggregation tasks —
    // several per machine so every host's send jobs spread over its data
    // channels (hash load balancing, §3.1). Every machine streams its
    // share of every partition.
    // Enough tasks that hash load balancing spreads them evenly over the
    // data channels (the paper's jobs have 96 reduce partitions).
    std::uint32_t tasks_per_machine =
        std::min(spec.reducers_per_machine, 2 * spec.ask_channels);
    std::uint32_t num_tasks = spec.machines * tasks_per_machine;
    std::uint64_t tuples_per_machine =
        spec.mappers_per_machine * spec.tuples_per_mapper / spec.sim_scale;
    std::uint64_t per_stream = std::max<std::uint64_t>(
        1, tuples_per_machine / num_tasks);
    std::uint64_t distinct = std::max<std::uint64_t>(
        2048, spec.distinct_keys_per_mapper / spec.sim_scale /
                  tasks_per_machine);
    std::uint32_t region_len =
        std::max(1u, cc.ask.copy_size() / num_tasks);

    // Task ids picked so every machine's hash-based channel balancing
    // is even (a scheduler would spread 96 reduce partitions similarly;
    // with the scaled-down task count, an unlucky hash would otherwise
    // leave whole cores idle).
    std::vector<std::uint32_t> task_ids;
    {
        std::vector<std::vector<std::uint32_t>> load(
            spec.machines,
            std::vector<std::uint32_t>(spec.ask_channels, 0));
        std::uint32_t cap =
            (num_tasks + spec.ask_channels - 1) / spec.ask_channels;
        for (std::uint32_t candidate = 1;
             task_ids.size() < num_tasks && candidate < 10000000;
             ++candidate) {
            bool ok = true;
            for (std::uint32_t h = 0; h < spec.machines && ok; ++h) {
                ok = load[h][core::task_channel_index(
                         candidate, core::HostId{h}, spec.ask_channels)] <
                     cap;
            }
            if (!ok)
                continue;
            for (std::uint32_t h = 0; h < spec.machines; ++h) {
                ++load[h][core::task_channel_index(
                    candidate, core::HostId{h}, spec.ask_channels)];
            }
            task_ids.push_back(candidate);
        }
        ASK_ASSERT(task_ids.size() == num_tasks,
                   "could not balance shuffle task ids");
    }

    std::vector<bool> done(num_tasks, false);
    for (std::uint32_t t = 0; t < num_tasks; ++t) {
        std::uint32_t receiver = t % spec.machines;
        std::vector<core::StreamSpec> streams;
        for (std::uint32_t h = 0; h < spec.machines; ++h) {
            // Per-task id offsets isolate key spaces while keeping the
            // encoded keys short (one aggregator segment).
            workload::UniformGenerator gen(distinct,
                                           spec.seed * 131 + t * 17 + h, "",
                                           static_cast<std::uint64_t>(t) *
                                               (distinct + 1));
            streams.push_back({h, gen.generate(per_stream)});
        }
        cluster.submit_task(task_ids[t], receiver, std::move(streams),
                            {.region_len = region_len},
                            [&done, t](core::AggregateMap,
                                       core::TaskReport) { done[t] = true; });
    }
    sim::SimTime elapsed = cluster.run();
    for (std::uint32_t t = 0; t < num_tasks; ++t)
        ASK_ASSERT(done[t], "aggregation task ", t, " incomplete");

    // Only the throughput-bound streaming portion scales with volume;
    // task setup and the final region fetch are fixed costs that must
    // not be multiplied by sim_scale.
    Nanoseconds fixed =
        2 * cc.mgmt_latency_ns + cc.notify_latency_ns +
        static_cast<Nanoseconds>(static_cast<double>(region_len) *
                                 cc.ask.num_aas * 2.0 * 2.0);
    double stream_ns =
        std::max(0.0, static_cast<double>(elapsed - fixed));
    double agg_s = (stream_ns * static_cast<double>(spec.sim_scale) +
                    static_cast<double>(fixed)) *
                   1e-9;

    // Mapping and streaming are pipelined: the job ends when the slower
    // of the two phases ends, plus the final fetch already included in
    // the simulated elapsed time.
    out.jct_s = std::max(out.mapper_tct_s, agg_s);
    out.reducer_tct_s = agg_s;
    out.cpu_fraction = static_cast<double>(spec.ask_channels) /
                       spec.cores_per_machine;

    const core::SwitchAggStats& sw = cluster.switch_stats(core::SwitchId{0});
    if (sw.tuples_in > 0) {
        out.switch_tuple_ratio =
            static_cast<double>(sw.tuples_aggregated) /
            static_cast<double>(sw.tuples_in);
    }
    if (sw.data_packets > 0) {
        out.switch_ack_ratio = static_cast<double>(sw.packets_acked) /
                               static_cast<double>(sw.packets_acked +
                                                   sw.packets_forwarded);
    }
    return out;
}

}  // namespace

MrJobResult
run_mr_job(const MrJobSpec& spec)
{
    if (spec.backend == MrBackend::kAsk)
        return run_ask_backend(spec);
    return run_spark_backend(spec);
}

}  // namespace ask::apps
