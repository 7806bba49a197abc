#include "apps/trainsim.h"

#include <algorithm>
#include <cmath>

#include "ask/cluster.h"
#include "baselines/sync_ina.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "workload/generators.h"

namespace ask::apps {

const char*
train_backend_name(TrainBackend b)
{
    switch (b) {
      case TrainBackend::kAsk:
        return "ASK";
      case TrainBackend::kAtp:
        return "ATP";
      case TrainBackend::kSwitchMl:
        return "SwitchML";
    }
    return "?";
}

namespace {

/** One ASK value-stream push of `elements` gradient elements; returns
 *  the simulated elapsed time including setup and teardown.
 *
 *  BytePS shards the parameter server across all workers: every host is
 *  both a worker and the PS for 1/N of the gradient, so the forwarded
 *  (not-switch-absorbed) traffic spreads over every host's link and
 *  cores rather than converging on one PS. Each shard is one ASK task.
 */
Nanoseconds
ask_push_elapsed(const TrainSpec& spec, std::uint64_t elements)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(spec.workers).build();
    cc.ask.max_hosts = spec.workers;
    cc.link_gbps = spec.link_gbps;
    // Value streams arrive in lockstep; periodic shadow swaps drain the
    // aggregators so the (index-)key working set keeps fitting.
    cc.ask.swap_threshold_packets = 512;
    // Gradient indices are short keys: use every AA for them, and chain
    // two switch pipelines for 64-tuple packets and twice the aggregator
    // pool (§5.7: training deployments chain pipelines for goodput).
    cc.ask.medium_groups = 0;
    cc.ask.num_aas = 64;
    cc.switch_stages = 34;

    core::AskCluster cluster(cc);
    std::uint64_t shard = elements / spec.workers;
    std::uint32_t region = cc.ask.copy_size() / spec.workers;
    std::vector<bool> done(spec.workers, false);
    for (std::uint32_t s = 0; s < spec.workers; ++s) {
        std::vector<core::StreamSpec> streams;
        for (std::uint32_t w = 0; w < spec.workers; ++w) {
            streams.push_back(
                {w, workload::value_stream(shard, 0, 7 + w, s * shard)});
        }
        cluster.submit_task(s + 1, s, std::move(streams),
                            {.region_len = region, .op = spec.reduce_op},
                            [&done, s](core::AggregateMap,
                                       core::TaskReport) { done[s] = true; });
    }
    sim::SimTime elapsed = cluster.run();
    for (std::uint32_t s = 0; s < spec.workers; ++s)
        ASK_ASSERT(done[s], "ASK gradient shard ", s, " did not complete");
    return elapsed;
}

/** ASK value-stream push goodput, measured *marginally* (two probe
 *  sizes) so fixed setup/teardown costs cancel out — the full gradient
 *  amortizes them over far more data than a probe can. */
double
measure_ask_push_goodput(const TrainSpec& spec)
{
    std::uint64_t n1 = spec.probe_elements / 2;
    std::uint64_t n2 = spec.probe_elements;
    Nanoseconds t1 = ask_push_elapsed(spec, n1);
    Nanoseconds t2 = ask_push_elapsed(spec, n2);
    ASK_ASSERT(t2 > t1, "probe elapsed not monotone");
    double marginal_bytes = static_cast<double>(n2 - n1) * 4.0;
    return units::gbps(marginal_bytes, t2 - t1);
}

double
measure_sync_goodput(const TrainSpec& spec)
{
    baselines::SyncInaSpec s;
    s.variant = spec.backend == TrainBackend::kAtp
                    ? baselines::SyncVariant::kAtp
                    : baselines::SyncVariant::kSwitchMl;
    s.workers = spec.workers;
    s.grad_elements = spec.probe_elements;
    // SwitchML's hallmark small packets vs ATP's larger ones (§5.6:
    // "SwitchML's small packet size cannot fully utilize the network").
    s.values_per_packet =
        spec.backend == TrainBackend::kSwitchMl ? 16 : 64;
    s.slots = 512;
    s.link_gbps = spec.link_gbps;
    baselines::SyncInaResult r = baselines::run_sync_allreduce(s);
    ASK_ASSERT(r.correct, "sync allreduce produced wrong sums");
    return r.per_worker_goodput_gbps;
}

}  // namespace

double
measure_gradient_goodput_gbps(const TrainSpec& spec)
{
    if (spec.backend == TrainBackend::kAsk)
        return measure_ask_push_goodput(spec);
    return measure_sync_goodput(spec);
}

FloatAccuracy
measure_float_gradient_accuracy(const TrainSpec& spec,
                                std::uint64_t elements)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().add_rack(spec.workers).build();
    cc.ask.max_hosts = spec.workers;
    cc.link_gbps = spec.link_gbps;

    const std::uint32_t frac = cc.ask.float_frac_bits;
    core::AskCluster cluster(cc);

    // Build every worker's encoded gradient shard, and alongside it the
    // two references: the exact double-precision sum per key, and the
    // quantized ideal — the wrapping 32-bit sum of the same encodings,
    // i.e. what a perfect fixed-point aggregator must produce.
    std::vector<double> exact(elements, 0.0);
    std::vector<std::uint32_t> ideal(elements, 0);
    std::vector<core::StreamSpec> streams;
    Rng rng = seeded_rng("float_gradient", spec.workers);
    for (std::uint32_t w = 0; w < spec.workers; ++w) {
        core::KvStream s;
        s.reserve(elements);
        for (std::uint64_t i = 0; i < elements; ++i) {
            double g = (rng.next_double() - 0.5) * 0.2;  // gradient-scale
            core::Value q = core::float_encode(g, frac);
            exact[i] += g;
            ideal[i] += q;
            s.push_back({u64_key(i), q});
        }
        streams.push_back({w, std::move(s)});
    }

    core::TaskOptions opts;
    opts.op = core::ReduceOp::kFloat;
    core::TaskResult r = cluster.run_task(1, 0, streams, opts);
    ASK_ASSERT(r.ok(), "float-gradient aggregation failed: ",
               r.report.detail);

    FloatAccuracy out;
    out.elements = elements;
    out.frac_bits = frac;
    out.matches_quantized_ideal = true;
    double total_err = 0.0;
    for (std::uint64_t i = 0; i < elements; ++i) {
        auto it = r.result.find(u64_key(i));
        ASK_ASSERT(it != r.result.end(), "gradient key ", i, " missing");
        // kFloat arithmetic is defined modulo 2^32 end-to-end; the
        // 64-bit host aggregate decodes through its low word.
        auto word = static_cast<std::uint32_t>(it->second);
        if (word != ideal[i])
            out.matches_quantized_ideal = false;
        double err = std::abs(core::float_decode(word, frac) - exact[i]);
        out.max_abs_error = std::max(out.max_abs_error, err);
        total_err += err;
    }
    if (elements > 0)
        out.mean_abs_error = total_err / static_cast<double>(elements);
    // Each addend rounds to the grid once (half an ulp); the adds
    // themselves are exact in the ring.
    out.error_bound =
        spec.workers * std::ldexp(0.5, -static_cast<int>(frac));
    return out;
}

TrainResult
run_training(const TrainSpec& spec)
{
    TrainResult out;
    out.goodput_gbps = measure_gradient_goodput_gbps(spec);
    out.compute_s = units::to_seconds(spec.model.compute_ns);

    double grad_bits = static_cast<double>(spec.model.gradient_bytes()) * 8.0;
    double push_s = grad_bits / (out.goodput_gbps * 1e9);
    if (spec.backend == TrainBackend::kAsk) {
        // The sync-INA probes measure the full allreduce loop; the ASK
        // probe measures the push only — add the parameter pull, a
        // line-rate sharded broadcast.
        out.comm_s = push_s + grad_bits / (0.9 * spec.link_gbps * 1e9);
    } else {
        out.comm_s = push_s;
    }

    // BytePS-style compute/communication overlap.
    double step_s = std::max(out.compute_s, out.comm_s) +
                    spec.non_overlap * std::min(out.compute_s, out.comm_s);
    out.images_per_second =
        static_cast<double>(spec.workers) * spec.model.batch_size / step_s;
    return out;
}

}  // namespace ask::apps
