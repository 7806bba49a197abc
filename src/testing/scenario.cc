#include "testing/scenario.h"

#include <string>
#include <utility>

#include "common/hash.h"
#include "common/random.h"
#include "workload/generators.h"

namespace ask::testing {

namespace {

using core::KvStream;
using units::kMicrosecond;
using units::kMillisecond;

/** Keys spanning all three classes (<=4 B short, 5-8 B medium, longer
 *  bypasses the switch), like the chaos tests' mixed streams. */
KvStream
mixed_stream(Rng& rng, std::uint64_t n, std::uint64_t distinct)
{
    KvStream s;
    s.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t id = rng.next_below(distinct);
        std::size_t len = 1 + id % 12;
        std::string key;
        std::uint64_t x = mix64(id + 1);
        for (std::size_t j = 0; j < len; ++j)
            key.push_back(static_cast<char>('a' + (x >> (5 * (j % 12))) % 26));
        s.push_back({key, static_cast<core::Value>(1 + rng.next_below(9))});
    }
    return s;
}

/** Short numeric-ish keys: maximal switch offload, heavy collisions. */
KvStream
short_stream(Rng& rng, std::uint64_t n, std::uint64_t distinct)
{
    KvStream s;
    s.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        s.push_back({"k" + std::to_string(rng.next_below(distinct)),
                     static_cast<core::Value>(1 + rng.next_below(9))});
    }
    return s;
}

/** Zipf-skewed keys (hot-key pressure on single aggregator slots). */
KvStream
zipf_stream(Rng& rng, std::uint64_t n, std::uint64_t distinct)
{
    workload::ZipfGenerator gen(distinct, /*alpha=*/1.1, rng.next_u64());
    KvStream s;
    s.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        s.push_back({gen.key_of(gen.sample_rank()),
                     static_cast<core::Value>(1 + rng.next_below(9))});
    }
    return s;
}

KvStream
sample_stream(Rng& rng)
{
    std::uint64_t n = rng.next_in(50, 400);
    std::uint64_t distinct = rng.next_in(10, 80);
    switch (rng.next_below(3)) {
      case 0: return short_stream(rng, n, distinct);
      case 1: return zipf_stream(rng, n, distinct);
      default: return mixed_stream(rng, n, distinct);
    }
}

/** Rough upper estimate of the undisturbed active period, so chaos
 *  events land where the tasks actually run. */
sim::SimTime
estimate_active_ns(std::uint64_t total_tuples)
{
    return 300 * kMicrosecond + total_tuples * 3000;
}

sim::ChaosPlan
sample_chaos(Rng& rng, const core::ClusterConfig& cluster,
             std::uint64_t total_tuples)
{
    sim::ChaosPlan plan;
    std::uint32_t episodes = static_cast<std::uint32_t>(rng.next_in(1, 6));
    bool allow_reboot = rng.chance(0.5);
    sim::SimTime horizon = estimate_active_ns(total_tuples);
    for (std::uint32_t i = 0; i < episodes; ++i) {
        sim::ChaosEvent e;
        // Weighted kinds: link faults dominate, control-plane episodes
        // occasional, reboots opt-in per plan.
        std::uint64_t roll = rng.next_below(allow_reboot ? 11 : 9);
        sim::SimTime dur =
            1 + static_cast<sim::SimTime>(rng.next_exponential(150.0)) *
                    kMicrosecond;
        e.at = 50 * kMicrosecond +
               static_cast<sim::SimTime>(
                   rng.next_below(static_cast<std::uint64_t>(horizon)));
        e.subject = static_cast<std::uint32_t>(
            rng.next_below(cluster.topology->num_hosts()));
        if (roll < 3) {
            e.kind = sim::ChaosKind::kLinkBlackout;
            e.duration = std::min<sim::SimTime>(dur, 1 * kMillisecond);
            e.intensity = 1.0;
        } else if (roll < 6) {
            e.kind = sim::ChaosKind::kBurstLoss;
            e.duration = std::min<sim::SimTime>(dur, 2 * kMillisecond);
            e.intensity = 0.2 + 0.6 * rng.next_double();
        } else if (roll < 7) {
            // Bounded well below the management retry budget (~11 ms
            // of backoff), so setup always survives the outage.
            e.kind = sim::ChaosKind::kMgmtOutage;
            e.duration = std::min<sim::SimTime>(dur, 800 * kMicrosecond);
        } else if (roll < 8) {
            e.kind = sim::ChaosKind::kMgmtDelay;
            e.duration = std::min<sim::SimTime>(dur * 4, 2 * kMillisecond);
            e.intensity = 50.0 * kMicrosecond;
        } else if (roll < 9) {
            e.kind = sim::ChaosKind::kDataBlackhole;
            if (rng.chance(0.3)) {
                // Permanent sick program: forces the retransmission
                // budget to trip and the degraded bypass path to carry
                // the rest of the run.
                e.at = static_cast<sim::SimTime>(
                    rng.next_below(50 * kMicrosecond));
                e.duration = 3600 * units::kSecond;
            } else {
                e.duration = std::min<sim::SimTime>(dur, 500 * kMicrosecond);
            }
        } else {
            e.kind = sim::ChaosKind::kSwitchReboot;
            e.duration = (100 + rng.next_below(200)) * kMicrosecond;
        }
        plan.add(e);
    }
    return plan;
}

/**
 * Host/controller crash episodes. Drawn from a dedicated Rng chain so
 * adding crash pressure never perturbs the deployment/task/chaos draws
 * of pre-existing seeds. A serial time cursor keeps crash windows
 * disjoint: every crash hits a live process and every restart finds
 * its subject crashed. Downtimes stay well below the management retry
 * budget (~11 ms of backoff) so in-flight setup RPCs survive a
 * controller outage, like the kMgmtOutage bound above.
 */
void
sample_crashes(Rng& rng, const core::ClusterConfig& cluster,
               std::uint64_t total_tuples, bool crash_heavy,
               sim::ChaosPlan& plan)
{
    if (!crash_heavy && !rng.chance(0.25))
        return;
    std::uint32_t episodes = static_cast<std::uint32_t>(
        crash_heavy ? rng.next_in(1, 4) : 1);
    sim::SimTime horizon = estimate_active_ns(total_tuples);
    sim::SimTime cursor = 30 * kMicrosecond;
    for (std::uint32_t i = 0; i < episodes; ++i) {
        sim::ChaosEvent e;
        e.kind = sim::ChaosKind::kHostCrash;
        if (rng.chance(0.3)) {
            e.subject = sim::kControllerSubject;
            e.duration = (100 + rng.next_below(500)) * kMicrosecond;
        } else {
            e.subject = static_cast<std::uint32_t>(
                rng.next_below(cluster.topology->num_hosts()));
            e.duration = (50 + rng.next_below(450)) * kMicrosecond;
        }
        cursor += rng.next_below(1 + static_cast<std::uint64_t>(
                                         horizon / episodes));
        e.at = cursor;
        cursor = e.at + e.duration + 20 * kMicrosecond;
        plan.add(e);
    }
}

}  // namespace

std::uint64_t
ScenarioSpec::total_tuples() const
{
    std::uint64_t n = 0;
    for (const auto& t : tasks)
        for (const auto& s : t.streams)
            n += s.stream.size();
    return n;
}

obs::Json
ScenarioSpec::describe() const
{
    obs::Json d = obs::Json::object();
    // Seeds are uint64; render as a string so the document round-trips
    // the exact value (Json integers are int64).
    d.set("seed", std::to_string(seed));
    // generate_scenario() always sets the topology.
    d.set("hosts", cluster.topology->num_hosts());
    d.set("racks", cluster.topology->num_racks());
    d.set("switches", cluster.topology->num_switches());
    d.set("num_aas", cluster.ask.num_aas);
    d.set("aggregators_per_aa", cluster.ask.aggregators_per_aa);
    d.set("window", cluster.ask.window);
    d.set("channels_per_host", cluster.ask.channels_per_host);
    d.set("compact_seen", cluster.ask.compact_seen);
    d.set("shadow_copies", cluster.ask.shadow_copies);
    d.set("swap_threshold", cluster.ask.swap_threshold_packets);
    d.set("op", static_cast<std::uint32_t>(cluster.ask.op));
    d.set("lossy_fabric", cluster.faults.loss_prob > 0.0);

    obs::Json tasks_json = obs::Json::array();
    for (const auto& t : tasks) {
        obs::Json tj = obs::Json::object();
        tj.set("id", t.id);
        tj.set("receiver", t.receiver_host);
        tj.set("region_len", t.options.region_len);
        tj.set("op", core::reduce_op_name(
                         t.options.op.value_or(cluster.ask.op)));
        tj.set("swaps_disabled",
               t.options.swap_policy ==
                   core::TaskOptions::SwapPolicy::kDisabled);
        obs::Json streams_json = obs::Json::array();
        for (const auto& s : t.streams) {
            obs::Json sj = obs::Json::object();
            sj.set("host", s.host.value());
            sj.set("tuples", static_cast<std::uint64_t>(s.stream.size()));
            streams_json.push_back(std::move(sj));
        }
        tj.set("streams", std::move(streams_json));
        tasks_json.push_back(std::move(tj));
    }
    d.set("tasks", std::move(tasks_json));

    obs::Json chaos_json = obs::Json::array();
    for (const auto& e : chaos.events) {
        obs::Json ej = obs::Json::object();
        ej.set("kind", sim::chaos_kind_name(e.kind));
        ej.set("at_ns", e.at);
        ej.set("duration_ns", e.duration);
        ej.set("subject", e.subject);
        chaos_json.push_back(std::move(ej));
    }
    d.set("chaos", std::move(chaos_json));
    return d;
}

ScenarioSpec
generate_scenario(std::uint64_t seed)
{
    return generate_scenario(seed, ScenarioTuning{});
}

ScenarioSpec
generate_scenario(std::uint64_t seed, const ScenarioTuning& tuning)
{
    Rng rng(seed);
    ScenarioSpec spec;
    spec.seed = seed;

    // ---- deployment ------------------------------------------------------
    core::ClusterConfig& cc = spec.cluster;
    const auto hosts = static_cast<std::uint32_t>(rng.next_in(2, 4));
    cc.topology = core::TopologyBuilder().add_rack(hosts).build();
    cc.ask.max_hosts = hosts;
    cc.ask.num_aas = rng.chance(0.5) ? 8 : 4;
    cc.ask.medium_segments = 2;
    cc.ask.medium_groups = cc.ask.num_aas == 8 ? 2 : 1;
    cc.ask.aggregators_per_aa =
        static_cast<std::uint32_t>(64u << rng.next_below(3));  // 64..256
    cc.ask.window = static_cast<std::uint32_t>(8u << rng.next_below(3));
    cc.ask.compact_seen = rng.chance(0.5);
    cc.ask.shadow_copies = rng.chance(0.8);
    cc.ask.channels_per_host = static_cast<std::uint32_t>(1u
                                                          << rng.next_below(3));
    cc.ask.swap_threshold_packets =
        rng.chance(0.4) ? 0 : rng.next_in(24, 96);
    // Trip the dead-path detector quickly enough for permanent
    // blackhole scenarios to degrade within the simulated horizon.
    cc.ask.max_data_tries = static_cast<std::uint32_t>(rng.next_in(6, 12));
    switch (rng.next_below(4)) {
      case 0: cc.ask.op = core::ReduceOp::kMax; break;
      case 1: cc.ask.op = core::ReduceOp::kMin; break;
      default: cc.ask.op = core::ReduceOp::kAdd; break;
    }
    cc.seed = rng.next_u64();
    if (rng.chance(0.5)) {
        cc.faults = net::FaultSpec::lossy(
            /*loss=*/0.01 + 0.07 * rng.next_double(),
            /*dup=*/0.04 * rng.next_double(),
            /*reorder=*/0.1 * rng.next_double());
    }

    // ---- tasks -----------------------------------------------------------
    std::uint32_t num_tasks = static_cast<std::uint32_t>(rng.next_in(1, 3));
    std::uint32_t copy = cc.ask.copy_size();
    for (std::uint32_t i = 0; i < num_tasks; ++i) {
        TaskSpec task;
        task.id = i + 1;
        task.receiver_host =
            static_cast<std::uint32_t>(rng.next_below(hosts));
        // Every task's region must fit the pool alongside its peers'.
        std::uint32_t max_len = std::max(4u, copy / num_tasks);
        if (num_tasks == 1 && rng.chance(0.3))
            task.options.region_len = 0;  // claim the whole free pool
        else
            task.options.region_len =
                static_cast<std::uint32_t>(rng.next_in(4, max_len));
        if (rng.chance(0.25))
            task.options.swap_policy =
                core::TaskOptions::SwapPolicy::kDisabled;

        // Senders: a non-empty subset of the other hosts.
        for (std::uint32_t h = 0; h < hosts; ++h) {
            if (h == task.receiver_host)
                continue;
            if (task.streams.empty() || rng.chance(0.7))
                task.streams.push_back({h, sample_stream(rng)});
        }
        spec.tasks.push_back(std::move(task));
    }

    // Per-task reduction operators ride a dedicated chain so arming
    // them never perturbed the deployment/stream draws of pre-existing
    // seeds. Roughly a third of tasks inherit the cluster default (op
    // stays nullopt — exercising the fallback), the rest override with
    // a uniform draw over the full menu, kCount and kFloat included
    // (part_bits is 32 in every sampled deployment, so kFloat is
    // always declared by the access plan).
    Rng op_rng(mix64(seed ^ 0x5edc0b5a11ULL));
    for (TaskSpec& task : spec.tasks) {
        if (op_rng.chance(0.35))
            continue;
        task.options.op = static_cast<core::ReduceOp>(
            op_rng.next_below(core::kNumReduceOps));
    }

    // ---- chaos -----------------------------------------------------------
    if (rng.chance(0.5))
        spec.chaos = sample_chaos(rng, cc, spec.total_tuples());

    // Crash episodes ride a separate chain (draw-order stability).
    Rng crash_rng(mix64(seed ^ 0xc7a54c4a5eULL));
    sample_crashes(crash_rng, cc, spec.total_tuples(), tuning.crash_heavy,
                   spec.chaos);

    // ---- topology --------------------------------------------------------
    // Multi-rack layouts ride a dedicated chain as well: every draw
    // above (deployment, streams, chaos) is byte-identical to the
    // pre-fabric generator, and the topology choice only re-shapes the
    // one rack drawn above into racks plus an aggregation tier. About half the
    // scenarios exercise the hierarchical merge path — including under
    // the ToR/tier reboot and crash chaos sampled above (reboot
    // subjects map onto fabric switches modulo num_switches).
    Rng topo_rng(mix64(seed ^ 0x7090a11fabULL));
    if (hosts >= 2 && topo_rng.chance(0.5)) {
        auto racks = static_cast<std::uint32_t>(
            2 + topo_rng.next_below(std::min(hosts, 3u) - 1));
        std::vector<std::uint32_t> per_rack(racks, 0);
        for (std::uint32_t h = 0; h < hosts; ++h)
            ++per_rack[h % racks];
        core::TopologyBuilder builder;
        for (std::uint32_t r = 0; r < racks; ++r)
            builder.add_rack(per_rack[r]);
        if (topo_rng.chance(0.3)) {
            // Occasionally squeeze the tier uplinks so the cross-rack
            // path, not the access links, is the bottleneck.
            builder.tier_link(/*gbps=*/40.0, /*propagation_ns=*/1500);
        }
        cc.topology = builder.build();
    }

    return spec;
}

}  // namespace ask::testing
