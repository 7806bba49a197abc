#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <unistd.h>
#include <utility>

#include "ask/cluster.h"
#include "ask/fabric.h"
#include "common/random.h"
#include "common/string_util.h"
#include "net/fault_model.h"
#include "workload/generators.h"
#include "workload/text_corpus.h"

namespace perfbench {
namespace {

using ask::Rng;
using ask::core::AggregateMap;
using ask::core::AskCluster;
using ask::core::ClusterConfig;
using ask::core::HostId;
using ask::core::KvStream;
using ask::core::StreamSpec;
using ask::core::TaskId;
using ask::core::TaskOptions;
using ask::core::TaskReport;

// ---- hashing: the benchmark's own, independent of the libraries --------

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    return mix(h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2)));
}

std::uint64_t
fold_double(std::uint64_t h, double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return fold(h, bits);
}

std::uint64_t
key_hash(const std::string& key)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : key)
        h = (h ^ c) * 1099511628211ull;
    return h;
}

/** Order-independent hash of an aggregate (map iteration order is not
 *  part of the result). */
std::uint64_t
aggregate_hash(const AggregateMap& m)
{
    std::uint64_t acc = m.size();
    for (const auto& [key, value] : m)
        acc += mix(key_hash(key) ^ mix(value));
    return acc;
}

std::uint64_t
stream_hash(std::uint64_t h, const KvStream& s)
{
    h = fold(h, s.size());
    for (const auto& t : s)
        h = fold(h, key_hash(t.key) ^ (static_cast<std::uint64_t>(t.value) << 1));
    return h;
}

/** An independent sub-seed of the run seed (faults, keys, plan...). */
std::uint64_t
subseed(std::uint64_t seed, std::uint64_t salt)
{
    return mix(seed * 0x9e3779b97f4a7c15ull + salt);
}

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return static_cast<double>(ns_between(a, b)) / 1e6;
}

double
current_rss_mb()
{
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long size = 0;
    unsigned long resident = 0;
    int n = std::fscanf(f, "%lu %lu", &size, &resident);
    std::fclose(f);
    if (n != 2)
        return 0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---- inputs ------------------------------------------------------------

/** One task's inputs. Batch workloads own their streams; the closed
 *  loop names (sender, pool index) pairs and copies the pool streams in
 *  just before the task's timer starts. */
struct TaskInput
{
    TaskId id = 0;
    HostId receiver = HostId{0};
    TaskOptions options;
    std::vector<StreamSpec> streams;
    std::vector<std::pair<HostId, std::uint32_t>> picks;
};

struct Inputs
{
    std::vector<KvStream> pool;
    std::vector<TaskInput> tasks;
};

struct WorkloadDef
{
    const char* name;
    ClusterConfig (*config)(std::uint64_t seed);
    Inputs (*generate)(AskCluster& cluster, std::uint64_t seed, Size size);
    /** Sequential run_task loop instead of one concurrent batch. */
    bool closed_loop;
};

// fabric8_uniform --------------------------------------------------------

constexpr std::uint32_t kFabricRacks = 8;
constexpr std::uint32_t kFabricHostsPerRack = 2;
constexpr std::uint32_t kFabricKeysPerSlot = 2;

ClusterConfig
fabric8_config(std::uint64_t seed)
{
    ClusterConfig cc;
    cc.topology = ask::core::TopologyBuilder()
                      .racks(kFabricRacks, kFabricHostsPerRack)
                      .build();
    cc.ask.max_hosts = cc.topology->num_hosts();
    cc.ask.medium_groups = 0;  // numeric keys: every AA is short
    cc.seed = subseed(seed, 1);
    return cc;
}

/**
 * `count` task ids, searched upward from `first`, whose channel
 * (AskDaemon::channel_for_task) is balanced on every sender at once: at
 * most ceil(count / channels) + slack tasks per channel. Exact balance
 * over many hosts is rarely feasible, so the slack starts at 1.
 */
std::vector<TaskId>
balanced_task_ids(AskCluster& cluster, const std::vector<HostId>& hosts,
                  std::uint32_t count, TaskId first)
{
    const std::uint32_t channels = cluster.config().ask.channels_per_host;
    for (std::uint32_t slack = 1; slack <= 3; ++slack) {
        const std::uint32_t cap = (count + channels - 1) / channels + slack;
        std::vector<std::vector<std::uint32_t>> load(
            hosts.size(), std::vector<std::uint32_t>(channels, 0));
        std::vector<std::uint32_t> local(hosts.size());
        std::vector<TaskId> ids;
        for (TaskId c = first; ids.size() < count && c - first < 1000000; ++c) {
            bool ok = true;
            for (std::size_t h = 0; h < hosts.size() && ok; ++h) {
                local[h] = cluster.daemon(hosts[h]).channel_for_task(c).global_id() %
                           channels;
                ok = load[h][local[h]] < cap;
            }
            if (!ok)
                continue;
            for (std::size_t h = 0; h < hosts.size(); ++h)
                ++load[h][local[h]];
            ids.push_back(c);
        }
        if (ids.size() == count)
            return ids;
    }
    throw std::runtime_error("fabric8_uniform: no channel-balanced task ids");
}

/** `per_slot` distinct short keys for every short AA slot, taken in id
 *  order from `first_id`. */
std::vector<std::vector<ask::core::Key>>
slot_keys(const ask::core::KeySpace& ks, std::uint32_t per_slot,
          std::uint64_t first_id)
{
    const std::uint32_t slots = ks.config().short_aas();
    std::vector<std::vector<ask::core::Key>> by_slot(slots);
    std::uint32_t filled = 0;
    for (std::uint64_t id = first_id; filled < slots; ++id) {
        ask::core::Key key = ask::u64_key(id);
        if (ks.classify(key) != ask::core::KeyClass::kShort)
            continue;
        auto& bucket = by_slot[ks.short_slot(key)];
        if (bucket.size() < per_slot) {
            bucket.push_back(std::move(key));
            if (bucket.size() == per_slot)
                ++filled;
        }
    }
    return by_slot;
}

/** Arrivals cycle the slots round-robin, so every DATA packet is full;
 *  the key within a slot and the value (1..8) are drawn from `rng`. */
KvStream
slot_balanced_stream(const std::vector<std::vector<ask::core::Key>>& by_slot,
                     std::uint64_t n, Rng& rng)
{
    KvStream out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto& bucket = by_slot[i % by_slot.size()];
        out.push_back({bucket[rng.next_below(bucket.size())],
                       static_cast<ask::core::Value>(1 + rng.next_below(8))});
    }
    return out;
}

Inputs
fabric8_generate(AskCluster& cluster, std::uint64_t seed, Size size)
{
    const std::uint64_t per_sender = size == Size::kFull ? 150000 : 3000;
    const std::uint32_t cph = cluster.config().ask.channels_per_host;
    const std::uint32_t parts = 2 * cph;
    std::vector<HostId> senders;
    for (std::uint32_t h = 1; h < cluster.num_hosts(); ++h)
        senders.push_back(HostId{h});

    Rng rng(subseed(seed, 2));
    std::vector<TaskId> ids = balanced_task_ids(
        cluster, senders, parts, static_cast<TaskId>(1 + rng.next_below(100000)));
    const ask::core::KeySpace& ks = cluster.daemon(HostId{0}).key_space();
    const std::uint64_t key_base = rng.next_below(1u << 24);
    const std::uint64_t per_part = per_sender / parts;

    Inputs in;
    for (std::uint32_t p = 0; p < parts; ++p) {
        auto by_slot = slot_keys(ks, kFabricKeysPerSlot, key_base + (p << 20));
        TaskInput t;
        t.id = ids[p];
        t.receiver = HostId{0};
        t.options.region_len = cluster.config().ask.copy_size() / parts;
        // What AskCluster::submit_task enforces on a multi-switch fabric.
        t.options.swap_policy = TaskOptions::SwapPolicy::kDisabled;
        for (HostId s : senders) {
            // Stream lengths vary by +-5% around the nominal share.
            std::uint64_t n = per_part * (95 + rng.next_below(11)) / 100;
            t.streams.push_back({s, slot_balanced_stream(by_slot, n, rng)});
        }
        in.tasks.push_back(std::move(t));
    }
    return in;
}

// zipf_hotkey_swap -------------------------------------------------------

constexpr std::uint64_t kZipfKeys = 8192;
/** The paper's headline aggregator-to-key ratio. */
constexpr std::uint64_t kZipfAggregatorShare = 16;

ClusterConfig
zipf_config(std::uint64_t seed)
{
    ClusterConfig cc;
    cc.topology = ask::core::TopologyBuilder().racks(1, 2).build();
    cc.ask.max_hosts = 2;
    cc.ask.medium_groups = 0;
    cc.ask.shadow_copies = true;
    cc.ask.swap_threshold_packets = 256;
    cc.seed = subseed(seed, 1);
    return cc;
}

Inputs
zipf_generate(AskCluster& cluster, std::uint64_t seed, Size size)
{
    const std::uint64_t tuples = size == Size::kFull ? 2000000 : 20000;
    TaskInput t;
    t.id = 1;
    t.receiver = HostId{0};
    t.options.region_len = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, kZipfKeys / kZipfAggregatorShare /
               cluster.config().ask.short_aas()));
    ask::workload::ZipfGenerator zipf(kZipfKeys, 1.0, subseed(seed, 4));
    t.streams.push_back(
        {HostId{1}, zipf.generate(tuples, ask::workload::KeyOrder::kHotFirst)});
    Inputs in;
    in.tasks.push_back(std::move(t));
    return in;
}

// wordcount_lossy_tasks --------------------------------------------------

constexpr std::uint32_t kWordHosts = 4;
/** Aggregators per AA per copy for each small task: a service shares
 *  its switch among tenants, and at this size ~30% of the words collide
 *  and are aggregated at the receiver host. */
constexpr std::uint32_t kWordRegionLen = 128;

ClusterConfig
wordcount_config(std::uint64_t seed)
{
    ClusterConfig cc;
    cc.topology = ask::core::TopologyBuilder().racks(1, kWordHosts).build();
    cc.ask.max_hosts = kWordHosts;
    cc.faults = ask::net::FaultSpec::lossy(0.01);
    cc.seed = subseed(seed, 1);
    return cc;
}

Inputs
wordcount_generate(AskCluster&, std::uint64_t seed, Size size)
{
    const bool full = size == Size::kFull;
    // 1000 tasks: ten beyond the p99 task.
    const std::uint32_t tasks = full ? 2000 : 4;
    const std::uint64_t words = full ? 500 : 300;
    const std::uint32_t pool_streams = full ? 24 : 6;

    Inputs in;
    ask::workload::TextCorpus corpus(ask::workload::yelp_profile(),
                                     subseed(seed, 5));
    for (std::uint32_t i = 0; i < pool_streams; ++i)
        in.pool.push_back(corpus.generate(words));

    Rng rng(subseed(seed, 6));
    for (std::uint32_t i = 0; i < tasks; ++i) {
        TaskInput t;
        t.id = i + 1;
        t.options.region_len = kWordRegionLen;
        t.receiver = HostId{static_cast<std::uint32_t>(rng.next_below(kWordHosts))};
        for (std::uint32_t h = 0; h < kWordHosts; ++h) {
            if (h != t.receiver.value())
                t.picks.emplace_back(
                    HostId{h}, static_cast<std::uint32_t>(rng.next_below(pool_streams)));
        }
        in.tasks.push_back(std::move(t));
    }
    return in;
}

const WorkloadDef kWorkloads[] = {
    {"fabric8_uniform", fabric8_config, fabric8_generate, false},
    {"zipf_hotkey_swap", zipf_config, zipf_generate, false},
    {"wordcount_lossy_tasks", wordcount_config, wordcount_generate, true},
};

const WorkloadDef&
find_workload(const std::string& name)
{
    for (const WorkloadDef& w : kWorkloads) {
        if (name == w.name)
            return w;
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---- running -----------------------------------------------------------

/** What came back for one task. */
struct TaskOutcome
{
    bool done = false;
    AggregateMap result;
    TaskReport report;
    /** Batch tasks: measured-phase events executed at delivery. */
    std::uint64_t done_events = 0;
};

std::uint64_t
span_begin(const RoundOptions& o, const char* name, std::uint64_t parent,
           std::uint64_t task = 0)
{
    return o.spans != nullptr ? o.spans->begin(name, parent, task) : 0;
}

void
span_end(const RoundOptions& o, std::uint64_t id)
{
    if (o.spans != nullptr)
        o.spans->end(id);
}

/**
 * Submit every task at once through the daemons (start_receive, then
 * submit_send after the notify latency) and drain the simulator in
 * slices of kSliceEvents events, timing each into `slice_ms`.
 * AskCluster::run() is Simulator::run(), a loop of the same step() the
 * slices call, so the harness adds one clock read per slice.
 * `senders_done` receives the simulated time the last stream was fully
 * sent.
 */
std::vector<TaskOutcome>
run_batch(AskCluster& cluster, std::vector<TaskInput>& tasks,
          std::vector<double>& slice_ms, ask::sim::SimTime& senders_done,
          const RoundOptions& o, std::uint64_t parent)
{
    std::vector<TaskOutcome> out(tasks.size());
    std::size_t streams_left = 0;
    for (const TaskInput& t : tasks)
        streams_left += t.streams.size();
    ask::sim::Simulator& sim = cluster.simulator();
    const std::uint64_t events0 = sim.executed();
    const Clock::time_point start = Clock::now();

    for (std::size_t i = 0; i < tasks.size(); ++i) {
        TaskInput& t = tasks[i];
        ask::core::AskDaemon& receiver = cluster.daemon(t.receiver);
        ask::net::NodeId receiver_node = receiver.node_id();
        auto n_senders = static_cast<std::uint32_t>(t.streams.size());
        auto on_done = [&out, &o, &sim, i, events0, start, parent, id = t.id](
                           AggregateMap result, TaskReport report) {
            out[i].done = true;
            out[i].result = std::move(result);
            out[i].report = std::move(report);
            out[i].done_events = sim.executed() - events0;
            if (o.spans != nullptr)
                o.spans->add("task", parent, start, Clock::now(), id);
        };
        auto send_all = [&cluster, &streams_left, &senders_done, receiver_node,
                         id = t.id, op = t.options.op,
                         streams = std::move(t.streams)]() mutable {
            for (StreamSpec& s : streams) {
                cluster.daemon(s.host).submit_send(
                    id, receiver_node, std::move(s.stream),
                    [&cluster, &streams_left, &senders_done] {
                        if (--streams_left == 0)
                            senders_done = cluster.simulator().now();
                    },
                    op);
            }
        };
        receiver.start_receive(
            t.id, n_senders, t.options, std::move(on_done),
            [&cluster, send_all = std::move(send_all)]() mutable {
                cluster.simulator().schedule_after(
                    cluster.config().notify_latency_ns, std::move(send_all));
            });
    }

    Clock::time_point t0 = start;
    for (bool more = true; more;) {
        std::uint64_t n = 0;
        while (n < kSliceEvents && (more = sim.step()))
            ++n;
        Clock::time_point t1 = Clock::now();
        if (n > 0)
            slice_ms.push_back(ms_between(t0, t1));
        t0 = t1;
    }
    return out;
}

/** Check one task's outcome against the reference fold. */
void
check_task(const TaskOutcome& t, const AggregateMap& expected, TaskId id,
           RoundStats& st)
{
    ++st.attempted;
    std::string why;
    if (!t.done)
        why = "did not complete";
    else if (!t.report.ok())
        why = std::string("status ") +
              ask::core::task_status_name(t.report.status) + ": " +
              t.report.detail;
    else if (aggregate_matches(expected, t.result, &why))
        return;
    ++st.failed;
    if (st.first_failure.empty())
        st.first_failure = "task " + std::to_string(id) + ": " + why;
}

/** Read every layer's counters off the drained cluster. */
void
collect_counters(AskCluster& cluster, RoundStats& st)
{
    st.events = cluster.simulator().executed();

    const ask::net::NetworkStats& net = cluster.network().stats();
    st.net_packets = net.packets_sent;
    st.net_bytes = net.bytes_sent;
    st.net_dropped = net.packets_dropped;
    ask::obs::MetricsSnapshot snap = cluster.metrics_snapshot();
    if (const ask::obs::LogHistogram* rtt = snap.histogram("host.rtt_ns")) {
        st.rtt_sim_us_p50 = static_cast<double>(rtt->quantile(0.5)) / 1000.0;
        st.rtt_sim_us_p99 = static_cast<double>(rtt->quantile(0.99)) / 1000.0;
    }

    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s)
        st.switch_passes +=
            cluster.pisa_switch(ask::core::SwitchId{s}).stats().passes;
    ask::core::SwitchAggStats sw = cluster.total_switch_stats();
    st.switch_data_packets = sw.data_packets;
    st.switch_tuples_in = sw.tuples_in;
    st.switch_packets_acked = sw.packets_acked;
    st.switch_tuples_collided = sw.tuples_collided;
    st.switch_swaps = sw.swaps;
    st.sim_switch_agg_pct =
        sw.tuples_in == 0 ? 0.0
                          : 100.0 * static_cast<double>(sw.tuples_aggregated) /
                                static_cast<double>(sw.tuples_in);

    ask::core::HostStats host = cluster.total_host_stats();
    st.host_data_packets_sent = host.data_packets_sent;
    st.host_retransmissions = host.retransmissions;
    st.host_tuples_sent = host.tuples_sent;
    st.host_tuples_local = host.tuples_aggregated_locally;
    st.host_dup_rx = host.duplicates_received;
    st.host_fetch_tuples = host.fetch_tuples;

    for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h) {
        const ask::core::Wal& wal = cluster.wal_store().host_wal(h);
        st.wal_records += wal.records();
        st.wal_bytes += wal.size_bytes();
    }
    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s) {
        const ask::core::Wal& wal = cluster.wal_store().wal(
            ask::core::controller_wal_name(ask::core::SwitchId{s}));
        st.wal_records += wal.records();
        st.wal_bytes += wal.size_bytes();
    }
    st.mgmt_rpcs = cluster.chaos_stats().mgmt_rpcs;
}

/** Fold the simulated results and the layer counters into the two
 *  round digests. */
void
compute_digests(RoundStats& st, const std::vector<TaskId>& ids,
                const std::vector<TaskOutcome>& outcomes)
{
    std::uint64_t h = fold_double(0, st.sim_goodput_gbps);
    h = fold_double(h, st.sim_switch_agg_pct);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const TaskOutcome& t = outcomes[i];
        h = fold(h, ids[i]);
        h = fold(h, static_cast<std::uint64_t>(t.report.status));
        h = fold(h, static_cast<std::uint64_t>(t.report.finish_time -
                                               t.report.start_time));
        h = fold(h, aggregate_hash(t.result));
    }
    st.sim_digest = h;
    for (std::uint64_t v :
         {st.events, st.net_packets, st.net_bytes, st.net_dropped,
          st.switch_passes, st.switch_data_packets, st.switch_tuples_in,
          st.switch_packets_acked, st.switch_tuples_collided, st.switch_swaps,
          st.host_data_packets_sent, st.host_retransmissions,
          st.host_tuples_sent, st.host_tuples_local, st.host_dup_rx,
          st.host_fetch_tuples, st.wal_records, st.wal_bytes, st.mgmt_rpcs})
        h = fold(h, v);
    st.round_digest = h;
}

}  // namespace

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const WorkloadDef& w : kWorkloads)
            v.emplace_back(w.name);
        return v;
    }();
    return names;
}

AggregateMap
reference_fold(const std::vector<const KvStream*>& streams)
{
    AggregateMap acc;
    for (const KvStream* s : streams) {
        for (const auto& t : *s)
            acc[t.key] += t.value;
    }
    return acc;
}

bool
aggregate_matches(const AggregateMap& expected, const AggregateMap& got,
                  std::string* why)
{
    for (const auto& [key, value] : expected) {
        auto it = got.find(key);
        if (it == got.end() || it->second != value) {
            if (why != nullptr) {
                *why = "key of " + std::to_string(key.size()) +
                       " bytes: expected " + std::to_string(value) + ", got " +
                       (it == got.end() ? std::string("nothing")
                                        : std::to_string(it->second));
            }
            return false;
        }
    }
    if (got.size() != expected.size()) {
        if (why != nullptr) {
            *why = std::to_string(got.size() - expected.size()) +
                   " keys delivered that no input holds";
        }
        return false;
    }
    return true;
}

std::uint64_t
input_digest(const std::string& workload, std::uint64_t seed, Size size)
{
    const WorkloadDef& w = find_workload(workload);
    AskCluster cluster(w.config(seed));
    Inputs in = w.generate(cluster, seed, size);
    std::uint64_t h = fold(0, cluster.config().seed);
    for (const KvStream& s : in.pool)
        h = stream_hash(h, s);
    for (const TaskInput& t : in.tasks) {
        h = fold(h, t.id);
        h = fold(h, t.receiver.value());
        for (const StreamSpec& s : t.streams)
            h = stream_hash(fold(h, s.host.value()), s.stream);
        for (const auto& [host, index] : t.picks)
            h = fold(fold(h, host.value()), index);
    }
    return h;
}

RoundStats
run_round(const std::string& workload, const RoundOptions& o)
{
    const WorkloadDef& w = find_workload(workload);
    RoundStats st;
    const std::uint64_t round_span = span_begin(o, "round", o.parent);

    // ---- set-up: cluster wiring (with the verifier at install), inputs.
    Clock::time_point t0 = Clock::now();
    std::uint64_t sp = span_begin(o, "setup.cluster", round_span);
    AskCluster cluster(w.config(o.seed));
    span_end(o, sp);
    Clock::time_point t1 = Clock::now();
    sp = span_begin(o, "setup.inputs", round_span);
    Inputs in = w.generate(cluster, o.seed, o.size);
    span_end(o, sp);
    Clock::time_point t2 = Clock::now();
    st.setup_cluster_ms = ms_between(t0, t1);
    st.setup_inputs_ms = ms_between(t1, t2);
    st.setup_rss_mb = current_rss_mb();

    // The reference folds of batch tasks are made before their streams
    // move into the cluster; closed-loop tasks fold just before each
    // task's timer starts.
    std::vector<AggregateMap> expected(in.tasks.size());
    std::vector<TaskId> ids;
    for (std::size_t i = 0; i < in.tasks.size(); ++i) {
        ids.push_back(in.tasks[i].id);
        std::vector<const KvStream*> streams;
        for (const StreamSpec& s : in.tasks[i].streams) {
            streams.push_back(&s.stream);
            st.tuples += s.stream.size();
        }
        for (const auto& pick : in.tasks[i].picks)
            st.tuples += in.pool[pick.second].size();
        if (!w.closed_loop)
            expected[i] = reference_fold(streams);
    }

    std::optional<Probes> probes;
    if (o.traced)
        probes.emplace(cluster);

    // ---- measured phase.
    std::vector<TaskOutcome> outcomes;
    const std::uint64_t measure_span = span_begin(o, "measure", round_span);
    if (!w.closed_loop) {
        ask::sim::SimTime senders_done = 0;
        const std::uint64_t events0 = cluster.simulator().executed();
        outcomes = run_batch(cluster, in.tasks, st.slice_ms, senders_done, o,
                             measure_span);
        // Slice k holds events [k, k+1) * kSliceEvents; the last one fewer.
        const std::uint64_t events = cluster.simulator().executed() - events0;
        for (const TaskOutcome& t : outcomes) {
            const std::uint64_t k = t.done_events / kSliceEvents;
            const std::uint64_t in_slice =
                std::min(kSliceEvents, events - k * kSliceEvents);
            st.task_slices.emplace_back(
                0.0, static_cast<double>(k) +
                         static_cast<double>(t.done_events % kSliceEvents) /
                             static_cast<double>(std::max<std::uint64_t>(in_slice, 1)));
        }
        // fig13b accounting: 8 bytes per tuple over the time from the
        // senders' first possible byte (after region set-up and notify)
        // to the last stream fully sent.
        const ask::sim::SimTime fixed =
            cluster.config().mgmt_latency_ns + cluster.config().notify_latency_ns;
        const ask::sim::SimTime elapsed =
            std::max<ask::sim::SimTime>(senders_done - fixed, 1);
        st.sim_goodput_gbps =
            static_cast<double>(st.tuples) * 8.0 * 8.0 / static_cast<double>(elapsed);
    } else {
        outcomes.resize(in.tasks.size());
        ask::sim::SimTime busy = 0;
        for (std::size_t i = 0; i < in.tasks.size(); ++i) {
            TaskInput& t = in.tasks[i];
            std::vector<StreamSpec> streams;
            std::vector<const KvStream*> refs;
            for (const auto& [host, index] : t.picks) {
                streams.push_back({host, in.pool[index]});
                refs.push_back(&in.pool[index]);
            }
            expected[i] = reference_fold(refs);
            Clock::time_point start = Clock::now();
            ask::core::TaskResult r =
                cluster.run_task(t.id, t.receiver, std::move(streams), t.options);
            Clock::time_point end = Clock::now();
            st.slice_ms.push_back(ms_between(start, end));
            st.task_slices.emplace_back(static_cast<double>(i),
                                        static_cast<double>(i + 1));
            if (o.spans != nullptr)
                o.spans->add("task", measure_span, start, end, t.id);
            outcomes[i] = {true, std::move(r.result), std::move(r.report), 0};
            busy += outcomes[i].report.finish_time - outcomes[i].report.start_time;
        }
        st.sim_goodput_gbps = static_cast<double>(st.tuples) * 8.0 * 8.0 /
                              static_cast<double>(std::max<ask::sim::SimTime>(busy, 1));
    }
    span_end(o, measure_span);
    for (double ms : st.slice_ms)
        st.measured_ms += ms;

    // ---- checks and counters (outside the measured phase).
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        check_task(outcomes[i], expected[i], ids[i], st);
        st.sim_task_ms.push_back(
            static_cast<double>(outcomes[i].report.finish_time -
                                outcomes[i].report.start_time) /
            1e6);
    }
    collect_counters(cluster, st);
    compute_digests(st, ids, outcomes);
    if (probes) {
        st.queue_peak = probes->queue_peak();
        st.passes = probes->passes();
        probes.reset();
        sp = span_begin(o, "wal.reappend", round_span);
        st.wal_append = reappend_wals(cluster);
        span_end(o, sp);
    }
    span_end(o, round_span);
    return st;
}

}  // namespace perfbench
