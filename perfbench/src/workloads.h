/**
 * @file
 * The benchmark's workloads. A run is a sequence of *rounds*; each
 * round builds a fresh AskCluster, generates its inputs from the seed,
 * runs the measured phase through the public ask/ facade, checks every
 * delivered aggregate against the benchmark's own fold, and records
 * counters. All rounds of one (workload, seed) see identical inputs, so
 * their simulated results must be identical too.
 *
 *  - fabric8_uniform: 8 racks x 2 hosts under a tier; 15 senders stream
 *    slot-balanced uniform short keys to host 0 as one batch of
 *    2 * channels_per_host concurrent tasks (start_receive/submit_send).
 *  - zipf_hotkey_swap: 2 hosts on one switch, one Zipf(1.0) hot-first
 *    task at a 1/16 aggregator-to-key ratio with shadow-copy swaps on.
 *  - wordcount_lossy_tasks: a closed loop of small sequential WordCount
 *    tasks (run_task) on one 4-host rack over 1%-lossy cables, 3 senders
 *    per task drawing yelp-profile words from a pre-generated pool.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ask/types.h"
#include "obs/metrics.h"
#include "probes.h"

namespace perfbench {

/** Simulator events per timed slice of a batch round. */
constexpr std::uint64_t kSliceEvents = 16384;

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string>& workload_names();

/** Input volume: the benchmark's size, or a tiny one for self-tests. */
enum class Size
{
    kFull,
    kTiny,
};

struct RoundOptions
{
    std::uint64_t seed = 1;
    Size size = Size::kFull;
    /** Attach the probes (switch timing, queue peak, WAL re-append). */
    bool traced = false;
    /** Spans go here when non-null; `parent` is the enclosing span. */
    SpanLog* spans = nullptr;
    std::uint64_t parent = 0;
};

/** Everything one round measured. Times are host time unless the name
 *  says sim. */
struct RoundStats
{
    // ---- set-up and measured phase ----
    double setup_cluster_ms = 0;
    double setup_inputs_ms = 0;
    double setup_rss_mb = 0;
    double measured_ms = 0;
    std::uint64_t tuples = 0;
    /**
     * Host time of each slice of the measured phase. A slice is the same
     * work in every round of a seed: kSliceEvents simulator events of a
     * batch, or one task of the closed loop. measured_ms is their sum.
     */
    std::vector<double> slice_ms;
    /** Each task's extent in slices, [begin, end); a fractional end is
     *  that share of the slice's events. */
    std::vector<std::pair<double, double>> task_slices;

    // ---- outcome ----
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string first_failure;

    // ---- simulated (bit-identical for a seed) ----
    std::vector<double> sim_task_ms;
    double sim_goodput_gbps = 0;
    double sim_switch_agg_pct = 0;
    /** Fold of every sim_* value and every delivered aggregate. */
    std::uint64_t sim_digest = 0;
    /** sim_digest plus the layer counters below: equal across rounds. */
    std::uint64_t round_digest = 0;

    // ---- layer counters ----
    std::uint64_t events = 0;
    std::uint64_t net_packets = 0;
    std::uint64_t net_bytes = 0;
    std::uint64_t net_dropped = 0;
    double rtt_sim_us_p50 = 0;
    double rtt_sim_us_p99 = 0;
    std::uint64_t switch_passes = 0;
    std::uint64_t switch_data_packets = 0;
    std::uint64_t switch_tuples_in = 0;
    std::uint64_t switch_packets_acked = 0;
    std::uint64_t switch_tuples_collided = 0;
    std::uint64_t switch_swaps = 0;
    std::uint64_t host_data_packets_sent = 0;
    std::uint64_t host_retransmissions = 0;
    std::uint64_t host_tuples_sent = 0;
    std::uint64_t host_tuples_local = 0;
    std::uint64_t host_dup_rx = 0;
    std::uint64_t host_fetch_tuples = 0;
    std::uint64_t wal_records = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t mgmt_rpcs = 0;

    // ---- traced rounds only ----
    std::size_t queue_peak = 0;
    PassTimes passes;
    WalAppendCost wal_append;
};

/** Run one round of `workload`. Throws std::invalid_argument for an
 *  unknown workload name. */
RoundStats run_round(const std::string& workload, const RoundOptions& opts);

/** Hash of the inputs a round of `workload` would generate from `seed`
 *  (the self-test's reproducibility check). */
std::uint64_t input_digest(const std::string& workload, std::uint64_t seed,
                           Size size);

/** The benchmark's own reference fold (sum) of a task's input streams. */
ask::core::AggregateMap reference_fold(
    const std::vector<const ask::core::KvStream*>& streams);

/** Compare a delivered aggregate with the reference key by key; on a
 *  mismatch, describe the first difference in `why`. */
bool aggregate_matches(const ask::core::AggregateMap& expected,
                       const ask::core::AggregateMap& got, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
