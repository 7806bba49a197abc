/**
 * @file
 * Counters collected across the ASK data plane and hosts. These drive
 * the paper's Table 1 and several figures.
 *
 * The field lists are X-macros: each list expands once into the struct
 * definition, once into merge(), and once into add_counters(), which
 * writes every field into an obs::MetricsSnapshot under
 * `<prefix><field>` — so a counter added to the list is automatically
 * folded, snapshotted, and named.
 */
#ifndef ASK_ASK_METRICS_H
#define ASK_ASK_METRICS_H

#include <cstdint>
#include <string>

namespace ask::obs {
class MetricsSnapshot;
}  // namespace ask::obs

namespace ask::core {

// ---------------------------------------------------------------------------
// Field lists
// ---------------------------------------------------------------------------

/** Switch-side aggregation counters: X(field, doc). */
#define ASK_SWITCH_AGG_STATS_FIELDS(X)                                      \
    X(data_packets, "DATA packets entering the pipeline")                   \
    X(tuples_in, "valid tuples in arriving DATA")                           \
    X(tuples_aggregated, "tuples consumed by aggregators")                  \
    X(tuples_collided, "tuples that failed (collision)")                    \
    X(packets_acked, "fully aggregated -> switch ACK")                      \
    X(packets_forwarded, "partial/failed -> to receiver")                   \
    X(residual_forwarded, "fully aggregated -> empty residual upstream")    \
    X(duplicates, "retransmissions deduplicated")                           \
    X(stale_dropped, "out-of-window packets dropped")                       \
    X(op_mismatch, "DATA whose op id contradicts the bound region")         \
    X(long_packets, "LONG_DATA forwarded")                                  \
    X(swaps, "shadow-copy swaps applied")                                   \
    X(unknown_task, "DATA for unknown task regions")                        \
    X(blackholed, "DATA/SWAP eaten by a sick program")

/**
 * Fault-injection and recovery counters: X(field, doc). Each section
 * is incremented by one component; AskCluster::chaos_stats() folds
 * them.
 */
#define ASK_CHAOS_STATS_FIELDS(X)                                           \
    /* ---- AskCluster: faults observed ---- */                             \
    X(link_blackouts, "cable blackout windows opened")                      \
    X(burst_loss_windows, "burst-loss windows opened")                      \
    X(switch_reboots, "switch reboot episodes")                             \
    X(mgmt_outages, "management-plane outage windows")                      \
    X(mgmt_delay_windows, "management-plane delay windows")                 \
    X(data_blackholes, "sick-program blackhole windows")                    \
    X(host_crashes, "host daemon crash episodes")                           \
    X(controller_crashes, "controller crash episodes")                      \
    X(unhandled_events, "chaos episodes fired with no handler")             \
    /* ---- AskCluster: recovery actions ---- */                            \
    X(regions_reinstalled, "task regions re-pushed post-reboot")            \
    X(channels_fenced, "max_seq/seen fences written")                       \
    X(host_recoveries, "daemon WAL recoveries completed")                   \
    X(controller_recoveries, "controller WAL recoveries")                   \
    X(wal_appends, "write-ahead log records appended")                      \
    X(wal_rejected, "WAL replays rejected (corrupt log)")                   \
    X(crash_aborted_tasks, "tasks failed by unrecoverable crash")           \
    /* ---- AskDaemon: send/receive recovery paths ---- */                  \
    X(tasks_reset, "receiver tasks reset for replay")                       \
    X(streams_replayed, "sender streams re-submitted")                      \
    X(drain_dropped, "packets dropped by drain guards")                     \
    X(crash_dropped, "packets dropped at a crashed host")                   \
    X(degraded_entries, "daemons entering host-only mode")                  \
    X(bypass_conversions, "in-flight DATA rerouted to bypass")              \
    X(probe_rpcs, "PktState probes during conversion")                      \
    X(swap_giveups, "tasks that stopped swapping")                          \
    X(fin_giveups, "send jobs failed at FIN budget")                        \
    X(send_failures, "send jobs failed at data budget")                     \
    X(sender_timeouts, "rx tasks failed by liveness timeout")               \
    X(alloc_failures, "region allocation rejections")                       \
    /* ---- MgmtPlane: RPC bookkeeping ---- */                              \
    X(mgmt_rpcs, "management RPC attempts")                                 \
    X(mgmt_retries, "attempts that hit an outage")                          \
    X(mgmt_giveups, "RPCs abandoned after max tries")

/** Host-side per-cluster counters: X(field, doc). */
#define ASK_HOST_STATS_FIELDS(X)                                            \
    X(data_packets_sent, "DATA packets sent")                               \
    X(long_packets_sent, "LONG_DATA (bypass) packets sent")                 \
    X(retransmissions, "timer-driven retransmissions")                      \
    X(tuples_sent, "tuples packetized and sent")                            \
    X(tuples_aggregated_locally, "tuples aggregated at the receiver host")  \
    X(packets_received, "packets arriving at the receiver host")            \
    X(duplicates_received, "duplicate packets at the receiver host")        \
    X(op_mismatch_dropped, "DATA whose op id contradicts the rx task")      \
    X(fetch_tuples, "tuples fetched from switch regions")                   \
    X(swap_requests, "shadow-copy swaps initiated")

// ---------------------------------------------------------------------------
// Structs generated from the lists
// ---------------------------------------------------------------------------

#define ASK_STATS_DECLARE_FIELD(field, doc) std::uint64_t field = 0;
#define ASK_STATS_MERGE_FIELD(field, doc) field += o.field;

/** Switch-side aggregation counters. */
struct SwitchAggStats
{
    ASK_SWITCH_AGG_STATS_FIELDS(ASK_STATS_DECLARE_FIELD)

    SwitchAggStats&
    merge(const SwitchAggStats& o)
    {
        ASK_SWITCH_AGG_STATS_FIELDS(ASK_STATS_MERGE_FIELD)
        return *this;
    }
};

/** Fault-injection and recovery counters (see the field list above). */
struct ChaosStats
{
    ASK_CHAOS_STATS_FIELDS(ASK_STATS_DECLARE_FIELD)

    ChaosStats&
    merge(const ChaosStats& o)
    {
        ASK_CHAOS_STATS_FIELDS(ASK_STATS_MERGE_FIELD)
        return *this;
    }
};

/** Host-side per-cluster counters. */
struct HostStats
{
    ASK_HOST_STATS_FIELDS(ASK_STATS_DECLARE_FIELD)

    HostStats&
    merge(const HostStats& o)
    {
        ASK_HOST_STATS_FIELDS(ASK_STATS_MERGE_FIELD)
        return *this;
    }
};

#undef ASK_STATS_DECLARE_FIELD
#undef ASK_STATS_MERGE_FIELD

// ---------------------------------------------------------------------------
// Snapshot writers
// ---------------------------------------------------------------------------

/** Add every field of `stats` to `snap` as counter `<prefix><field>`. */
void add_counters(obs::MetricsSnapshot& snap, const std::string& prefix,
                  const SwitchAggStats& stats);
void add_counters(obs::MetricsSnapshot& snap, const std::string& prefix,
                  const HostStats& stats);
void add_counters(obs::MetricsSnapshot& snap, const std::string& prefix,
                  const ChaosStats& stats);

}  // namespace ask::core

#endif  // ASK_ASK_METRICS_H
