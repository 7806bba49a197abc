/**
 * @file
 * Configuration of the ASK service and the derived data-plane layout.
 */
#ifndef ASK_ASK_CONFIG_H
#define ASK_ASK_CONFIG_H

#include <cstdint>

#include "ask/types.h"
#include "common/units.h"

namespace ask::core {

/**
 * All ASK tunables. Defaults follow the paper's implementation (§4):
 * 32 AAs of 32768 aggregators per pipeline, 64-bit aggregators
 * (32-bit kPart + 32-bit vPart), window W = 256, 4 data channels per
 * host, medium-key groups with m = 2 segments and k = 8 groups, shadow
 * copies enabled.
 */
struct AskConfig
{
    // ---- Switch memory layout -------------------------------------------
    /** Number of aggregator arrays == tuple slots per packet. */
    std::uint32_t num_aas = 32;
    /** Registers per AA, including both shadow copies when enabled. */
    std::uint32_t aggregators_per_aa = 32768;
    /** kPart/vPart width in bits (an aggregator is 2n bits wide). */
    std::uint32_t part_bits = 32;
    /** Enable the hot-key-agnostic shadow-copy mechanism (§3.4). */
    bool shadow_copies = true;

    // ---- Variable-length keys (§3.2.3) ----------------------------------
    /** Segments per medium-key group (m): a group of m physically
     *  adjacent AAs stores one medium key. */
    std::uint32_t medium_segments = 2;
    /** Number of medium-key groups (k). k*m AAs are dedicated to medium
     *  keys; the remaining num_aas - k*m serve short keys. */
    std::uint32_t medium_groups = 8;

    // ---- Reliability (§3.3) ---------------------------------------------
    /** Maximum sliding-window size per data channel, in packets. */
    std::uint32_t window = 256;

    // ---- Hosts -----------------------------------------------------------
    /** Data channels per host daemon (paper default: 4). */
    std::uint32_t channels_per_host = 4;
    /** Maximum hosts the switch provisions reliability state for. */
    std::uint32_t max_hosts = 64;
    /** Maximum concurrent aggregation tasks (swap-epoch slots). */
    std::uint32_t max_tasks = 64;

    // ---- Hot-key prioritization (§3.4) ------------------------------------
    /** Receiver swaps shadow copies after this many received packets;
     *  0 disables periodic swapping (copies still split if enabled). */
    std::uint64_t swap_threshold_packets = 4096;

    // ---- Failure handling and degraded mode -------------------------------
    /**
     * Retransmission budget per data packet. A DATA packet exhausting it
     * means the switch aggregation path is persistently unresponsive:
     * the daemon degrades to host-side aggregation, re-routing every
     * remaining tuple through the long-key bypass path (slower, still
     * exact). A bypass packet exhausting it means even plain forwarding
     * is dead, and the send job fails. 0 disables the budget.
     */
    std::uint32_t max_data_tries = 25;
    /**
     * Receiver-side sender-liveness timeout: a receive task that has not
     * heard from its senders for this long fails with an error instead
     * of waiting forever for FINs that will never come. 0 disables.
     */
    Nanoseconds sender_liveness_timeout_ns = 0;

    // ---- Semantics ---------------------------------------------------------
    /** Default reduction operator; a task may override it per-task via
     *  TaskOptions::op. kFloat requires part_bits == 32. */
    ReduceOp op = ReduceOp::kAdd;

    // ---- Derived quantities ------------------------------------------------
    /** Key-segment bytes (n bits). */
    std::uint32_t seg_bytes() const { return part_bits / 8; }
    /** Fixed data payload size of a DATA packet: num_aas 8-byte slots,
     *  each a 4-byte key-segment field and a 4-byte value field (16-bit
     *  parts ride in their low halves). */
    std::uint32_t payload_bytes() const { return num_aas * 8; }
    /** AAs dedicated to medium keys. */
    std::uint32_t medium_aas() const { return medium_segments * medium_groups; }
    /** AAs serving short keys. */
    std::uint32_t short_aas() const { return num_aas - medium_aas(); }
    /** First AA index of medium group g. */
    std::uint32_t medium_base(std::uint32_t g) const
    {
        return short_aas() + g * medium_segments;
    }
    /** Aggregators per shadow copy within one AA. */
    std::uint32_t copy_size() const
    {
        return shadow_copies ? aggregators_per_aa / 2 : aggregators_per_aa;
    }
    /** Longest key (bytes) a medium group can host (n*m). */
    std::uint32_t max_medium_key_bytes() const
    {
        return seg_bytes() * medium_segments;
    }
    /** Total data-channel slots the switch provisions. */
    std::uint32_t max_channels() const { return max_hosts * channels_per_host; }

    /** Throws ask::ConfigError if the configuration is inconsistent. */
    void validate() const;
};

}  // namespace ask::core

#endif  // ASK_ASK_CONFIG_H
