/**
 * @file
 * Receive-window data structures of the reliability mechanism (§3.3).
 *
 * Two behaviorally-equivalent switch-side designs are provided:
 *
 *  - PlainSeen: the reference design. A 2W-bit circular array `seen`;
 *    each packet records its bit (Eq. 6) and clears the bit one window
 *    ahead for a future packet (Eq. 7).
 *  - CompactSeen: the memory-compact design. W bits; packet sequences
 *    are split into alternating even/odd segments of size W, and a single
 *    atomic set_bit / clr_bitc instruction per packet performs record,
 *    lookup, and future-initialization at once (Eq. 8, cases 1-4).
 *
 * Both also track max_seq to reject stale packets from before the
 * current window (the corner case of §3.3). A property test
 * (tests/ask/seen_window_test.cc) verifies the two designs agree on
 * every sequence-arrival pattern a correct sender can produce.
 *
 * HostReceiveWindow is the receiver-host dedup structure. It cannot use
 * the parity trick: packets fully aggregated at the switch never reach
 * the receiver, so the receiver observes a *subset* of sequence numbers
 * and a toggling scheme would desynchronize. Host DRAM is plentiful, so
 * it stores the last sequence seen per ring slot instead.
 */
#ifndef ASK_ASK_SEEN_WINDOW_H
#define ASK_ASK_SEEN_WINDOW_H

#include <cstdint>
#include <vector>

#include "ask/types.h"

namespace ask::core {

/** Outcome of observing one packet arrival. */
enum class SeenOutcome : std::uint8_t
{
    kFresh,      ///< first appearance: process the packet
    kDuplicate,  ///< retransmission: deduplicate
    kStale,      ///< older than the window: drop entirely
};

/**
 * Control-plane snapshot of one receive window: the automaton-extraction
 * hook the semantic model checker (src/pisa/model/) reads. The same
 * struct serves two roles — it is the canonical window encoding during
 * state-space exploration, and the fuzzer's reachability probe builds
 * one from live registers (AskSwitchProgram::extract_seen) to check the
 * observed state against the model's proved invariants.
 *
 * The plain layout covers both in-tree plain implementations: PlainSeen's
 * 2W-bit ring (slot = s mod 2W) and the switch's split seen_even/seen_odd
 * arrays are index-isomorphic, since s mod 2W = (⌊s/W⌋ mod 2)·W + s mod W
 * — the even array is slots [0, W), the odd array slots [W, 2W).
 */
struct SeenSnapshot
{
    bool compact = false;        ///< W-bit parity design vs 2W-bit plain
    std::uint32_t window = 0;    ///< W
    std::vector<std::uint8_t> bits;  ///< W (compact) or 2W (plain) bits
    Seq max_seq = 0;
    bool any = false;            ///< false only before the first observe

    /** Slot that records sequence `s` (Eq. 6 / Eq. 8). */
    std::size_t
    record_slot(Seq s) const
    {
        return compact ? s % window : s % (2 * window);
    }

    /** Slot the plain design clears one window ahead of `s` (Eq. 7).
     *  Only meaningful when !compact. */
    std::size_t
    ahead_slot(Seq s) const
    {
        return (record_slot(s) + window) % (2 * window);
    }
};

/** The reference 2W-bit receive window. */
class PlainSeen
{
  public:
    explicit PlainSeen(std::uint32_t window);

    /** Record the arrival of sequence `s` and classify it. */
    SeenOutcome observe(Seq s);

    /** Chaos model: lose all register state (a switch reboot). */
    void wipe();

    /**
     * Recovery model of AskSwitchProgram::fence_channel: given the
     * sender's next unused sequence number, re-arm the window so every
     * pre-crash sequence (< next_seq) is stale-dropped and the upcoming
     * window [next_seq, next_seq + W) reads as unseen.
     */
    void repair(Seq next_seq);

    std::uint32_t window() const { return window_; }
    /** Bits of state this design needs (for the ablation bench). */
    std::size_t state_bits() const { return bits_.size(); }

    /** Automaton-extraction hook for the model checker / probes. */
    SeenSnapshot snapshot() const;
    /** Inverse of snapshot(): control-plane state injection (used by
     *  the model checker's mutation harness to reconstruct defective
     *  fence outcomes). The snapshot's shape must match this window. */
    void restore(const SeenSnapshot& snap);

  private:
    std::uint32_t window_;
    /** One modeled 1-bit register per entry; byte-backed so observe()
     *  is a plain load/store (no vector<bool> bit masking). */
    std::vector<std::uint8_t> bits_;
    Seq max_seq_ = 0;
    bool any_ = false;
};

/** The memory-compact W-bit receive window. */
class CompactSeen
{
  public:
    explicit CompactSeen(std::uint32_t window);

    /** Record the arrival of sequence `s` and classify it. */
    SeenOutcome observe(Seq s);

    /** Chaos model: lose all register state (a switch reboot). */
    void wipe();

    /**
     * Recovery model of AskSwitchProgram::fence_channel for the compact
     * design: fence max_seq at next_seq + W - 1 and pre-set the parity
     * of the one admitted window — a wiped bit reads 0, which an odd
     * segment's clr_bitc would misread as "already observed".
     */
    void repair(Seq next_seq);

    std::uint32_t window() const { return window_; }
    std::size_t state_bits() const { return bits_.size(); }

    /** Automaton-extraction hook for the model checker / probes. */
    SeenSnapshot snapshot() const;
    /** Inverse of snapshot(): control-plane state injection (see
     *  PlainSeen::restore). */
    void restore(const SeenSnapshot& snap);

  private:
    std::uint32_t window_;
    /** Byte-backed 1-bit registers (see PlainSeen::bits_). */
    std::vector<std::uint8_t> bits_;
    Seq max_seq_ = 0;
    bool any_ = false;
};

/**
 * Receiver-host dedup window: a ring of the last sequence number seen at
 * each slot, robust to sequence gaps (see file comment).
 */
class HostReceiveWindow
{
  public:
    explicit HostReceiveWindow(std::uint32_t window);

    /** Classify an arrival of sequence `s` without recording it: what
     *  observe(s) would return. */
    SeenOutcome classify(Seq s) const;

    /** Record the arrival of sequence `s` and classify it. Only a
     *  fresh arrival changes the window. */
    SeenOutcome observe(Seq s);

    bool operator==(const HostReceiveWindow&) const = default;

  private:
    std::uint32_t window_;
    std::vector<std::uint64_t> last_seq_plus1_;
    Seq max_seq_ = 0;
    bool any_ = false;
};

}  // namespace ask::core

#endif  // ASK_ASK_SEEN_WINDOW_H
