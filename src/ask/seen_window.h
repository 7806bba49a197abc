/**
 * @file
 * Receive-window data structures of the reliability mechanism (§3.3).
 *
 * Two behaviorally-equivalent switch-side designs are provided:
 *
 *  - PlainSeen: the reference design. A 2W-bit circular array `seen`;
 *    each packet records its bit (Eq. 6) and clears the bit one window
 *    ahead for a future packet (Eq. 7).
 *  - CompactSeen: the memory-compact design the switch runs. W bits;
 *    packet sequences are split into alternating even/odd segments of
 *    size W, and a single atomic set_bit / clr_bitc instruction per
 *    packet performs record, lookup, and future-initialization at once
 *    (Eq. 8, cases 1-4).
 *
 * The compact rule is written once, in the `seen_rule` functions below:
 * CompactSeen applies it to its bits and AskSwitchProgram to its `seen`
 * registers, so the model checker and the fuzzer's equivalence probe
 * exercise the code the data plane runs.
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

/** True when `s` falls before the window (max_seq - W, max_seq]. */
inline bool
is_stale(Seq s, std::uint64_t max_seq, std::uint32_t window)
{
    return static_cast<std::uint64_t>(s) + window <= max_seq;
}

/**
 * The compact window's rule (Eq. 8). Sequence s owns bit s mod W, and
 * its segment parity (s / W) & 1 is the value of that bit that means
 * "unseen": an even segment records by setting the bit (set_bit), an
 * odd one by clearing it (clr_bitc), and either store pre-initializes
 * the slot for the next segment.
 */
namespace seen_rule {

/** The value of s's bit that reads "not yet observed". */
inline std::uint8_t
unseen(std::uint64_t s, std::uint32_t window)
{
    return static_cast<std::uint8_t>((s / window) & 1);
}

/** Whether `bit` says s was already observed (a read-only probe). */
inline bool
observed(std::uint64_t bit, std::uint64_t s, std::uint32_t window)
{
    return bit != unseen(s, window);
}

/** One arrival of s: classify it against its bit, then store the
 *  complement of the parity (branch-light: one compare, one store). */
template <typename Bit>
inline bool
observe(Bit& bit, std::uint64_t s, std::uint32_t window)
{
    bool seen = observed(bit, s, window);
    bit = static_cast<Bit>(unseen(s, window) ^ 1);
    return seen;
}

/**
 * A fence at next_seq: pre-set the bit of every sequence the fence
 * admits, [next_seq, next_seq + W), to its unseen value through
 * `set(slot, bit)`. A wiped bit reads 0, which an odd segment would
 * misread as "already observed" and falsely dedup a fresh packet.
 */
template <typename SetBit>
inline void
fence(Seq next_seq, std::uint32_t window, SetBit&& set)
{
    for (std::uint64_t s = next_seq;
         s < static_cast<std::uint64_t>(next_seq) + window; ++s)
        set(static_cast<std::size_t>(s % window), unseen(s, window));
}

}  // namespace seen_rule

/**
 * Control-plane snapshot of one receive window: the automaton-extraction
 * hook the semantic model checker (src/pisa/model/) reads. The same
 * struct serves two roles — it is the canonical window encoding during
 * state-space exploration, and the fuzzer's reachability probe builds
 * one from live registers (AskSwitchProgram::extract_seen) to check the
 * observed state against the model's proved invariants.
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

/** The memory-compact W-bit receive window: seen_rule on W bits. */
class CompactSeen
{
  public:
    explicit CompactSeen(std::uint32_t window);

    /** Record the arrival of sequence `s` and classify it. */
    SeenOutcome observe(Seq s);

    /** Chaos model: lose all register state (a switch reboot). */
    void wipe();

    /**
     * Recovery model of AskSwitchProgram::fence_channel: fence max_seq
     * at next_seq + W - 1 and pre-set the parity of the one admitted
     * window (seen_rule::fence).
     */
    void repair(Seq next_seq);

    std::uint32_t window() const { return window_; }

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
