/**
 * @file
 * The end-to-end channel automaton: one sender channel, one switch
 * (both receive-window designs in lockstep), one receiver, one task.
 *
 * The automaton is extracted from the real components, not re-modeled:
 * the switch window state IS a core::PlainSeen plus a core::CompactSeen
 * (the production classes), advanced through their public observe /
 * wipe / repair API exactly as AskSwitchProgram drives its registers;
 * value flow uses core::reduce_lift / apply_op (the production
 * algebra); and the recovery events replay AskCluster's choreography
 * verbatim (abort senders -> clear regions -> fence at the cursor ->
 * reset the receiver partial -> replay the full archive with new
 * sequence numbers; see AskCluster::reset_and_replay).
 *
 * What is abstracted: payload slots stand in for whole key-value
 * frames (exactly-once per frame implies exactly-once per tuple — the
 * switch consumes frames atomically), the WAL checkpoint interval is 1
 * (every send renews the promise; the real K=64 only coarsens the same
 * append-before-allocate rule), FIN+fetch and the recovery choreography
 * are atomic events (the real control plane serializes them), and
 * timers are scheduler nondeterminism (retransmit is always enabled
 * within budget).
 *
 * Checked on every reachable state:
 *  - parity-equivalence : plain and compact verdicts agree per observe
 *  - exactly-once       : each payload merged at most once, anywhere
 *  - cursor-dominance   : every in-flight DATA seq < sender next_seq
 *  - window-bound       : switch max_seq <= next_seq + W - 1
 *  - wal-promise        : next_seq <= journaled resume point
 *  - clear-ahead        : plain slot one window ahead of max_seq clear
 * and on every completed (FIN) state:
 *  - completion / lift-once : each payload merged exactly once and the
 *    receiver aggregate equals the reference fold (catches double or
 *    missing lifts for kCount).
 */
#ifndef ASK_PISA_MODEL_CHANNEL_MODEL_H
#define ASK_PISA_MODEL_CHANNEL_MODEL_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ask/seen_window.h"
#include "ask/types.h"
#include "pisa/model/event.h"
#include "pisa/model/explorer.h"

namespace ask::pisa::model {

/** Exploration bounds of the channel automaton. */
struct ChannelBounds
{
    std::uint32_t payloads = 2;        ///< distinct logical contributions
    std::uint32_t window = 2;          ///< W of both seen-window designs
    std::uint32_t net_capacity = 3;    ///< packets concurrently in flight
    std::uint32_t max_retransmits = 1; ///< per payload per incarnation
    std::uint32_t max_duplicates = 1;  ///< network duplications, whole run
    std::uint32_t max_mismatches = 1;  ///< op-mismatched frame injections
    std::uint32_t max_reboots = 1;     ///< switch reboot+reinstall events
    std::uint32_t max_crashes = 1;     ///< sender host crash+replay events
    std::uint32_t max_swaps = 1;       ///< shadow-copy SWAPs
    core::ReduceOp op = core::ReduceOp::kAdd;
};

class ChannelModel
{
  public:
    /** Packet kinds on the modeled wire. */
    static constexpr std::uint8_t kData = 0;
    static constexpr std::uint8_t kAck = 1;
    static constexpr std::uint8_t kMismatch = 2;  ///< foreign-op DATA

    struct Packet
    {
        std::uint8_t kind = kData;
        std::uint8_t payload = 0;
        core::Seq seq = 0;

        bool
        operator<(const Packet& o) const
        {
            if (kind != o.kind)
                return kind < o.kind;
            if (payload != o.payload)
                return payload < o.payload;
            return seq < o.seq;
        }
    };

    struct PayloadState
    {
        core::Seq seq = 0;  ///< current binding (valid when sent)
        bool sent = false;
        bool acked = false;
        std::uint8_t tries = 0;  ///< retransmissions this incarnation
    };

    struct State
    {
        // Sender (daemon DataChannel).
        core::Seq next_seq = 0;
        core::Seq wal_promise = 0;  ///< journaled resume point (K = 1)
        std::vector<PayloadState> payloads;
        // Network: an unordered bounded bag, kept canonically sorted.
        std::vector<Packet> net;
        // Switch: the two real window designs in lockstep, the swap
        // epoch, and per-copy aggregation state.
        core::PlainSeen plain{1};
        core::CompactSeen compact{1};
        std::uint8_t epoch = 0;
        std::array<core::Value, 2> copy_value{0, 0};
        std::array<std::vector<std::uint8_t>, 2> copy_counts;
        // Receiver host.
        core::Value host_value = 0;
        std::vector<std::uint8_t> host_counts;
        bool fin_done = false;
        // Budgets spent.
        std::uint8_t reboots = 0, crashes = 0, swaps = 0, dups = 0,
                     mismatches = 0;
        // Apply-time violation (e.g. verdict divergence), picked up by
        // check(); 0 = none.
        std::uint8_t violation_code = 0;
        core::Seq violation_seq = 0;
    };

    ChannelModel(const ChannelBounds& bounds, Mutation mutation);

    State initial() const;
    std::vector<Event> enabled(const State& s) const;
    State apply(const State& s, Event ev) const;
    std::optional<PropertyViolation> check(const State& s) const;
    std::string encode(const State& s) const;
    std::string describe_event(const State& s, Event ev) const;

    /** Raw value of payload `p` (distinct, nonzero, op-independent). */
    static core::Value payload_value(std::uint8_t p);

    const ChannelBounds& bounds() const { return bounds_; }

  private:
    void deliver_data(State& s, const Packet& pkt) const;
    void deliver_ack(State& s, const Packet& pkt) const;
    /** Drain one shadow copy into the host aggregate (SWAP / FIN). */
    void fetch_copy(State& s, std::uint32_t copy) const;
    /** The shared recovery choreography of reboot and host crash. */
    void recover(State& s, core::Seq resume, bool wipe_windows) const;
    core::Value expected_final() const;

    ChannelBounds bounds_;
    Mutation mutation_;
};

}  // namespace ask::pisa::model

#endif  // ASK_PISA_MODEL_CHANNEL_MODEL_H
