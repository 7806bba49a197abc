/**
 * @file
 * The ASK data-plane program (paper §3.2-§3.4), written against the PISA
 * substrate so every hardware restriction is enforced at runtime.
 *
 * Register-array placement (default 32-AA configuration):
 *
 *   stage 0 : max_seq     (per channel, 32b)       - stale-packet boundary
 *   stage 1 : seen        (per channel, W bits: the compact window of
 *             seen_window.h) + swap_epoch (per task slot, 32b; copy
 *             indicator = epoch parity)
 *   stage 2+: aa_0..aa_{N-1}, four per stage, 2n-bit registers holding
 *             kPart|vPart, both shadow copies in one array
 *   last    : pkt_state   (per channel x window, N-bit bitmaps)
 *
 * Dependencies flow strictly forward: max_seq gates seen, seen gates the
 * aggregator accesses, and the final bitmap feeds pkt_state — so the
 * program is expressible on a real Tofino pipeline.
 */
#ifndef ASK_ASK_SWITCH_PROGRAM_H
#define ASK_ASK_SWITCH_PROGRAM_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ask/config.h"
#include "ask/key_space.h"
#include "ask/metrics.h"
#include "ask/seen_window.h"
#include "ask/types.h"
#include "ask/wire.h"
#include "obs/trace.h"
#include "pisa/pisa_switch.h"
#include "pisa/verify/access_plan.h"
#include "pisa/verify/oracle.h"

namespace ask::core {

/** The switch-memory slice serving one aggregation task. */
struct TaskRegion
{
    /** First aggregator index (within each shadow copy) of the slice. */
    std::uint32_t base = 0;
    /** Aggregators per AA per copy available to the task. */
    std::uint32_t len = 0;
    /** Index into the swap_epoch register array. */
    std::uint32_t epoch_slot = 0;
    /** Reduction operator bound to the task: the ALU function every
     *  aggregator merge of this region uses, and the op id DATA frames
     *  of the task must carry (mismatches are dropped). Must be
     *  declared by the program's AccessPlan or install_task() throws. */
    ReduceOp op = ReduceOp::kAdd;
};

/** The ASK switch program. */
class AskSwitchProgram : public pisa::SwitchProgram
{
  public:
    /**
     * Statically verifies the program's AccessPlan against `sw`'s
     * pipeline budgets, then declares the register arrays the plan
     * names and installs itself. Throws ask::ConfigError — *before*
     * touching the pipeline — if the plan is not PISA-legal (stage
     * count, arrays per stage, SRAM, access discipline on any path):
     * illegal programs never install.
     *
     * Reliability state (max_seq, seen, pkt_state) is provisioned for
     * the channel range [lo, hi) only: a rack's ToR carries state for
     * its own hosts' channels, not the whole cluster's, which is what
     * keeps per-switch state bounded by rack size as racks are added
     * (paper §7). Channels outside the range are not local: their
     * DATA/LONG_DATA traffic is plain-forwarded toward the receiver.
     * A single switch provisions [0, max_channels()).
     *
     * With the environment variable ASK_VERIFY_ACCESSES set (to
     * anything but "0"), the runtime cross-check is armed at install
     * (see enable_access_verification()).
     */
    AskSwitchProgram(const AskConfig& config, pisa::PisaSwitch& sw,
                     ChannelId lo, ChannelId hi);

    ~AskSwitchProgram() override;

    /**
     * The declarative access plan for `config`, with the
     * channel-indexed reliability arrays sized for `num_channels`
     * provisioned channels: every register array (name, stage, shape)
     * plus the guarded branch structure of every packet-kind pass. This
     * is the exact layout the constructor declares, the object the
     * verifier proves PISA-legality over, and the oracle the runtime
     * cross-check replays — one source of truth.
     */
    static pisa::verify::AccessPlan make_access_plan(const AskConfig& config,
                                                     std::uint32_t
                                                         num_channels);

    /**
     * Arm the runtime cross-check: every subsequent data-plane access
     * is replayed against this program's AccessPlan, and an access the
     * static proof never predicted panics. Idempotent.
     */
    void enable_access_verification();

    /** The armed cross-check oracle; nullptr when not armed. */
    const pisa::verify::AccessOracle* access_oracle() const
    {
        return oracle_.get();
    }

    /** The verified plan this program was installed from. */
    const pisa::verify::AccessPlan& access_plan() const { return plan_; }

    // ---- control plane (used by AskSwitchController) --------------------

    /** Bind a task to a region. */
    void install_task(TaskId task, const TaskRegion& region);

    /** Unbind a task (the region itself is managed by the controller). */
    void remove_task(TaskId task);

    /** Region of a task; nullptr when unknown. */
    const TaskRegion* find_task(TaskId task) const;

    /** Current swap epoch of a task (copy indicator = parity). */
    std::uint32_t current_epoch(TaskId task) const;

    /** Reset a task's swap epoch to 0 (on region release). */
    void reset_epoch(TaskId task);

    /** Does this switch hold reliability state for `channel`? */
    bool provisions(ChannelId channel) const
    {
        return channel >= prov_lo_ && channel < prov_hi_;
    }

    /** The provisioned channel range [lo, hi). */
    ChannelId provisioned_lo() const { return prov_lo_; }
    ChannelId provisioned_hi() const { return prov_hi_; }

    /**
     * Tree role. A leaf (rack ToR) switch must NOT consume a fully
     * aggregated DATA packet: the seen-window scheme is self-cleaning
     * (the arrival of seq s clears the slot that seq s+W will use), so
     * every switch that holds window state for a channel has to observe
     * every sequence number at least once before it is ACKed. A leaf
     * that absorbed a whole packet therefore forwards an empty-bitmap
     * residual upstream instead of ACKing; only the tree root (the tier
     * switch, or the lone switch of a single-rack deployment) may
     * impersonate the receiver and consume. Default: root.
     */
    void set_tree_leaf(bool leaf) { tree_leaf_ = leaf; }
    bool tree_leaf() const { return tree_leaf_; }

    /** Bits of channel-indexed reliability state (max_seq + seen +
     *  pkt_state) this program declares — the per-switch state the
     *  fabric bounds by rack size (fig13b's scalability metric). */
    std::uint64_t reliability_state_bits() const;

    /**
     * Slow-path read of one shadow copy of a task's region, decoding
     * aggregators back into key-value tuples; optionally clears the copy.
     * @param copy 0 or 1; with shadow copies disabled, pass 0.
     */
    KvStream read_region(TaskId task, std::uint32_t copy, bool clear);

    /** Slow-path zeroing of a task's whole region, every shadow copy,
     *  without decoding it (region release and reset). */
    void clear_region(TaskId task);

    // ---- failure recovery (chaos injection) ------------------------------

    /**
     * The switch CPU came back after a reboot: the program image
     * survives (it is reloaded from flash) but every task binding lived
     * in the control plane's DRAM-backed table and is gone, as is all
     * register state (the pipeline wipe is modeled separately by
     * pisa::Pipeline::wipe_registers()). The controller re-installs
     * regions from its journal afterwards.
     */
    void on_reboot();

    /**
     * Re-synchronize a channel's reliability state after a register
     * wipe, given the sender's next unused sequence number. Writes
     * max_seq = next_seq + W - 1 so every pre-crash in-flight packet
     * (seq < next_seq) is stale-dropped, and repairs the compact-seen
     * parity for the upcoming window [next_seq, next_seq + W): a wiped
     * bit reads 0, which the odd-segment clr_bitc check would
     * misinterpret as "already observed" and falsely ACK a fresh packet
     * against a zeroed pkt_state — losing its tuples.
     */
    void fence_channel(ChannelId channel, Seq next_seq);

    /** Control-plane view of one in-flight packet's aggregation state. */
    struct ProbeResult
    {
        /** Whether the data plane processed (channel, seq). */
        bool observed = false;
        /** pkt_state bitmap: slots NOT consumed by aggregators. Only
         *  meaningful when observed. */
        std::uint64_t remaining = 0;
    };

    /**
     * Automaton-extraction hook: control-plane read of one channel's
     * live receive-window registers as a compact SeenSnapshot — the
     * same shape the semantic model checker (src/pisa/model/) explores,
     * so the fuzzer's reachability probe can evaluate the model's
     * proved invariants directly on switch state.
     */
    SeenSnapshot extract_seen(ChannelId channel) const;

    /**
     * Read-only control-plane probe of one (channel, seq): did the
     * switch see the packet, and which of its slots still need host
     * delivery? Used when a daemon degrades to the bypass path and must
     * decide, per abandoned in-flight DATA packet, which tuples the
     * switch already consumed. A sequence outside the live window
     * probes as not-observed (the daemon resends via bypass; see the
     * degraded-mode notes in DESIGN.md).
     */
    ProbeResult probe_packet(ChannelId channel, Seq seq) const;

    /**
     * Chaos injection: a "sick" program that eats every DATA/SWAP
     * packet (counted in stats().blackholed) while still forwarding
     * LONG_DATA and control traffic — the shape of a miscompiled or
     * misconfigured aggregation table. Blackholed LONG_DATA skips the
     * receive-window check: safe because daemons that degrade stop
     * sending DATA on their channels for good (sticky), so the skipped
     * seen updates are never consulted again.
     */
    void set_data_blackhole(bool on) { data_blackhole_ = on; }
    bool data_blackhole() const { return data_blackhole_; }

    /** Aggregators the read_region scan touches (for cost accounting). */
    std::uint64_t region_scan_entries(TaskId task) const;

    /** Record per-packet lifecycle spans into `tracer` (null = off). */
    void set_tracer(obs::PacketTracer* tracer) { tracer_ = tracer; }

    // ---- data plane ------------------------------------------------------

    void process(net::Packet pkt, pisa::Emitter& emit) override;
    std::string name() const override { return "ask-aggregation"; }

    const SwitchAggStats& stats() const { return stats_; }
    const KeySpace& key_space() const { return key_space_; }
    const AskConfig& config() const { return config_; }

  private:
    /** Outcome of the reliability stage for one DATA/LONG_DATA packet. */
    struct WindowVerdict
    {
        bool stale = false;
        bool observed = false;
    };

    WindowVerdict check_window(ChannelId channel, Seq seq);
    std::uint32_t read_indicator(const TaskRegion& region);
    void process_data(net::Packet&& pkt, const AskHeader& hdr,
                      pisa::Emitter& emit);
    void process_swap(const net::Packet& pkt, const AskHeader& hdr,
                      pisa::Emitter& emit);

    /** Aggregate the short-key tuple in slot `i`; true on success. */
    bool aggregate_short(const TaskRegion& region, std::uint32_t indicator,
                         std::uint32_t slot_index, const WireSlot& slot);

    /** Aggregate the medium-key group `g` from `slots` (an array of all
     *  num_aas decoded payload slots); true on success. */
    bool aggregate_medium(const TaskRegion& region, std::uint32_t indicator,
                          std::uint32_t group, const WireSlot* slots);

    std::uint64_t aa_index(const TaskRegion& region, std::uint32_t indicator,
                           std::string_view padded_key) const;

    /** Zero `region` in shadow copy `copy` of every AA. */
    void clear_copy(const TaskRegion& region, std::uint32_t copy);

    AskConfig config_;
    KeySpace key_space_;
    sim::Simulator* simulator_ = nullptr;  ///< trace timestamps
    pisa::Pipeline* pipeline_ = nullptr;   ///< hosts the arrays + oracle hook
    pisa::PisaSwitch* switch_ = nullptr;   ///< FIB lookups (tree-leaf role)
    pisa::verify::AccessPlan plan_;
    std::unique_ptr<pisa::verify::AccessOracle> oracle_;

    // Register arrays (owned by the pipeline's stages).
    pisa::RegisterArray* max_seq_ = nullptr;
    pisa::RegisterArray* seen_ = nullptr;
    pisa::RegisterArray* swap_epoch_ = nullptr;
    std::vector<pisa::RegisterArray*> aas_;
    pisa::RegisterArray* pkt_state_ = nullptr;

    // Hot-path scratch, sized once at install so a DATA pass performs no
    // allocation: the decoded payload slots of the packet in flight, the
    // reassembled medium key, and the derived bitmap masks. The batched
    // pass still issues exactly one rmw per array (the PISA discipline
    // and the access oracle watch it) — batching only amortizes the
    // host-side decode/dispatch around those accesses.
    std::vector<WireSlot> slot_scratch_;
    std::string medium_key_scratch_;
    std::uint64_t short_mask_ = 0;
    std::vector<std::uint64_t> medium_masks_;

    std::unordered_map<TaskId, TaskRegion> tasks_;
    /** Last find_task hit: a DATA stream revisits one task for packets
     *  on end, so the map lookup is paid once per task switch, not once
     *  per packet. Element pointers survive rehashing (std::unordered_map
     *  guarantees it); the cache is dropped on install/remove/reboot. */
    mutable TaskId cached_task_ = 0;
    mutable const TaskRegion* cached_region_ = nullptr;
    /** Index of a provisioned channel into the channel-indexed arrays. */
    std::size_t chan_index(ChannelId channel) const
    {
        return static_cast<std::size_t>(channel) - prov_lo_;
    }

    SwitchAggStats stats_;
    /** Provisioned channel range (reliability-state coverage). */
    ChannelId prov_lo_ = 0;
    ChannelId prov_hi_ = 0;
    bool data_blackhole_ = false;
    bool tree_leaf_ = false;  ///< leaf ToR: forward residuals, never consume
    obs::PacketTracer* tracer_ = nullptr;  ///< borrowed, may be null
};

}  // namespace ask::core

#endif  // ASK_ASK_SWITCH_PROGRAM_H
