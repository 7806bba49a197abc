/**
 * @file
 * The switch control plane: allocates switch-memory regions to
 * aggregation tasks (workflow steps 3 and 12 of paper §3.1) and provides
 * the slow-path fetch/reset used at task teardown and shadow-copy swaps.
 *
 * One AskSwitchController manages every switch of a deployment, indexed
 * by SwitchId: the lone ToR of a one-rack cluster, or each rack's ToR
 * plus the aggregation tier of a fabric. A one-rack cluster is simply
 * the one-switch case. Each switch keeps its own region journal, epoch
 * slots, fetch tally and write-ahead log, and every operation fans out:
 *
 *   - allocate/release install (uninstall) the task's region on every
 *     switch, all-or-nothing: a task aggregates wherever its packets
 *     travel, so every switch on any path needs the region.
 *   - fetch concatenates the per-switch region drains in SwitchId order
 *     — the software tier-merge of the partial aggregates; the
 *     receiver's merge_stream_into() folds keys split across switches
 *     under the task's bound ReduceOp (not an assumed `+`).
 *   - fence_channel reaches every switch provisioning the channel (the
 *     owning ToR and the tier), so a recovery fence is fabric-wide.
 *   - probe_packet merges verdicts: a slot consumed on ANY switch of
 *     the packet's path is consumed.
 *   - reinstall_after_reboot is idempotent per switch, so one rebooted
 *     ToR re-installs only its own lost bindings.
 *
 * Per-switch WALs (see controller_wal_name) keep each switch's region
 * journal independently recoverable — a controller crash replays every
 * journal and reconciles each data plane separately.
 */
#ifndef ASK_ASK_CONTROLLER_H
#define ASK_ASK_CONTROLLER_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ask/switch_program.h"
#include "ask/types.h"
#include "ask/wal.h"

namespace ask::core {

/**
 * Name of the WAL journaling switch `s`'s regions. Switch 0 keeps the
 * classic "controller" name (WalStore::controller_wal()); the rest are
 * "controller.s<N>".
 */
std::string controller_wal_name(SwitchId s);

/**
 * Manages the aggregator index space [0, copy_size) shared by all AAs:
 * every task receives one contiguous slice visible in all AAs (and both
 * shadow copies) on every switch. First-fit allocation with coalescing
 * free, per switch.
 */
class AskSwitchController
{
  public:
    /**
     * @param programs one program per switch, indexed by SwitchId
     *                 (ToRs first, the tier switch last). Must outlive
     *                 the controller; at least one entry.
     */
    explicit AskSwitchController(std::vector<AskSwitchProgram*> programs);

    /**
     * Allocate `len` aggregators per AA per copy for a task on every
     * switch, bind the region to reduction operator `op`, and install it
     * on every data plane. Throws ask::ConfigError when the switch
     * program's access plan does not declare `op` (e.g. kFloat on a
     * narrow-word build).
     * @return the region, or std::nullopt when memory or epoch slots are
     *         exhausted on any switch (nothing stays allocated then).
     */
    std::optional<TaskRegion> allocate(TaskId task, std::uint32_t len,
                                       ReduceOp op = ReduceOp::kAdd);

    /** Release a task's region on every switch and uninstall it. Throws
     *  StateError for a task some switch holds no journaled region for
     *  (e.g. a double release across a crash) — after releasing it
     *  everywhere else. Callers on the runtime path catch and move on. */
    void release(TaskId task);

    /**
     * Attach one WAL per switch from `store`, named per
     * controller_wal_name(). From then on every allocation and release
     * is journaled to the switch's WAL *before* its in-memory journal
     * or data plane changes, so a crashed controller can rebuild its
     * allocation state exactly. `append_counter` (optional) receives
     * every journal append.
     */
    void attach_wals(WalStore& store, std::uint64_t* append_counter);

    /**
     * Crash: lose every in-memory allocation journal and epoch-slot map
     * (the WALs, owned by the cluster's WalStore, survive).
     */
    void crash();

    /**
     * Rebuild every switch's allocation journal from its WAL
     * (alloc/release record fold), then re-install any journaled region
     * the data plane no longer carries (covers a switch reboot
     * overlapping the crash). Throws StateError when a WAL fails its
     * digest check.
     * @return the number of regions rebuilt into the journals.
     */
    std::uint32_t recover_from_wal();

    /**
     * Slow-path read of one shadow copy of the task's region on every
     * switch (optionally clearing it), decoding the aggregators into
     * tuples, concatenated in SwitchId order.
     */
    KvStream fetch(TaskId task, std::uint32_t copy, bool clear);

    /** Aggregator entries a fetch of this task scans (cost accounting),
     *  over the switches that hold it (a rebooting one holds none). */
    std::uint64_t fetch_scan_entries(TaskId task) const;

    /** Current swap epoch of the task (epochs advance in lock-step, and
     *  swaps are disabled on multi-switch deployments, so switch 0's
     *  answer is every switch's). */
    std::uint32_t current_epoch(TaskId task) const;

    /** Is the task's region bound on every switch's data plane? */
    bool installed(TaskId task) const;

    /** Free aggregators per AA per copy remaining: the minimum over the
     *  switches. */
    std::uint32_t free_aggregators() const;

    /**
     * Failure recovery: a switch CPU rebooted and lost its task table
     * (and all register state). Re-install every journaled region a
     * data plane no longer carries. The controller's journal — not
     * switch memory — is the source of truth for allocations, which is
     * what makes this safe.
     * @return the number of regions re-installed.
     */
    std::uint32_t reinstall_after_reboot();

    /** Recovery passthrough (see AskSwitchProgram::fence_channel) on
     *  every switch provisioning the channel. */
    void fence_channel(ChannelId channel, Seq next_seq);

    /** Degraded-mode passthrough (see AskSwitchProgram::probe_packet),
     *  merged over the switches provisioning the channel: `observed` is
     *  the union and `remaining` the intersection over the switches
     *  that observed the packet. */
    AskSwitchProgram::ProbeResult probe_packet(ChannelId channel,
                                               Seq seq) const;

    /** Switches this control plane manages. */
    std::uint32_t num_switches() const
    {
        return static_cast<std::uint32_t>(switches_.size());
    }

    /**
     * Tuples fetched from each switch for `task` (slow-path drains:
     * finalize and swap commits), indexed by SwitchId. Survives
     * release() so completion reports can attribute the result to its
     * owning switches; reset when the task id is re-allocated.
     */
    std::vector<std::uint64_t> fetched_tally(TaskId task) const;

  private:
    /** One switch's control-plane state. */
    struct Switch
    {
        AskSwitchProgram* program = nullptr;
        /**
         * Allocation journal, base -> (region, task). Holds the full
         * region (not just the length) so a post-reboot reinstall can
         * restore the exact epoch-slot bindings the senders' traffic
         * still references.
         */
        std::map<std::uint32_t, std::pair<TaskRegion, TaskId>> allocated;
        std::vector<bool> epoch_slot_used;
        /** Tuples drained per task (see fetched_tally). */
        std::unordered_map<TaskId, std::uint64_t> fetched;
        Wal* wal = nullptr;
    };

    static std::optional<TaskRegion> allocate_on(Switch& sw, TaskId task,
                                                 std::uint32_t len,
                                                 ReduceOp op);
    static void release_on(Switch& sw, TaskId task);
    static std::uint32_t recover_on(Switch& sw);
    static std::uint32_t reinstall_on(Switch& sw);

    std::vector<Switch> switches_;
};

}  // namespace ask::core

#endif  // ASK_ASK_CONTROLLER_H
