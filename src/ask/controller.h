/**
 * @file
 * The switch control plane: allocates switch-memory regions to
 * aggregation tasks (workflow steps 3 and 12 of paper §3.1) and provides
 * the slow-path fetch/reset used at task teardown and shadow-copy swaps.
 *
 * One AskSwitchController manages every switch of a deployment, indexed
 * by SwitchId: the lone ToR of a one-rack cluster, or each rack's ToR
 * plus the aggregation tier of a fabric. A one-rack cluster is simply
 * the one-switch case. A task aggregates wherever its packets travel,
 * so every switch holds the same region for it: the controller keeps
 * one region journal, one epoch-slot map and one write-ahead log, and
 * fans each journaled region out to every switch:
 *
 *   - allocate/release journal the region once, then install
 *     (uninstall) it on every switch.
 *   - fetch concatenates the per-switch region drains in SwitchId order
 *     — the software tier-merge of the partial aggregates; the
 *     receiver's merge_stream_into() folds keys split across switches
 *     under the task's bound ReduceOp (not an assumed `+`).
 *   - fence_channel reaches every switch provisioning the channel (the
 *     owning ToR and the tier), so a recovery fence is fabric-wide.
 *   - probe_packet merges verdicts: a slot consumed on ANY switch of
 *     the packet's path is consumed.
 *   - recover_from_wal and reinstall_after_reboot install a journaled
 *     region only on a data plane that lost it, so one rebooted ToR
 *     re-installs only its own bindings.
 */
#ifndef ASK_ASK_CONTROLLER_H
#define ASK_ASK_CONTROLLER_H

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "ask/switch_program.h"
#include "ask/types.h"
#include "ask/wal.h"

namespace ask::core {

/**
 * Manages the aggregator index space [0, copy_size) shared by all AAs:
 * every task receives one contiguous slice visible in all AAs (and both
 * shadow copies) on every switch. First-fit allocation with coalescing
 * free.
 */
class AskSwitchController
{
  public:
    /**
     * @param programs one program per switch, indexed by SwitchId
     *                 (ToRs first, the tier switch last). Must outlive
     *                 the controller; at least one entry, all with the
     *                 same copy_size() and max_tasks.
     * @param wal      the region journal's log (WalStore::controller_wal()
     *                 in a cluster). Must outlive the controller. Every
     *                 allocation and release is journaled here *before*
     *                 the in-memory journal or a data plane changes, so
     *                 a crashed controller rebuilds its allocation state
     *                 exactly.
     */
    AskSwitchController(std::vector<AskSwitchProgram*> programs, Wal& wal);

    /**
     * Allocate `len` aggregators per AA per copy for a task, bind the
     * region to reduction operator `op`, and install it on every data
     * plane. Throws ask::ConfigError when a switch program's access
     * plan does not declare `op` (e.g. kFloat on a narrow-word build).
     * @return the region, or std::nullopt when memory or epoch slots are
     *         exhausted (nothing is journaled then).
     */
    std::optional<TaskRegion> allocate(TaskId task, std::uint32_t len,
                                       ReduceOp op = ReduceOp::kAdd);

    /** Release a task's region and uninstall it from every switch.
     *  Throws StateError, before changing anything, for a task the
     *  journal holds no region for (e.g. a double release across a
     *  crash). Callers on the runtime path catch and move on. */
    void release(TaskId task);

    /**
     * Crash: lose the in-memory allocation journal and epoch-slot map
     * (the WAL, owned by the cluster's WalStore, survives).
     */
    void crash();

    /**
     * Rebuild the allocation journal from the WAL (alloc/release record
     * fold), then re-install any journaled region a data plane no longer
     * carries (covers a switch reboot overlapping the crash). Throws
     * StateError when the WAL fails its digest check.
     * @return the number of regions rebuilt into the journal.
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

    /** Free aggregators per AA per copy remaining. */
    std::uint32_t free_aggregators() const;

    /**
     * Failure recovery: a switch CPU rebooted and lost its task table
     * (and all register state). Re-install every journaled region on
     * each data plane that no longer carries it. The controller's
     * journal — not switch memory — is the source of truth for
     * allocations, which is what makes this safe.
     * @return the number of (region, switch) installs made.
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
        return static_cast<std::uint32_t>(programs_.size());
    }

  private:
    /** Aggregators per AA per copy: every switch's copy_size(). */
    std::uint32_t capacity() const
    {
        return programs_.front()->config().copy_size();
    }

    std::vector<AskSwitchProgram*> programs_;
    Wal& wal_;
    /**
     * Allocation journal, base -> (region, task). Holds the full
     * region (not just the length) so a post-reboot reinstall can
     * restore the exact epoch-slot bindings the senders' traffic
     * still references.
     */
    std::map<std::uint32_t, std::pair<TaskRegion, TaskId>> allocated_;
    std::vector<bool> epoch_slot_used_;
};

}  // namespace ask::core

#endif  // ASK_ASK_CONTROLLER_H
