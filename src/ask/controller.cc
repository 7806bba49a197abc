#include "ask/controller.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ask::core {

AskSwitchController::AskSwitchController(
    std::vector<AskSwitchProgram*> programs, Wal& wal)
    : programs_(std::move(programs)), wal_(wal)
{
    ASK_ASSERT(!programs_.empty(), "controller over no switches");
    // One journal serves every switch because every switch has the same
    // region space and epoch slots: a region placed once fits each.
    for (const AskSwitchProgram* p : programs_) {
        ASK_ASSERT(p != nullptr, "controller over a null program");
        ASK_ASSERT(p->config().copy_size() == capacity() &&
                       p->config().max_tasks ==
                           programs_.front()->config().max_tasks,
                   "controller over switches of different region spaces");
    }
    epoch_slot_used_.assign(programs_.front()->config().max_tasks, false);
}

std::optional<TaskRegion>
AskSwitchController::allocate(TaskId task, std::uint32_t len, ReduceOp op)
{
    const std::uint32_t cap = capacity();
    if (len == 0 || len > cap)
        return std::nullopt;

    // First-fit over the gaps between allocated slices.
    std::uint32_t cursor = 0;
    std::uint32_t base = cap;  // sentinel: not found
    for (const auto& [alloc_base, entry] : allocated_) {
        if (alloc_base - cursor >= len) {
            base = cursor;
            break;
        }
        cursor = alloc_base + entry.first.len;
    }
    if (base == cap) {
        if (cap - cursor >= len)
            base = cursor;
        else
            return std::nullopt;
    }

    std::uint32_t epoch_slot = 0;
    while (epoch_slot < epoch_slot_used_.size() &&
           epoch_slot_used_[epoch_slot])
        ++epoch_slot;
    if (epoch_slot == epoch_slot_used_.size())
        return std::nullopt;

    TaskRegion region;
    region.base = base;
    region.len = len;
    region.epoch_slot = epoch_slot;
    region.op = op;

    // Reject an undeclared operator BEFORE journaling or mutating: the
    // installs below would throw the same ConfigError, but only after
    // the WAL and journal already recorded a region that never existed.
    for (const AskSwitchProgram* p : programs_) {
        if (p->access_plan().find_reduce_op(static_cast<std::uint8_t>(op)) ==
            nullptr) {
            fail_config("task ", task, " requests reduce op '",
                        reduce_op_name(op), "' (id ",
                        static_cast<unsigned>(op),
                        "), which this switch program's access plan does "
                        "not declare");
        }
    }

    // Journal before acting: if we crash after this append, recovery
    // rebuilds the allocation and re-installs it on the data planes.
    WalRecord r;
    r.kind = WalRecordKind::kAlloc;
    r.task = task;
    r.arg0 = base;
    r.arg1 = len;
    r.arg2 = epoch_slot;
    r.kvs.emplace_back("op", static_cast<std::uint64_t>(op));
    wal_.append(r);
    epoch_slot_used_[epoch_slot] = true;
    allocated_[base] = {region, task};
    for (AskSwitchProgram* p : programs_)
        p->install_task(task, region);
    return region;
}

void
AskSwitchController::release(TaskId task)
{
    auto it = std::find_if(
        allocated_.begin(), allocated_.end(),
        [task](const auto& entry) { return entry.second.second == task; });
    if (it == allocated_.end())
        fail_state("release of unknown task ", task);
    WalRecord r;
    r.kind = WalRecordKind::kRelease;
    r.task = task;
    r.arg0 = it->first;
    wal_.append(r);
    epoch_slot_used_[it->second.first.epoch_slot] = false;
    allocated_.erase(it);
    // Clear the aggregators and reset the swap epoch so a future task
    // reusing this slice starts blank on copy 0 with epoch 0.
    for (AskSwitchProgram* p : programs_) {
        p->reset_epoch(task);
        p->clear_region(task);
        p->remove_task(task);
    }
}

void
AskSwitchController::crash()
{
    allocated_.clear();
    epoch_slot_used_.assign(epoch_slot_used_.size(), false);
}

std::uint32_t
AskSwitchController::recover_from_wal()
{
    // Throwing replay: a digest mismatch surfaces as StateError and the
    // cluster aborts the affected tasks instead of trusting the log.
    std::vector<WalRecord> records = wal_.replay();
    crash();
    for (const WalRecord& r : records) {
        if (r.kind == WalRecordKind::kAlloc) {
            TaskRegion region;
            region.base = r.arg0;
            region.len = r.arg1;
            region.epoch_slot = r.arg2;
            // Pre-op journals carry no "op" kv; those regions were kAdd.
            for (const auto& [key, value] : r.kvs)
                if (key == "op")
                    region.op = static_cast<ReduceOp>(value);
            allocated_[region.base] = {region, r.task};
            epoch_slot_used_[region.epoch_slot] = true;
        } else if (r.kind == WalRecordKind::kRelease) {
            auto it = allocated_.find(r.arg0);
            if (it != allocated_.end() && it->second.second == r.task) {
                epoch_slot_used_[it->second.first.epoch_slot] = false;
                allocated_.erase(it);
            }
        }
    }
    // The data planes survive a controller crash, but a switch reboot
    // may have raced the outage; restore any missing install.
    reinstall_after_reboot();
    return static_cast<std::uint32_t>(allocated_.size());
}

std::uint32_t
AskSwitchController::reinstall_after_reboot()
{
    // Only a data plane that lost a journaled binding (i.e. one that
    // rebooted) re-installs it.
    std::uint32_t count = 0;
    for (AskSwitchProgram* p : programs_) {
        for (const auto& [base, entry] : allocated_) {
            if (p->find_task(entry.second) == nullptr) {
                p->install_task(entry.second, entry.first);
                ++count;
            }
        }
    }
    return count;
}

void
AskSwitchController::fence_channel(ChannelId channel, Seq next_seq)
{
    // Fence everywhere the channel has reliability state: its owning
    // ToR and the aggregation tier.
    for (AskSwitchProgram* p : programs_)
        if (p->provisions(channel))
            p->fence_channel(channel, next_seq);
}

AskSwitchProgram::ProbeResult
AskSwitchController::probe_packet(ChannelId channel, Seq seq) const
{
    // Merge the per-switch verdicts. A slot any switch consumed was
    // aggregated (the consumer ACKs or forwards on the packet's
    // behalf), so `remaining` is the intersection over the switches
    // that observed the packet; `observed` is the union.
    AskSwitchProgram::ProbeResult merged;
    for (const AskSwitchProgram* p : programs_) {
        if (!p->provisions(channel))
            continue;
        AskSwitchProgram::ProbeResult r = p->probe_packet(channel, seq);
        if (!r.observed)
            continue;
        merged.remaining = merged.observed ? (merged.remaining & r.remaining)
                                           : r.remaining;
        merged.observed = true;
    }
    return merged;
}

KvStream
AskSwitchController::fetch(TaskId task, std::uint32_t copy, bool clear)
{
    // Concatenate the per-switch slices: the software tier-merge. The
    // caller folds keys split across switches with merge_stream_into()
    // under the region's bound ReduceOp — a concatenation is op-agnostic,
    // so min/max regions tier-merge just as correctly as sums.
    KvStream out;
    for (AskSwitchProgram* p : programs_) {
        KvStream part = p->read_region(task, copy, clear);
        if (out.empty())
            out = std::move(part);
        else
            out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

std::uint64_t
AskSwitchController::fetch_scan_entries(TaskId task) const
{
    // A rebooting switch holds no task table until the reinstall at the
    // end of its reboot, yet the receiver may finalize meanwhile on FINs
    // that took the other switches. The management plane is dark until
    // every switch is back, and that recovery voids the queued fetch.
    std::uint64_t entries = 0;
    for (const AskSwitchProgram* p : programs_) {
        if (p->find_task(task) != nullptr)
            entries += p->region_scan_entries(task);
    }
    return entries;
}

std::uint32_t
AskSwitchController::current_epoch(TaskId task) const
{
    return programs_.front()->current_epoch(task);
}

bool
AskSwitchController::installed(TaskId task) const
{
    return std::all_of(programs_.begin(), programs_.end(),
                       [task](const AskSwitchProgram* p) {
                           return p->find_task(task) != nullptr;
                       });
}

std::uint32_t
AskSwitchController::free_aggregators() const
{
    std::uint32_t used = 0;
    for (const auto& [base, entry] : allocated_)
        used += entry.first.len;
    return capacity() - used;
}

}  // namespace ask::core
