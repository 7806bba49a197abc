#include "ask/controller.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ask::core {

std::string
controller_wal_name(SwitchId s)
{
    if (s.value() == 0)
        return "controller";
    return "controller.s" + std::to_string(s.value());
}

AskSwitchController::AskSwitchController(
    std::vector<AskSwitchProgram*> programs)
{
    ASK_ASSERT(!programs.empty(), "controller over no switches");
    switches_.reserve(programs.size());
    for (AskSwitchProgram* p : programs) {
        ASK_ASSERT(p != nullptr, "controller over a null program");
        Switch sw;
        sw.program = p;
        sw.epoch_slot_used.assign(p->config().max_tasks, false);
        switches_.push_back(std::move(sw));
    }
}

void
AskSwitchController::attach_wals(WalStore& store,
                                 std::uint64_t* append_counter)
{
    for (std::size_t s = 0; s < switches_.size(); ++s) {
        Wal& wal = store.wal(
            controller_wal_name(SwitchId{static_cast<std::uint32_t>(s)}));
        wal.set_append_counter(append_counter);
        switches_[s].wal = &wal;
    }
}

std::optional<TaskRegion>
AskSwitchController::allocate_on(Switch& sw, TaskId task, std::uint32_t len,
                                 ReduceOp op)
{
    const std::uint32_t capacity = sw.program->config().copy_size();
    if (len == 0 || len > capacity)
        return std::nullopt;

    // First-fit over the gaps between allocated slices.
    std::uint32_t cursor = 0;
    std::uint32_t base = capacity;  // sentinel: not found
    for (const auto& [alloc_base, info] : sw.allocated) {
        if (alloc_base - cursor >= len) {
            base = cursor;
            break;
        }
        cursor = alloc_base + info.first.len;
    }
    if (base == capacity) {
        if (capacity - cursor >= len)
            base = cursor;
        else
            return std::nullopt;
    }

    std::uint32_t epoch_slot = 0;
    while (epoch_slot < sw.epoch_slot_used.size() &&
           sw.epoch_slot_used[epoch_slot])
        ++epoch_slot;
    if (epoch_slot == sw.epoch_slot_used.size())
        return std::nullopt;

    TaskRegion region;
    region.base = base;
    region.len = len;
    region.epoch_slot = epoch_slot;
    region.op = op;

    // Reject an undeclared operator BEFORE journaling or mutating: the
    // install below would throw the same ConfigError, but only after
    // the WAL and journal already recorded a region that never existed.
    if (sw.program->access_plan().find_reduce_op(
            static_cast<std::uint8_t>(op)) == nullptr) {
        fail_config("task ", task, " requests reduce op '",
                    reduce_op_name(op), "' (id ",
                    static_cast<unsigned>(op),
                    "), which this switch program's access plan does not "
                    "declare");
    }

    // Journal before acting: if we crash after this append, recovery
    // rebuilds the allocation and re-installs it on the data plane.
    if (sw.wal != nullptr) {
        WalRecord r;
        r.kind = WalRecordKind::kAlloc;
        r.task = task;
        r.arg0 = base;
        r.arg1 = len;
        r.arg2 = epoch_slot;
        r.kvs.emplace_back("op", static_cast<std::uint64_t>(op));
        sw.wal->append(r);
    }
    sw.epoch_slot_used[epoch_slot] = true;
    sw.allocated[base] = {region, task};
    sw.fetched.erase(task);  // a reused task id starts a fresh tally
    sw.program->install_task(task, region);
    return region;
}

std::optional<TaskRegion>
AskSwitchController::allocate(TaskId task, std::uint32_t len, ReduceOp op)
{
    // All-or-nothing: a task aggregates on every switch its packets
    // cross, so a region that fits only some switches is useless.
    // Switches see identical allocate/release sequences, so first-fit
    // lands every task at the same base everywhere — but the rollback
    // below keeps correctness independent of that symmetry.
    std::optional<TaskRegion> first;
    std::size_t done = 0;
    for (; done < switches_.size(); ++done) {
        std::optional<TaskRegion> r =
            allocate_on(switches_[done], task, len, op);
        if (!r.has_value())
            break;
        if (done == 0)
            first = r;
        else
            ASK_ASSERT(r->base == first->base && r->len == first->len &&
                           r->epoch_slot == first->epoch_slot &&
                           r->op == first->op,
                       "switches diverged on task ", task,
                       "'s region placement");
    }
    if (done == switches_.size())
        return first;
    for (std::size_t s = 0; s < done; ++s)
        release_on(switches_[s], task);
    return std::nullopt;
}

void
AskSwitchController::release_on(Switch& sw, TaskId task)
{
    auto it = sw.allocated.begin();
    while (it != sw.allocated.end() && it->second.second != task)
        ++it;
    if (it == sw.allocated.end())
        fail_state("release of unknown task ", task);
    if (sw.wal != nullptr) {
        WalRecord r;
        r.kind = WalRecordKind::kRelease;
        r.task = task;
        r.arg0 = it->first;
        sw.wal->append(r);
    }
    sw.epoch_slot_used[it->second.first.epoch_slot] = false;
    // Clear the aggregators and reset the swap epoch so a future task
    // reusing this slice starts blank on copy 0 with epoch 0.
    AskSwitchProgram& program = *sw.program;
    program.reset_epoch(task);
    program.clear_region(task);
    sw.allocated.erase(it);
    program.remove_task(task);
}

void
AskSwitchController::release(TaskId task)
{
    // Attempt every switch even if one throws (a double release across
    // a crash must not strand regions on the remaining switches), then
    // surface the first failure.
    std::optional<StateError> deferred;
    for (Switch& sw : switches_) {
        try {
            release_on(sw, task);
        } catch (const StateError& e) {
            if (!deferred.has_value())
                deferred = e;
        }
    }
    if (deferred.has_value())
        throw *deferred;
}

void
AskSwitchController::crash()
{
    for (Switch& sw : switches_) {
        sw.allocated.clear();
        sw.epoch_slot_used.assign(sw.epoch_slot_used.size(), false);
        sw.fetched.clear();
    }
}

std::uint32_t
AskSwitchController::recover_on(Switch& sw)
{
    ASK_ASSERT(sw.wal != nullptr, "controller recovery without a WAL");
    // Throwing replay: a digest mismatch surfaces as StateError and the
    // cluster aborts the affected tasks instead of trusting the log.
    std::vector<WalRecord> records = sw.wal->replay();
    sw.allocated.clear();
    sw.epoch_slot_used.assign(sw.epoch_slot_used.size(), false);
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
            sw.allocated[region.base] = {region, r.task};
            sw.epoch_slot_used[region.epoch_slot] = true;
        } else if (r.kind == WalRecordKind::kRelease) {
            auto it = sw.allocated.find(r.arg0);
            if (it != sw.allocated.end() && it->second.second == r.task) {
                sw.epoch_slot_used[it->second.first.epoch_slot] = false;
                sw.allocated.erase(it);
            }
        }
    }
    // The data plane survives a controller crash, but a switch reboot
    // may have raced the outage; restore any missing install.
    reinstall_on(sw);
    return static_cast<std::uint32_t>(sw.allocated.size());
}

std::uint32_t
AskSwitchController::recover_from_wal()
{
    // Each switch's journal replays independently; a digest mismatch on
    // any of them throws and the cluster aborts the affected tasks.
    std::uint32_t regions = 0;
    for (Switch& sw : switches_)
        regions += recover_on(sw);
    return regions;
}

std::uint32_t
AskSwitchController::reinstall_on(Switch& sw)
{
    std::uint32_t count = 0;
    for (const auto& [base, info] : sw.allocated) {
        if (sw.program->find_task(info.second) == nullptr) {
            sw.program->install_task(info.second, info.first);
            ++count;
        }
    }
    return count;
}

std::uint32_t
AskSwitchController::reinstall_after_reboot()
{
    // Idempotent per switch: only a switch whose data plane lost a
    // journaled binding (i.e. the one that rebooted) re-installs.
    std::uint32_t count = 0;
    for (Switch& sw : switches_)
        count += reinstall_on(sw);
    return count;
}

void
AskSwitchController::fence_channel(ChannelId channel, Seq next_seq)
{
    // Fence everywhere the channel has reliability state: its owning
    // ToR and the aggregation tier.
    for (Switch& sw : switches_)
        if (sw.program->provisions(channel))
            sw.program->fence_channel(channel, next_seq);
}

AskSwitchProgram::ProbeResult
AskSwitchController::probe_packet(ChannelId channel, Seq seq) const
{
    // Merge the per-switch verdicts. A slot any switch consumed was
    // aggregated (the consumer ACKs or forwards on the packet's
    // behalf), so `remaining` is the intersection over the switches
    // that observed the packet; `observed` is the union.
    AskSwitchProgram::ProbeResult merged;
    for (const Switch& sw : switches_) {
        if (!sw.program->provisions(channel))
            continue;
        AskSwitchProgram::ProbeResult r =
            sw.program->probe_packet(channel, seq);
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
    for (Switch& sw : switches_) {
        KvStream part = sw.program->read_region(task, copy, clear);
        sw.fetched[task] += part.size();
        if (out.empty())
            out = std::move(part);
        else
            out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

std::vector<std::uint64_t>
AskSwitchController::fetched_tally(TaskId task) const
{
    std::vector<std::uint64_t> tally;
    tally.reserve(switches_.size());
    for (const Switch& sw : switches_) {
        auto it = sw.fetched.find(task);
        tally.push_back(it == sw.fetched.end() ? 0 : it->second);
    }
    return tally;
}

std::uint64_t
AskSwitchController::fetch_scan_entries(TaskId task) const
{
    // A rebooting switch holds no task table until the reinstall at the
    // end of its reboot, yet the receiver may finalize meanwhile on FINs
    // that took the other switches. The management plane is dark until
    // every switch is back, and that recovery voids the queued fetch.
    std::uint64_t entries = 0;
    for (const Switch& sw : switches_) {
        if (sw.program->find_task(task) != nullptr)
            entries += sw.program->region_scan_entries(task);
    }
    return entries;
}

std::uint32_t
AskSwitchController::current_epoch(TaskId task) const
{
    return switches_.front().program->current_epoch(task);
}

bool
AskSwitchController::installed(TaskId task) const
{
    return std::all_of(switches_.begin(), switches_.end(),
                       [task](const Switch& sw) {
                           return sw.program->find_task(task) != nullptr;
                       });
}

std::uint32_t
AskSwitchController::free_aggregators() const
{
    std::uint32_t free = ~std::uint32_t{0};
    for (const Switch& sw : switches_) {
        std::uint32_t used = 0;
        for (const auto& [base, info] : sw.allocated)
            used += info.first.len;
        free = std::min(free, sw.program->config().copy_size() - used);
    }
    return free;
}

}  // namespace ask::core
