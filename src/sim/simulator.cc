#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ask::sim {

namespace {

/** Heap order: earlier time first, FIFO by schedule sequence on ties. */
template <typename Key>
bool
earlier(const Key& a, const Key& b)
{
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
}

}  // namespace

EventId
Simulator::schedule_at(SimTime t, EventFn fn)
{
    ASK_ASSERT(t >= now_, "cannot schedule an event in the past");
    ASK_ASSERT(static_cast<bool>(fn), "cannot schedule an empty callable");
    std::uint32_t i = acquire_slot();
    Slot& s = slot(i);
    s.fn = std::move(fn);
    heap_push(Key{t, next_seq_++, i, s.gen});
    ++live_;
    return EventId{i, s.gen};
}

EventId
Simulator::schedule_after(SimTime delay, EventFn fn)
{
    ASK_ASSERT(delay >= 0, "negative delay");
    return schedule_at(now_ + delay, std::move(fn));
}

bool
Simulator::cancel(EventId id)
{
    if (id.slot_ >= num_slots_)
        return false;
    Slot& s = slot(id.slot_);
    if (s.gen != id.gen_)
        return false;  // fired, cancelled, or the slot has moved on
    ++s.gen;  // the heap key is now a tombstone
    s.fn.reset();
    --live_;
    return true;
}

std::uint32_t
Simulator::acquire_slot()
{
    if (free_head_ != kNoSlot) {
        std::uint32_t i = free_head_;
        free_head_ = slot(i).next_free;
        return i;
    }
    ASK_ASSERT(num_slots_ < kNoSlot, "event arena exhausted");
    if ((num_slots_ >> kChunkBits) == chunks_.size())
        chunks_.push_back(std::make_unique<Slot[]>(1u << kChunkBits));
    return num_slots_++;
}

void
Simulator::release_slot(std::uint32_t i)
{
    slot(i).next_free = free_head_;
    free_head_ = i;
}

void
Simulator::heap_push(const Key& key)
{
    std::size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
        std::size_t parent = (i - 1) / kArity;
        if (!earlier(key, heap_[parent]))
            break;
        heap_[i] = heap_[parent];
        i = parent;
    }
    heap_[i] = key;
}

void
Simulator::heap_pop()
{
    Key last = heap_.back();
    heap_.pop_back();
    std::size_t n = heap_.size();
    if (n == 0)
        return;
    std::size_t hole = 0;
    for (;;) {
        std::size_t first = kArity * hole + 1;
        if (first >= n)
            break;
        std::size_t best = first;
        std::size_t end = std::min(first + kArity, n);
        for (std::size_t c = first + 1; c < end; ++c) {
            if (earlier(heap_[c], heap_[best]))
                best = c;
        }
        if (!earlier(heap_[best], last))
            break;
        heap_[hole] = heap_[best];
        hole = best;
    }
    heap_[hole] = last;
}

bool
Simulator::settle_head()
{
    // Drop tombstones off the top, recycling their slots, until the head
    // is live or the heap is empty.
    while (!heap_.empty()) {
        const Key& head = heap_.front();
        if (slot(head.slot).gen == head.gen)
            return true;
        release_slot(head.slot);
        heap_pop();
    }
    return false;
}

void
Simulator::run_head()
{
    Key key = heap_.front();
    heap_pop();
    ASK_ASSERT(key.time >= now_, "event queue went backwards");
    now_ = key.time;
    ++executed_;
    --live_;
    Slot& s = slot(key.slot);
    ++s.gen;  // fired: the handle no longer cancels anything
    s.fn();
    s.fn.reset();
    release_slot(key.slot);
    if (after_event_)
        after_event_(now_);
}

SimTime
Simulator::run()
{
    while (settle_head())
        run_head();
    return now_;
}

SimTime
Simulator::run_until(SimTime deadline)
{
    while (settle_head() && heap_.front().time <= deadline)
        run_head();
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

bool
Simulator::step()
{
    if (!settle_head())
        return false;
    run_head();
    return true;
}

}  // namespace ask::sim
