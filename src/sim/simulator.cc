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
    return a.time != b.time ? a.time < b.time : a.order < b.order;
}

}  // namespace

EventId
Simulator::schedule_at(SimTime t, EventFn fn)
{
    ASK_ASSERT(t >= now_, "cannot schedule an event in the past");
    ASK_ASSERT(static_cast<bool>(fn), "cannot schedule an empty callable");
    ASK_ASSERT(next_seq_ < kMaxSeq, "event sequence exhausted");
    std::uint32_t i = acquire_slot();
    Slot& s = slot(i);
    s.fn = std::move(fn);
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{t, (next_seq_++ << kSlotBits) | i});
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
    ++s.gen;
    heap_remove(heap_pos_[id.slot_]);
    s.fn.reset();
    release_slot(id.slot_);
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
    ASK_ASSERT(num_slots_ < kMaxSlots, "more than 2^24 events pending");
    if ((num_slots_ >> kChunkBits) == chunks_.size())
        chunks_.push_back(std::make_unique<Slot[]>(1u << kChunkBits));
    heap_pos_.push_back(0);
    return num_slots_++;
}

void
Simulator::release_slot(std::uint32_t i)
{
    slot(i).next_free = free_head_;
    free_head_ = i;
}

void
Simulator::place(std::size_t pos, const Key& key)
{
    heap_[pos] = key;
    heap_pos_[slot_of(key)] = static_cast<std::uint32_t>(pos);
}

void
Simulator::sift_up(std::size_t hole, const Key& key)
{
    while (hole > 0) {
        std::size_t parent = (hole - 1) / kArity;
        if (!earlier(key, heap_[parent]))
            break;
        place(hole, heap_[parent]);
        hole = parent;
    }
    place(hole, key);
}

void
Simulator::sift_down(std::size_t hole, const Key& key)
{
    std::size_t n = heap_.size();
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
        if (!earlier(heap_[best], key))
            break;
        place(hole, heap_[best]);
        hole = best;
    }
    place(hole, key);
}

void
Simulator::heap_remove(std::size_t pos)
{
    // Refill the hole with the last key, which may belong above or
    // below it.
    Key last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size())
        return;
    if (pos > 0 && earlier(last, heap_[(pos - 1) / kArity]))
        sift_up(pos, last);
    else
        sift_down(pos, last);
}

void
Simulator::run_head()
{
    Key key = heap_.front();
    heap_remove(0);
    ASK_ASSERT(key.time >= now_, "event queue went backwards");
    now_ = key.time;
    ++executed_;
    std::uint32_t i = slot_of(key);
    Slot& s = slot(i);
    ++s.gen;  // fired: the handle no longer cancels anything
    s.fn();
    s.fn.reset();
    release_slot(i);
    if (after_event_)
        after_event_(now_);
}

SimTime
Simulator::run()
{
    while (!heap_.empty())
        run_head();
    return now_;
}

SimTime
Simulator::run_until(SimTime deadline)
{
    while (!heap_.empty() && heap_.front().time <= deadline)
        run_head();
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

bool
Simulator::step()
{
    if (heap_.empty())
        return false;
    run_head();
    return true;
}

}  // namespace ask::sim
