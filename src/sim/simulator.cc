#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <limits>
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

constexpr std::uint64_t
bit(std::uint32_t i)
{
    return std::uint64_t{1} << (i & 63);
}

}  // namespace

Simulator::Simulator()
    : buckets_(std::make_unique<Bucket[]>(kBuckets))
{
}

EventId
Simulator::schedule_at(SimTime t, EventFn fn)
{
    ASK_ASSERT(t >= now_, "cannot schedule an event in the past");
    ASK_ASSERT(static_cast<bool>(fn), "cannot schedule an empty callable");
    std::uint32_t i = acquire_slot();
    Slot& s = slot(i);
    s.fn = std::move(fn);
    if (t - now_ < kHorizon) {
        wheel_push(i, t);
    } else {
        ASK_ASSERT(next_seq_ < kMaxSeq, "event sequence exhausted");
        heap_.emplace_back();
        sift_up(heap_.size() - 1, Key{t, (next_seq_++ << kSlotBits) | i});
    }
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
    std::uint32_t where = where_[id.slot_];
    if ((where & kOnWheel) != 0)
        wheel_unlink(id.slot_, where & kBucketMask);
    else
        heap_remove(where);
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
    where_.push_back(0);
    links_.emplace_back();
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
    where_[slot_of(key)] = static_cast<std::uint32_t>(pos);
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
Simulator::wheel_push(std::uint32_t i, SimTime t)
{
    auto b = static_cast<std::uint32_t>(t) & kBucketMask;
    where_[i] = kOnWheel | b;
    links_[i].next = kNoSlot;
    Bucket& bucket = buckets_[b];
    std::uint64_t& word = occupied_[b / 64];
    if ((word & bit(b)) != 0) {
        links_[i].prev = bucket.tail;
        links_[bucket.tail].next = i;
        bucket.tail = i;
    } else {
        bucket = {i, i};
        word |= bit(b);
        summary_ |= bit(b / 64);
    }
    ++wheel_size_;
}

void
Simulator::wheel_unlink(std::uint32_t i, std::uint32_t b)
{
    Bucket& bucket = buckets_[b];
    Link link = links_[i];
    if (bucket.head == i && bucket.tail == i) {
        // The bucket empties.
        if ((occupied_[b / 64] &= ~bit(b)) == 0)
            summary_ &= ~bit(b / 64);
    } else if (bucket.head == i) {
        bucket.head = link.next;
    } else {
        links_[link.prev].next = link.next;
        if (bucket.tail == i)
            bucket.tail = link.prev;
        else
            links_[link.next].prev = link.prev;
    }
    --wheel_size_;
}

std::uint32_t
Simulator::first_occupied(std::uint32_t b) const
{
    // The first set bit at or after b in b's word, else the first set
    // word after it that the summary names; kBuckets if there is none.
    std::uint32_t w = b / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (b & 63));
    if (bits != 0)
        return w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
    std::uint64_t words = summary_ & ((~std::uint64_t{0} << w) << 1);
    if (words == 0)
        return kBuckets;
    w = static_cast<std::uint32_t>(std::countr_zero(words));
    return w * 64 + static_cast<std::uint32_t>(std::countr_zero(occupied_[w]));
}

Simulator::Next
Simulator::peek() const
{
    Next next{std::numeric_limits<SimTime>::max(), kFromHeap};
    if (wheel_size_ != 0) {
        // Wheel events are due in [now, now + kHorizon), so the first
        // occupied bucket at or after now's, wrapping round, is the
        // earliest.
        auto start = static_cast<std::uint32_t>(now_) & kBucketMask;
        std::uint32_t b = first_occupied(start);
        if (b == kBuckets)
            b = first_occupied(0);
        next = {now_ + ((b - start) & kBucketMask), b};
    }
    // On equal times the heap's event fires first: it was scheduled while
    // that time lay beyond the horizon, before any wheel event there.
    if (!heap_.empty() && heap_.front().time <= next.time)
        next = {heap_.front().time, kFromHeap};
    return next;
}

void
Simulator::fire(const Next& next)
{
    std::uint32_t i = 0;
    if (next.bucket == kFromHeap) {
        i = slot_of(heap_.front());
        heap_remove(0);
    } else {
        i = buckets_[next.bucket].head;
        wheel_unlink(i, next.bucket);
    }
    ASK_ASSERT(next.time >= now_, "event queue went backwards");
    now_ = next.time;
    ++executed_;
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
    while (pending() != 0)
        fire(peek());
    return now_;
}

SimTime
Simulator::run_until(SimTime deadline)
{
    while (pending() != 0) {
        Next next = peek();
        if (next.time > deadline)
            break;
        fire(next);
    }
    if (now_ < deadline)
        now_ = deadline;
    return now_;
}

bool
Simulator::step()
{
    if (pending() == 0)
        return false;
    fire(peek());
    return true;
}

}  // namespace ask::sim
