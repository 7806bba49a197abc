/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The whole ASK reproduction runs inside this kernel: hosts, NICs, links,
 * and the PISA switch schedule callbacks at future simulated times, and
 * throughput/latency figures are computed from simulated time. The kernel
 * is single-threaded and fully deterministic: events at the same timestamp
 * fire in scheduling order.
 *
 * Most events are due within a microsecond (a link hop, a switch pass),
 * and most of the rest are retransmit timers that are cancelled before
 * they are due. So events due within a fixed horizon sit on a timing
 * wheel of one-nanosecond FIFO buckets, where schedule, pop and cancel
 * are O(1), and only later events go into a 4-ary heap.
 */
#ifndef ASK_SIM_SIMULATOR_H
#define ASK_SIM_SIMULATOR_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"

namespace ask::sim {

/** Simulated time in nanoseconds since simulation start. */
using SimTime = Nanoseconds;

/**
 * Handle to a scheduled event, usable only for cancellation. It names
 * the event's arena slot and that slot's generation at scheduling time,
 * so once the event fires or is cancelled the handle matches nothing.
 * A default-constructed handle is kInvalidEvent.
 */
class EventId
{
  public:
    constexpr EventId() = default;

    friend constexpr bool operator==(EventId, EventId) = default;

  private:
    friend class Simulator;

    constexpr EventId(std::uint32_t slot, std::uint32_t gen)
        : slot_(slot), gen_(gen)
    {
    }

    std::uint32_t slot_ = ~std::uint32_t{0};
    std::uint32_t gen_ = 0;
};

/** Sentinel meaning "no event". */
constexpr EventId kInvalidEvent{};

/**
 * A move-only `void()` callable for scheduled events. A callable of up to
 * kInlineBytes, aligned no stricter than a pointer and nothrow-movable,
 * lives inside the object, so scheduling it allocates nothing; anything
 * larger takes one heap allocation. Copyable callables such as
 * std::function convert too, and an empty std::function or a null
 * function pointer converts to an empty EventFn.
 */
class EventFn
{
  public:
    static constexpr std::size_t kInlineBytes = 64;

    /** True when a callable of type F is stored without allocating. */
    template <typename F>
    static constexpr bool kStoresInline =
        sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
        std::is_nothrow_move_constructible_v<F>;

    EventFn() noexcept = default;

    template <typename F, typename D = std::decay_t<F>>
        requires(!std::is_same_v<D, EventFn> && std::is_invocable_r_v<void, D&>)
    EventFn(F&& f)  // implicit: callers pass lambdas as they are
    {
        if constexpr (std::is_pointer_v<D> || IsStdFunction<D>::value) {
            if (!f)
                return;
        }
        if constexpr (kStoresInline<D>)
            ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
        else
            ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
        ops_ = &kOps<D>;
    }

    EventFn(EventFn&& other) noexcept { take(other); }

    EventFn&
    operator=(EventFn&& other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    EventFn(const EventFn&) = delete;
    EventFn& operator=(const EventFn&) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invoke the callable; it must not be empty. */
    void operator()() { ops_->invoke(storage_); }

    /** Destroy the callable now, leaving this empty. */
    void
    reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    template <typename T>
    struct IsStdFunction : std::false_type
    {
    };
    template <typename R, typename... A>
    struct IsStdFunction<std::function<R(A...)>> : std::true_type
    {
    };

    /** Per-type operations; `relocate` move-constructs into `dst` and
     *  destroys the source. */
    struct Ops
    {
        void (*invoke)(void* self);
        void (*relocate)(void* dst, void* src) noexcept;
        void (*destroy)(void* self) noexcept;
    };

    template <typename D>
    static D&
    target(void* self)
    {
        if constexpr (kStoresInline<D>)
            return *std::launder(static_cast<D*>(self));
        else
            return **std::launder(static_cast<D**>(self));
    }

    template <typename D>
    static constexpr Ops kOps = {
        [](void* self) { target<D>(self)(); },
        [](void* dst, void* src) noexcept {
            if constexpr (kStoresInline<D>) {
                D& from = target<D>(src);
                ::new (dst) D(std::move(from));
                from.~D();
            } else {
                ::new (dst) D*(&target<D>(src));
            }
        },
        [](void* self) noexcept {
            if constexpr (kStoresInline<D>)
                target<D>(self).~D();
            else
                delete &target<D>(self);
        },
    };

    void
    take(EventFn& other) noexcept
    {
        if (other.ops_ != nullptr) {
            other.ops_->relocate(storage_, other.storage_);
            ops_ = std::exchange(other.ops_, nullptr);
        }
    }

    alignas(void*) unsigned char storage_[kInlineBytes];
    const Ops* ops_ = nullptr;
};

/**
 * The event-driven simulator.
 *
 * An event due less than kHorizon ns after now() is appended to the
 * wheel bucket of its timestamp; a later one goes into the heap. Both
 * keep (time, schedule order) order, and each step fires the earlier
 * of the first wheel event and the heap's root, so events fire in the
 * same order whichever structure holds them.
 *
 * Typical use:
 * @code
 *   Simulator s;
 *   s.schedule_after(10, [&] { ... });
 *   s.run();
 * @endcode
 */
class Simulator
{
    static constexpr std::uint32_t kWheelBits = 12;

  public:
    /** Events due less than this many ns after now() go on the wheel.
     *  A constant; EXPERIMENTS.md "Near events on a timing wheel" gives
     *  the measurements behind it. */
    static constexpr SimTime kHorizon = SimTime{1} << kWheelBits;

    Simulator();

    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule `fn` (non-empty) to run at absolute time `t` (>= now). */
    EventId schedule_at(SimTime t, EventFn fn);

    /** Schedule `fn` to run `delay` ns from now (delay >= 0). */
    EventId schedule_after(SimTime delay, EventFn fn);

    /**
     * Cancel a pending event and destroy its callable at once. Returns
     * true if the event was still pending (it will not fire); false if
     * it already fired or was cancelled, or the handle was never issued.
     */
    bool cancel(EventId id);

    /** Run until the event queue drains. Returns the final time. */
    SimTime run();

    /**
     * Run until simulated time reaches `deadline` (events at exactly
     * `deadline` fire) or the queue drains, whichever is first.
     */
    SimTime run_until(SimTime deadline);

    /** Execute at most one event. Returns false if the queue was empty. */
    bool step();

    /** Number of events scheduled and neither fired nor cancelled. */
    std::size_t pending() const { return heap_.size() + wheel_size_; }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Install a hook invoked after every executed event with the current
     * time. Used by obs::Sampler to take periodic samples without ever
     * scheduling events of its own (a self-rescheduling sampler event
     * would keep run() from draining). One hook; pass nullptr to clear.
     */
    void set_after_event_hook(std::function<void(SimTime)> hook)
    {
        after_event_ = std::move(hook);
    }

  private:
    /**
     * Heap key: the event's time, then `seq << kSlotBits | slot`. seq
     * counts heap pushes, so (time, order) is a strict total order among
     * heap events: equal timestamps fire FIFO and any correct heap pops
     * the same sequence. At 16 bytes, a node's four children share a
     * 64-byte line.
     */
    struct Key
    {
        SimTime time;
        std::uint64_t order;
    };
    static_assert(sizeof(Key) == 16 && std::is_trivially_copyable_v<Key>);

    /** Arena slot: holds one event's callable from schedule until it
     *  fires or is cancelled; both bump `gen`, so the event's handle
     *  then matches nothing. */
    struct Slot
    {
        EventFn fn;
        std::uint32_t gen = 0;
        std::uint32_t next_free = 0;
    };

    /** A wheel bucket: the first and last slot of its FIFO. Valid only
     *  while the bucket's occupancy bit is set. */
    struct Bucket
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** A wheel event's neighbours in its bucket; `prev` is read only
     *  when the event is not the bucket's head. */
    struct Link
    {
        std::uint32_t prev;
        std::uint32_t next;
    };

    /** The next event to fire: its time, and its wheel bucket or
     *  kFromHeap. */
    struct Next
    {
        SimTime time;
        std::uint32_t bucket;
    };

    static constexpr std::size_t kArity = 4;
    static constexpr std::uint32_t kChunkBits = 8;
    // The order word packs the heap sequence above the slot: at most
    // 2^24 (16.7M) pending events and 2^40 heap pushes.
    static constexpr std::uint32_t kSlotBits = 24;
    static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
    static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                             << (64 - kSlotBits);
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    // One bucket per nanosecond of the horizon. Every wheel event is due
    // in [now, now + kHorizon), so no two timestamps share a bucket.
    static constexpr std::uint32_t kBuckets = 1u << kWheelBits;
    static constexpr std::uint32_t kBucketMask = kBuckets - 1;
    static constexpr std::uint32_t kWords = kBuckets / 64;
    static_assert(kWords <= 64, "one summary word covers the wheel");
    static constexpr std::uint32_t kFromHeap = kBuckets;
    // where_ of a wheel event: this bit, or'ed with its bucket.
    static constexpr std::uint32_t kOnWheel = 1u << 31;
    static_assert(kBuckets < kOnWheel && kMaxSlots < kOnWheel);

    static std::uint32_t
    slot_of(const Key& key)
    {
        return static_cast<std::uint32_t>(key.order & (kMaxSlots - 1));
    }

    // Slots live in fixed chunks, so a slot stays put while its own
    // callable runs and schedules more events.
    Slot&
    slot(std::uint32_t i)
    {
        return chunks_[i >> kChunkBits][i & ((1u << kChunkBits) - 1)];
    }

    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t i);
    void place(std::size_t pos, const Key& key);
    void sift_up(std::size_t hole, const Key& key);
    void sift_down(std::size_t hole, const Key& key);
    void heap_remove(std::size_t pos);
    void wheel_push(std::uint32_t i, SimTime t);
    void wheel_unlink(std::uint32_t i, std::uint32_t b);
    std::uint32_t first_occupied(std::uint32_t b) const;
    Next peek() const;
    void fire(const Next& next);

    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Key> heap_;  // 4-ary min-heap on (time, order)
    // Per pending slot: its key's heap index, or kOnWheel | its bucket.
    std::vector<std::uint32_t> where_;
    std::vector<Link> links_;  // per wheel slot: its bucket neighbours
    std::unique_ptr<Bucket[]> buckets_;
    // Bit b of occupied_ is set while bucket b holds an event; bit w of
    // summary_ while word w of occupied_ is non-zero.
    std::uint64_t occupied_[kWords] = {};
    std::uint64_t summary_ = 0;
    std::size_t wheel_size_ = 0;
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::uint32_t num_slots_ = 0;
    std::uint32_t free_head_ = kNoSlot;
    std::function<void(SimTime)> after_event_;
};

}  // namespace ask::sim

#endif  // ASK_SIM_SIMULATOR_H
