/** Unit tests for the discrete-event simulation kernel. */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sim/simulator.h"

namespace ask::sim {
namespace {

TEST(Simulator, StartsAtZero)
{
    Simulator s;
    EXPECT_EQ(s.now(), 0);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder)
{
    Simulator s;
    std::vector<int> order;
    s.schedule_at(30, [&] { order.push_back(3); });
    s.schedule_at(10, [&] { order.push_back(1); });
    s.schedule_at(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, FifoAmongEqualTimestamps)
{
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        s.schedule_at(10, [&order, i] { order.push_back(i); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ScheduleAfterUsesCurrentTime)
{
    Simulator s;
    SimTime inner_time = -1;
    s.schedule_at(100, [&] {
        s.schedule_after(50, [&] { inner_time = s.now(); });
    });
    s.run();
    EXPECT_EQ(inner_time, 150);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator s;
    bool fired = false;
    EventId id = s.schedule_at(10, [&] { fired = true; });
    EXPECT_TRUE(s.cancel(id));
    s.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInvalidIdReturnsFalse)
{
    Simulator s;
    EXPECT_FALSE(s.cancel(kInvalidEvent));
    // A handle this simulator never issued.
    Simulator other;
    EventId foreign = other.schedule_at(10, [] {});
    EXPECT_FALSE(s.cancel(foreign));
    EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, DoubleCancelReturnsFalse)
{
    Simulator s;
    EventId id = s.schedule_at(10, [] {});
    EXPECT_TRUE(s.cancel(id));
    EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, CancelAfterFireReturnsFalse)
{
    Simulator s;
    int fired = 0;
    EventId id = s.schedule_at(10, [&] { ++fired; });
    s.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(s.cancel(id));
    EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, PendingExactAfterStaleCancel)
{
    Simulator s;
    EventId id = s.schedule_at(10, [] {});
    s.run();
    s.cancel(id);
    EXPECT_EQ(s.pending(), 0u);
    // The recycled slot must not inherit the stale handle's cancel.
    int fired = 0;
    s.schedule_at(20, [&] { ++fired; });
    EXPECT_EQ(s.pending(), 1u);
    EXPECT_FALSE(s.cancel(id));
    s.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_EQ(s.executed(), 2u);
}

TEST(Simulator, CancelFromInsideOwnEventReturnsFalse)
{
    Simulator s;
    EventId self;
    bool result = true;
    self = s.schedule_at(5, [&] { result = s.cancel(self); });
    s.run();
    EXPECT_FALSE(result);
    EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, RunUntilStopsAtDeadline)
{
    Simulator s;
    int fired = 0;
    s.schedule_at(10, [&] { ++fired; });
    s.schedule_at(20, [&] { ++fired; });
    s.schedule_at(30, [&] { ++fired; });
    s.run_until(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 20);
    s.run();
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesTimeWithEmptyQueue)
{
    Simulator s;
    s.run_until(500);
    EXPECT_EQ(s.now(), 500);
}

TEST(Simulator, StepExecutesOneEvent)
{
    Simulator s;
    int fired = 0;
    s.schedule_at(1, [&] { ++fired; });
    s.schedule_at(2, [&] { ++fired; });
    EXPECT_TRUE(s.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator s;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 10)
            s.schedule_after(5, recurse);
    };
    s.schedule_at(0, recurse);
    s.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(s.now(), 45);
    EXPECT_EQ(s.executed(), 10u);
}

TEST(Simulator, PendingCountsLiveEvents)
{
    Simulator s;
    EventId a = s.schedule_at(10, [] {});
    s.schedule_at(20, [] {});
    EXPECT_EQ(s.pending(), 2u);
    s.cancel(a);
    EXPECT_EQ(s.pending(), 1u);
    s.run();
    EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, CancelledEventDoesNotAdvanceClock)
{
    Simulator s;
    EventId far = s.schedule_at(1000, [] {});
    s.schedule_at(10, [] {});
    s.cancel(far);
    s.run();
    EXPECT_EQ(s.now(), 10);
}

TEST(Simulator, CancelHeadLetsTheRestFireInOrder)
{
    Simulator s;
    std::vector<int> order;
    EventId head = s.schedule_at(5, [&] { order.push_back(0); });
    for (int i = 1; i <= 6; ++i)
        s.schedule_at(5 + i, [&order, i] { order.push_back(i); });
    EXPECT_TRUE(s.cancel(head));
    EXPECT_EQ(s.pending(), 6u);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Simulator, CancelLastScheduledKey)
{
    Simulator s;
    std::vector<int> order;
    // Ascending times: each key stays where it is pushed, so the newest
    // is the heap's last key and its removal moves nothing.
    for (int i = 0; i < 6; ++i)
        s.schedule_at(10 + i, [&order, i] { order.push_back(i); });
    EventId last = s.schedule_at(16, [&] { order.push_back(6); });
    EXPECT_TRUE(s.cancel(last));
    EXPECT_EQ(s.pending(), 6u);
    s.schedule_at(17, [&] { order.push_back(7); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 7}));
}

TEST(Simulator, CancelMiddleKeyWhoseReplacementSiftsUp)
{
    // Scheduled in this order, each key stays where it is pushed, so the
    // 4-ary heap is [0, 50, 10, 11, 12, 60, 61, 62, 63, 20]: 60 is a
    // child of 50 and the last key, 20, a child of 10. Cancelling 60
    // moves 20 into 60's place under 50, so it must sift up. Later keys
    // keep 20 from being the last key again, which would hide a missed
    // sift.
    for (bool cancel_moved : {false, true}) {
        SCOPED_TRACE(cancel_moved);
        Simulator s;
        std::vector<SimTime> order;
        auto record = [&s, &order] { order.push_back(s.now()); };
        std::vector<EventId> ids;
        for (SimTime t : {0, 50, 10, 11, 12, 60, 61, 62, 63, 20})
            ids.push_back(s.schedule_at(t, record));
        EXPECT_TRUE(s.cancel(ids[5]));
        EXPECT_FALSE(s.cancel(ids[5]));
        for (SimTime t : {70, 71, 72, 73})
            s.schedule_at(t, record);
        EXPECT_EQ(s.pending(), 13u);
        std::vector<SimTime> want = {0,  10, 11, 12, 20, 50, 61,
                                     62, 63, 70, 71, 72, 73};
        if (cancel_moved) {
            // Both keys the sift moved are still found by their handles.
            EXPECT_TRUE(s.cancel(ids[9]));
            EXPECT_TRUE(s.cancel(ids[1]));
            want = {0, 10, 11, 12, 61, 62, 63, 70, 71, 72, 73};
        }
        s.run();
        EXPECT_EQ(order, want);
    }
}

TEST(Simulator, CancelNextDueEventFromInsideAnEvent)
{
    Simulator s;
    std::vector<int> order;
    EventId next;
    s.schedule_at(10, [&] {
        order.push_back(0);
        EXPECT_TRUE(s.cancel(next));  // the head of the queue right now
        EXPECT_EQ(s.pending(), 2u);
    });
    next = s.schedule_at(10, [&] { order.push_back(1); });
    s.schedule_at(20, [&] { order.push_back(2); });
    s.schedule_at(30, [&] { order.push_back(3); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3}));
    EXPECT_EQ(s.now(), 30);
    EXPECT_EQ(s.executed(), 3u);
}

/**
 * Differential check of the kernel against a reference std::set keyed on
 * (time, schedule order): random mixes of schedule, cancel (of live,
 * fired, cancelled and recycled handles) and schedule/cancel from inside
 * running events. Many events share a timestamp, so slots are recycled
 * thousands of times. Far events play retransmit timers that are mostly
 * cancelled before they are due, so most cancels remove a key from deep
 * inside the heap; `far_ns` sets how far out they are armed.
 */
class KernelModel
{
  public:
    explicit KernelModel(std::uint64_t seed, SimTime far_ns = 500)
        : rng_(seeded_rng("sim_test.kernel_differential", seed)),
          far_ns_(far_ns)
    {
    }

    /** Arm `n` far timers before the random mix starts. */
    void
    arm_timers(int n)
    {
        for (int i = 0; i < n; ++i)
            schedule_far();
    }

    void
    run(int ops)
    {
        for (int op = 0; op < ops; ++op) {
            std::uint64_t roll = rng_.next_below(10);
            if (roll < 5 || expected_.empty())
                schedule();
            else if (roll < 8)
                cancel_random();
            else
                step();
            ASSERT_EQ(sim_.pending(), expected_.size());
            ASSERT_EQ(sim_.executed(), fired_.size());
            peak_pending_ = std::max(peak_pending_, sim_.pending());
            if (::testing::Test::HasFatalFailure())
                return;
        }
        while (!expected_.empty()) {
            step();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_FALSE(sim_.step());
        EXPECT_EQ(sim_.pending(), 0u);
        EXPECT_EQ(sim_.executed(), fired_.size());
    }

    std::size_t fired() const { return fired_.size(); }

    /** Most events pending at once, sampled after every op. */
    std::size_t peak_pending() const { return peak_pending_; }

  private:
    void
    schedule()
    {
        // Near events (0..3 ns) put many events on the same timestamp.
        if (rng_.chance(0.6))
            schedule_far();
        else
            add(sim_.now() + static_cast<SimTime>(rng_.next_below(4)));
    }

    /** A timer far_ns..2*far_ns out, most likely cancelled before due. */
    void
    schedule_far()
    {
        auto spread = static_cast<std::uint64_t>(far_ns_);
        SimTime delay = far_ns_ + static_cast<SimTime>(rng_.next_below(spread));
        timers_.push_back(add(sim_.now() + delay));
    }

    std::uint64_t
    add(SimTime at)
    {
        std::uint64_t label = handles_.size();
        handles_.push_back(sim_.schedule_at(at, [this, label] { fire(label); }));
        times_.push_back(at);
        expected_.insert({at, label});
        return label;
    }

    void
    cancel_random()
    {
        if (handles_.empty())
            return;
        // Mostly an armed timer; otherwise any handle ever issued, which
        // is usually fired, cancelled or recycled by now.
        std::uint64_t label = 0;
        if (!timers_.empty() && rng_.chance(0.9)) {
            std::size_t pick = rng_.next_below(timers_.size());
            label = timers_[pick];
            timers_[pick] = timers_.back();
            timers_.pop_back();
        } else {
            label = rng_.next_below(handles_.size());
        }
        bool live = expected_.erase({times_[label], label}) == 1;
        ASSERT_EQ(sim_.cancel(handles_[label]), live) << "label " << label;
    }

    void
    fire(std::uint64_t label)
    {
        fired_.push_back(label);
        // From inside an event: schedule children and cancel others.
        while (rng_.chance(0.3))
            schedule();
        if (rng_.chance(0.2))
            cancel_random();
    }

    void
    step()
    {
        if (expected_.empty())
            return;
        auto [at, label] = *expected_.begin();
        expected_.erase(expected_.begin());
        std::size_t before = fired_.size();
        ASSERT_TRUE(sim_.step());
        ASSERT_EQ(fired_.size(), before + 1);
        ASSERT_EQ(fired_[before], label);
        ASSERT_EQ(sim_.now(), at);
    }

    Rng rng_;
    SimTime far_ns_;
    std::size_t peak_pending_ = 0;
    Simulator sim_;
    std::vector<EventId> handles_;
    std::vector<SimTime> times_;
    std::vector<std::uint64_t> timers_;  // far events not yet cancelled
    std::set<std::pair<SimTime, std::uint64_t>> expected_;
    std::vector<std::uint64_t> fired_;
};

TEST(Simulator, MatchesReferenceOrderUnderRandomScheduleAndCancel)
{
    std::size_t total_fired = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        KernelModel model(seed);
        model.run(5000);
        if (HasFatalFailure())
            return;
        total_fired += model.fired();
    }
    EXPECT_GT(total_fired, 20000u);
}

TEST(Simulator, MatchesReferenceOrderWithThousandsOfTimersArmed)
{
    // fabric8_uniform's senders keep ~12k retransmit timers armed at
    // once; armed 1 ms out, these stay pending until the final drain.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        KernelModel model(seed, 1'000'000);
        model.arm_timers(12288);
        model.run(20000);
        if (HasFatalFailure())
            return;
        EXPECT_GE(model.peak_pending(), 12288u);
        EXPECT_GT(model.fired(), 12288u);
    }
}

/** Counts how many times an owning instance is destroyed. */
struct DestroyCounter
{
    explicit DestroyCounter(int* count) : count(count) {}
    DestroyCounter(DestroyCounter&& o) noexcept
        : count(std::exchange(o.count, nullptr))
    {
    }
    DestroyCounter(const DestroyCounter&) = delete;
    ~DestroyCounter()
    {
        if (count != nullptr)
            ++*count;
    }
    int* count;
};

TEST(EventFn, MoveOnlyCaptureRuns)
{
    Simulator s;
    int got = 0;
    auto value = std::make_unique<int>(7);
    s.schedule_at(1, [&got, v = std::move(value)] { got = *v; });
    s.run();
    EXPECT_EQ(got, 7);
}

TEST(EventFn, OversizedCaptureTakesHeapPathAndIsDestroyedOnce)
{
    int destroyed = 0;
    int ran = 0;
    std::array<std::uint64_t, 16> pad{};
    pad[15] = 3;
    auto fn = [counter = DestroyCounter(&destroyed), pad, &ran] {
        ran += static_cast<int>(pad[15]);
    };
    static_assert(!EventFn::kStoresInline<decltype(fn)>);
    {
        EventFn a(std::move(fn));
        EventFn b(std::move(a));  // relocating moves the pointer only
        EventFn c;
        c = std::move(b);
        EXPECT_FALSE(static_cast<bool>(a));
        EXPECT_FALSE(static_cast<bool>(b));
        Simulator s;
        s.schedule_at(1, std::move(c));
        EXPECT_EQ(destroyed, 0);
        s.run();
        EXPECT_EQ(ran, 3);
        EXPECT_EQ(destroyed, 1);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(EventFn, InlineCaptureIsDestroyedOnce)
{
    int destroyed = 0;
    auto fn = [counter = DestroyCounter(&destroyed)] {};
    static_assert(EventFn::kStoresInline<decltype(fn)>);
    {
        Simulator s;
        EventFn a(std::move(fn));
        s.schedule_at(1, std::move(a));
        s.run();
        EXPECT_EQ(destroyed, 1);
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(EventFn, CancelReleasesCallableAtOnce)
{
    Simulator s;
    auto token = std::make_shared<int>(0);
    std::array<std::uint64_t, 16> pad{};
    EventId small = s.schedule_at(10, [token] { ++*token; });
    EventId big = s.schedule_at(10, [token, pad] { *token += pad[0]; });
    EXPECT_EQ(token.use_count(), 3);
    EXPECT_TRUE(s.cancel(small));
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_TRUE(s.cancel(big));
    EXPECT_EQ(token.use_count(), 1);
    s.run();
    EXPECT_EQ(*token, 0);
}

TEST(EventFn, PendingCallablesAreReleasedWithTheSimulator)
{
    auto token = std::make_shared<int>(0);
    {
        Simulator s;
        s.schedule_at(10, [token] {});
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventFn, EmptyCallableIsRejectedAtSchedule)
{
    EXPECT_FALSE(static_cast<bool>(EventFn(std::function<void()>{})));
    EXPECT_FALSE(static_cast<bool>(EventFn(static_cast<void (*)()>(nullptr))));
    Simulator s;
    EXPECT_DEATH(s.schedule_at(1, std::function<void()>{}), "empty callable");
    EXPECT_DEATH(s.schedule_after(1, EventFn{}), "empty callable");
}

}  // namespace
}  // namespace ask::sim
