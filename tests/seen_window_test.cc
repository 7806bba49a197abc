/**
 * Tests of the reliability receive windows (§3.3), including the
 * property-based equivalence of the compact and plain designs.
 */
#include <gtest/gtest.h>

#include <vector>

#include "ask/seen_window.h"
#include "common/random.h"

namespace ask::core {
namespace {

constexpr std::uint32_t kW = 16;

TEST(PlainSeen, FreshThenDuplicate)
{
    PlainSeen s(kW);
    EXPECT_EQ(s.observe(0), SeenOutcome::kFresh);
    EXPECT_EQ(s.observe(0), SeenOutcome::kDuplicate);
    EXPECT_EQ(s.observe(1), SeenOutcome::kFresh);
    EXPECT_EQ(s.observe(1), SeenOutcome::kDuplicate);
}

TEST(CompactSeen, FreshThenDuplicate)
{
    CompactSeen s(kW);
    EXPECT_EQ(s.observe(0), SeenOutcome::kFresh);
    EXPECT_EQ(s.observe(0), SeenOutcome::kDuplicate);
    EXPECT_EQ(s.observe(1), SeenOutcome::kFresh);
    EXPECT_EQ(s.observe(1), SeenOutcome::kDuplicate);
}

TEST(CompactSeen, UsesHalfTheState)
{
    PlainSeen p(256);
    CompactSeen c(256);
    EXPECT_EQ(p.state_bits(), 512u);
    EXPECT_EQ(c.snapshot().bits.size(), 256u);
}

TEST(CompactSeen, SegmentBoundaryCases)
{
    // Walk several full segments in order: every first appearance must be
    // fresh even though the underlying bits are reused with flipped
    // polarity (cases 1-4 of §3.3).
    CompactSeen s(kW);
    for (Seq q = 0; q < 6 * kW; ++q)
        EXPECT_EQ(s.observe(q), SeenOutcome::kFresh) << "seq " << q;
}

TEST(PlainSeen, StalePacketDropped)
{
    PlainSeen s(kW);
    for (Seq q = 0; q <= kW; ++q)
        s.observe(q);
    // seq 0 is now <= max_seq - W: a very late duplicate must be
    // classified stale, not fresh (it would corrupt a future bit).
    EXPECT_EQ(s.observe(0), SeenOutcome::kStale);
}

TEST(CompactSeen, StalePacketDropped)
{
    CompactSeen s(kW);
    for (Seq q = 0; q <= kW; ++q)
        s.observe(q);
    EXPECT_EQ(s.observe(0), SeenOutcome::kStale);
}

TEST(CompactSeen, OutOfOrderWithinWindow)
{
    CompactSeen s(kW);
    // Deliver a window's worth in reverse order: all fresh.
    std::vector<Seq> seqs;
    for (Seq q = 0; q < kW; ++q)
        seqs.push_back(kW - 1 - q);
    for (Seq q : seqs)
        EXPECT_EQ(s.observe(q), SeenOutcome::kFresh) << "seq " << q;
    for (Seq q : seqs)
        EXPECT_EQ(s.observe(q), SeenOutcome::kDuplicate) << "seq " << q;
}

TEST(CompactSeen, RetransmitAcrossSegmentBoundary)
{
    // The compact design's polarity trick relies on the sender contract:
    // the window only slides past ACKed (observed) sequences, so observe
    // everything up to the boundary first.
    CompactSeen s(kW);
    for (Seq q = 0; q < kW + kW / 2; ++q)
        EXPECT_EQ(s.observe(q), SeenOutcome::kFresh);
    // Retransmissions straddling the even/odd segment boundary, all
    // still within the current window (max = 1.5W, so > 0.5W is fresh).
    for (Seq q = kW - kW / 2; q < kW + kW / 2; ++q)
        EXPECT_EQ(s.observe(q), SeenOutcome::kDuplicate) << "seq " << q;
}

/**
 * Property: under any arrival pattern a compliant sliding-window sender
 * can generate (arrivals only within W of the maximum in-flight seq,
 * arbitrary duplication and reordering within that range), PlainSeen and
 * CompactSeen return identical outcomes for every arrival.
 */
class SeenEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeenEquivalence, RandomizedSenderPatterns)
{
    Rng rng = seeded_rng("seen_window_test", GetParam());
    std::uint32_t w = 1u << rng.next_in(2, 6);  // W in {4..64}
    PlainSeen plain(w);
    CompactSeen compact(w);

    // Model a *compliant* sliding-window sender: the window base only
    // advances past sequences that were observed (ACKed) at least once;
    // arrivals (including retransmissions, arbitrarily reordered) are
    // drawn from [base, base + W). Very late duplicates from before the
    // window are injected too: both designs must call them stale.
    const int kSteps = 20000;
    std::vector<bool> delivered(kSteps + 2 * w, false);
    Seq base = 0;
    Seq max_obs = 0;
    bool any_obs = false;
    for (int step = 0; step < kSteps; ++step) {
        while (delivered[base] && rng.chance(0.5))
            ++base;  // ACKs slide the window forward

        Seq s;
        if (rng.chance(0.03) && any_obs && max_obs >= w) {
            // A packet delayed from long ago: guaranteed stale.
            s = static_cast<Seq>(rng.next_in(0, max_obs - w));
            SeenOutcome a = plain.observe(s);
            SeenOutcome b = compact.observe(s);
            ASSERT_EQ(a, SeenOutcome::kStale);
            ASSERT_EQ(b, SeenOutcome::kStale);
            continue;
        }
        s = static_cast<Seq>(rng.next_in(base, base + w - 1));
        SeenOutcome a = plain.observe(s);
        SeenOutcome b = compact.observe(s);
        ASSERT_EQ(a, b) << "divergence at step " << step << " seq " << s
                        << " W " << w;
        bool expect_dup = delivered[s];
        ASSERT_EQ(a == SeenOutcome::kDuplicate, expect_dup)
            << "wrong dedup verdict at seq " << s;
        delivered[s] = true;
        if (!any_obs || s > max_obs) {
            max_obs = s;
            any_obs = true;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeenEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(HostReceiveWindow, DedupsWithSequenceGaps)
{
    // The receiver sees only a subset of sequences (others were consumed
    // by the switch). Gaps must not cause false duplicates or misses.
    HostReceiveWindow wdw(kW);
    EXPECT_EQ(wdw.observe(3), SeenOutcome::kFresh);
    EXPECT_EQ(wdw.observe(7), SeenOutcome::kFresh);
    EXPECT_EQ(wdw.observe(3), SeenOutcome::kDuplicate);
    // Sequence 3 + 2W lands on the same ring slot: must still be fresh.
    EXPECT_EQ(wdw.observe(3 + 2 * kW), SeenOutcome::kFresh);
}

TEST(HostReceiveWindow, StaleRejected)
{
    HostReceiveWindow wdw(kW);
    wdw.observe(100);
    EXPECT_EQ(wdw.observe(100 - kW), SeenOutcome::kStale);
    EXPECT_EQ(wdw.observe(101 - kW), SeenOutcome::kFresh);
}

TEST(HostReceiveWindow, RandomizedSubsetDelivery)
{
    // Property: with arbitrary subsets and duplicates within the window,
    // the window reports kFresh exactly once per sequence. classify()
    // predicts every observe() without changing the window, and only a
    // fresh arrival changes it (the receiver classifies, journals, and
    // only then records the arrival).
    Rng rng = seeded_rng("seen_window_test", 99);
    HostReceiveWindow wdw(64);
    std::vector<int> fresh_count(5000, 0);
    Seq base = 0;
    for (int step = 0; step < 30000; ++step) {
        if (rng.chance(0.2) && base + 64 < 5000)
            ++base;
        Seq s = static_cast<Seq>(rng.next_in(base, base + 63));
        const HostReceiveWindow before = wdw;
        SeenOutcome predicted = wdw.classify(s);
        ASSERT_EQ(wdw, before) << "step " << step;
        SeenOutcome outcome = wdw.observe(s);
        ASSERT_EQ(outcome, predicted) << "step " << step << " seq " << s;
        if (outcome == SeenOutcome::kFresh) {
            ++fresh_count[s];
        } else {
            ASSERT_EQ(wdw, before) << "step " << step << " seq " << s;
        }
    }
    for (std::size_t s = 0; s < fresh_count.size(); ++s)
        EXPECT_LE(fresh_count[s], 1) << "seq " << s << " fresh twice";
}

// ---------------------------------------------------------------------------
// Edge cases: wraparound, window-full backpressure, wipe + fence repair
// ---------------------------------------------------------------------------

TEST(SeenWindowEdge, OperatesNearSequenceNumberCeiling)
{
    // Seq is 32-bit but the staleness comparison is done in 64-bit, so
    // windows near the top of the range must behave exactly like
    // windows near zero: fresh once, duplicate after, stale below the
    // window — no overflow in `s + W`.
    // A window can't *start* cold at an arbitrary sequence (the compact
    // design's zeroed construction state is only valid at seq 0); the
    // fence repair is the documented way to establish one mid-stream.
    const Seq top = 0xffffffffu;
    const Seq start = top - 3 * kW;
    for (int design = 0; design < 2; ++design) {
        PlainSeen plain(kW);
        CompactSeen compact(kW);
        plain.repair(start);
        compact.repair(start);
        auto observe = [&](Seq s) {
            return design == 0 ? plain.observe(s) : compact.observe(s);
        };
        for (Seq s = start; s < top; ++s)
            EXPECT_EQ(observe(s), SeenOutcome::kFresh) << "seq " << s;
        EXPECT_EQ(observe(top), SeenOutcome::kFresh);
        EXPECT_EQ(observe(top), SeenOutcome::kDuplicate);
        EXPECT_EQ(observe(top - kW + 1), SeenOutcome::kDuplicate);
        EXPECT_EQ(observe(top - kW), SeenOutcome::kStale);
    }
}

TEST(SeenWindowEdge, HostWindowNearSequenceNumberCeiling)
{
    HostReceiveWindow wdw(kW);
    const Seq top = 0xffffffffu;
    EXPECT_EQ(wdw.observe(top - 1), SeenOutcome::kFresh);
    EXPECT_EQ(wdw.observe(top), SeenOutcome::kFresh);
    EXPECT_EQ(wdw.observe(top - 1), SeenOutcome::kDuplicate);
    EXPECT_EQ(wdw.observe(top - kW), SeenOutcome::kStale);
}

TEST(SeenWindowEdge, WindowFullAdvanceExpiresUnackedSequence)
{
    // Why the sender must stall when its window is full: if it slid
    // anyway, the oldest outstanding (un-ACKed) sequence would fall
    // below the window and its retransmission would be dropped as
    // stale — silently losing the tuple. Both designs agree.
    PlainSeen plain(kW);
    CompactSeen compact(kW);
    // Fill the window without ACK progress: W outstanding sequences.
    for (Seq s = 0; s < kW; ++s) {
        EXPECT_EQ(plain.observe(s), SeenOutcome::kFresh);
        EXPECT_EQ(compact.observe(s), SeenOutcome::kFresh);
    }
    // Every outstanding sequence is still retransmittable (duplicate,
    // not stale) while the window holds.
    EXPECT_EQ(plain.observe(0), SeenOutcome::kDuplicate);
    EXPECT_EQ(compact.observe(0), SeenOutcome::kDuplicate);
    // A non-compliant send past the full window expires seq 0.
    EXPECT_EQ(plain.observe(kW), SeenOutcome::kFresh);
    EXPECT_EQ(compact.observe(kW), SeenOutcome::kFresh);
    EXPECT_EQ(plain.observe(0), SeenOutcome::kStale);
    EXPECT_EQ(compact.observe(0), SeenOutcome::kStale);
}

TEST(SeenWindowEdge, RepairAfterMidWindowWipe)
{
    // Crash model: the switch reboots mid-window and every register
    // reads zero. The fence (AskSwitchProgram::fence_channel) repairs
    // the window at the sender's next sequence — which is generally
    // *mid-segment*, so the compact design's parity must be pre-set for
    // the admitted range (a wiped 0 in an odd segment would misread as
    // "already observed" and falsely dedup a fresh packet).
    for (std::uint32_t offset : {0u, 1u, kW / 2, kW - 1}) {
        PlainSeen plain(kW);
        CompactSeen compact(kW);
        // Progress into the third segment so parity state is nontrivial,
        // stopping at an arbitrary offset within the segment.
        Seq next = 2 * kW + offset;
        for (Seq s = 0; s < next; ++s) {
            plain.observe(s);
            compact.observe(s);
        }

        plain.wipe();
        compact.wipe();
        plain.repair(next);
        compact.repair(next);

        // Pre-crash sequences replayed by in-flight frames: stale.
        EXPECT_EQ(plain.observe(next - 1), SeenOutcome::kStale);
        EXPECT_EQ(compact.observe(next - 1), SeenOutcome::kStale);
        EXPECT_EQ(plain.observe(0), SeenOutcome::kStale);
        EXPECT_EQ(compact.observe(0), SeenOutcome::kStale);

        // The whole admitted window: fresh exactly once, then
        // duplicate, in both designs — this is the parity repair.
        for (Seq s = next; s < next + kW; ++s) {
            EXPECT_EQ(plain.observe(s), SeenOutcome::kFresh)
                << "offset " << offset << " seq " << s;
            EXPECT_EQ(compact.observe(s), SeenOutcome::kFresh)
                << "offset " << offset << " seq " << s;
            EXPECT_EQ(plain.observe(s), SeenOutcome::kDuplicate);
            EXPECT_EQ(compact.observe(s), SeenOutcome::kDuplicate);
        }
    }
}

TEST(SeenWindowEdge, WipeWithoutRepairLosesDedupState)
{
    // The negative control for the fence: a bare wipe (no repair) makes
    // the window forget everything — a replayed pre-crash frame would
    // be re-admitted and double-aggregated. This is exactly the bug the
    // fence exists to prevent.
    PlainSeen plain(kW);
    plain.observe(5);
    plain.wipe();
    EXPECT_EQ(plain.observe(5), SeenOutcome::kFresh);  // double-count!
}

}  // namespace
}  // namespace ask::core
