#include "ask/seen_window.h"

#include <algorithm>

#include "common/logging.h"

namespace ask::core {

namespace {

/** True when `s` falls before the window (max_seq - W, max_seq]. */
bool
is_stale(Seq s, Seq max_seq, std::uint32_t window)
{
    return static_cast<std::uint64_t>(s) + window <=
           static_cast<std::uint64_t>(max_seq);
}

}  // namespace

PlainSeen::PlainSeen(std::uint32_t window)
    : window_(window), bits_(2 * static_cast<std::size_t>(window), 0)
{
    ASK_ASSERT(window > 0, "window must be positive");
}

SeenOutcome
PlainSeen::observe(Seq s)
{
    if (!any_ || s > max_seq_) {
        max_seq_ = s;
        any_ = true;
    }
    if (is_stale(s, max_seq_, window_))
        return SeenOutcome::kStale;

    std::size_t idx = s % (2 * window_);
    std::uint8_t observed = bits_[idx];
    bits_[idx] = 1;                              // Eq. (6): record appearance
    bits_[(idx + window_) % (2 * window_)] = 0;  // Eq. (7): clear ahead
    return observed != 0 ? SeenOutcome::kDuplicate : SeenOutcome::kFresh;
}

void
PlainSeen::wipe()
{
    std::fill(bits_.begin(), bits_.end(), 0);
    max_seq_ = 0;
    any_ = false;
}

void
PlainSeen::repair(Seq next_seq)
{
    // The fence: every pre-crash sequence (< next_seq) must classify
    // stale, and the whole admitted window [next_seq, next_seq + W)
    // must read unseen. For the plain design wiped bits already mean
    // "unseen", so only the boundary needs restoring.
    std::fill(bits_.begin(), bits_.end(), 0);
    max_seq_ = next_seq + window_ - 1;
    any_ = true;
}

SeenSnapshot
PlainSeen::snapshot() const
{
    SeenSnapshot snap;
    snap.compact = false;
    snap.window = window_;
    snap.bits = bits_;
    snap.max_seq = max_seq_;
    snap.any = any_;
    return snap;
}

void
PlainSeen::restore(const SeenSnapshot& snap)
{
    ASK_ASSERT(!snap.compact && snap.window == window_ &&
                   snap.bits.size() == bits_.size(),
               "snapshot shape does not match this window");
    bits_ = snap.bits;
    max_seq_ = snap.max_seq;
    any_ = snap.any;
}

CompactSeen::CompactSeen(std::uint32_t window)
    : window_(window), bits_(window, 0)
{
    ASK_ASSERT(window > 0, "window must be positive");
}

SeenOutcome
CompactSeen::observe(Seq s)
{
    if (!any_ || s > max_seq_) {
        max_seq_ = s;
        any_ = true;
    }
    if (is_stale(s, max_seq_, window_))
        return SeenOutcome::kStale;

    // Fused set_bit/clr_bitc, branch-light: an even segment (parity 0)
    // returns the previous bit and sets it — the set bit doubles as the
    // pre-cleared state ("1 == unseen") for the following odd segment
    // (cases 1-2 of §3.3). An odd segment (parity 1) returns the
    // complement and clears it — the cleared bit pre-initializes the
    // next even segment (cases 3-4). Both reduce to one XOR against the
    // segment parity and an unconditional store of its complement.
    std::uint8_t parity = (s / window_) & 1;
    std::uint8_t& bit = bits_[s % window_];
    std::uint8_t observed = bit ^ parity;
    bit = parity ^ 1;
    return observed != 0 ? SeenOutcome::kDuplicate : SeenOutcome::kFresh;
}

void
CompactSeen::wipe()
{
    std::fill(bits_.begin(), bits_.end(), 0);
    max_seq_ = 0;
    any_ = false;
}

void
CompactSeen::repair(Seq next_seq)
{
    // Mirror of AskSwitchProgram::fence_channel: a fresh packet in an
    // even segment expects bit == 0 (set_bit), in an odd segment
    // bit == 1 (clr_bitc), so the parity of the one admitted window
    // must be pre-set — a wiped 0 in an odd segment would be misread
    // as "already observed" and falsely dedup a fresh packet.
    for (std::uint64_t seq = next_seq;
         seq < static_cast<std::uint64_t>(next_seq) + window_; ++seq) {
        std::uint32_t q = static_cast<std::uint32_t>(seq / window_);
        bits_[seq % window_] = q % 2 == 1 ? 1 : 0;
    }
    max_seq_ = next_seq + window_ - 1;
    any_ = true;
}

SeenSnapshot
CompactSeen::snapshot() const
{
    SeenSnapshot snap;
    snap.compact = true;
    snap.window = window_;
    snap.bits = bits_;
    snap.max_seq = max_seq_;
    snap.any = any_;
    return snap;
}

void
CompactSeen::restore(const SeenSnapshot& snap)
{
    ASK_ASSERT(snap.compact && snap.window == window_ &&
                   snap.bits.size() == bits_.size(),
               "snapshot shape does not match this window");
    bits_ = snap.bits;
    max_seq_ = snap.max_seq;
    any_ = snap.any;
}

HostReceiveWindow::HostReceiveWindow(std::uint32_t window)
    : window_(window),
      last_seq_plus1_(2 * static_cast<std::size_t>(window), 0)
{
    ASK_ASSERT(window > 0, "window must be positive");
}

SeenOutcome
HostReceiveWindow::classify(Seq s) const
{
    Seq max_seq = !any_ || s > max_seq_ ? s : max_seq_;
    if (is_stale(s, max_seq, window_))
        return SeenOutcome::kStale;
    if (last_seq_plus1_[s % last_seq_plus1_.size()] ==
        static_cast<std::uint64_t>(s) + 1)
        return SeenOutcome::kDuplicate;
    return SeenOutcome::kFresh;
}

SeenOutcome
HostReceiveWindow::observe(Seq s)
{
    // A stale or duplicate seq is at most max_seq_ (a duplicate was
    // fresh once), so only a fresh one moves the window.
    SeenOutcome outcome = classify(s);
    if (outcome == SeenOutcome::kFresh) {
        max_seq_ = !any_ || s > max_seq_ ? s : max_seq_;
        any_ = true;
        last_seq_plus1_[s % last_seq_plus1_.size()] =
            static_cast<std::uint64_t>(s) + 1;
    }
    return outcome;
}

}  // namespace ask::core
