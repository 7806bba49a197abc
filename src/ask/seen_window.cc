#include "ask/seen_window.h"

#include <algorithm>

#include "common/logging.h"

namespace ask::core {

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
    return seen_rule::observe(bits_[s % window_], s, window_)
               ? SeenOutcome::kDuplicate
               : SeenOutcome::kFresh;
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
    seen_rule::fence(next_seq, window_,
                     [&](std::size_t slot, std::uint8_t bit) {
                         bits_[slot] = bit;
                     });
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
