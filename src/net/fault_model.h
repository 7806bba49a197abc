/**
 * @file
 * Network fault injection: loss, duplication, and reordering.
 *
 * Data centers lose and retransmit packets (paper §2.3, §3.3); ASK's
 * reliability mechanism exists exactly because of that. The FaultModel
 * decides, per transmission, how many copies of a packet arrive and how
 * much extra delay each copy suffers. A seeded Rng makes every fault
 * pattern reproducible.
 */
#ifndef ASK_NET_FAULT_MODEL_H
#define ASK_NET_FAULT_MODEL_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/random.h"
#include "common/units.h"

namespace ask::net {

/** Per-link fault probabilities and delay inflation. */
struct FaultSpec
{
    /** Probability a transmission is silently dropped. */
    double loss_prob = 0.0;
    /** Probability a transmission is delivered twice. */
    double dup_prob = 0.0;
    /** Probability a delivery gets extra delay (causing reordering). */
    double reorder_prob = 0.0;
    /** Mean of the exponential extra delay applied to reordered copies. */
    Nanoseconds reorder_delay_ns = 20 * units::kMicrosecond;

    /** A perfectly reliable network. */
    static FaultSpec reliable() { return FaultSpec{}; }

    /** A lossy profile exercising every reliability path. */
    static FaultSpec
    lossy(double loss, double dup = 0.01, double reorder = 0.05)
    {
        FaultSpec s;
        s.loss_prob = loss;
        s.dup_prob = dup;
        s.reorder_prob = reorder;
        return s;
    }

    /** A dead wire: every transmission disappears. */
    static FaultSpec
    blackout()
    {
        FaultSpec s;
        s.loss_prob = 1.0;
        return s;
    }
};

/** The fate of one transmission: the extra delay of each delivered
 *  copy (none when lost, two when duplicated). */
class Deliveries
{
  public:
    void push_back(Nanoseconds extra) { delays_[count_++] = extra; }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    Nanoseconds operator[](std::size_t i) const { return delays_[i]; }
    const Nanoseconds* begin() const { return delays_.data(); }
    const Nanoseconds* end() const { return delays_.data() + count_; }

  private:
    std::array<Nanoseconds, 2> delays_{};
    std::size_t count_ = 0;
};

/**
 * Draws fault outcomes for packet deliveries.
 */
class FaultModel
{
  public:
    FaultModel(FaultSpec spec, std::uint64_t seed);

    /** Decide the fate of one transmission. */
    Deliveries deliveries();

    /** The steady-state fault profile the model was built with. */
    const FaultSpec& spec() const { return spec_; }

    /**
     * Chaos-episode override: while set, `deliveries()` draws from this
     * spec instead of the steady-state one (a blackout or burst-loss
     * window). Episodes restore the base spec when they end; stacked
     * windows are not modeled — the latest override wins and clearing
     * always returns to the base spec.
     */
    void set_override(const FaultSpec& spec) { override_ = spec; }
    void clear_override() { override_.reset(); }
    bool overridden() const { return override_.has_value(); }

    /** The spec currently governing deliveries. */
    const FaultSpec& active_spec() const
    {
        return override_ ? *override_ : spec_;
    }

    std::uint64_t dropped() const { return dropped_; }
    std::uint64_t duplicated() const { return duplicated_; }
    std::uint64_t delayed() const { return delayed_; }
    /** Transmissions decided while an override window was active. */
    std::uint64_t overridden_transmissions() const { return overridden_tx_; }

  private:
    Nanoseconds extra_delay();

    FaultSpec spec_;
    std::optional<FaultSpec> override_;
    Rng rng_;
    std::uint64_t dropped_ = 0;
    std::uint64_t duplicated_ = 0;
    std::uint64_t delayed_ = 0;
    std::uint64_t overridden_tx_ = 0;
};

}  // namespace ask::net

#endif  // ASK_NET_FAULT_MODEL_H
