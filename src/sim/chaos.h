/**
 * @file
 * Chaos injection: scheduled, reproducible fault events for the
 * simulation.
 *
 * The per-link FaultModel injects *steady-state* randomness (loss,
 * duplication, reordering). Production failures are different animals:
 * they are *episodes* — a cable goes dark for 50 ms, a switch reboots
 * and loses every register, the management network partitions for a
 * second. A ChaosPlan is a list of such episodes with absolute start
 * times and durations; the FaultScheduler arms them against the
 * simulator and invokes whatever handlers the deployment registered
 * (the network layer flips link overrides, the cluster layer wipes the
 * switch and runs recovery).
 *
 * The sim layer knows nothing about links or switches — it only keeps
 * the vocabulary of event kinds and the clockwork. Everything is
 * deterministic: the same plan against the same deployment yields the
 * same run, and randomized plans are derived from a seed.
 */
#ifndef ASK_SIM_CHAOS_H
#define ASK_SIM_CHAOS_H

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace ask::sim {

/** The failure domains a chaos plan can exercise. */
enum class ChaosKind : std::uint8_t
{
    /** A link drops every packet for the duration. subject = host. */
    kLinkBlackout = 0,
    /** A link suffers elevated loss (`intensity` = loss probability)
     *  for the duration. subject = host. */
    kBurstLoss = 1,
    /** The switch crashes at `at`, loses all register state, and is
     *  offline for the duration. */
    kSwitchReboot = 2,
    /** The management network is unreachable for the duration. */
    kMgmtOutage = 3,
    /** Management RPCs suffer `intensity` ns of extra latency for the
     *  duration. */
    kMgmtDelay = 4,
    /** The switch data plane blackholes ASK aggregation traffic (DATA
     *  and SWAP packets) for the duration, while plain forwarding still
     *  works — the classic "sick ASIC program" failure. */
    kDataBlackhole = 5,
    /** A host-side process crashes at `at`, losing all in-memory state
     *  (partial aggregates, seen windows, send queues — or, for
     *  subject == kControllerSubject, the allocation journal), and
     *  restarts when the episode ends, after `duration` (> 0), by
     *  replaying its write-ahead log. subject = host index, or
     *  kControllerSubject for the controller. */
    kHostCrash = 6,
};

/** ChaosEvent::subject value addressing the controller process rather
 *  than a numbered host daemon (host indices are small; this sentinel
 *  can never collide with one). */
constexpr std::uint32_t kControllerSubject = 0xFFFFFFFFu;

/** Human-readable name of a kind (logs, bench tables). */
const char* chaos_kind_name(ChaosKind kind);

/** One scheduled fault episode. */
struct ChaosEvent
{
    ChaosKind kind = ChaosKind::kLinkBlackout;
    /** Absolute simulated start time. */
    SimTime at = 0;
    /** Episode length; 0 means instantaneous (no end callback). */
    SimTime duration = 0;
    /** Kind-specific target (e.g. host index of the affected link). */
    std::uint32_t subject = 0;
    /** Kind-specific magnitude (loss probability, extra delay ns). */
    double intensity = 0.0;
};

/** A reproducible schedule of fault episodes. */
struct ChaosPlan
{
    std::vector<ChaosEvent> events;

    bool empty() const { return events.empty(); }

    ChaosPlan&
    add(ChaosEvent e)
    {
        events.push_back(e);
        return *this;
    }

    /** Shorthands for the common single-event plans. */
    ChaosPlan& link_blackout(SimTime at, SimTime duration,
                             std::uint32_t host);
    ChaosPlan& burst_loss(SimTime at, SimTime duration, std::uint32_t host,
                          double loss);
    ChaosPlan& switch_reboot(SimTime at, SimTime outage);
    ChaosPlan& mgmt_outage(SimTime at, SimTime duration);
    ChaosPlan& mgmt_delay(SimTime at, SimTime duration, Nanoseconds extra);
    ChaosPlan& data_blackhole(SimTime at, SimTime duration);
    ChaosPlan& host_crash(SimTime at, SimTime outage, std::uint32_t host);
    ChaosPlan& controller_crash(SimTime at, SimTime outage);

    /**
     * Derive a randomized but reproducible plan: `episodes` episodes
     * drawn uniformly over [0, horizon), kinds weighted toward link
     * faults, episode lengths exponential around `mean_duration`,
     * targets below `num_hosts`. `intensity` scales burst-loss
     * probability. Reboots are excluded unless `allow_reboot` (they
     * restart tasks, which a goodput sweep may not want).
     */
    static ChaosPlan randomized(std::uint64_t seed, SimTime horizon,
                                std::uint32_t episodes,
                                std::uint32_t num_hosts,
                                SimTime mean_duration,
                                double intensity = 0.5,
                                bool allow_reboot = false);
};

/**
 * Arms a ChaosPlan against a Simulator and dispatches each episode's
 * start/end to the handlers the deployment registered per kind.
 */
class FaultScheduler
{
  public:
    using Handler = std::function<void(const ChaosEvent&)>;

    explicit FaultScheduler(Simulator& simulator) : simulator_(simulator) {}

    FaultScheduler(const FaultScheduler&) = delete;
    FaultScheduler& operator=(const FaultScheduler&) = delete;

    /**
     * Register the start (and optional end) handler for one kind.
     * Events of a kind with no handler are counted but otherwise
     * ignored, so a plan can be armed against a deployment that only
     * models some failure domains.
     */
    void set_handler(ChaosKind kind, Handler on_start,
                     Handler on_end = nullptr);

    /** Schedule every event of `plan`. May be called more than once. */
    void arm(const ChaosPlan& plan);

    /** Episodes whose start fired so far. */
    std::uint64_t events_fired() const { return events_fired_; }

    /** Episodes of `kind` whose start fired so far. */
    std::uint64_t events_fired(ChaosKind kind) const;

    /** Episodes that fired with no handler registered for their kind.
     *  A nonzero count means the deployment armed a plan it only
     *  partially models — fine for a bare network sim, a wiring bug in
     *  a full cluster. */
    std::uint64_t unhandled_events() const { return unhandled_events_; }

    /** Unhandled episodes of one kind. */
    std::uint64_t unhandled_events(ChaosKind kind) const;

    /** Invoked (if set) whenever an episode fires unhandled, so the
     *  deployment can surface the gap in its own stats. */
    void
    set_unhandled_hook(Handler hook)
    {
        unhandled_hook_ = std::move(hook);
    }

  private:
    struct Handlers
    {
        Handler on_start;
        Handler on_end;
    };

    Simulator& simulator_;
    std::map<ChaosKind, Handlers> handlers_;
    Handler unhandled_hook_;
    std::uint64_t events_fired_ = 0;
    std::uint64_t unhandled_events_ = 0;
    std::map<ChaosKind, std::uint64_t> fired_by_kind_;
    std::map<ChaosKind, std::uint64_t> unhandled_by_kind_;
};

}  // namespace ask::sim

#endif  // ASK_SIM_CHAOS_H
