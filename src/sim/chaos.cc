#include "sim/chaos.h"

#include "common/logging.h"
#include "common/random.h"

namespace ask::sim {

const char*
chaos_kind_name(ChaosKind kind)
{
    switch (kind) {
      case ChaosKind::kLinkBlackout:
        return "link-blackout";
      case ChaosKind::kBurstLoss:
        return "burst-loss";
      case ChaosKind::kSwitchReboot:
        return "switch-reboot";
      case ChaosKind::kMgmtOutage:
        return "mgmt-outage";
      case ChaosKind::kMgmtDelay:
        return "mgmt-delay";
      case ChaosKind::kDataBlackhole:
        return "data-blackhole";
      case ChaosKind::kHostCrash:
        return "host-crash";
    }
    return "unknown";
}

ChaosPlan&
ChaosPlan::link_blackout(SimTime at, SimTime duration, std::uint32_t host)
{
    return add({ChaosKind::kLinkBlackout, at, duration, host, 1.0});
}

ChaosPlan&
ChaosPlan::burst_loss(SimTime at, SimTime duration, std::uint32_t host,
                      double loss)
{
    return add({ChaosKind::kBurstLoss, at, duration, host, loss});
}

ChaosPlan&
ChaosPlan::switch_reboot(SimTime at, SimTime outage)
{
    return add({ChaosKind::kSwitchReboot, at, outage, 0, 0.0});
}

ChaosPlan&
ChaosPlan::mgmt_outage(SimTime at, SimTime duration)
{
    return add({ChaosKind::kMgmtOutage, at, duration, 0, 0.0});
}

ChaosPlan&
ChaosPlan::mgmt_delay(SimTime at, SimTime duration, Nanoseconds extra)
{
    return add({ChaosKind::kMgmtDelay, at, duration, 0,
                static_cast<double>(extra)});
}

ChaosPlan&
ChaosPlan::data_blackhole(SimTime at, SimTime duration)
{
    return add({ChaosKind::kDataBlackhole, at, duration, 0, 0.0});
}

ChaosPlan&
ChaosPlan::host_crash(SimTime at, SimTime outage, std::uint32_t host)
{
    return add({ChaosKind::kHostCrash, at, outage, host, 0.0});
}

ChaosPlan&
ChaosPlan::controller_crash(SimTime at, SimTime outage)
{
    return add({ChaosKind::kHostCrash, at, outage, kControllerSubject, 0.0});
}

ChaosPlan
ChaosPlan::randomized(std::uint64_t seed, SimTime horizon,
                      std::uint32_t episodes, std::uint32_t num_hosts,
                      SimTime mean_duration, double intensity,
                      bool allow_reboot)
{
    ASK_ASSERT(horizon > 0 && num_hosts > 0, "degenerate chaos horizon");
    Rng rng(seed);
    ChaosPlan plan;
    for (std::uint32_t i = 0; i < episodes; ++i) {
        ChaosEvent e;
        // Weighted kinds: link faults dominate, control-plane episodes
        // are occasional, reboots rare (and opt-in).
        std::uint64_t roll = rng.next_below(allow_reboot ? 10 : 9);
        if (roll < 3)
            e.kind = ChaosKind::kLinkBlackout;
        else if (roll < 6)
            e.kind = ChaosKind::kBurstLoss;
        else if (roll < 7)
            e.kind = ChaosKind::kMgmtOutage;
        else if (roll < 8)
            e.kind = ChaosKind::kMgmtDelay;
        else if (roll < 9)
            e.kind = ChaosKind::kDataBlackhole;
        else
            e.kind = ChaosKind::kSwitchReboot;
        e.at = static_cast<SimTime>(rng.next_below(
            static_cast<std::uint64_t>(horizon)));
        e.duration = 1 + static_cast<SimTime>(rng.next_exponential(
                             static_cast<double>(mean_duration)));
        e.subject = static_cast<std::uint32_t>(rng.next_below(num_hosts));
        switch (e.kind) {
          case ChaosKind::kLinkBlackout:
            e.intensity = 1.0;
            break;
          case ChaosKind::kBurstLoss:
            e.intensity = 0.2 + 0.7 * intensity * rng.next_double();
            break;
          case ChaosKind::kMgmtDelay:
            e.intensity = static_cast<double>(e.duration) / 4.0;
            break;
          default:
            e.intensity = 0.0;
            break;
        }
        plan.add(e);
    }
    return plan;
}

void
FaultScheduler::set_handler(ChaosKind kind, Handler on_start, Handler on_end)
{
    handlers_[kind] = Handlers{std::move(on_start), std::move(on_end)};
}

void
FaultScheduler::arm(const ChaosPlan& plan)
{
    for (const ChaosEvent& e : plan.events) {
        simulator_.schedule_at(e.at, [this, e] {
            auto it = handlers_.find(e.kind);
            if (it == handlers_.end()) {
                warn("chaos: ", chaos_kind_name(e.kind), " episode at ",
                     e.at, " fired with no handler registered");
                if (unhandled_hook_)
                    unhandled_hook_(e);
                return;
            }
            if (it->second.on_start)
                it->second.on_start(e);
            if (e.duration > 0 && it->second.on_end) {
                // Capture the handler, not the map iterator: handlers
                // may be re-registered while an episode is open.
                simulator_.schedule_at(e.at + e.duration, [this, e] {
                    auto jt = handlers_.find(e.kind);
                    if (jt != handlers_.end() && jt->second.on_end)
                        jt->second.on_end(e);
                });
            }
        });
    }
}

}  // namespace ask::sim
