#include "ask/mgmt.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ask::core {

namespace {

/** Attempts per RPC before it is abandoned (outage windows). */
constexpr std::uint32_t kMgmtMaxTries = 10;
/** The retry backoff starts here and doubles per retry, up to the cap. */
constexpr Nanoseconds kMgmtBackoffBase = 50 * units::kMicrosecond;
constexpr Nanoseconds kMgmtBackoffCap = 2 * units::kMillisecond;

}  // namespace

void
MgmtPlane::call(std::function<void()> op, std::function<void()> on_give_up)
{
    attempt(0, std::move(op), std::move(on_give_up));
}

void
MgmtPlane::attempt(std::uint32_t tries_so_far, std::function<void()> op,
                   std::function<void()> on_give_up)
{
    ++chaos_.mgmt_rpcs;
    std::uint32_t tries = tries_so_far + 1;
    simulator_.schedule_after(
        latency(), [this, tries, op = std::move(op),
                    on_give_up = std::move(on_give_up)]() mutable {
            if (!down_) {
                op();
                return;
            }
            // The reply window fell inside an outage: this attempt is a
            // timeout. Retry with capped exponential backoff.
            ++chaos_.mgmt_retries;
            if (tries >= kMgmtMaxTries) {
                ++chaos_.mgmt_giveups;
                warn("mgmt RPC abandoned after ", tries, " attempts");
                if (on_give_up)
                    on_give_up();
                return;
            }
            std::uint32_t shift = std::min(tries - 1, 20u);
            Nanoseconds backoff =
                std::min(kMgmtBackoffBase << shift, kMgmtBackoffCap);
            simulator_.schedule_after(
                backoff, [this, tries, op = std::move(op),
                          on_give_up = std::move(on_give_up)]() mutable {
                    attempt(tries, std::move(op), std::move(on_give_up));
                });
        });
}

}  // namespace ask::core
