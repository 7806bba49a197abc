/**
 * @file
 * The management plane: the modeled control network between host
 * daemons and the switch controller (paper §3.1's control channel plus
 * switch gRPC).
 *
 * The data plane already models loss and delay per cable; management
 * traffic previously was a bare fixed latency. Chaos injection needs
 * more: control-plane *outage* and *delay* windows are a failure domain
 * of their own (a rebooting switch CPU takes its gRPC endpoint down
 * with it). MgmtPlane centralizes that: every controller RPC flows
 * through call(), which models the round-trip latency, fails attempts
 * that land inside an outage window, and retries with capped
 * exponential backoff until the RPC succeeds or its budget is spent.
 */
#ifndef ASK_ASK_MGMT_H
#define ASK_ASK_MGMT_H

#include <cstdint>
#include <functional>

#include "ask/metrics.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace ask::core {

/** The shared management network + controller RPC endpoint. */
class MgmtPlane
{
  public:
    MgmtPlane(sim::Simulator& simulator, Nanoseconds base_latency_ns)
        : simulator_(simulator), base_latency_ns_(base_latency_ns)
    {
    }

    MgmtPlane(const MgmtPlane&) = delete;
    MgmtPlane& operator=(const MgmtPlane&) = delete;

    /** Chaos injection: while down, every RPC attempt times out. */
    void set_outage(bool down) { down_ = down; }
    bool down() const { return down_; }

    /** Chaos injection: extra per-RPC latency (congested mgmt fabric). */
    void set_extra_delay(Nanoseconds extra) { extra_delay_ns_ = extra; }

    /** Round-trip latency of one successful RPC right now. */
    Nanoseconds latency() const { return base_latency_ns_ + extra_delay_ns_; }

    /**
     * Issue one RPC. After the round-trip latency, `op` runs — unless
     * the plane is in an outage window when the reply would arrive, in
     * which case the attempt counts as timed out and is retried after a
     * capped exponential backoff. After 10 failed attempts,
     * `on_give_up` (if provided) runs instead and the RPC is abandoned.
     */
    void call(std::function<void()> op,
              std::function<void()> on_give_up = nullptr);

    const ChaosStats& chaos_stats() const { return chaos_; }

  private:
    void attempt(std::uint32_t tries_so_far, std::function<void()> op,
                 std::function<void()> on_give_up);

    sim::Simulator& simulator_;
    Nanoseconds base_latency_ns_;
    bool down_ = false;
    Nanoseconds extra_delay_ns_ = 0;
    ChaosStats chaos_;
};

}  // namespace ask::core

#endif  // ASK_ASK_MGMT_H
