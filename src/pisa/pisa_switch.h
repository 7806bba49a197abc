/**
 * @file
 * The programmable switch: a network node that runs a SwitchProgram over
 * a PISA pipeline for every traversing packet.
 */
#ifndef ASK_PISA_PISA_SWITCH_H
#define ASK_PISA_PISA_SWITCH_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/network.h"
#include "net/packet.h"
#include "pisa/pipeline.h"

namespace ask::obs {
class MetricsSnapshot;
}  // namespace ask::obs

namespace ask::pisa {

/**
 * Output interface handed to a SwitchProgram for each packet: the program
 * can emit packets toward neighbors (forward, reflect an ACK, mirror) or
 * emit nothing (drop/consume).
 */
class Emitter
{
  public:
    virtual ~Emitter() = default;

    /** Send `pkt` out of the port facing `next_hop`. */
    virtual void emit(net::NodeId next_hop, net::Packet pkt) = 0;
};

/**
 * A data-plane program: parses the packet, manipulates register arrays
 * (under the pass discipline), and emits output packets.
 */
class SwitchProgram
{
  public:
    virtual ~SwitchProgram() = default;

    /**
     * Process one packet within the already-opened pipeline pass.
     * The packet is consumed; outputs go through `emit`.
     */
    virtual void process(net::Packet pkt, Emitter& emit) = 0;

    virtual std::string name() const = 0;
};

/** Switch-level counters. */
struct SwitchStats
{
    std::uint64_t packets_in = 0;
    std::uint64_t packets_out = 0;
    std::uint64_t passes = 0;
    std::uint64_t dropped_offline = 0;  ///< arrived while the switch was down
};

/**
 * The switch node. Owns the pipeline; the program is installed after
 * construction (it declares its register arrays against the pipeline).
 *
 * PISA pipelines run at line rate, so no queueing is modeled inside the
 * switch; each packet is charged a fixed pipeline latency.
 */
class PisaSwitch : public net::Node
{
  public:
    /**
     * @param network fabric the switch is attached to.
     * @param num_stages stages in the (possibly chained) pipeline.
     * @param sram_per_stage per-stage SRAM budget.
     * @param pipeline_latency_ns ingress-to-egress latency per pass.
     */
    PisaSwitch(net::Network& network,
               std::size_t num_stages = kDefaultStagesPerPipeline,
               std::size_t sram_per_stage = kDefaultStageSramBytes,
               Nanoseconds pipeline_latency_ns = 400);

    /** Install the data-plane program (must outlive the switch's use). */
    void install(SwitchProgram* program);

    /**
     * L3 routing: emit packets for `dst` out of the port facing
     * `next_hop` (multi-switch topologies; without an entry, `dst` is
     * assumed adjacent). Control-plane programmed, like any FIB.
     */
    void set_route(net::NodeId dst, net::NodeId next_hop);

    /** Resolve the egress neighbor for a destination. */
    net::NodeId next_hop(net::NodeId dst) const;

    /**
     * Power state (chaos injection): while offline, every arriving
     * packet is dropped — a crashed or rebooting switch. Register state
     * is wiped separately via Pipeline::wipe_registers(); a real reboot
     * does both.
     */
    void set_offline(bool offline) { offline_ = offline; }
    bool offline() const { return offline_; }

    /** The pipeline, for programs declaring state and for the control
     *  plane (slow-path reads/resets). */
    Pipeline& pipeline() { return pipeline_; }

    /** The simulation clock (programs stamp trace spans with it). */
    sim::Simulator& simulator() { return network_.simulator(); }

    // net::Node
    void receive(net::Packet pkt) override;
    std::string name() const override { return "pisa-switch"; }

    const SwitchStats& stats() const { return stats_; }
    Nanoseconds pipeline_latency_ns() const { return pipeline_latency_ns_; }

    /** Add the switch counters to `snap` under `prefix`. */
    void add_counters(obs::MetricsSnapshot& snap,
                      const std::string& prefix) const;

  private:
    class PortEmitter;

    net::Network& network_;
    Pipeline pipeline_;
    SwitchProgram* program_ = nullptr;
    bool offline_ = false;
    Nanoseconds pipeline_latency_ns_;
    SwitchStats stats_;
    std::unordered_map<net::NodeId, net::NodeId> routes_;
};

}  // namespace ask::pisa

#endif  // ASK_PISA_PISA_SWITCH_H
