/**
 * @file
 * Explicit cluster topology: racks of hosts behind per-rack ToR switches,
 * joined by an upper aggregation tier (paper §7, "scaling out").
 *
 * A Topology is how a ClusterConfig describes a deployment: how many
 * racks, how many hosts each, and the links that join the tiers. A
 * single rack is one switch and no tier; multi-rack topologies add one
 * aggregation-tier switch above the ToRs that merges partial aggregates
 * in-network before delivery. AskCluster wires both the same way — a
 * one-rack cluster is the one-switch case of the fabric.
 *
 * Build one with TopologyBuilder:
 *
 *     ClusterConfig cc;
 *     cc.topology = TopologyBuilder()
 *                       .racks(4, 2)            // 4 racks x 2 hosts
 *                       .tier_link(400.0, 1000) // ToR<->tier uplinks
 *                       .build();
 */
#ifndef ASK_ASK_TOPOLOGY_H
#define ASK_ASK_TOPOLOGY_H

#include <cstdint>
#include <vector>

#include "ask/types.h"
#include "common/units.h"
#include "net/fault_model.h"

namespace ask::core {

/** A validated cluster shape (see TopologyBuilder). */
struct Topology
{
    /** Hosts per rack; rack r's ToR is SwitchId{r}. Host indices are
     *  dense in rack order: rack 0 holds hosts [0, rack_hosts[0]), etc. */
    std::vector<std::uint32_t> rack_hosts;

    /** ToR <-> aggregation-tier uplink line rate. */
    double tier_link_gbps = 400.0;
    /** One-way propagation delay of a tier uplink. */
    Nanoseconds tier_link_propagation_ns = 1000;
    /** Fault injection on the tier uplinks (host<->ToR cables keep the
     *  ClusterConfig's `faults` spec). */
    net::FaultSpec tier_faults = net::FaultSpec::reliable();

    std::uint32_t num_racks() const
    {
        return static_cast<std::uint32_t>(rack_hosts.size());
    }

    std::uint32_t num_hosts() const;

    /** Multi-rack deployments run one aggregation-tier switch above the
     *  ToRs; a single rack runs its ToR alone. */
    bool has_tier() const { return num_racks() > 1; }

    /** Switches in the fabric: the ToRs plus the tier switch (if any). */
    std::uint32_t num_switches() const
    {
        return num_racks() + (has_tier() ? 1 : 0);
    }

    /** SwitchId of the aggregation-tier switch (has_tier() only). */
    SwitchId tier_switch() const { return SwitchId{num_racks()}; }

    /** Rack of a host (host indices are dense in rack order). */
    RackId rack_of_host(HostId host) const;

    /** First host index of rack `rack`. */
    std::uint32_t host_lo(RackId rack) const;

    /** Hosts in rack `rack`. */
    std::uint32_t hosts_in(RackId rack) const
    {
        return rack_hosts.at(rack.value());
    }

    /** Throws ask::ConfigError if the shape is inconsistent. */
    void validate() const;
};

/**
 * Fluent builder for a Topology. Rack order is declaration order; host
 * indices are assigned densely rack by rack.
 */
class TopologyBuilder
{
  public:
    /** Append one rack of `hosts` servers. */
    TopologyBuilder& add_rack(std::uint32_t hosts);

    /** Append `count` racks of `hosts_per_rack` servers each. */
    TopologyBuilder& racks(std::uint32_t count, std::uint32_t hosts_per_rack);

    /** Configure the ToR <-> tier uplinks. */
    TopologyBuilder& tier_link(double gbps, Nanoseconds propagation_ns);

    /** Fault injection on the tier uplinks (default: reliable). */
    TopologyBuilder& tier_faults(const net::FaultSpec& faults);

    /** Validate and return the topology. Throws ask::ConfigError when
     *  the shape is inconsistent (no racks, an empty rack). */
    Topology build() const;

  private:
    Topology topo_;
};

}  // namespace ask::core

#endif  // ASK_ASK_TOPOLOGY_H
