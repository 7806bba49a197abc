/**
 * @file
 * The network fabric: nodes wired together by faulty links.
 *
 * The ASK deployment (paper §5.1) is a star: N servers, each attached to
 * one port of a ToR programmable switch by a 100 Gbps cable. This class
 * supports arbitrary adjacency but is used as a star throughout.
 */
#ifndef ASK_NET_NETWORK_H
#define ASK_NET_NETWORK_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_model.h"
#include "net/link.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace ask::obs {
class MetricsSnapshot;
}  // namespace ask::obs

namespace ask::net {

/** Anything that can be attached to the network and receive packets. */
class Node
{
  public:
    virtual ~Node() = default;

    /** Deliver one packet; called by the Network at arrival time. */
    virtual void receive(Packet pkt) = 0;

    /** Human-readable name for logs. */
    virtual std::string name() const = 0;

    NodeId node_id() const { return node_id_; }

  private:
    friend class Network;
    NodeId node_id_ = 0;
};

/** Counters the fabric keeps per simulation. */
struct NetworkStats
{
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t packets_dropped = 0;
    std::uint64_t bytes_sent = 0;
};

/**
 * Owns links and fault models and moves packets between nodes through
 * the simulator.
 */
class Network
{
  public:
    explicit Network(sim::Simulator& simulator);

    /** Attach a node; assigns and returns its NodeId. Nodes are borrowed,
     *  not owned: they must outlive the Network. */
    NodeId attach(Node* node);

    /**
     * Create a bidirectional cable between two attached nodes.
     * Both directions share the rate/delay/fault parameters but have
     * independent wires and fault streams.
     */
    void connect(NodeId a, NodeId b, double rate_gbps,
                 Nanoseconds propagation_ns,
                 const FaultSpec& faults = FaultSpec::reliable(),
                 std::uint64_t fault_seed = 1);

    /**
     * Transmit a packet from `from` to the adjacent node `to`.
     * `pkt.src`/`pkt.dst` describe end-to-end addressing and are not
     * interpreted here; delivery is hop-by-hop.
     */
    void send(NodeId from, NodeId to, Packet pkt);

    /** Override both directions of the (a <-> b) cable (blackout or
     *  burst-loss window); `clear_cable_override` restores both. */
    void set_cable_override(NodeId a, NodeId b, const FaultSpec& spec);
    void clear_cable_override(NodeId a, NodeId b);

    /** Total wire bytes carried on the directed (from -> to) link. */
    std::uint64_t link_bytes(NodeId from, NodeId to) const;

    Node* node(NodeId id) const;
    const NetworkStats& stats() const { return stats_; }

    /** Add the fabric counters to `snap` under `prefix`. */
    void add_counters(obs::MetricsSnapshot& snap,
                      const std::string& prefix) const;
    sim::Simulator& simulator() { return simulator_; }

  private:
    struct Edge
    {
        NodeId to = 0;
        std::unique_ptr<Link> link;
        std::unique_ptr<FaultModel> faults;
    };

    Edge& edge(NodeId from, NodeId to);
    const Edge& edge(NodeId from, NodeId to) const;

    sim::Simulator& simulator_;
    std::vector<Node*> nodes_;
    /** Outgoing edges of each node, indexed by the sending NodeId. */
    std::vector<std::vector<Edge>> out_edges_;
    NetworkStats stats_;
    std::uint64_t next_uid_ = 1;
};

}  // namespace ask::net

#endif  // ASK_NET_NETWORK_H
