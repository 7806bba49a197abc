#include "net/network.h"

#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ask::net {

// Per-packet events capture a Packet and a pointer or two; they must fit
// EventFn's inline buffer so that sending allocates no callable.
static_assert(sizeof(Packet) + 2 * sizeof(void*) <= sim::EventFn::kInlineBytes);

Network::Network(sim::Simulator& simulator) : simulator_(simulator) {}

NodeId
Network::attach(Node* node)
{
    ASK_ASSERT(node != nullptr, "cannot attach a null node");
    NodeId id = static_cast<NodeId>(nodes_.size());
    node->node_id_ = id;
    nodes_.push_back(node);
    out_edges_.emplace_back();
    return id;
}

void
Network::connect(NodeId a, NodeId b, double rate_gbps,
                 Nanoseconds propagation_ns, const FaultSpec& faults,
                 std::uint64_t fault_seed)
{
    ASK_ASSERT(a < nodes_.size() && b < nodes_.size() && a != b,
               "connect requires two distinct attached nodes");
    auto make_edge = [&](NodeId from, NodeId to, std::uint64_t seed) {
        Edge e{to, std::make_unique<Link>(rate_gbps, propagation_ns),
               std::make_unique<FaultModel>(faults, seed)};
        for (Edge& old : out_edges_[from]) {
            if (old.to == to) {
                old = std::move(e);
                return;
            }
        }
        out_edges_[from].push_back(std::move(e));
    };
    make_edge(a, b, fault_seed * 2 + 1);
    make_edge(b, a, fault_seed * 2 + 2);
}

Network::Edge&
Network::edge(NodeId from, NodeId to)
{
    return const_cast<Edge&>(std::as_const(*this).edge(from, to));
}

const Network::Edge&
Network::edge(NodeId from, NodeId to) const
{
    if (from < out_edges_.size()) {
        for (const Edge& e : out_edges_[from]) {
            if (e.to == to)
                return e;
        }
    }
    panic("no link from node ", from, " to ", to);
}

void
Network::send(NodeId from, NodeId to, Packet pkt)
{
    Edge& e = edge(from, to);
    if (pkt.uid == 0)
        pkt.uid = next_uid_++;

    ++stats_.packets_sent;
    stats_.bytes_sent += pkt.wire_bytes();

    // The wire is occupied whether or not the packet survives; loss is
    // modeled at the receiving end of the hop.
    sim::SimTime arrival = e.link->transmit(simulator_.now(), pkt.wire_bytes());

    const Deliveries copies = e.faults->deliveries();
    if (copies.empty()) {
        ++stats_.packets_dropped;
        return;
    }
    Node* sink = nodes_.at(to);
    for (std::size_t i = 0; i < copies.size(); ++i) {
        Packet copy;
        if (i + 1 < copies.size())
            copy = pkt;  // duplicate: keep the original for later copies
        else
            copy = std::move(pkt);
        ++stats_.packets_delivered;
        simulator_.schedule_at(
            arrival + copies[i],
            [sink, p = std::move(copy)]() mutable { sink->receive(std::move(p)); });
    }
}

void
Network::set_cable_override(NodeId a, NodeId b, const FaultSpec& spec)
{
    edge(a, b).faults->set_override(spec);
    edge(b, a).faults->set_override(spec);
}

void
Network::clear_cable_override(NodeId a, NodeId b)
{
    edge(a, b).faults->clear_override();
    edge(b, a).faults->clear_override();
}

std::uint64_t
Network::link_bytes(NodeId from, NodeId to) const
{
    return edge(from, to).link->bytes_carried();
}

Node*
Network::node(NodeId id) const
{
    ASK_ASSERT(id < nodes_.size(), "unknown node id ", id);
    return nodes_[id];
}

void
Network::add_counters(obs::MetricsSnapshot& snap,
                      const std::string& prefix) const
{
    snap.add_counter(prefix + "packets_sent", stats_.packets_sent);
    snap.add_counter(prefix + "packets_delivered", stats_.packets_delivered);
    snap.add_counter(prefix + "packets_dropped", stats_.packets_dropped);
    snap.add_counter(prefix + "bytes_sent", stats_.bytes_sent);
}

}  // namespace ask::net
