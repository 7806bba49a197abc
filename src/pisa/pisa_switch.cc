#include "pisa/pisa_switch.h"

#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace ask::pisa {

/** Emitter that sends program outputs out of the switch after the
 *  pipeline latency. */
class PisaSwitch::PortEmitter : public Emitter
{
  public:
    PortEmitter(PisaSwitch& sw) : sw_(sw) {}

    void
    emit(net::NodeId next_hop, net::Packet pkt) override
    {
        ++sw_.stats_.packets_out;
        // Resolve multi-switch routes: the program names the final port
        // target; the FIB may redirect it toward another switch.
        net::NodeId hop = sw_.next_hop(next_hop);
        // Egress after the pipeline latency: hand the packet to the
        // outgoing link at that time.
        net::NodeId self = sw_.node_id();
        net::Network& network = sw_.network_;
        Nanoseconds latency = sw_.pipeline_latency_ns_;
        network.simulator().schedule_after(
            latency, [&network, self, hop, p = std::move(pkt)]() mutable {
                network.send(self, hop, std::move(p));
            });
    }

  private:
    PisaSwitch& sw_;
};

PisaSwitch::PisaSwitch(net::Network& network, std::size_t num_stages,
                       std::size_t sram_per_stage,
                       Nanoseconds pipeline_latency_ns)
    : network_(network),
      pipeline_(num_stages, sram_per_stage),
      pipeline_latency_ns_(pipeline_latency_ns)
{
}

void
PisaSwitch::set_route(net::NodeId dst, net::NodeId next)
{
    routes_[dst] = next;
}

net::NodeId
PisaSwitch::next_hop(net::NodeId dst) const
{
    auto it = routes_.find(dst);
    return it == routes_.end() ? dst : it->second;
}

void
PisaSwitch::install(SwitchProgram* program)
{
    ASK_ASSERT(program != nullptr, "cannot install a null program");
    program_ = program;
}

void
PisaSwitch::add_counters(obs::MetricsSnapshot& snap,
                         const std::string& prefix) const
{
    snap.add_counter(prefix + "packets_in", stats_.packets_in);
    snap.add_counter(prefix + "packets_out", stats_.packets_out);
    snap.add_counter(prefix + "passes", stats_.passes);
    snap.add_counter(prefix + "dropped_offline", stats_.dropped_offline);
}

void
PisaSwitch::receive(net::Packet pkt)
{
    ASK_ASSERT(program_ != nullptr, "switch received a packet with no program");
    if (offline_) {
        ++stats_.dropped_offline;
        return;
    }
    ++stats_.packets_in;
    ++stats_.passes;
    pipeline_.begin_pass();
    PortEmitter emitter(*this);
    program_->process(std::move(pkt), emitter);
}

}  // namespace ask::pisa
