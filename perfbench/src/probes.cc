#include "probes.h"

#include <fstream>
#include <utility>

#include "ask/fabric.h"
#include "ask/wal.h"

namespace perfbench {

using ask::core::AskCluster;
using ask::core::SwitchId;

void
TimedProgram::process(ask::net::Packet pkt, ask::pisa::Emitter& emit)
{
    Clock::time_point t0 = Clock::now();
    inner_.process(std::move(pkt), emit);
    std::uint64_t ns = ns_between(t0, Clock::now());
    ++sink_.passes;
    sink_.total_ns += ns;
    sink_.hist.observe(ns);
}

Probes::Probes(AskCluster& cluster) : cluster_(cluster)
{
    for (std::uint32_t s = 0; s < cluster_.num_switches(); ++s) {
        programs_.push_back(std::make_unique<TimedProgram>(
            cluster_.program(SwitchId{s}), passes_));
        cluster_.pisa_switch(SwitchId{s}).install(programs_.back().get());
    }
    ask::sim::Simulator& sim = cluster_.simulator();
    sim.set_after_event_hook([this, &sim](ask::sim::SimTime) {
        if (sim.pending() > queue_peak_)
            queue_peak_ = sim.pending();
    });
}

Probes::~Probes()
{
    cluster_.simulator().set_after_event_hook(nullptr);
    for (std::uint32_t s = 0; s < cluster_.num_switches(); ++s)
        cluster_.pisa_switch(SwitchId{s}).install(&cluster_.program(SwitchId{s}));
}

WalAppendCost
reappend_wals(AskCluster& cluster)
{
    std::vector<ask::core::Wal*> logs;
    for (std::uint32_t h = 0; h < cluster.num_hosts(); ++h)
        logs.push_back(&cluster.wal_store().host_wal(h));
    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s)
        logs.push_back(&cluster.wal_store().wal(
            ask::core::controller_wal_name(SwitchId{s})));

    WalAppendCost cost;
    for (ask::core::Wal* log : logs) {
        std::vector<ask::core::WalRecord> records = log->replay();
        ask::core::Wal fresh(log->name());
        Clock::time_point t0 = Clock::now();
        for (const ask::core::WalRecord& r : records)
            fresh.append(r);
        cost.total_ns += ns_between(t0, Clock::now());
        cost.records += records.size();
    }
    return cost;
}

std::uint64_t
SpanLog::begin(std::string name, std::uint64_t parent, std::uint64_t task)
{
    Clock::time_point now = Clock::now();
    return add(std::move(name), parent, now, now, task);
}

void
SpanLog::end(std::uint64_t id)
{
    spans_.at(id - 1).end = Clock::now();
}

std::uint64_t
SpanLog::add(std::string name, std::uint64_t parent, Clock::time_point start,
             Clock::time_point end, std::uint64_t task)
{
    std::uint64_t id = spans_.size() + 1;
    spans_.push_back({std::move(name), id, parent, task, start, end});
    return id;
}

void
SpanLog::add_histogram(std::string name, const ask::obs::LogHistogram& h)
{
    hists_.emplace_back(std::move(name), h);
}

bool
SpanLog::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    auto us = [this](Clock::time_point t) {
        return static_cast<double>(ns_between(origin_, t)) / 1000.0;
    };
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start)
            << ",\"dur\":" << us(s.end) - us(s.start) << ",\"args\":{\"id\":"
            << s.id << ",\"parent\":" << s.parent << ",\"task\":" << s.task
            << "}}";
    }
    out << "\n],\"histograms\":{";
    for (std::size_t i = 0; i < hists_.size(); ++i) {
        out << (i ? "," : "") << "\"" << hists_[i].first
            << "\":" << hists_[i].second.summary_json().dump();
    }
    out << "}}\n";
    return static_cast<bool>(out);
}

}  // namespace perfbench
