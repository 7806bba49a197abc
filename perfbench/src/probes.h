/**
 * @file
 * Outside-in probes for a traced benchmark round. Every probe times or
 * counts calls into one layer's public interface; nothing in the
 * libraries is instrumented:
 *
 *  - TimedProgram wraps a switch's AskSwitchProgram and is installed
 *    with the public PisaSwitch::install, so every pipeline pass is
 *    timed (switch self time);
 *  - Probes also samples Simulator::pending() after every event through
 *    set_after_event_hook (event-queue peak);
 *  - reappend_wals() re-appends each WAL's replay() into a fresh Wal,
 *    timing the public Wal::append (WAL append cost).
 *
 * SpanLog keeps the benchmark's own spans (run, round, set-up, measured
 * phase, task) in memory and writes them out once, at the end, as
 * Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
 */
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ask/cluster.h"
#include "obs/metrics.h"
#include "pisa/pisa_switch.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two steady-clock points. */
inline std::uint64_t
ns_between(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/** Host time spent in switch passes: a count, a sum and a histogram
 *  (one entry per pass would be far too many spans). */
struct PassTimes
{
    std::uint64_t passes = 0;
    std::uint64_t total_ns = 0;
    ask::obs::LogHistogram hist;
};

/** A SwitchProgram decorator that times each pass of `inner`. */
class TimedProgram final : public ask::pisa::SwitchProgram
{
  public:
    TimedProgram(ask::pisa::SwitchProgram& inner, PassTimes& sink)
        : inner_(inner), sink_(sink)
    {
    }

    void process(ask::net::Packet pkt, ask::pisa::Emitter& emit) override;
    std::string name() const override { return inner_.name(); }

  private:
    ask::pisa::SwitchProgram& inner_;
    PassTimes& sink_;
};

/**
 * The probes of one traced round, attached to `cluster` for the
 * lifetime of this object: timing decorators on every switch and the
 * queue-peak hook. The destructor reinstalls the original programs and
 * clears the hook, so it must run while the cluster is alive.
 */
class Probes
{
  public:
    explicit Probes(ask::core::AskCluster& cluster);
    ~Probes();

    Probes(const Probes&) = delete;
    Probes& operator=(const Probes&) = delete;

    const PassTimes& passes() const { return passes_; }
    std::size_t queue_peak() const { return queue_peak_; }

  private:
    ask::core::AskCluster& cluster_;
    PassTimes passes_;
    std::size_t queue_peak_ = 0;
    std::vector<std::unique_ptr<TimedProgram>> programs_;
};

/** Result of re-appending every host and controller WAL. */
struct WalAppendCost
{
    std::uint64_t records = 0;
    std::uint64_t total_ns = 0;
};

/** Replay every host and controller WAL of `cluster` and time
 *  appending the records to fresh logs. */
WalAppendCost reappend_wals(ask::core::AskCluster& cluster);

/** One span of the benchmark's own trace. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = none
    std::uint64_t task = 0;    ///< task id for task spans, else 0
    Clock::time_point start;
    Clock::time_point end;
};

/** In-memory span store, written out once when the benchmark ends. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Open a span starting now; returns its id (for children). */
    std::uint64_t begin(std::string name, std::uint64_t parent,
                        std::uint64_t task = 0);
    /** Close span `id` now. */
    void end(std::uint64_t id);

    /** Record a span whose interval is already known. */
    std::uint64_t add(std::string name, std::uint64_t parent,
                      Clock::time_point start, Clock::time_point end,
                      std::uint64_t task = 0);

    /** Attach a named per-pass histogram summary to the trace file. */
    void add_histogram(std::string name, const ask::obs::LogHistogram& h);

    std::size_t size() const { return spans_.size(); }

    /** Write Chrome trace-event JSON; false when `path` is unwritable. */
    bool write(const std::string& path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::pair<std::string, ask::obs::LogHistogram>> hists_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H
