/**
 * @file
 * The sharded discrete-event engine: islands + deterministic merge.
 *
 * A ParallelEngine partitions the event space into *islands* — units
 * of shared mutable state, each owning its own Simulator. Within an
 * island, event handlers may touch anything the island owns (an
 * AskCluster's daemons, switches, links, and chaos scheduler all
 * interact synchronously inside one event, so a whole cluster is one
 * island). Across islands, the ONLY interaction channel is post(),
 * whose delay must be at least the engine's lookahead.
 *
 * Execution is level-synchronous, conservative PDES: each round picks
 * the globally earliest pending event time T and runs every island
 * through the window [T, T + lookahead) in parallel, one island per
 * worker at most. A post() issued at source time s carries timestamp
 * s + delay >= T + lookahead, i.e. it always lands at or beyond the
 * window end — no event inside the current window can be affected by
 * another island, so running the windows island-parallel is sound. At
 * the window barrier, buffered posts are merged into their target
 * islands in (source island id, emission order) — a total order that
 * does not depend on thread scheduling — so the schedule sequence, and
 * with it FIFO tie-breaking among equal timestamps, is identical at
 * any thread count. That is the whole bit-for-bit determinism
 * argument; docs/CONCURRENCY.md spells it out with the invariants.
 *
 * Lookahead 0 (the default) declares the islands fully independent:
 * post() is forbidden and every island runs to completion in parallel.
 * That degenerate mode — "replica islands" — is what the fuzz
 * campaign driver and the sweep benches use: each scenario or sweep
 * point is a self-contained simulation, trivially sound to run on any
 * worker. run_isolated() is the same mode for plain closures.
 */
#ifndef ASK_SIM_ENGINE_H
#define ASK_SIM_ENGINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/options.h"
#include "sim/simulator.h"

namespace ask::sim {

/** Index of an island within its engine. */
using IslandId = std::uint32_t;

/** The engine. Not itself thread-safe: one driver thread constructs
 *  it, registers islands, and calls run(); only event handlers running
 *  *inside* a window may call post(), and only on their own island. */
class ParallelEngine
{
  public:
    explicit ParallelEngine(SimOptions options = SimOptions::from_env());
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine&) = delete;
    ParallelEngine& operator=(const ParallelEngine&) = delete;

    /** Register a new island (its Simulator starts empty at time 0).
     *  The id is dense: the i-th call returns i. */
    IslandId add_island(std::string name);

    /** The island's simulator: schedule initial events here, or hand it
     *  to an AskCluster (the external-simulator constructor). */
    Simulator& island(IslandId id) { return *islands_.at(id).sim; }

    const std::string& island_name(IslandId id) const
    {
        return islands_.at(id).name;
    }
    std::uint32_t num_islands() const
    {
        return static_cast<std::uint32_t>(islands_.size());
    }
    unsigned num_threads() const { return options_.num_threads; }

    /**
     * Set the conservative lookahead (ns of simulated time). Must be
     * called before run() when islands exchange posts; every post's
     * delay must be >= this bound. In the intended deployment the
     * bound is the minimum cross-island link latency — a message
     * physically cannot arrive sooner. 0 (the default) means the
     * islands never interact.
     */
    void set_lookahead(SimTime lookahead);
    SimTime lookahead() const { return lookahead_; }

    /**
     * Cross-island message: run `fn` on island `to`, `delay` ns after
     * the current event on island `from`. Must be called from inside an
     * event executing on `from` during run(), with delay >= lookahead.
     * The callback is merged into `to`'s queue at the next window
     * barrier, in deterministic (source island, emission order) order.
     */
    void post(IslandId from, IslandId to, SimTime delay, EventFn fn);

    /** Run windows until every island drains. Returns the maximum
     *  island time reached. */
    SimTime run();

    /**
     * Run windows until simulated time reaches `deadline`: events at
     * exactly `deadline` fire, and islands that drained early are
     * advanced to `deadline` (mirrors Simulator::run_until).
     */
    SimTime run_until(SimTime deadline);

    /**
     * Deterministic parallel-for over fully independent jobs, on the
     * engine's worker pool. Each job must touch only its own state
     * (plus read-only shared state); the caller folds results in index
     * order afterwards, which is what makes any downstream report
     * independent of the thread count. With num_threads == 1 the jobs
     * run inline, in index order, on the calling thread.
     */
    void run_isolated(const std::vector<std::function<void()>>& jobs);

  private:
    /** One buffered cross-island message. */
    struct Post
    {
        IslandId to = 0;
        SimTime time = 0;
        EventFn fn;
    };

    struct Island
    {
        std::string name;
        std::unique_ptr<Simulator> sim;
        /** Posts emitted by this island during the current window, in
         *  emission order. Only the worker running the island touches
         *  it, so it needs no lock. */
        std::vector<Post> outbox;
    };

    class Pool;

    /** body(i) for i in [0, n), on the pool (inline when 1 thread). */
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t)>& body);

    /** Merge every outbox into its target islands, deterministically. */
    void flush_outboxes();

    /** Earliest live event time over all islands; false when drained. */
    bool global_floor(SimTime* t);

    /** The window loop shared by run()/run_until(). */
    SimTime drive(bool bounded, SimTime deadline);

    SimOptions options_;
    SimTime lookahead_ = 0;
    bool in_window_ = false;
    std::vector<Island> islands_;
    std::unique_ptr<Pool> pool_;
};

}  // namespace ask::sim

#endif  // ASK_SIM_ENGINE_H
