/**
 * @file
 * The deterministic job pool behind parallel simulation.
 *
 * A ParallelEngine runs fully independent jobs — whole simulations:
 * one fuzz scenario, one bench sweep point, one replica cluster — on a
 * persistent worker pool. A job owns its state (its own Simulator or
 * AskCluster, plus read-only shared inputs), so running jobs in
 * parallel cannot change what any of them computes. The caller then
 * folds the results in job-index order, which is what makes every
 * downstream report bit-for-bit identical at any thread count,
 * including 1. docs/CONCURRENCY.md spells out the contract.
 *
 * One cluster is never split across threads: its daemons, switches,
 * links and chaos scheduler all interact synchronously inside one
 * event (net::Network::send mutates shared link state in the sender's
 * event), so a cluster is the unit of parallelism.
 */
#ifndef ASK_SIM_ENGINE_H
#define ASK_SIM_ENGINE_H

#include <functional>
#include <memory>
#include <vector>

#include "sim/options.h"

namespace ask::sim {

/** The job pool. Not itself thread-safe: one thread constructs
 *  it and calls run_isolated(). */
class ParallelEngine
{
  public:
    explicit ParallelEngine(SimOptions options = SimOptions::from_env());
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine&) = delete;
    ParallelEngine& operator=(const ParallelEngine&) = delete;

    unsigned num_threads() const { return options_.num_threads; }

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
    class Pool;

    SimOptions options_;
    std::unique_ptr<Pool> pool_;
};

}  // namespace ask::sim

#endif  // ASK_SIM_ENGINE_H
