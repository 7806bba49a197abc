/**
 * @file
 * The fuzz campaign driver behind the `ask_fuzz` CLI.
 *
 * A campaign derives one scenario seed per iteration from the base seed
 * (a SplitMix64 chain — iteration i's seed depends only on base and i),
 * materializes the scenario, runs the differential checker, and — on
 * failure — greedily shrinks the reproducer. The outcome is a
 * deterministic "ask-fuzz/v1" JSON report: same base seed and count,
 * byte-identical bytes, no timestamps and no floats, so CI can diff two
 * runs to prove the whole campaign is reproducible.
 */
#ifndef ASK_TESTING_FUZZER_H
#define ASK_TESTING_FUZZER_H

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "testing/differential.h"
#include "testing/shrink.h"

namespace ask::testing {

/** Campaign parameters. */
struct FuzzOptions
{
    /** Base of the per-scenario seed chain. */
    std::uint64_t base_seed = 1;
    /** Scenarios to run. */
    std::uint32_t count = 500;
    /** Shrink failing scenarios before reporting them. */
    bool shrink = true;
    /** Crash-heavy campaign: every scenario carries host/controller
     *  crash episodes (the `recovery_smoke` ctest target). */
    bool crash_heavy = false;
    /** Differential-run budget per shrink session. */
    std::uint32_t shrink_attempts = 200;
    /** Stop the campaign after this many failures (0 = never). */
    std::uint32_t max_failures = 5;
    /**
     * Worker threads for the campaign (0 = read ASK_SIM_THREADS via
     * sim::SimOptions::from_env()). Every scenario is an independent
     * job — its own AskCluster, simulator, and oracle — so the
     * campaign runs them in fixed-size waves on the parallel engine
     * and folds outcomes in scenario order. The report (and its
     * bytes) is identical at any thread count; the sim_parallel_ab
     * ctest diffs 1 vs 2 vs 4 to keep that true.
     */
    unsigned num_threads = 0;
    /** Called after every scenario (progress lines). May be empty. */
    std::function<void(std::uint32_t done, std::uint32_t count,
                       std::uint32_t failures)>
        progress;
};

/** One failing scenario, with its shrunk reproducer. */
struct FuzzFailure
{
    std::uint64_t seed = 0;
    obs::Json scenario;
    obs::Json diff;
    obs::Json shrunk_scenario;
    obs::Json shrunk_diff;
    ShrinkStats shrink_stats;
};

/** Campaign outcome. */
struct FuzzReport
{
    std::uint64_t base_seed = 0;
    std::uint32_t scenarios_run = 0;
    std::uint32_t chaos_scenarios = 0;
    /** Scenarios whose chaos plan crashed a host or the controller. */
    std::uint32_t crash_scenarios = 0;
    std::uint64_t total_tuples = 0;
    /** Tasks run per ReduceOp (index = op id): proves every operator —
     *  sum, max, min, count, and fixed-point float — actually had its
     *  oracle armed during the campaign. */
    std::array<std::uint64_t, core::kNumReduceOps> op_tasks{};
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }

    /** Deterministic "ask-fuzz/v1" document. */
    obs::Json to_json() const;
};

/** The scenario seed of iteration `index` under `base_seed`. */
std::uint64_t scenario_seed(std::uint64_t base_seed, std::uint32_t index);

/** Run a campaign. */
FuzzReport run_fuzz(const FuzzOptions& options);

/**
 * Re-run one scenario by seed (the `--replay` path): generate, diff,
 * and — when `shrink` and it fails — shrink. Returns the single-failure
 * report (empty failure list when the scenario passes). `tuning` must
 * match the campaign that found the seed — (seed, tuning) is the
 * replay key.
 */
FuzzReport replay_seed(std::uint64_t seed, bool shrink,
                       std::uint32_t shrink_attempts = 200,
                       const ScenarioTuning& tuning = {});

}  // namespace ask::testing

#endif  // ASK_TESTING_FUZZER_H
