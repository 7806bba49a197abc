#include "testing/fuzzer.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/random.h"
#include "sim/engine.h"

namespace ask::testing {

namespace {

FuzzFailure
make_failure(const ScenarioSpec& spec, const DiffResult& diff, bool shrink,
             std::uint32_t shrink_attempts)
{
    FuzzFailure f;
    f.seed = spec.seed;
    f.scenario = spec.describe();
    f.diff = diff.describe();
    if (shrink) {
        ScenarioSpec reduced =
            shrink_scenario(spec, shrink_attempts, &f.shrink_stats);
        f.shrunk_scenario = reduced.describe();
        f.shrunk_diff = run_differential(reduced).describe();
    }
    return f;
}

void
tally_ops(const ScenarioSpec& spec, FuzzReport& report)
{
    for (const auto& t : spec.tasks) {
        core::ReduceOp op = t.options.op.value_or(spec.cluster.ask.op);
        ++report.op_tasks[static_cast<std::size_t>(op)];
    }
}

bool
has_crash_event(const ScenarioSpec& spec)
{
    for (const auto& e : spec.chaos.events) {
        if (e.kind == sim::ChaosKind::kHostCrash)
            return true;
    }
    return false;
}

}  // namespace

std::uint64_t
scenario_seed(std::uint64_t base_seed, std::uint32_t index)
{
    // SplitMix64 chain: cheap, and seed i is independent of whether
    // earlier iterations passed or failed.
    std::uint64_t state = base_seed;
    std::uint64_t seed = 0;
    for (std::uint32_t i = 0; i <= index; ++i)
        seed = split_mix64(state);
    return seed;
}

obs::Json
FuzzReport::to_json() const
{
    obs::Json d = obs::Json::object();
    d.set("schema", "ask-fuzz/v1");
    d.set("base_seed", std::to_string(base_seed));
    d.set("scenarios_run", scenarios_run);
    d.set("chaos_scenarios", chaos_scenarios);
    d.set("crash_scenarios", crash_scenarios);
    d.set("total_tuples", total_tuples);
    obs::Json ops = obs::Json::object();
    for (std::size_t i = 0; i < op_tasks.size(); ++i)
        ops.set(core::reduce_op_name(static_cast<core::ReduceOp>(i)),
                op_tasks[i]);
    d.set("op_coverage", std::move(ops));
    d.set("ok", ok());

    obs::Json fails = obs::Json::array();
    for (const auto& f : failures) {
        obs::Json fj = obs::Json::object();
        fj.set("seed", std::to_string(f.seed));
        fj.set("scenario", f.scenario);
        fj.set("diff", f.diff);
        if (!f.shrunk_scenario.is_null()) {
            fj.set("shrunk_scenario", f.shrunk_scenario);
            fj.set("shrunk_diff", f.shrunk_diff);
            fj.set("shrink_attempts", f.shrink_stats.attempts);
            fj.set("shrink_accepted", f.shrink_stats.accepted);
        }
        fails.push_back(std::move(fj));
    }
    d.set("failures", std::move(fails));
    return d;
}

namespace {

/** Everything one scenario contributes to the campaign report. */
struct ScenarioOutcome
{
    std::uint64_t total_tuples = 0;
    std::array<std::uint64_t, core::kNumReduceOps> op_tasks{};
    bool chaos = false;
    bool crash = false;
    std::optional<FuzzFailure> failure;
};

/** Generate + diff (+ shrink) one seed. Touches nothing shared, so it
 *  is safe to run on any engine worker. */
ScenarioOutcome
run_scenario(std::uint64_t seed, const ScenarioTuning& tuning, bool shrink,
             std::uint32_t shrink_attempts)
{
    ScenarioOutcome out;
    ScenarioSpec spec = generate_scenario(seed, tuning);
    out.total_tuples = spec.total_tuples();
    for (const auto& t : spec.tasks) {
        core::ReduceOp op = t.options.op.value_or(spec.cluster.ask.op);
        ++out.op_tasks[static_cast<std::size_t>(op)];
    }
    out.chaos = !spec.chaos.empty();
    out.crash = has_crash_event(spec);

    DiffResult diff = run_differential(spec);
    if (!diff.ok())
        out.failure = make_failure(spec, diff, shrink, shrink_attempts);
    return out;
}

}  // namespace

FuzzReport
run_fuzz(const FuzzOptions& options)
{
    FuzzReport report;
    report.base_seed = options.base_seed;

    ScenarioTuning tuning;
    tuning.crash_heavy = options.crash_heavy;

    // The whole seed chain up front: seed i depends only on (base, i),
    // never on what earlier scenarios did, so the campaign can fan out.
    std::vector<std::uint64_t> seeds(options.count);
    std::uint64_t chain = options.base_seed;
    for (std::uint32_t i = 0; i < options.count; ++i)
        seeds[i] = split_mix64(chain);

    sim::SimOptions sim_options = sim::SimOptions::from_env();
    if (options.num_threads != 0)
        sim_options.num_threads = options.num_threads;
    sim::ParallelEngine engine(sim_options);

    // Scenarios run in fixed-size waves (independent jobs on the engine
    // pool), then fold into the report strictly in scenario order. The
    // wave size is a constant, NOT the thread count: the fold — and so
    // the report bytes, including where a max_failures campaign stops —
    // must be a pure function of (base_seed, count). A wave may compute
    // scenarios beyond the stop point; they are discarded unfolded,
    // exactly as if the sequential loop had never reached them.
    constexpr std::uint32_t kWave = 16;
    for (std::uint32_t start = 0; start < options.count; start += kWave) {
        std::uint32_t wave =
            std::min(kWave, options.count - start);
        std::vector<ScenarioOutcome> outcomes(wave);
        std::vector<std::function<void()>> jobs;
        jobs.reserve(wave);
        for (std::uint32_t j = 0; j < wave; ++j) {
            jobs.push_back([&outcomes, &seeds, &tuning, &options, start, j] {
                outcomes[j] =
                    run_scenario(seeds[start + j], tuning, options.shrink,
                                 options.shrink_attempts);
            });
        }
        engine.run_isolated(jobs);

        for (std::uint32_t j = 0; j < wave; ++j) {
            ScenarioOutcome& out = outcomes[j];
            report.total_tuples += out.total_tuples;
            for (std::size_t op = 0; op < out.op_tasks.size(); ++op)
                report.op_tasks[op] += out.op_tasks[op];
            if (out.chaos)
                ++report.chaos_scenarios;
            if (out.crash)
                ++report.crash_scenarios;
            ++report.scenarios_run;
            if (out.failure)
                report.failures.push_back(std::move(*out.failure));
            if (options.progress)
                options.progress(start + j + 1, options.count,
                                 static_cast<std::uint32_t>(
                                     report.failures.size()));
            if (options.max_failures != 0 &&
                report.failures.size() >= options.max_failures)
                return report;
        }
    }
    return report;
}

FuzzReport
replay_seed(std::uint64_t seed, bool shrink, std::uint32_t shrink_attempts,
            const ScenarioTuning& tuning)
{
    FuzzReport report;
    report.base_seed = seed;
    report.scenarios_run = 1;

    ScenarioSpec spec = generate_scenario(seed, tuning);
    report.total_tuples = spec.total_tuples();
    tally_ops(spec, report);
    if (!spec.chaos.empty())
        report.chaos_scenarios = 1;
    if (has_crash_event(spec))
        report.crash_scenarios = 1;

    DiffResult diff = run_differential(spec);
    if (!diff.ok())
        report.failures.push_back(
            make_failure(spec, diff, shrink, shrink_attempts));
    return report;
}

}  // namespace ask::testing
