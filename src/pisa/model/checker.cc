#include "pisa/model/checker.h"

#include <algorithm>
#include <functional>

#include "common/string_util.h"
#include "pisa/model/channel_model.h"
#include "pisa/model/routing_model.h"
#include "sim/engine.h"

namespace ask::pisa::model {

namespace {

ExploreOptions
explore_options(const ModelCheckOptions& opt)
{
    ExploreOptions eo;
    eo.max_states = opt.max_states;
    eo.max_depth = opt.max_depth;
    eo.shrink_attempts = opt.shrink_attempts;
    return eo;
}

ModelRunReport
run_channel(const ModelCheckOptions& opt, core::ReduceOp op,
            Mutation mutation)
{
    ChannelBounds bounds;
    bounds.payloads = opt.payloads;
    bounds.window = opt.window;
    bounds.op = op;

    ModelRunReport run;
    run.automaton = "channel";
    run.config = strf("op=%s payloads=%u window=%u", core::reduce_op_name(op),
                      opt.payloads, opt.window);
    run.mutation = mutation;
    run.expect_violation = mutation != Mutation::kNone;

    ChannelModel model(bounds, mutation);
    ExploreResult result = explore(model, explore_options(opt));
    run.states = result.states;
    run.transitions = result.transitions;
    run.depth = result.depth;
    run.truncated = result.truncated;
    run.counterexample = std::move(result.counterexample);
    return run;
}

ModelRunReport
run_routing(const ModelCheckOptions& opt, std::uint32_t racks,
            Mutation mutation)
{
    RoutingBounds bounds;
    bounds.racks = racks;
    bounds.seqs = opt.seqs;
    bounds.window = opt.window;

    ModelRunReport run;
    run.automaton = "routing";
    run.config = strf("racks=%u seqs=%u window=%u", racks, opt.seqs,
                      opt.window);
    run.mutation = mutation;
    run.expect_violation = mutation != Mutation::kNone;

    RoutingModel model(bounds, mutation);
    ExploreResult result = explore(model, explore_options(opt));
    run.states = result.states;
    run.transitions = result.transitions;
    run.depth = result.depth;
    run.truncated = result.truncated;
    run.counterexample = std::move(result.counterexample);
    return run;
}

obs::Json
counterexample_json(const Counterexample& cex)
{
    obs::Json j = obs::Json::object();
    j.set("property", cex.violation.property);
    j.set("message", cex.violation.message);
    j.set("events", static_cast<std::uint64_t>(cex.trace.size()));
    obs::Json trace = obs::Json::array();
    for (const std::string& line : cex.rendered)
        trace.push_back(line);
    j.set("trace", std::move(trace));
    obs::Json shrink = obs::Json::object();
    shrink.set("attempts", cex.shrink_attempts);
    shrink.set("accepted", cex.shrink_accepted);
    j.set("shrink", std::move(shrink));
    return j;
}

}  // namespace

bool
ModelReport::ok() const
{
    return std::all_of(runs.begin(), runs.end(),
                       [](const ModelRunReport& r) { return r.ok(); });
}

obs::Json
ModelReport::to_json() const
{
    obs::Json j = obs::Json::object();
    j.set("schema", kSchema);

    obs::Json opt = obs::Json::object();
    opt.set("payloads", options.payloads);
    opt.set("window", options.window);
    opt.set("racks", options.racks);
    opt.set("seqs", options.seqs);
    opt.set("max_states", static_cast<std::uint64_t>(options.max_states));
    opt.set("max_depth", static_cast<std::uint64_t>(options.max_depth));
    opt.set("shrink_attempts", options.shrink_attempts);
    opt.set("mutants", options.mutants);
    j.set("options", std::move(opt));

    std::size_t mutant_runs = 0, mutants_caught = 0;
    obs::Json runs_json = obs::Json::array();
    for (const ModelRunReport& run : runs) {
        if (run.mutation != Mutation::kNone) {
            ++mutant_runs;
            if (run.counterexample.has_value())
                ++mutants_caught;
        }
        obs::Json r = obs::Json::object();
        r.set("automaton", run.automaton);
        r.set("config", run.config);
        r.set("mutation", mutation_name(run.mutation));
        r.set("expect_violation", run.expect_violation);
        r.set("ok", run.ok());
        r.set("states", static_cast<std::uint64_t>(run.states));
        r.set("transitions", static_cast<std::uint64_t>(run.transitions));
        r.set("depth", static_cast<std::uint64_t>(run.depth));
        r.set("truncated", run.truncated);
        if (run.counterexample.has_value())
            r.set("counterexample", counterexample_json(*run.counterexample));
        else
            r.set("counterexample", nullptr);
        runs_json.push_back(std::move(r));
    }

    obs::Json summary = obs::Json::object();
    summary.set("runs", static_cast<std::uint64_t>(runs.size()));
    summary.set("mutants", static_cast<std::uint64_t>(mutant_runs));
    summary.set("mutants_caught", static_cast<std::uint64_t>(mutants_caught));
    summary.set("ok", ok());
    j.set("summary", std::move(summary));
    j.set("runs", std::move(runs_json));
    return j;
}

ModelReport
run_model_check(const ModelCheckOptions& options)
{
    ModelReport report;
    report.options = options;
    // Each run explores its own automaton, so the runs are independent
    // jobs on the engine pool; each writes its own slot of report.runs,
    // which keeps the report's order whatever the thread count.
    std::vector<std::function<void()>> jobs;
    auto add = [&jobs, &report](std::function<ModelRunReport()> run) {
        jobs.push_back([&report, i = jobs.size(), run = std::move(run)] {
            report.runs[i] = run();
        });
    };

    // Clean verification: the three algebra shapes (plain merge, lifted
    // merge, idempotent merge) over the channel automaton...
    for (core::ReduceOp op : {core::ReduceOp::kAdd, core::ReduceOp::kCount,
                              core::ReduceOp::kMax})
        add([&options, op] {
            return run_channel(options, op, Mutation::kNone);
        });
    // ...and every fabric size over the routing automaton.
    for (std::uint32_t racks = 1; racks <= options.racks; ++racks)
        add([&options, racks] {
            return run_routing(options, racks, Mutation::kNone);
        });

    // The mutation harness. Each defect is explored under the config
    // designed to expose it: kDoubleLiftCount needs the lifted algebra
    // (under kAdd a re-lift is the identity), the routing defects need
    // a fabric with a tier switch.
    if (options.mutants) {
        for (Mutation m : all_mutations()) {
            if (mutation_is_routing(m)) {
                add([&options, m] { return run_routing(options, 2, m); });
            } else {
                core::ReduceOp op = m == Mutation::kDoubleLiftCount
                                        ? core::ReduceOp::kCount
                                        : core::ReduceOp::kAdd;
                add([&options, op, m] {
                    return run_channel(options, op, m);
                });
            }
        }
    }

    report.runs.resize(jobs.size());
    sim::ParallelEngine().run_isolated(jobs);
    return report;
}

}  // namespace ask::pisa::model
