/**
 * ask_verify — the static PISA-legality report and sweep tool.
 *
 * Report mode (default) builds the ASK switch program's AccessPlan for
 * one configuration and prints the placement report: the stage map with
 * per-stage SRAM use, then every root-to-leaf access path of every
 * packet-kind pass, then the verifier's verdict.
 *
 *     ask_verify                           # paper-default configuration
 *     ask_verify --num-aas 8 --window 16   # a smaller deployment
 *     ask_verify --no-shadow               # shadow copies off
 *     ask_verify --stages 4                # watch the verifier reject
 *
 * Sweep mode cross-checks the verifier against the actual install path
 * over a grid of configurations: for each point, the static verdict
 * must agree with whether AskSwitchProgram construction succeeds. Any
 * disagreement (verifier accepts but install throws, or vice versa) is
 * a bug in one of them and fails the run — this is the verify_smoke
 * ctest target.
 *
 *     ask_verify --sweep
 *
 * Model mode runs the semantic model checker (src/pisa/model/): bounded
 * explicit-state exploration of the channel and fabric-routing automata
 * extracted from the real components, plus the mutation harness that
 * proves every seeded protocol defect is caught. The report is the
 * byte-stable `ask-model/v1` schema.
 *
 *     ask_verify --model
 *     ask_verify --model --model-json report.json
 *     ask_verify --model --model-payloads 2 --model-no-mutants
 */
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ask/config.h"
#include "ask/switch_program.h"
#include "common/logging.h"
#include "net/network.h"
#include "pisa/model/checker.h"
#include "pisa/pipeline.h"
#include "pisa/pisa_switch.h"
#include "pisa/verify/verifier.h"
#include "sim/simulator.h"

namespace {

using namespace ask;

[[noreturn]] void
usage(const char* argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--num-aas N] [--aggregators N] [--window N] [--hosts N]\n"
           "       [--medium-groups N] [--medium-segments N] [--tasks N]\n"
           "       [--no-shadow] [--stages N] [--sram BYTES]\n"
           "       [--paths] [--sweep]\n"
           "       [--model] [--model-json PATH] [--model-payloads N]\n"
           "       [--model-window N] [--model-racks N]\n"
           "       [--model-max-states N] [--model-no-mutants]\n";
    std::exit(2);
}

std::uint64_t
parse_u64(const char* argv0, const char* text)
{
    char* end = nullptr;
    std::uint64_t v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage(argv0);
    return v;
}

/** One line describing a configuration (sweep diagnostics). */
std::string
describe_config(const core::AskConfig& config)
{
    std::ostringstream oss;
    oss << "num_aas=" << config.num_aas
        << " aggregators=" << config.aggregators_per_aa
        << " window=" << config.window
        << " medium_groups=" << config.medium_groups
        << " shadow=" << (config.shadow_copies ? 1 : 0)
        << " hosts=" << config.max_hosts;
    return oss.str();
}

pisa::verify::PipelineBudget
make_budget(std::size_t stages, std::size_t sram)
{
    pisa::verify::PipelineBudget budget;
    budget.num_stages = stages;
    budget.sram_per_stage = sram;
    budget.max_arrays_per_stage = pisa::kMaxRegisterArraysPerStage;
    return budget;
}

/**
 * The report: stage map, per-stage SRAM accounting against the budget,
 * per-pass path listing, and the verdict. Returns the process exit
 * code (0 = legal, 1 = rejected).
 */
int
report(const core::AskConfig& config, std::size_t stages, std::size_t sram,
       bool show_paths)
{
    try {
        config.validate();
    } catch (const ConfigError& e) {
        std::cout << "configuration invalid: " << e.what() << "\n";
        return 1;
    }
    pisa::verify::AccessPlan plan = core::AskSwitchProgram::make_access_plan(
        config, config.max_channels());

    std::cout << "program: " << plan.program << "\n";
    std::cout << "configuration: " << describe_config(config) << "\n\n";

    // ---- stage map -------------------------------------------------------
    std::cout << "stage map (" << stages << " stages, "
              << sram / 1024 << " KiB SRAM each):\n";
    std::size_t max_stage = 0;
    for (const auto& d : plan.arrays)
        max_stage = std::max(max_stage, d.stage);
    for (std::size_t s = 0; s <= max_stage; ++s) {
        std::size_t used = 0;
        std::vector<std::string> names;
        for (const auto& d : plan.arrays) {
            if (d.stage != s)
                continue;
            used += d.sram_bytes();
            std::ostringstream oss;
            oss << d.name << " (" << d.entries << " x " << d.width_bits
                << "b)";
            names.push_back(oss.str());
        }
        std::cout << "  stage " << std::setw(2) << s << ": " << std::setw(8)
                  << used << " B";
        if (sram > 0)
            std::cout << " (" << std::fixed << std::setprecision(1)
                      << 100.0 * static_cast<double>(used) /
                             static_cast<double>(sram)
                      << "%)";
        for (std::size_t i = 0; i < names.size(); ++i)
            std::cout << (i == 0 ? "  " : ", ") << names[i];
        std::cout << "\n";
    }

    // ---- path listing ----------------------------------------------------
    auto paths = pisa::verify::enumerate_paths(plan);
    std::cout << "\naccess paths (" << paths.size() << "):\n";
    for (const auto& p : paths) {
        if (!show_paths && paths.size() > 32)
            break;  // large plans: summary only unless --paths
        std::cout << "  " << p.trace << "\n";
        for (const auto& a : p.accesses) {
            std::cout << "    stage " << a.stage << " "
                      << pisa::verify::access_kind_name(a.kind) << " "
                      << a.array << (a.optional ? " (predicated)" : "")
                      << "\n";
        }
    }
    if (!show_paths && paths.size() > 32)
        std::cout << "  ... (" << paths.size()
                  << " paths; pass --paths to list them)\n";

    // ---- verdict ---------------------------------------------------------
    pisa::verify::VerifyResult result =
        pisa::verify::verify(plan, make_budget(stages, sram));
    std::cout << "\nverdict: " << result.describe() << "\n";
    return result.ok() ? 0 : 1;
}

/** Does AskSwitchProgram construction succeed on a fresh switch? */
bool
install_succeeds(const core::AskConfig& config, std::size_t stages,
                 std::size_t sram, std::string* error)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    pisa::PisaSwitch sw(network, stages, sram);
    network.attach(&sw);
    try {
        core::AskSwitchProgram program(
            config, sw, 0, static_cast<core::ChannelId>(config.max_channels()));
        return true;
    } catch (const ConfigError& e) {
        *error = e.what();
        return false;
    }
}

/**
 * The sweep: every grid point must see the static verdict agree with
 * the install outcome. Returns the number of disagreements.
 */
int
sweep()
{
    const std::uint32_t aa_counts[] = {4, 8, 16, 32, 64};
    const std::uint32_t windows[] = {16, 256};
    const std::uint32_t aggregators[] = {1024, 32768, 1u << 20};
    const std::size_t stage_counts[] = {4, 16, 24};

    int points = 0;
    int rejects = 0;
    int disagreements = 0;
    for (std::uint32_t aas : aa_counts) {
        for (std::uint32_t window : windows) {
            for (std::uint32_t aggs : aggregators) {
                for (std::size_t stages : stage_counts) {
                    for (int shadow = 0; shadow < 2; ++shadow) {
                        core::AskConfig config;
                        config.num_aas = aas;
                        config.window = window;
                        config.aggregators_per_aa = aggs;
                        config.shadow_copies = shadow == 1;
                        config.max_hosts = 4;
                        // Keep medium groups feasible on tiny AA
                        // counts; the point is layout, not keys.
                        if (config.medium_aas() >= aas)
                            config.medium_groups = aas / 4;
                        ++points;

                        // The static verdict (configuration errors
                        // count as rejects: validate() runs before
                        // the verifier on the install path too).
                        bool static_ok = false;
                        try {
                            config.validate();
                            auto plan = core::AskSwitchProgram::
                                make_access_plan(config,
                                                 config.max_channels());
                            static_ok =
                                pisa::verify::verify(
                                    plan,
                                    make_budget(
                                        stages,
                                        pisa::kDefaultStageSramBytes))
                                    .ok();
                        } catch (const ConfigError&) {
                            static_ok = false;
                        }

                        std::string error;
                        bool install_ok = install_succeeds(
                            config, stages,
                            pisa::kDefaultStageSramBytes, &error);
                        if (!install_ok)
                            ++rejects;
                        if (static_ok != install_ok) {
                            ++disagreements;
                            std::cout
                                << "DISAGREEMENT: " << describe_config(config)
                                << " stages=" << stages << ": verifier says "
                                << (static_ok ? "legal" : "illegal")
                                << " but install "
                                << (install_ok
                                        ? "succeeded"
                                        : "threw: " + error)
                                << "\n";
                        }
                    }
                }
            }
        }
    }
    std::cout << "ask_verify: swept " << points << " configurations ("
              << rejects << " rejected), " << disagreements
              << " verifier/install disagreement(s)\n";
    return disagreements;
}

/**
 * Model mode: run the full model-check campaign, print a per-run
 * summary (with the counterexample trace whenever a run fails its
 * expectation), optionally dump the `ask-model/v1` JSON report.
 * Returns the process exit code (0 = campaign passed).
 */
int
run_model(const pisa::model::ModelCheckOptions& options,
          const std::string& json_path)
{
    pisa::model::ModelReport report = pisa::model::run_model_check(options);

    for (const auto& run : report.runs) {
        std::cout << (run.ok() ? "  ok   " : " FAIL  ") << run.automaton
                  << "  " << run.config
                  << "  mutation=" << pisa::model::mutation_name(run.mutation)
                  << "  states=" << run.states
                  << " transitions=" << run.transitions
                  << " depth=" << run.depth
                  << (run.truncated ? " (truncated)" : "") << "\n";
        if (run.counterexample.has_value()) {
            const auto& cex = *run.counterexample;
            std::cout << "         " << cex.violation.property << ": "
                      << cex.violation.message << "\n";
            // Mutants are supposed to violate — only spell the trace
            // out when a run failed its expectation.
            if (!run.ok())
                for (const std::string& line : cex.rendered)
                    std::cout << "           " << line << "\n";
            else
                std::cout << "         counterexample: "
                          << cex.trace.size() << " event(s)\n";
        } else if (!run.ok()) {
            std::cout << "         expected a counterexample, "
                         "exploration found none\n";
        }
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "ask_verify: cannot write " << json_path << "\n";
            return 1;
        }
        out << report.to_json().dump(2) << "\n";
    }

    std::size_t mutants = 0, caught = 0;
    for (const auto& run : report.runs)
        if (run.mutation != pisa::model::Mutation::kNone) {
            ++mutants;
            if (run.counterexample.has_value())
                ++caught;
        }
    std::cout << "ask_verify: model check " << report.runs.size()
              << " run(s), " << caught << "/" << mutants
              << " mutant(s) caught: "
              << (report.ok() ? "passed" : "FAILED") << "\n";
    return report.ok() ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    core::AskConfig config;
    std::size_t stages = pisa::kDefaultStagesPerPipeline;
    std::size_t sram = pisa::kDefaultStageSramBytes;
    bool show_paths = false;
    bool run_sweep = false;
    bool model_mode = false;
    pisa::model::ModelCheckOptions model_options;
    std::string model_json;

    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> const char* {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--num-aas") == 0)
            config.num_aas =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--aggregators") == 0)
            config.aggregators_per_aa =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--window") == 0)
            config.window =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--hosts") == 0)
            config.max_hosts =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--medium-groups") == 0)
            config.medium_groups =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--medium-segments") == 0)
            config.medium_segments =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--tasks") == 0)
            config.max_tasks =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--no-shadow") == 0)
            config.shadow_copies = false;
        else if (std::strcmp(argv[i], "--stages") == 0)
            stages = parse_u64(argv[0], value());
        else if (std::strcmp(argv[i], "--sram") == 0)
            sram = parse_u64(argv[0], value());
        else if (std::strcmp(argv[i], "--paths") == 0)
            show_paths = true;
        else if (std::strcmp(argv[i], "--sweep") == 0)
            run_sweep = true;
        else if (std::strcmp(argv[i], "--model") == 0)
            model_mode = true;
        else if (std::strcmp(argv[i], "--model-json") == 0)
            model_json = value();
        else if (std::strcmp(argv[i], "--model-payloads") == 0)
            model_options.payloads =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--model-window") == 0)
            model_options.window =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--model-racks") == 0)
            model_options.racks =
                static_cast<std::uint32_t>(parse_u64(argv[0], value()));
        else if (std::strcmp(argv[i], "--model-max-states") == 0)
            model_options.max_states = parse_u64(argv[0], value());
        else if (std::strcmp(argv[i], "--model-no-mutants") == 0)
            model_options.mutants = false;
        else
            usage(argv[0]);
    }

    if (model_mode)
        return run_model(model_options, model_json);
    if (run_sweep)
        return sweep() == 0 ? 0 : 1;
    return report(config, stages, sram, show_paths);
}
