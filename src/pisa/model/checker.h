/**
 * @file
 * The model-check driver: clean verification plus mutation harness.
 *
 * One call to run_model_check() performs the full static verification
 * campaign over both protocol automata:
 *
 *  - clean channel exploration for ops add, count, max (the three
 *    distinct algebra shapes: plain merge, lifted merge, idempotent
 *    merge) — each must complete with NO counterexample;
 *  - clean routing exploration for every fabric of 1..racks racks —
 *    likewise no counterexample;
 *  - the mutation harness: every seeded protocol defect from
 *    all_mutations() is explored under the configuration designed to
 *    expose it, and each MUST yield a counterexample trace (a mutant
 *    the checker cannot see would mean the properties are too weak).
 *
 * The runs are independent jobs on a sim::ParallelEngine (threads from
 * ASK_SIM_THREADS) and land in the report in the order above.
 *
 * The report serializes under the byte-stable `ask-model/v1` schema:
 * exploration is deterministic (see explorer.h), key order is fixed by
 * obs::Json insertion order, and no clock, RNG, or host identity is
 * consulted — two runs with equal options produce byte-equal JSON, at
 * any thread count.
 */
#ifndef ASK_PISA_MODEL_CHECKER_H
#define ASK_PISA_MODEL_CHECKER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "pisa/model/event.h"
#include "pisa/model/explorer.h"

namespace ask::pisa::model {

/** Campaign configuration (bounds of every exploration). */
struct ModelCheckOptions
{
    std::uint32_t payloads = 2;  ///< channel automaton payload slots
    std::uint32_t window = 2;    ///< seen-window W of both automata
    std::uint32_t racks = 2;     ///< routing fabrics explored: 1..racks
    std::uint32_t seqs = 2;      ///< routing seqs per channel
    std::size_t max_states = 2'000'000;
    std::size_t max_depth = 128;
    std::uint32_t shrink_attempts = 128;
    bool mutants = true;         ///< run the mutation harness
};

/** One exploration (one automaton, one config, one mutation). */
struct ModelRunReport
{
    std::string automaton;  ///< "channel" | "routing"
    std::string config;     ///< bound summary, e.g. "op=add payloads=3 ..."
    Mutation mutation = Mutation::kNone;
    bool expect_violation = false;
    std::size_t states = 0;
    std::size_t transitions = 0;
    std::size_t depth = 0;
    bool truncated = false;
    std::optional<Counterexample> counterexample;

    /** Clean runs must verify; mutants must produce a counterexample. */
    bool
    ok() const
    {
        return counterexample.has_value() == expect_violation;
    }
};

/** The whole campaign. */
struct ModelReport
{
    static constexpr const char* kSchema = "ask-model/v1";

    ModelCheckOptions options;
    std::vector<ModelRunReport> runs;

    bool ok() const;
    /** Byte-stable report document (schema `ask-model/v1`). */
    obs::Json to_json() const;
};

/** Run the full campaign (see file comment). */
ModelReport run_model_check(const ModelCheckOptions& options = {});

}  // namespace ask::pisa::model

#endif  // ASK_PISA_MODEL_CHECKER_H
