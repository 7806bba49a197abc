/**
 * @file
 * A mini MapReduce (WordCount-style) engine with pluggable aggregation
 * backends — the stand-in for HiBench SparkBench in Figures 7, 10, 11.
 *
 * Spark-family backends evaluate the calibrated cost models in
 * baselines/spark_model.h. The ASK backend runs the aggregation phase
 * for real on the discrete-event simulator (packets, switch program,
 * reliability, fetch) at a configurable volume scale: simulating 1/S of
 * the tuples and multiplying the aggregation time by S, which is
 * accurate while the phase is throughput-bound (see EXPERIMENTS.md).
 */
#ifndef ASK_APPS_MINIMR_H
#define ASK_APPS_MINIMR_H

#include <cstdint>

#include "baselines/spark_model.h"
#include "net/cost_model.h"

namespace ask::apps {

/** Aggregation backend of the job. */
enum class MrBackend : std::uint8_t
{
    kSpark,      ///< vanilla Spark (disk shuffle)
    kSparkShm,   ///< Spark with shared-memory intermediate data
    kSparkRdma,  ///< Spark with RDMA network I/O
    kAsk,        ///< Spark-with-ASK: aggregation as an ASK service
};

const char* mr_backend_name(MrBackend b);

/** One WordCount job. */
struct MrJobSpec
{
    MrBackend backend = MrBackend::kSpark;
    std::uint32_t machines = 3;
    std::uint32_t mappers_per_machine = 32;
    std::uint32_t reducers_per_machine = 32;
    std::uint64_t tuples_per_mapper = 150000000;
    std::uint64_t distinct_keys_per_mapper = 1u << 18;
    std::uint32_t cores_per_machine = 56;

    /** ASK backend: data channels per host. */
    std::uint32_t ask_channels = 4;
    /** ASK backend: simulate 1/sim_scale of the volume (>= 1). */
    std::uint64_t sim_scale = 100;
    std::uint64_t seed = 1;
    net::CostModelSpec cost;
};

/** Job outcome (the paper's JCT/TCT metrics). */
struct MrJobResult
{
    double jct_s = 0.0;
    double mapper_tct_s = 0.0;
    double reducer_tct_s = 0.0;
    /** Host CPU busy fraction during the aggregation phase. */
    double cpu_fraction = 0.0;
    /** ASK backend only: tuple/packet absorption at the switch. */
    double switch_tuple_ratio = 0.0;
    double switch_ack_ratio = 0.0;
    /** ASK backend only: aggregation tasks run, and those whose
     *  delivered AggregateMap equals the fold of their streams. */
    std::uint32_t ask_tasks = 0;
    std::uint32_t exact_tasks = 0;
};

/** Run one job. */
MrJobResult run_mr_job(const MrJobSpec& spec);

}  // namespace ask::apps

#endif  // ASK_APPS_MINIMR_H
