/**
 * sim_parallel — wall-clock speedup and determinism of the parallel
 * job pool (sim/engine.h, docs/CONCURRENCY.md).
 *
 * Runs a fixed set of independent fig13b-shaped fabric replicas — each
 * replica is a full AskCluster run as one engine job, streaming
 * every host to a receiver across racks — once per thread count in
 * {1, 2, 4}, and reports for each thread count the wall-clock time,
 * the speedup against the 1-thread run, and a determinism bit: a
 * digest of every replica's simulated results (goodput bit patterns
 * and completion times, in replica order) must be identical to the
 * 1-thread digest. The digest row is what perf_gate pins — it is
 * machine-independent, unlike the wall clock. The measured speedup is
 * gated only on machines with enough cores (params.speedup_floor /
 * params.speedup_threads; perf_gate skips the floor when
 * params.cores of the fresh run is smaller).
 *
 * This binary deliberately ignores ASK_SIM_THREADS: it *is* the
 * thread-count sweep.
 *
 * Flags: --smoke | --full   replica size (2-rack CI shape vs the full
 *                           8-rack fig13b shape), plus --help.
 */
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "ask/cluster.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/table.h"
#include "sim/engine.h"

namespace {

using namespace ask;

/** What one replica's simulation produced (simulated time only). */
struct ReplicaResult
{
    double goodput_gbps = 0.0;
    sim::SimTime senders_done = 0;
    sim::SimTime all_done = 0;
};

/** One full fabric run: every host of `racks` racks streams to host 0
 *  through the ToR/tier fabric. A clone of fig13b's fabric sweep
 *  point, scaled by `tuples_per_sender`. */
ReplicaResult
run_replica(std::uint32_t racks, std::uint64_t tuples_per_sender,
            std::uint32_t replica_index)
{
    constexpr std::uint32_t kHostsPerRack = 2;
    core::ClusterConfig cc;
    cc.topology =
        core::TopologyBuilder().racks(racks, kHostsPerRack).build();
    cc.ask.max_hosts = cc.topology->num_hosts();
    cc.ask.medium_groups = 0;
    core::AskCluster cluster(cc);

    std::uint32_t senders = cc.topology->num_hosts() - 1;
    std::uint32_t parts = 2 * cc.ask.channels_per_host;
    std::vector<std::uint32_t> sender_hosts;
    for (std::uint32_t s = 1; s <= senders; ++s)
        sender_hosts.push_back(s);
    std::vector<std::uint32_t> ids;
    for (std::uint32_t slack = 0; ids.size() != parts && slack <= 3; ++slack)
        ids = bench::balanced_task_ids_multi(
            sender_hosts, cc.ask.channels_per_host, parts, slack);
    ASK_ASSERT(ids.size() == parts, "could not balance task ids");

    std::uint64_t per_part = tuples_per_sender / parts;
    std::vector<bench::StreamingTask> tasks;
    for (std::uint32_t p = 0; p < parts; ++p) {
        std::vector<core::StreamSpec> streams;
        for (std::uint32_t s : sender_hosts) {
            const core::KeySpace& ks = cluster.daemon(s).key_space();
            // Distinct key offsets per replica: replicas must be
            // independent simulations, not bit-copies of one another.
            streams.push_back(
                {s, bench::balanced_uniform_stream(
                        ks, 2, per_part,
                        (static_cast<std::uint64_t>(replica_index) << 24) +
                            (static_cast<std::uint64_t>(p) << 16))});
        }
        tasks.push_back({ids[p], 0, std::move(streams),
                         {.region_len = cc.ask.copy_size() / parts}});
    }
    bench::StreamingResult sr =
        bench::run_streaming_tasks(cluster, std::move(tasks));

    ReplicaResult r;
    Nanoseconds fixed = cc.mgmt_latency_ns + cc.notify_latency_ns;
    Nanoseconds elapsed = std::max<Nanoseconds>(sr.senders_done - fixed, 1);
    double total_tuple_bytes =
        static_cast<double>(per_part) * parts * senders * 8.0;
    r.goodput_gbps = units::gbps(total_tuple_bytes, elapsed);
    r.senders_done = sr.senders_done;
    r.all_done = sr.all_done;
    return r;
}

/** FNV-1a over every replica's result bits, in replica order. Equal
 *  digests mean bit-for-bit equal simulated outcomes. */
std::uint64_t
digest(const std::vector<ReplicaResult>& results)
{
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 64; b += 8) {
            h ^= (v >> b) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    for (const ReplicaResult& r : results) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(r.goodput_gbps));
        std::memcpy(&bits, &r.goodput_gbps, sizeof(bits));
        mix(bits);
        mix(static_cast<std::uint64_t>(r.senders_done));
        mix(static_cast<std::uint64_t>(r.all_done));
    }
    return h;
}

void
print_usage()
{
    std::cout << "usage: sim_parallel [--smoke|--full]\n"
                 "  --smoke   CI-scale replicas (2 racks, small streams)\n"
                 "  --full    paper-scale replicas (the full 8-rack fig13b "
                 "shape)\n"
                 "  --help    this text\n"
                 "Thread counts 1, 2, 4 are swept internally; "
                 "ASK_SIM_THREADS is ignored.\n";
}

}  // namespace

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0) {
            print_usage();
            return 0;
        }
    }

    bench::BenchReport report(
        "sim_parallel",
        "parallel-engine wall-clock speedup and cross-thread determinism",
        argc, argv);
    bool full = report.full();
    std::uint32_t racks = report.smoke() ? 2 : (full ? 8 : 4);
    std::uint32_t replicas = 4;
    std::uint64_t tuples =
        report.smoke() ? 60000 : (full ? 2000000 : 300000);
    unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    constexpr double kSpeedupFloor = 1.5;
    constexpr unsigned kSpeedupThreads = 4;

    report.param("racks", racks);
    report.param("replicas", replicas);
    report.param("tuples_per_sender", tuples);
    report.param("cores", cores);
    report.param("speedup_floor", kSpeedupFloor);
    report.param("speedup_threads", kSpeedupThreads);

    bench::banner("sim_parallel",
                  "engine speedup and determinism across thread counts");
    std::cout << "machine: " << cores << " core(s); " << replicas
              << " replicas of a " << racks << "-rack fabric, " << tuples
              << " tuples/sender\n";

    TextTable t;
    t.header({"threads", "wall (ms)", "speedup", "deterministic"});
    double wall_ms_1 = 0.0;
    std::uint64_t digest_1 = 0;
    bool all_deterministic = true;
    for (unsigned threads : {1u, 2u, 4u}) {
        sim::SimOptions options;
        options.num_threads = threads;
        sim::ParallelEngine engine(options);

        std::vector<ReplicaResult> results(replicas);
        std::vector<std::function<void()>> jobs;
        for (std::uint32_t r = 0; r < replicas; ++r)
            jobs.push_back([&results, racks, tuples, r] {
                results[r] = run_replica(racks, tuples, r);
            });

        auto start = std::chrono::steady_clock::now();
        engine.run_isolated(jobs);
        auto end = std::chrono::steady_clock::now();
        double wall_ms =
            std::chrono::duration<double, std::milli>(end - start).count();

        std::uint64_t d = digest(results);
        if (threads == 1) {
            wall_ms_1 = wall_ms;
            digest_1 = d;
        }
        bool deterministic = d == digest_1;
        all_deterministic = all_deterministic && deterministic;
        double speedup = wall_ms > 0.0 ? wall_ms_1 / wall_ms : 0.0;
        t.row({std::to_string(threads), fmt_double(wall_ms, 1),
               fmt_double(speedup, 2), deterministic ? "yes" : "NO"});
        report.row({{"threads", threads},
                    {"wall_ms", wall_ms},
                    {"speedup", speedup},
                    {"determinism_ok", deterministic ? 1 : 0}});
    }
    t.print(std::cout);

    report.note("determinism_ok compares a digest of every replica's "
                "simulated results against the 1-thread run: the engine's "
                "merge is deterministic, so it must be 1 at every thread "
                "count on every machine");
    report.note("speedup is wall-clock and machine-dependent; perf_gate "
                "enforces the speedup_floor only when the machine has at "
                "least speedup_threads cores");

    if (!all_deterministic) {
        std::cerr << "sim_parallel: NONDETERMINISM across thread counts\n";
        return 1;
    }
    return 0;
}
