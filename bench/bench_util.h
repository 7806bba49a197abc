/**
 * @file
 * Shared helpers for the per-figure benchmark harnesses.
 *
 * Every bench binary reproduces one table or figure of the ASPLOS'23
 * ASK paper: it runs the workload (on the discrete-event simulator or
 * the calibrated cost models), prints the same rows/series the paper
 * reports, and where the paper gives concrete numbers, prints them
 * alongside as "paper" columns. Pass --full to run closer to paper
 * scale (slower); the default is a scaled run with identical shape.
 */
#ifndef ASK_BENCH_BENCH_UTIL_H
#define ASK_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "ask/cluster.h"
#include "ask/key_space.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"
#include "obs/json.h"

namespace ask::bench {

/**
 * Scale a bench binary runs at. Every binary accepts --smoke (CI:
 * seconds-scale volumes, same shape) and --full (paper-scale volumes);
 * the default sits in between.
 */
enum class Mode
{
    kSmoke,
    kDefault,
    kFull,
};

inline Mode
parse_mode(int argc, char** argv)
{
    Mode mode = Mode::kDefault;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            mode = Mode::kSmoke;
        else if (std::strcmp(argv[i], "--full") == 0)
            mode = Mode::kFull;
    }
    return mode;
}

inline const char*
mode_name(Mode mode)
{
    switch (mode) {
        case Mode::kSmoke: return "smoke";
        case Mode::kDefault: return "default";
        case Mode::kFull: return "full";
    }
    return "?";
}

/**
 * Machine-readable counterpart of a bench binary's stdout tables.
 *
 * Every bench constructs one of these, records its parameters and
 * result rows while printing the human tables as before, and — at
 * destruction or an explicit write() — emits `BENCH_<experiment>.json`
 * (schema "ask-bench/v1") into the working directory, or into
 * $ASK_BENCH_OUT_DIR when set. The document shape is validated by
 * bench_json_check and pinned by the golden-schema test in
 * tests/obs_test.cc:
 *
 *   { "schema": "ask-bench/v1", "experiment": ..., "description": ...,
 *     "mode": "smoke|default|full", "params": {...},
 *     "rows": [{...}, ...], "notes": [...], "metrics": {...}? }
 */
class BenchReport
{
  public:
    BenchReport(std::string experiment, std::string description, int argc,
                char** argv)
        : experiment_(std::move(experiment)), mode_(parse_mode(argc, argv))
    {
        doc_ = obs::Json::object();
        doc_.set("schema", "ask-bench/v1");
        doc_.set("experiment", experiment_);
        doc_.set("description", std::move(description));
        doc_.set("mode", mode_name(mode_));
        doc_.set("params", obs::Json::object());
        doc_.set("rows", obs::Json::array());
        doc_.set("notes", obs::Json::array());
    }

    BenchReport(const BenchReport&) = delete;
    BenchReport& operator=(const BenchReport&) = delete;

    ~BenchReport() { write(); }

    Mode mode() const { return mode_; }
    bool smoke() const { return mode_ == Mode::kSmoke; }
    bool full() const { return mode_ == Mode::kFull; }

    /** Record one experiment parameter (workload size, host count...). */
    void param(const std::string& name, obs::Json value)
    {
        member("params").set(name, std::move(value));
    }

    /** Record one result row; keys should match the printed columns. */
    void row(std::initializer_list<std::pair<std::string, obs::Json>> cells)
    {
        obs::Json r = obs::Json::object();
        for (const auto& [k, v] : cells)
            r.set(k, v);
        member("rows").push_back(std::move(r));
    }

    /** Record a pre-built row object (for programmatic producers). */
    void row_json(obs::Json r) { member("rows").push_back(std::move(r)); }

    /** Print a footnote line and record it in the report. */
    void note(const std::string& text)
    {
        std::cout << "note: " << text << "\n";
        member("notes").push_back(text);
    }

    /** Attach a cluster metrics snapshot (obs::MetricsSnapshot::to_json). */
    void metrics(obs::Json snapshot)
    {
        doc_.set("metrics", std::move(snapshot));
    }

    /** Emit the JSON file now (idempotent; also runs at destruction). */
    void write()
    {
        if (written_)
            return;
        written_ = true;
        std::string dir;
        if (const char* env = std::getenv("ASK_BENCH_OUT_DIR"))
            dir = std::string(env) + "/";
        std::string path = dir + "BENCH_" + experiment_ + ".json";
        std::ofstream out(path);
        if (!out) {
            warn("bench: cannot write ", path);
            return;
        }
        out << doc_.dump(2) << "\n";
        std::cout << "\nwrote " << path << "\n";
    }

  private:
    obs::Json& member(const char* key)
    {
        obs::Json* v = doc_.find(key);
        ASK_ASSERT(v != nullptr, "bench report member ", key, " missing");
        return *v;
    }

    std::string experiment_;
    Mode mode_;
    obs::Json doc_;
    bool written_ = false;
};

/**
 * Pick `count` task ids whose hash-based channel assignment
 * (core::task_channel_index, what AskDaemon::channel_for_task uses) is
 * balanced for *several* sender hosts at once (each host hashes tasks
 * with its own salt, so an id set that is even on one host can be
 * skewed on another). Greedy search over candidate ids; balance is
 * within +-ceil(count/channels) per host. `slack` loosens the
 * per-channel cap by that many extra tasks: exact simultaneous balance
 * becomes infeasible as the host set grows (every candidate must land
 * on an under-full channel of *every* host at once), so large fabrics
 * trade a little skew for a solution.
 */
inline std::vector<std::uint32_t>
balanced_task_ids_multi(const std::vector<std::uint32_t>& hosts,
                        std::uint32_t channels, std::uint32_t count,
                        std::uint32_t slack = 0)
{
    std::vector<std::uint32_t> ids;
    std::vector<std::vector<std::uint32_t>> load(
        hosts.size(), std::vector<std::uint32_t>(channels, 0));
    std::uint32_t cap = (count + channels - 1) / channels + slack;
    for (std::uint32_t candidate = 1;
         ids.size() < count && candidate < 20000000; ++candidate) {
        bool ok = true;
        for (std::size_t h = 0; h < hosts.size() && ok; ++h) {
            ok = load[h][core::task_channel_index(
                     candidate, core::HostId{hosts[h]}, channels)] < cap;
        }
        if (!ok)
            continue;
        for (std::size_t h = 0; h < hosts.size(); ++h) {
            ++load[h][core::task_channel_index(
                candidate, core::HostId{hosts[h]}, channels)];
        }
        ids.push_back(candidate);
    }
    return ids;
}

/**
 * Pick `count` task ids whose channel assignment on `sender_host` is
 * perfectly balanced over `channels` data channels. Benches splitting
 * one logical job into per-channel tasks use this so a small task count
 * doesn't skew per-core utilization.
 */
inline std::vector<std::uint32_t>
balanced_task_ids(std::uint32_t sender_host, std::uint32_t channels,
                  std::uint32_t count)
{
    return balanced_task_ids_multi({sender_host}, channels, count);
}

/**
 * Build a key-value stream whose keys are spread *exactly evenly* over
 * the short-key payload slots (keys_per_slot keys in each of the
 * config's short AAs) and whose arrivals cycle the slots round-robin,
 * so every DATA packet is full. This reproduces the paper's
 * microbenchmark conditions: uniform small keys with maximal packing.
 * `offset_base` isolates key spaces across tasks.
 */
inline core::KvStream
balanced_uniform_stream(const core::KeySpace& ks, std::uint32_t keys_per_slot,
                        std::uint64_t n, std::uint64_t offset_base)
{
    std::uint32_t slots = ks.config().short_aas();
    std::vector<std::vector<core::Key>> by_slot(slots);
    std::uint32_t filled = 0;
    for (std::uint64_t id = offset_base; filled < slots; ++id) {
        core::Key key = u64_key(id);
        if (ks.classify(key) != core::KeyClass::kShort)
            continue;
        auto& bucket = by_slot[ks.short_slot(key)];
        if (bucket.size() < keys_per_slot) {
            bucket.push_back(key);
            if (bucket.size() == keys_per_slot)
                ++filled;
        }
    }
    core::KvStream out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto& bucket = by_slot[i % slots];
        out.push_back({bucket[(i / slots) % keys_per_slot], 1});
    }
    return out;
}

/** Print the bench banner with experiment id and description. */
inline void
banner(const std::string& experiment, const std::string& what)
{
    std::cout << "\n==========================================================\n"
              << experiment << " — " << what << "\n"
              << "==========================================================\n";
}

}  // namespace ask::bench

#endif  // ASK_BENCH_BENCH_UTIL_H
