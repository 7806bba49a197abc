/**
 * Parallel driver for the per-figure bench binaries.
 *
 * Discovers every bench executable next to itself (build/bench/), then
 * runs them across worker threads, one *subprocess* per bench. Process
 * isolation is what makes the parallelism safe: each bench owns its
 * whole address space, so the per-bench seeded RNGs (ASK_SEED) and the
 * simulator singletons cannot interleave across figures, and a crash in
 * one figure cannot corrupt another's report. Each bench writes its
 * BENCH_<experiment>.json and log into its own subdirectory of
 * --out-dir, and the driver finishes by schema-checking every report
 * with bench_json_check.
 *
 *   ./build/bench/run_all --smoke --jobs 4 --out-dir /tmp/bench_out
 *   ./build/bench/run_all fig03_akvs fig08a_goodput   # just these two
 *
 * Flags: --smoke | --full  scale forwarded to every bench
 *        --jobs N          worker threads (default: hardware concurrency)
 *        --out-dir DIR     report root (default: ./run_all_out)
 *        --seed S          ASK_SEED exported to every bench (default: 1)
 * Any non-flag argument selects a subset of benches by binary name.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

namespace fs = std::filesystem;

namespace {

/** Binaries living in bench/ that are tools, not figure benches. */
bool
is_tool(const std::string& name)
{
    return name == "run_all" || name == "bench_json_check" ||
           name == "perf_gate";
}

struct BenchJob
{
    std::string name;
    fs::path binary;
    int exit_code = -1;
    /** Human-readable failure cause: "exit N" or "signal N" — decoded
     *  from the child's wait status so a red CI log names the failing
     *  bench with its actual exit code, not a raw wait(2) word. */
    std::string status = "not run";
    double seconds = 0.0;
};

/** Shell-quote a path (the only untrusted part of the command line). */
std::string
quoted(const std::string& s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

void
run_one(BenchJob& job, const fs::path& out_root, const std::string& mode_flag,
        const std::string& seed)
{
    fs::path dir = out_root / job.name;
    fs::create_directories(dir);
    // A report left by an earlier run must not pass for this one's.
    fs::remove(dir / ("BENCH_" + job.name + ".json"));
    // cd into the per-bench directory so BenchReport's cwd fallback and
    // ASK_BENCH_OUT_DIR agree; stdout+stderr land in log.txt for triage.
    std::string cmd = "cd " + quoted(dir.string()) +
                      " && ASK_BENCH_OUT_DIR=" + quoted(dir.string()) +
                      " ASK_SEED=" + seed + " " +
                      quoted(job.binary.string()) + " " + mode_flag +
                      " > log.txt 2>&1";
    auto start = std::chrono::steady_clock::now();
    int rc = std::system(cmd.c_str());
    auto end = std::chrono::steady_clock::now();
    if (rc == -1) {
        job.exit_code = 127;
        job.status = "could not spawn";
    } else if (WIFEXITED(rc)) {
        job.exit_code = WEXITSTATUS(rc);
        job.status = "exit " + std::to_string(job.exit_code);
    } else if (WIFSIGNALED(rc)) {
        job.exit_code = 128 + WTERMSIG(rc);
        job.status = "signal " + std::to_string(WTERMSIG(rc));
    } else {
        job.exit_code = rc;
        job.status = "wait status " + std::to_string(rc);
    }
    job.seconds = std::chrono::duration<double>(end - start).count();
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string mode_flag = "--smoke";
    fs::path out_root = "run_all_out";
    std::string seed = "1";
    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::string> selected;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--smoke" || arg == "--full" || arg == "--default") {
            mode_flag = arg == "--default" ? "" : arg;
        } else if (arg == "--jobs" && i + 1 < argc) {
            jobs = static_cast<unsigned>(std::atoi(argv[++i]));
            jobs = std::max(1u, jobs);
        } else if (arg == "--out-dir" && i + 1 < argc) {
            out_root = argv[++i];
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = argv[++i];
        } else if (arg == "--help") {
            std::cout << "usage: run_all [--smoke|--default|--full] "
                         "[--jobs N] [--out-dir DIR] [--seed S] [bench...]\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "run_all: unknown flag " << arg << "\n";
            return 2;
        } else {
            selected.push_back(arg);
        }
    }

    fs::path self = fs::path(argv[0]);
    fs::path bench_dir = self.has_parent_path() ? self.parent_path()
                                                : fs::current_path();
    // The run commands cd into per-bench directories, so every path
    // baked into them must survive the working-directory change.
    bench_dir = fs::absolute(bench_dir);
    out_root = fs::absolute(out_root);

    std::vector<BenchJob> todo;
    for (const auto& entry : fs::directory_iterator(bench_dir)) {
        if (!entry.is_regular_file())
            continue;
        std::string name = entry.path().filename().string();
        if (is_tool(name))
            continue;
        auto perms = entry.status().permissions();
        if ((perms & fs::perms::owner_exec) == fs::perms::none)
            continue;
        if (!selected.empty() &&
            std::find(selected.begin(), selected.end(), name) ==
                selected.end())
            continue;
        todo.push_back({name, entry.path()});
    }
    std::sort(todo.begin(), todo.end(),
              [](const BenchJob& a, const BenchJob& b) {
                  return a.name < b.name;
              });
    if (todo.empty()) {
        std::cerr << "run_all: no bench binaries found in " << bench_dir
                  << "\n";
        return 2;
    }
    for (const std::string& want : selected) {
        if (std::none_of(todo.begin(), todo.end(), [&](const BenchJob& j) {
                return j.name == want;
            })) {
            std::cerr << "run_all: no such bench: " << want << "\n";
            return 2;
        }
    }

    fs::create_directories(out_root);
    std::cout << "run_all: " << todo.size() << " benches, " << jobs
              << " workers, mode "
              << (mode_flag.empty() ? "--default" : mode_flag) << "\n";

    std::atomic<std::size_t> next{0};
    std::mutex print_mu;
    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= todo.size())
                return;
            run_one(todo[i], out_root, mode_flag, seed);
            std::lock_guard<std::mutex> lock(print_mu);
            std::cout << (todo[i].exit_code == 0 ? "  ok   " : "  FAIL ")
                      << todo[i].name;
            if (todo[i].exit_code != 0)
                std::cout << "  [" << todo[i].status << "]";
            std::cout << "  (" << static_cast<int>(todo[i].seconds * 1000)
                      << " ms)" << std::endl;
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (auto& t : pool)
        t.join();

    bool all_ok = true;
    std::vector<std::string> reports;
    for (const auto& job : todo) {
        if (job.exit_code != 0) {
            all_ok = false;
            std::cerr << "run_all: " << job.name << " failed ("
                      << job.status << "); see "
                      << (out_root / job.name / "log.txt") << "\n";
            continue;
        }
        fs::path report = out_root / job.name / ("BENCH_" + job.name + ".json");
        if (!fs::exists(report)) {
            all_ok = false;
            std::cerr << "run_all: " << job.name
                      << " did not write BENCH_" << job.name << ".json\n";
            continue;
        }
        reports.push_back(report.string());
    }

    // Schema-check every report in one bench_json_check invocation.
    fs::path checker = bench_dir / "bench_json_check";
    if (!reports.empty() && !fs::exists(checker)) {
        all_ok = false;
        std::cerr << "run_all: no bench_json_check next to run_all; "
                     "the reports were not schema-checked\n";
    } else if (!reports.empty()) {
        std::string cmd = quoted(checker.string());
        for (const auto& r : reports)
            cmd += " " + quoted(r);
        if (std::system(cmd.c_str()) != 0) {
            all_ok = false;
            std::cerr << "run_all: bench_json_check failed\n";
        }
    }

    std::cout << (all_ok ? "run_all: all benches passed\n"
                         : "run_all: FAILURES above\n");
    return all_ok ? 0 : 1;
}
