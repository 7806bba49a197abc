/**
 * askbench: the ASK performance benchmark driver.
 *
 *   askbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
 *   askbench --self-test
 *
 * Runs rounds of one workload (see workloads.h) until the next round
 * would overrun S seconds, checks every delivered aggregate, and prints
 * three lines: `meta {...}` (machine and build), `sim_digest {...}`
 * (every simulated value for the seed, byte-comparable across runs),
 * and, last, the result object
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end ones, measured with no
 * probe attached. With --trace 1 rounds alternate between untraced and
 * traced (probes attached), and the metrics are the per-layer ones plus
 * the tracing overhead; --spans writes the benchmark's spans as Chrome
 * trace-event JSON. See perfbench/README.md for the metric dictionary.
 */
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ask/cluster.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

/** Stop starting rounds after this long, whatever --seconds says, so a
 *  run always ends well inside its time limit. */
constexpr double kHardCapSeconds = 120.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans_path;
    bool self_test = false;
};

void
usage(std::ostream& os)
{
    os << "usage: askbench --workload NAME --seed N --seconds S --trace 0|1 "
          "[--spans PATH]\n"
          "       askbench --self-test\n"
          "workloads:";
    for (const std::string& w : workload_names())
        os << " " << w;
    os << "\n";
}

bool
parse_args(int argc, char** argv, Args& a)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--self-test") {
            a.self_test = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--spans")
            a.spans_path = v;
        else
            return false;
    }
    if (a.self_test)
        return true;
    return std::find(workload_names().begin(), workload_names().end(),
                     a.workload) != workload_names().end() &&
           a.seconds > 0;
}

// ---- statistics ----------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Nearest-rank percentile, q in (0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
ratio(double a, double b)
{
    return b == 0 ? 0 : a / b;
}

// ---- output --------------------------------------------------------------

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Named metrics in insertion order, printed as {"name": {"value", "unit"}}. */
class Metrics
{
  public:
    void add(const std::string& name, double value, const std::string& unit)
    {
        items_.push_back({name, value, unit});
    }

    std::string json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            out += (i ? ", " : "") + quoted(items_[i].name) +
                   ": {\"value\": " + num(items_[i].value) +
                   ", \"unit\": " + quoted(items_[i].unit) + "}";
        }
        return out + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

// ---- run metadata --------------------------------------------------------

std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

bool
optimized_build()
{
#if defined(__OPTIMIZE__)
    return true;
#else
    return false;
#endif
}

/** The compiler's own markers: GCC defines __SANITIZE_*__, clang
 *  answers __has_feature. */
bool
sanitized_build()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

bool
trace_build()
{
#if defined(ASK_TRACE_ENABLED)
    return true;
#else
    return false;
#endif
}

std::string
meta_json(const Args& a, std::size_t rounds)
{
    const char* threads = std::getenv("ASK_SIM_THREADS");
    std::ostringstream os;
    os << "{\"workload\": " << quoted(a.workload) << ", \"seed\": " << a.seed
       << ", \"seconds\": " << num(a.seconds)
       << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"rounds\": " << rounds
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu_model\": " << quoted(cpu_model())
       << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"optimized\": " << (optimized_build() ? "true" : "false")
       // Results only come from unsanitized builds (run_benchmark).
       << ", \"ask_sanitize\": \"\""
       << ", \"ask_enable_trace\": " << quoted(trace_build() ? "ON" : "OFF")
       << ", \"ask_sim_threads\": " << quoted(threads ? threads : "") << "}";
    return os.str();
}

// ---- metrics from rounds -------------------------------------------------

template <class F>
std::vector<double>
each(const std::vector<RoundStats>& rounds, F f)
{
    std::vector<double> v;
    for (const RoundStats& r : rounds)
        v.push_back(f(r));
    return v;
}

/**
 * Each slice's best host time over `rounds`. A slice is the same work in
 * every round of a seed, so its best time is the one least disturbed by
 * the rest of the machine; a run's host-time metrics are built from
 * these, which keeps them steady on a shared host.
 */
std::vector<double>
best_slices(const std::vector<RoundStats>& rounds)
{
    std::vector<double> best = rounds.front().slice_ms;
    for (const RoundStats& r : rounds) {
        for (std::size_t k = 0; k < best.size() && k < r.slice_ms.size(); ++k)
            best[k] = std::min(best[k], r.slice_ms[k]);
    }
    return best;
}

double
sum(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/** Host time of each task, from the best slices it spans. */
std::vector<double>
task_wall_ms(const RoundStats& r0, const std::vector<double>& best)
{
    std::vector<double> out;
    for (const auto& [begin, end] : r0.task_slices) {
        double ms = 0;
        auto k = static_cast<std::size_t>(begin);
        for (; k + 1 <= end && k < best.size(); ++k)
            ms += best[k];
        if (k < best.size())
            ms += (end - static_cast<double>(k)) * best[k];
        out.push_back(ms);
    }
    return out;
}

Metrics
end_to_end_metrics(const std::vector<RoundStats>& rounds, double peak_rss_mb)
{
    const RoundStats& r0 = rounds.front();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const RoundStats& r : rounds) {
        attempted += r.attempted;
        failed += r.failed;
    }

    Metrics m;
    m.add("setup_s", median(each(rounds, [](const RoundStats& r) {
              return (r.setup_cluster_ms + r.setup_inputs_ms) / 1000.0;
          })),
          "s");
    const std::vector<double> best = best_slices(rounds);
    const std::vector<double> task_ms = task_wall_ms(r0, best);
    m.add("tuples_per_s",
          ratio(static_cast<double>(r0.tuples), sum(best) / 1000.0), "tuples/s");
    m.add("task_wall_ms_p50", percentile(task_ms, 0.5), "ms");
    m.add("task_wall_ms_p99", percentile(task_ms, 0.99), "ms");
    m.add("peak_rss_mb", peak_rss_mb, "MB");
    m.add("sim_goodput_gbps", r0.sim_goodput_gbps, "Gbps");
    m.add("sim_switch_agg_pct", r0.sim_switch_agg_pct, "%");
    m.add("sim_task_ms_p50", percentile(r0.sim_task_ms, 0.5), "sim_ms");
    m.add("sim_task_ms_p99", percentile(r0.sim_task_ms, 0.99), "sim_ms");
    m.add("task_ok_frac",
          ratio(static_cast<double>(attempted - failed),
                static_cast<double>(attempted)),
          "ratio");
    return m;
}

Metrics
per_layer_metrics(const std::vector<RoundStats>& plain,
                  const std::vector<RoundStats>& traced)
{
    const RoundStats& c = plain.front();  // counts repeat in every round
    const auto tuples = static_cast<double>(c.tuples);
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double plain_ms = sum(best_slices(plain));
    const double traced_ms = sum(best_slices(traced));
    auto switch_ms = [](const RoundStats& r) {
        return static_cast<double>(r.passes.total_ns) / 1e6;
    };
    auto all = plain;
    all.insert(all.end(), traced.begin(), traced.end());

    Metrics m;
    m.add("sim.events", d(c.events), "count");
    m.add("sim.events_per_tuple", ratio(d(c.events), tuples), "ratio");
    m.add("sim.ns_per_event", ratio(plain_ms * 1e6, d(c.events)), "ns");
    m.add("sim.queue_peak", d(traced.front().queue_peak), "count");

    m.add("net.packets_per_tuple", ratio(d(c.net_packets), tuples), "ratio");
    m.add("net.bytes_per_tuple", ratio(d(c.net_bytes), tuples), "B");
    m.add("net.drop_frac", ratio(d(c.net_dropped), d(c.net_packets)), "ratio");
    m.add("net.rtt_sim_us_p50", c.rtt_sim_us_p50, "sim_us");
    m.add("net.rtt_sim_us_p99", c.rtt_sim_us_p99, "sim_us");

    m.add("switch.passes", d(c.switch_passes), "count");
    m.add("switch.passes_per_data_packet",
          ratio(d(c.switch_passes), d(c.host_data_packets_sent)), "ratio");
    m.add("switch.self_ms", median(each(traced, switch_ms)), "ms");
    m.add("switch.ns_per_pass", median(each(traced, [](const RoundStats& r) {
              return ratio(static_cast<double>(r.passes.total_ns),
                           static_cast<double>(r.passes.passes));
          })),
          "ns");
    m.add("switch.share", median(each(traced, [&](const RoundStats& r) {
              return ratio(switch_ms(r), r.measured_ms);
          })),
          "ratio");
    m.add("switch.ack_frac",
          ratio(d(c.switch_packets_acked), d(c.switch_data_packets)), "ratio");
    m.add("switch.collided_frac",
          ratio(d(c.switch_tuples_collided), d(c.switch_tuples_in)), "ratio");
    m.add("switch.swaps", d(c.switch_swaps), "count");

    m.add("daemon.retx_frac",
          ratio(d(c.host_retransmissions), d(c.host_data_packets_sent)),
          "ratio");
    m.add("daemon.host_agg_frac",
          ratio(d(c.host_tuples_local), d(c.host_tuples_sent)), "ratio");
    m.add("daemon.dup_rx", d(c.host_dup_rx), "count");
    m.add("daemon.fetch_tuples", d(c.host_fetch_tuples), "count");

    m.add("wal.records", d(c.wal_records), "count");
    m.add("wal.bytes", d(c.wal_bytes), "B");
    m.add("wal.bytes_per_tuple", ratio(d(c.wal_bytes), tuples), "B");
    m.add("wal.append_ms", median(each(traced, [](const RoundStats& r) {
              return static_cast<double>(r.wal_append.total_ns) / 1e6;
          })),
          "ms");
    m.add("wal.ns_per_append", median(each(traced, [](const RoundStats& r) {
              return ratio(static_cast<double>(r.wal_append.total_ns),
                           static_cast<double>(r.wal_append.records));
          })),
          "ns");

    m.add("ctrl.mgmt_rpcs", d(c.mgmt_rpcs), "count");
    m.add("ctrl.rpcs_per_task", ratio(d(c.mgmt_rpcs), d(c.attempted)), "ratio");

    m.add("rest.self_ms", median(each(traced, [&](const RoundStats& r) {
              return r.measured_ms - switch_ms(r);
          })),
          "ms");

    m.add("setup.cluster_ms",
          median(each(all, [](const RoundStats& r) { return r.setup_cluster_ms; })),
          "ms");
    m.add("setup.inputs_ms",
          median(each(all, [](const RoundStats& r) { return r.setup_inputs_ms; })),
          "ms");
    // Later rounds start on a heap the earlier ones grew; the first
    // round's set-up is the fresh-process figure.
    m.add("mem.setup_rss_mb", plain.front().setup_rss_mb, "MB");
    m.add("trace.overhead_frac", ratio(traced_ms, plain_ms) - 1.0, "ratio");
    return m;
}

std::string
sim_digest_json(const Args& a, const RoundStats& r0)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(r0.sim_digest));
    std::ostringstream os;
    os << "{\"workload\": " << quoted(a.workload) << ", \"seed\": " << a.seed
       << ", \"digest\": \"" << hex << "\""
       << ", \"sim_goodput_gbps\": " << num(r0.sim_goodput_gbps)
       << ", \"sim_switch_agg_pct\": " << num(r0.sim_switch_agg_pct)
       << ", \"sim_task_ms_p50\": " << num(percentile(r0.sim_task_ms, 0.5))
       << ", \"sim_task_ms_p99\": " << num(percentile(r0.sim_task_ms, 0.99))
       << "}";
    return os.str();
}

int
run_benchmark(const Args& a)
{
    if (!optimized_build() || sanitized_build()) {
        std::cerr << "askbench: refusing to report timings from a "
                  << (sanitized_build() ? "sanitizer" : "unoptimised")
                  << " build (build type '" << PERFBENCH_BUILD_TYPE << "')\n";
        return 3;
    }

    SpanLog spans;
    SpanLog* sp = a.trace ? &spans : nullptr;
    const std::uint64_t run_span = sp != nullptr ? sp->begin("run", 0) : 0;

    std::vector<RoundStats> plain;
    std::vector<RoundStats> traced;
    std::vector<double> round_s;
    const std::size_t min_rounds = a.trace ? 4 : 3;
    double peak_rss_mb = 0;
    const Clock::time_point start = Clock::now();
    for (std::size_t r = 0;; ++r) {
        RoundOptions o;
        o.seed = a.seed;
        o.traced = a.trace && r % 2 == 1;
        o.spans = sp;
        o.parent = run_span;
        Clock::time_point r0 = Clock::now();
        (o.traced ? traced : plain).push_back(run_round(a.workload, o));
        Clock::time_point now = Clock::now();
        round_s.push_back(static_cast<double>(ns_between(r0, now)) / 1e9);
        if (r == 0) {
            // Every round repeats the same work, so the process peak after
            // the first one is the workload's peak, however many follow.
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
        std::cerr << "askbench: " << a.workload << " round " << r
                  << (o.traced ? " (traced)" : "") << ": "
                  << num(round_s.back()) << " s, measured phase "
                  << num((o.traced ? traced : plain).back().measured_ms)
                  << " ms\n";
        const double elapsed = static_cast<double>(ns_between(start, now)) / 1e9;
        if (plain.size() + traced.size() >= min_rounds &&
            elapsed + median(round_s) > a.seconds)
            break;
        if (elapsed > kHardCapSeconds)
            break;
    }
    if (sp != nullptr)
        sp->end(run_span);

    // Correctness: every task exact, and every round — traced or not —
    // simulated exactly the same thing.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool same = true;
    auto all = plain;
    all.insert(all.end(), traced.begin(), traced.end());
    for (const RoundStats& r : all) {
        attempted += r.attempted;
        failed += r.failed;
        if (!r.first_failure.empty())
            std::cerr << "askbench: FAILED " << r.first_failure << "\n";
        same = same && r.sim_digest == all.front().sim_digest &&
               r.round_digest == all.front().round_digest;
    }
    if (!same)
        std::cerr << "askbench: rounds of one seed simulated different results"
                  << (a.trace ? " (traced vs untraced)" : "") << "\n";

    if (!a.spans_path.empty() && sp != nullptr) {
        ask::obs::LogHistogram pass_ns;
        for (const RoundStats& r : traced)
            pass_ns.merge(r.passes.hist);
        spans.add_histogram("switch.pass_ns", pass_ns);
        if (!spans.write(a.spans_path))
            std::cerr << "askbench: cannot write " << a.spans_path << "\n";
    }

    Metrics m = a.trace ? per_layer_metrics(plain, traced)
                        : end_to_end_metrics(plain, peak_rss_mb);
    std::cout << "meta " << meta_json(a, all.size()) << "\n";
    std::cout << "sim_digest " << sim_digest_json(a, all.front()) << "\n";
    std::cout << "{\"correct\": " << (same && failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << m.json() << "}" << std::endl;
    return 0;
}

// ---- self-test -----------------------------------------------------------

int
self_test()
{
    int failures = 0;
    auto check = [&failures](bool ok, const std::string& what) {
        std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
        failures += ok ? 0 : 1;
    };

    for (const std::string& w : workload_names()) {
        RoundOptions o;
        o.seed = 7;
        o.size = Size::kTiny;
        RoundStats plain = run_round(w, o);
        SpanLog spans;
        o.traced = true;
        o.spans = &spans;
        RoundStats traced = run_round(w, o);
        check(plain.attempted > 0 && plain.failed == 0 && traced.failed == 0,
              w + ": every task exact (" + plain.first_failure +
                  traced.first_failure + ")");
        check(plain.sim_digest == traced.sim_digest &&
                  plain.round_digest == traced.round_digest,
              w + ": traced run simulates the same as the untraced run");
        check(traced.passes.passes == traced.switch_passes &&
                  traced.passes.passes > 0,
              w + ": the switch decorator timed every pipeline pass");
        check(traced.wal_append.records == traced.wal_records,
              w + ": the WAL re-append covered every record");
        check(plain.slice_ms.size() == traced.slice_ms.size() &&
                  plain.task_slices.size() == plain.attempted &&
                  std::all_of(plain.task_slices.begin(), plain.task_slices.end(),
                              [&](const std::pair<double, double>& t) {
                                  return t.first < t.second &&
                                         t.second <= static_cast<double>(
                                                         plain.slice_ms.size());
                              }),
              w + ": every task lies within the timed slices");
        check(spans.size() >= 4 + traced.attempted,
              w + ": round, set-up, measure and task spans recorded");
        const std::uint64_t d7 = input_digest(w, 7, Size::kTiny);
        check(d7 == input_digest(w, 7, Size::kTiny),
              w + ": the same seed reproduces identical inputs");
        check(d7 != input_digest(w, 8, Size::kTiny),
              w + ": a different seed changes the inputs");
    }

    // The oracle must accept a real delivered aggregate and flag every
    // kind of alteration of it.
    ask::core::ClusterConfig cc;
    cc.topology = ask::core::TopologyBuilder().racks(1, 2).build();
    cc.ask.max_hosts = 2;
    ask::core::AskCluster cluster(cc);
    ask::workload::ZipfGenerator zipf(512, 1.0, 3);
    ask::core::KvStream stream = zipf.generate(5000);
    ask::core::AggregateMap expected = reference_fold({&stream});
    ask::core::TaskResult r = cluster.run_task(1, 0, {{1, stream}});
    auto check_oracle = [&](const ask::core::AggregateMap& got, bool want,
                            const std::string& what) {
        std::string why;
        bool match = aggregate_matches(expected, got, &why);
        check(match == want, "oracle: " + what + (why.empty() ? "" : ": " + why));
    };
    check(r.ok(), "oracle: the reference task completed");
    check_oracle(r.result, true, "accepts the delivered aggregate");
    ask::core::AggregateMap bumped = r.result;
    bumped.begin()->second += 1;
    check_oracle(bumped, false, "flags an altered value");
    ask::core::AggregateMap missing = r.result;
    missing.erase(missing.begin());
    check_oracle(missing, false, "flags a missing key");
    ask::core::AggregateMap extra = r.result;
    extra["not-an-input-key"] = 1;
    check_oracle(extra, false, "flags an extra key");

    std::cout << (failures == 0 ? "self-test: all passed"
                                : "self-test: " + std::to_string(failures) +
                                      " failed")
              << std::endl;
    return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    perfbench::Args args;
    try {
        if (!perfbench::parse_args(argc, argv, args)) {
            perfbench::usage(std::cerr);
            return 2;
        }
        return args.self_test ? perfbench::self_test()
                              : perfbench::run_benchmark(args);
    } catch (const std::exception& e) {
        std::cerr << "askbench: " << e.what() << "\n";
        return 1;
    }
}
