/**
 * Observability-layer tests: log-linear histogram quantile error
 * bounds, the cluster snapshot's counters against the stats folds, the
 * pinned golden shape of the ask-bench/v1 JSON report, and
 * packet-lifecycle chain reconstruction through loss and a switch
 * reboot.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "ask/cluster.h"
#include "bench_util.h"
#include "common/random.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/chaos.h"

namespace ask::core {
namespace {

using units::kMicrosecond;

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

TEST(LogHistogram, ExactForSmallValues)
{
    obs::LogHistogram h;
    for (std::uint64_t v = 0; v < obs::LogHistogram::kSubBuckets; ++v)
        h.observe(v);
    EXPECT_EQ(h.count(), obs::LogHistogram::kSubBuckets);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), obs::LogHistogram::kSubBuckets - 1);
    // Values below kSubBuckets land in exact unit buckets.
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(1.0), obs::LogHistogram::kSubBuckets - 1);
}

TEST(LogHistogram, QuantileRelativeErrorWithinOneEighth)
{
    obs::LogHistogram h;
    for (std::uint64_t v = 1; v <= 100000; ++v)
        h.observe(v);
    for (double q : {0.10, 0.25, 0.50, 0.90, 0.95, 0.99}) {
        double exact = q * 100000.0;
        auto got = static_cast<double>(h.quantile(q));
        // Bucket width <= value / kSubBuckets, and quantile() reports
        // the bucket's upper edge, so the estimate never undershoots
        // by more than one observation and never overshoots by more
        // than 1/8 relative.
        EXPECT_GE(got, exact - 1.0) << "q=" << q;
        EXPECT_LE(got, exact * (1.0 + 1.0 / 8.0)) << "q=" << q;
    }
    EXPECT_EQ(h.quantile(1.0), 100000u);  // clamped to the observed max
}

TEST(LogHistogram, MergeMatchesCombinedObservation)
{
    Rng rng = seeded_rng("obs_test", 7);
    obs::LogHistogram a;
    obs::LogHistogram b;
    obs::LogHistogram both;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = rng.next_below(1u << 20);
        (i % 2 ? a : b).observe(v);
        both.observe(v);
    }
    a.merge(b);
    EXPECT_EQ(a.summary_json().dump(), both.summary_json().dump());
}

// ---------------------------------------------------------------------------
// Cluster metrics snapshot
// ---------------------------------------------------------------------------

KvStream
random_stream(Rng& rng, std::size_t n)
{
    KvStream s;
    s.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        s.push_back({"k" + std::to_string(rng.next_below(50)),
                     static_cast<Value>(1 + rng.next_below(5))});
    return s;
}

/** With `snap`, `prefix` and `stats` in scope: the snapshot holds the
 *  field's value as `<prefix><field>`. */
#define ASK_EXPECT_COUNTER(field, doc)                                      \
    EXPECT_EQ(snap.counter(prefix + #field), stats.field) << prefix << #field;

TEST(MetricsSnapshot, CountersEqualTheStatsFolds)
{
    // chaos_sweep's metrics block, README and the quickstart read these
    // names; each counter must carry its stats fold's value.
    ClusterConfig cc;
    cc.topology = TopologyBuilder().racks(2, 2).build();
    cc.ask.max_hosts = 4;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 128;
    cc.ask.medium_groups = 2;
    cc.ask.window = 16;
    cc.ask.channels_per_host = 2;
    cc.ask.swap_threshold_packets = 0;
    cc.faults = net::FaultSpec::lossy(0.05, 0.0, 0.0);
    cc.seed = 41;
    Rng rng = seeded_rng("obs_test", 41);
    std::vector<StreamSpec> streams{{1, random_stream(rng, 800)},
                                    {2, random_stream(rng, 800)}};

    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot(60 * kMicrosecond, 100 * kMicrosecond);
    plan.host_crash(250 * kMicrosecond, 50 * kMicrosecond, /*host=*/2);
    cluster.arm_chaos(plan);
    TaskResult r = cluster.run_task(7, 0, streams, {.region_len = 16});
    ASSERT_TRUE(r.ok()) << r.report.detail;

    obs::MetricsSnapshot snap = cluster.metrics_snapshot();
    ChaosStats cs = cluster.chaos_stats();
    EXPECT_EQ(cs.switch_reboots, 1u);
    EXPECT_EQ(cs.host_crashes, 1u);
    EXPECT_GT(cs.streams_replayed, 0u);
    {
        const std::string prefix = "chaos.";
        const ChaosStats& stats = cs;
        ASK_CHAOS_STATS_FIELDS(ASK_EXPECT_COUNTER)
    }
    {
        const std::string prefix = "host.";
        HostStats stats = cluster.total_host_stats();
        EXPECT_GT(stats.retransmissions, 0u);
        ASK_HOST_STATS_FIELDS(ASK_EXPECT_COUNTER)
    }
    const std::vector<std::string> switch_infix = {"", "s1.", "tier."};
    ASSERT_EQ(cluster.num_switches(), switch_infix.size());
    for (std::uint32_t s = 0; s < cluster.num_switches(); ++s) {
        const std::string& infix = switch_infix[s];
        const std::string prefix = "switch." + infix;
        const SwitchAggStats& stats = cluster.switch_stats(SwitchId{s});
        ASK_SWITCH_AGG_STATS_FIELDS(ASK_EXPECT_COUNTER)
        const pisa::SwitchStats& ps = cluster.pisa_switch(SwitchId{s}).stats();
        EXPECT_GT(ps.passes, 0u) << infix;
        EXPECT_EQ(snap.counter("pisa." + infix + "packets_in"), ps.packets_in);
        EXPECT_EQ(snap.counter("pisa." + infix + "packets_out"),
                  ps.packets_out);
        EXPECT_EQ(snap.counter("pisa." + infix + "passes"), ps.passes);
        EXPECT_EQ(snap.counter("pisa." + infix + "dropped_offline"),
                  ps.dropped_offline);
    }
    const net::NetworkStats& ns = cluster.network().stats();
    EXPECT_GT(ns.packets_dropped, 0u);
    EXPECT_EQ(snap.counter("net.packets_sent"), ns.packets_sent);
    EXPECT_EQ(snap.counter("net.packets_delivered"), ns.packets_delivered);
    EXPECT_EQ(snap.counter("net.packets_dropped"), ns.packets_dropped);
    EXPECT_EQ(snap.counter("net.bytes_sent"), ns.bytes_sent);
}

#undef ASK_EXPECT_COUNTER

// ---------------------------------------------------------------------------
// Golden ask-bench/v1 report shape
// ---------------------------------------------------------------------------

TEST(BenchJson, GoldenSchema)
{
    std::string dir = ::testing::TempDir();
    ASSERT_EQ(::setenv("ASK_BENCH_OUT_DIR", dir.c_str(), 1), 0);

    {
        const char* argv[] = {"obs_test", "--smoke"};
        bench::BenchReport report("golden", "schema pin for ask-bench/v1",
                                  2, const_cast<char**>(argv));
        report.param("hosts", std::uint32_t{4});
        report.param("tuples", std::uint64_t{1200});
        report.row({{"series", "ask"}, {"x", 1}, {"goodput_gbps", 12.5}});
        report.row({{"series", "strawman"}, {"x", 1}, {"goodput_gbps", 3.25}});
        report.note("pinned by tests/obs_test.cc");

        obs::MetricsRegistry reg;
        reg.histogram("demo.latency_ns").observe(100);
        obs::MetricsSnapshot snap = reg.snapshot();
        snap.add_counter("demo.events", 3);
        report.metrics(snap.to_json());
        report.write();
    }
    ASSERT_EQ(::unsetenv("ASK_BENCH_OUT_DIR"), 0);

    std::ifstream in(dir + "/BENCH_golden.json");
    ASSERT_TRUE(in.good()) << "report not written to " << dir;
    std::ostringstream buf;
    buf << in.rdbuf();

    std::string error;
    std::optional<obs::Json> produced = obs::Json::parse(buf.str(), &error);
    ASSERT_TRUE(produced.has_value()) << error;

    // The golden document. Any change here is a schema break for every
    // consumer of BENCH_*.json and must bump "ask-bench/v1".
    const std::string golden_text = R"json({
      "schema": "ask-bench/v1",
      "experiment": "golden",
      "description": "schema pin for ask-bench/v1",
      "mode": "smoke",
      "params": {"hosts": 4, "tuples": 1200},
      "rows": [
        {"series": "ask", "x": 1, "goodput_gbps": 12.5},
        {"series": "strawman", "x": 1, "goodput_gbps": 3.25}
      ],
      "notes": ["pinned by tests/obs_test.cc"],
      "metrics": {
        "counters": {"demo.events": 3},
        "gauges": {},
        "histograms": {
          "demo.latency_ns": {"count": 1, "sum": 100, "min": 100,
                              "max": 100, "mean": 100.0, "p50": 100,
                              "p95": 100, "p99": 100}
        },
        "series": {}
      }
    })json";
    std::optional<obs::Json> golden = obs::Json::parse(golden_text, &error);
    ASSERT_TRUE(golden.has_value()) << error;

    // Comparing re-dumps pins both the values and the key order.
    EXPECT_EQ(produced->dump(2), golden->dump(2));
}

// ---------------------------------------------------------------------------
// Packet-lifecycle tracing
// ---------------------------------------------------------------------------

TEST(Trace, RingOverwritesOldestAndFiltersTasks)
{
    obs::PacketTracer tracer(/*capacity=*/8);
    tracer.record(0, /*task=*/1, /*channel=*/0, 0,
                  obs::TraceStage::kTx);  // disabled: not recorded
    EXPECT_EQ(tracer.size(), 0u);

    tracer.set_enabled(true);
    for (std::uint32_t seq = 0; seq < 12; ++seq)
        tracer.record(seq, /*task=*/1, /*channel=*/0, seq,
                      obs::TraceStage::kTx);
    tracer.record(99, /*task=*/2, /*channel=*/0, 99, obs::TraceStage::kTx);
    EXPECT_EQ(tracer.size(), 8u);
    std::vector<obs::TraceSpan> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 8u);
    EXPECT_EQ(spans.front().seq, 5u);  // oldest five overwritten
    EXPECT_EQ(spans.back().seq, 99u);

    // One task's spans: filter on their task field.
    std::vector<obs::TraceSpan> task1;
    std::copy_if(spans.begin(), spans.end(), std::back_inserter(task1),
                 [](const obs::TraceSpan& s) { return s.task == 1; });
    ASSERT_EQ(task1.size(), 7u);
    EXPECT_EQ(task1.front().seq, 5u);
    EXPECT_EQ(task1.back().seq, 11u);
}

ClusterConfig
trace_config()
{
    ClusterConfig cc;
    cc.topology = TopologyBuilder().add_rack(3).build();
    cc.ask.max_hosts = 3;
    cc.ask.num_aas = 8;
    cc.ask.aggregators_per_aa = 128;
    cc.ask.medium_groups = 2;
    cc.ask.window = 16;
    cc.ask.swap_threshold_packets = 0;
    return cc;
}

TEST(Trace, ChainReconstructionThroughLossAndReboot)
{
    ClusterConfig cc = trace_config();
    cc.seed = 31;
    Rng rng = seeded_rng("obs_test", 31);
    std::vector<StreamSpec> streams{{1, random_stream(rng, 800)},
                                    {2, random_stream(rng, 800)}};

    // Dry-run fault-free to learn the finish time, then aim a reboot at
    // the middle of a lossy run so the trace sees retransmits + replay.
    sim::SimTime undisturbed;
    {
        AskCluster dry(cc);
        TaskResult r = dry.run_task(7, 0, streams);
        ASSERT_TRUE(r.ok()) << r.report.detail;
        undisturbed = r.report.finish_time;
    }

    cc.faults = net::FaultSpec::lossy(0.15, 0.0, 0.0);
    AskCluster cluster(cc);
    sim::ChaosPlan plan;
    plan.switch_reboot(undisturbed / 2, 200 * kMicrosecond);
    cluster.arm_chaos(plan);
    cluster.tracer().set_enabled(true);  // the cluster runs only this task

    TaskResult r = cluster.run_task(7, 0, streams, {.region_len = 32});
    ASSERT_TRUE(r.ok()) << r.report.detail;

    std::vector<obs::TraceSpan> spans = cluster.tracer().spans();
    ASSERT_FALSE(spans.empty());

    bool saw_retransmit = false;
    bool saw_replay = false;
    for (const obs::TraceSpan& s : spans) {
        if (s.stage == obs::TraceStage::kTx &&
            (s.flags & obs::kTraceFlagRetransmit))
            saw_retransmit = true;
        if (s.flags & obs::kTraceFlagReplay)
            saw_replay = true;
    }
    EXPECT_TRUE(saw_retransmit) << "15% loss produced no retransmit span";
    EXPECT_TRUE(saw_replay) << "switch reboot produced no replay span";

    // Reconstruct the lifecycle of every packetized (channel, seq):
    // chains start at kPacketize, carry at least one transmission, stay
    // time-ordered, and never include task-level spans.
    std::size_t chains_checked = 0;
    for (const obs::TraceSpan& s : spans) {
        if (s.stage != obs::TraceStage::kPacketize)
            continue;
        std::vector<obs::TraceSpan> chain =
            cluster.tracer().chain(s.channel, s.seq);
        ASSERT_FALSE(chain.empty());
        EXPECT_EQ(chain.front().stage, obs::TraceStage::kPacketize);
        bool has_tx = false;
        for (std::size_t i = 0; i < chain.size(); ++i) {
            if (i > 0) {
                EXPECT_LE(chain[i - 1].t_ns, chain[i].t_ns);
            }
            EXPECT_NE(chain[i].stage, obs::TraceStage::kSubmit);
            EXPECT_NE(chain[i].stage, obs::TraceStage::kReplay);
            EXPECT_NE(chain[i].stage, obs::TraceStage::kFinalize);
            if (chain[i].stage == obs::TraceStage::kTx)
                has_tx = true;
        }
        EXPECT_TRUE(has_tx) << "chain for seq " << s.seq << " never hit kTx";
        ++chains_checked;
    }
    EXPECT_GT(chains_checked, 10u);
}

}  // namespace
}  // namespace ask::core
