/**
 * Microbenchmarks (google-benchmark) of the ASK hot paths: hashing,
 * packet encode/decode, receive-window operations, packet building,
 * the full switch-program pass, host-side aggregation, and the event
 * kernel, network send path, switch and daemon receive and write-ahead
 * log at their public boundaries.
 */
#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ask/cluster.h"
#include "ask/controller.h"
#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ask/packet_builder.h"
#include "ask/seen_window.h"
#include "ask/switch_program.h"
#include "ask/wal.h"
#include "ask/wire.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/string_util.h"
#include "net/network.h"
#include "pisa/pisa_switch.h"
#include "sim/simulator.h"
#include "workload/generators.h"
#include "workload/text_corpus.h"

namespace {

using namespace ask;

void
BM_Hash64(benchmark::State& state)
{
    std::string key = "benchmark-key-123";
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc ^= hash64(key, hash_seeds::kAggregatorAddress);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Hash64);

void
BM_HeaderRoundTrip(benchmark::State& state)
{
    core::AskHeader hdr;
    hdr.channel_id = 3;
    hdr.task_id = 9;
    hdr.seq = 1234;
    hdr.bitmap = 0xffffffff;
    for (auto _ : state) {
        auto frame = core::make_frame(hdr, 256);
        auto parsed = core::parse_header(frame);
        benchmark::DoNotOptimize(parsed);
    }
}
BENCHMARK(BM_HeaderRoundTrip);

void
BM_CompactSeenObserve(benchmark::State& state)
{
    core::CompactSeen seen(256);
    core::Seq s = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(seen.observe(s++));
}
BENCHMARK(BM_CompactSeenObserve);

void
BM_PacketBuilderDrain(benchmark::State& state)
{
    core::AskConfig cfg;
    cfg.medium_groups = 0;
    core::KeySpace ks(cfg);
    Rng rng = seeded_rng("micro_hotpaths", 1);
    core::KvStream stream;
    for (int i = 0; i < 4096; ++i)
        stream.push_back({u64_key(rng.next_below(100000)), 1});
    // Shared once, as the daemon shares a submitted stream.
    auto shared = std::make_shared<const core::KvStream>(std::move(stream));
    for (auto _ : state) {
        core::PacketBuilder builder(ks, shared);
        core::AskHeader hdr;
        std::uint64_t packets = 0;
        for (; !builder.empty(); ++packets)
            benchmark::DoNotOptimize(builder.next_frame(hdr, false));
        benchmark::DoNotOptimize(packets);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PacketBuilderDrain);

/** Enqueue and drain a 65,536-tuple hot-first Zipf stream (paper
 *  defaults, medium groups included): the hottest keys come first, so
 *  early packets carry few tuples and long slot queues build up. */
void
BM_PacketBuilderHotFirst(benchmark::State& state)
{
    core::AskConfig cfg;
    core::KeySpace ks(cfg);
    workload::ZipfGenerator zipf(1 << 16, 1.0, 9);
    auto shared = std::make_shared<const core::KvStream>(
        zipf.generate(65536, workload::KeyOrder::kHotFirst));
    for (auto _ : state) {
        core::PacketBuilder builder(ks, shared);
        core::AskHeader hdr;
        std::uint64_t packets = 0;
        for (; !builder.empty(); ++packets)
            benchmark::DoNotOptimize(builder.next_frame(hdr, false));
        benchmark::DoNotOptimize(packets);
    }
    state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_PacketBuilderHotFirst)->Unit(benchmark::kMicrosecond);

/** The all-short config of the switch benches: two hosts of one
 *  channel each. */
core::AskConfig
switch_bench_config()
{
    core::AskConfig cfg;
    cfg.medium_groups = 0;
    cfg.max_hosts = 2;
    cfg.channels_per_host = 1;
    return cfg;
}

/** A task-1 DATA frame on channel 0 whose slots hold the first packet
 *  built from `tuples` random short keys (drawn from 4096). */
std::vector<std::uint8_t>
bench_data_frame(const core::AskConfig& cfg, core::ReduceOp op,
                 int tuples, std::uint64_t seed)
{
    core::KeySpace ks(cfg);
    Rng rng = seeded_rng("micro_hotpaths", seed);
    auto stream = std::make_shared<core::KvStream>();
    for (int i = 0; i < tuples; ++i)
        stream->push_back({u64_key(rng.next_below(4096)), 1});
    core::PacketBuilder builder(ks, std::move(stream));
    core::AskHeader hdr;
    hdr.channel_id = 0;
    hdr.task_id = 1;
    hdr.op = op;
    return builder.next_frame(hdr, /*bypass=*/false);
}

/** Stamp `seq` into a frame built by bench_data_frame. */
void
set_frame_seq(std::vector<std::uint8_t>& frame, core::Seq seq)
{
    for (int i = 0; i < 4; ++i)
        frame[20 + 8 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
}

/** One full DATA packet pass through the ASK switch program, with the
 *  task region bound to `op`. */
void
switch_pass_bench(benchmark::State& state, core::ReduceOp op)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    pisa::PisaSwitch sw(network);
    core::AskConfig cfg = switch_bench_config();
    core::AskSwitchProgram program(cfg, sw, 0, cfg.max_channels());
    core::Wal wal("controller");
    core::AskSwitchController controller({&program}, wal);
    controller.allocate(1, 1024, op);
    auto frame = bench_data_frame(cfg, op, 32, 2);
    std::uint64_t bitmap = core::parse_header(frame)->bitmap;

    class NullEmitter : public pisa::Emitter
    {
      public:
        void emit(net::NodeId, net::Packet) override {}
    } emitter;

    core::Seq seq = 0;
    for (auto _ : state) {
        core::rewrite_bitmap(frame, bitmap);
        // Fresh seq each pass to stay on the aggregation path.
        set_frame_seq(frame, seq++);
        net::Packet pkt;
        pkt.data = frame;
        sw.pipeline().begin_pass();
        program.process(std::move(pkt), emitter);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}

/** The gated name: the sum pass, now through the generalized per-op
 *  dispatch. Compare against BM_AluCombine* below for the isolated
 *  dispatch cost. */
void
BM_SwitchPass(benchmark::State& state)
{
    switch_pass_bench(state, core::ReduceOp::kAdd);
}
BENCHMARK(BM_SwitchPass);

void
BM_SwitchPassMax(benchmark::State& state)
{
    switch_pass_bench(state, core::ReduceOp::kMax);
}
BENCHMARK(BM_SwitchPassMax);

/** A node that counts the bytes delivered to it. */
class SinkNode : public net::Node
{
  public:
    void receive(net::Packet pkt) override { bytes += pkt.data.size(); }
    std::string name() const override { return "sink"; }
    std::uint64_t bytes = 0;
};

/**
 * One full DATA frame through PisaSwitch::receive between two hosts:
 * the pass set-up, the switch program, and the ACK the switch emits
 * (scheduled; the queued egress events run, untimed, every 4096
 * frames).
 */
void
BM_SwitchReceive(benchmark::State& state)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    pisa::PisaSwitch sw(network);
    SinkNode sender;
    SinkNode receiver;
    network.attach(&sw);
    network.attach(&sender);
    network.attach(&receiver);
    network.connect(sw.node_id(), sender.node_id(), 100.0, 500);
    network.connect(sw.node_id(), receiver.node_id(), 100.0, 500);
    core::AskConfig cfg = switch_bench_config();
    core::AskSwitchProgram program(cfg, sw, 0, cfg.max_channels());
    core::Wal wal("controller");
    core::AskSwitchController controller({&program}, wal);
    controller.allocate(1, 1024, core::ReduceOp::kAdd);
    auto frame = bench_data_frame(cfg, core::ReduceOp::kAdd, 32, 2);

    core::Seq seq = 0;
    for (auto _ : state) {
        set_frame_seq(frame, seq);
        net::Packet pkt;
        pkt.src = sender.node_id();
        pkt.dst = receiver.node_id();
        pkt.data = frame;
        sw.receive(std::move(pkt));
        if (++seq % 4096 == 0) {
            state.PauseTiming();
            simulator.run();
            state.ResumeTiming();
        }
    }
    benchmark::DoNotOptimize(sender.bytes);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchReceive);

/**
 * One forwarded DATA frame (8 short-key tuples the switch left to the
 * host) through AskDaemon::receive and the events it schedules:
 * process_data (seen-window check, decode, the kRxData WAL record, host
 * aggregation) and the ACK it returns through the switch to the sender.
 * The receiver's WAL is cleared, untimed, every 4096 frames.
 */
void
BM_DaemonDataReceive(benchmark::State& state)
{
    core::ClusterConfig cc;
    cc.ask = switch_bench_config();
    core::AskCluster cluster(cc);
    core::AskDaemon& rx = cluster.daemon(1);
    rx.start_receive(
        1, 1, {.swap_policy = core::TaskOptions::SwapPolicy::kDisabled},
        nullptr, nullptr);
    cluster.run();
    auto frame = bench_data_frame(cc.ask, core::ReduceOp::kAdd, 8, 10);

    core::Seq seq = 0;
    for (auto _ : state) {
        set_frame_seq(frame, seq);
        net::Packet pkt;
        pkt.src = cluster.daemon(0).node_id();
        pkt.dst = rx.node_id();
        pkt.data = frame;
        rx.receive(std::move(pkt));
        cluster.run();
        if (++seq % 4096 == 0) {
            state.PauseTiming();
            cluster.wal_store().host_wal(1).clear();
            state.ResumeTiming();
        }
    }
    benchmark::DoNotOptimize(rx.stats().packets_received);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DaemonDataReceive);

/**
 * A/B for the cost the generalized reduction added to the switch merge:
 * the exact ALU combine the AA rmw lambda runs, hardwired `+` (the old
 * sum-only code) vs apply_op on a runtime ReduceOp (the new dispatch).
 * The per-value delta here, times 32 values, is the dispatch overhead
 * per BM_SwitchPass iteration: on a 4-core Xeon VM, 2.1 vs 0.8 ns per
 * value adds ~40 ns to a ~1 us pass, ~4% (numbers in EXPERIMENTS.md).
 */
void
BM_AluCombineFixedAdd(benchmark::State& state)
{
    Rng rng = seeded_rng("micro_hotpaths", 4);
    std::vector<core::Value> vals(4096);
    for (auto& v : vals)
        v = static_cast<core::Value>(rng.next_below(1u << 20));
    core::Value acc = 0;
    for (auto _ : state) {
        // Per-value DoNotOptimize on both sides of the A/B: the real
        // combine runs inside an AA rmw (load-modify-store), so neither
        // variant may vectorize or batch across values.
        for (core::Value v : vals) {
            acc += v;
            benchmark::DoNotOptimize(acc);
        }
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AluCombineFixedAdd);

void
BM_AluCombineDispatch(benchmark::State& state)
{
    Rng rng = seeded_rng("micro_hotpaths", 4);
    std::vector<core::Value> vals(4096);
    for (auto& v : vals)
        v = static_cast<core::Value>(rng.next_below(1u << 20));
    // Opaque to the optimizer, as region.op is to the switch program.
    core::ReduceOp op = core::ReduceOp::kAdd;
    benchmark::DoNotOptimize(op);
    core::Value acc = 0;
    for (auto _ : state) {
        for (core::Value v : vals) {
            acc = core::apply_op(op, acc, v);
            benchmark::DoNotOptimize(acc);
        }
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AluCombineDispatch);

void
BM_HostAggregate(benchmark::State& state)
{
    Rng rng = seeded_rng("micro_hotpaths", 3);
    core::KvStream stream;
    for (int i = 0; i < 4096; ++i)
        stream.push_back({u64_key(rng.next_below(1024)), 1});
    for (auto _ : state) {
        core::AggregateMap acc;
        core::aggregate_into(acc, stream, core::ReduceOp::kAdd);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HostAggregate);

void
BM_ZipfSample(benchmark::State& state)
{
    workload::ZipfGenerator z(1 << 16, 1.0, 4);
    for (auto _ : state)
        benchmark::DoNotOptimize(z.sample_rank());
}

BENCHMARK(BM_ZipfSample);

/** A yelp-profile corpus built each iteration: 400,000 spellings, made
 *  unique in rank order, and the sampler over their frequencies. */
void
BM_TextCorpusBuild(benchmark::State& state)
{
    for (auto _ : state) {
        workload::TextCorpus corpus(workload::yelp_profile(), 5);
        benchmark::DoNotOptimize(corpus.word(0));
    }
}
BENCHMARK(BM_TextCorpusBuild)->Unit(benchmark::kMillisecond);

/** A fabric of 8 racks of 2 hosts under a tier switch (nine switches
 *  of 32 AAs), built and destroyed each iteration: every iteration but
 *  the first builds a later cluster of the process. */
void
BM_ClusterBuild(benchmark::State& state)
{
    core::ClusterConfig cc;
    cc.topology = core::TopologyBuilder().racks(8, 2).build();
    cc.ask.max_hosts = cc.topology->num_hosts();
    cc.ask.medium_groups = 0;
    for (auto _ : state) {
        core::AskCluster cluster(cc);
        benchmark::DoNotOptimize(&cluster);
    }
}
BENCHMARK(BM_ClusterBuild)->Unit(benchmark::kMillisecond);

void
BM_LogHistogramObserve(benchmark::State& state)
{
    obs::LogHistogram h;
    std::uint64_t v = 1;
    for (auto _ : state) {
        h.observe(v);
        v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_LogHistogramObserve);

/** One enabled-path trace record (ring write). */
void
BM_TraceRecord(benchmark::State& state)
{
    obs::PacketTracer tracer;
    tracer.set_enabled(true);
    obs::PacketTracer* t = &tracer;
    std::int64_t now = 0;
    std::uint32_t seq = 0;
    for (auto _ : state) {
        ASK_TRACE(t, now++, 1, 0, seq++, obs::TraceStage::kTx, 1, 0);
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_TraceRecord);

/**
 * Event-kernel schedule + pop at a steady depth of `range(0)` live
 * events: each iteration schedules one event up to 1 us ahead and runs
 * the earliest. Each event carries a 56-byte capture, the size of the
 * Packet-carrying lambdas that Network::send, switch egress and
 * DataChannel::transmit schedule. 64 is near the shallow queues of
 * zipf_hotkey_swap and wordcount_lossy_tasks (44 and 111 pending at a
 * pop on average), 4096 near fabric8_uniform's deep one.
 */
void
BM_SimScheduleRun(benchmark::State& state)
{
    sim::Simulator s;
    Rng rng = seeded_rng("micro_hotpaths", 5);
    std::array<std::uint64_t, 6> payload{};
    std::uint64_t sum = 0;
    auto event = [&sum, payload] { sum += payload[0] + 1; };
    for (std::int64_t i = 0; i < state.range(0); ++i)
        s.schedule_after(static_cast<sim::SimTime>(rng.next_below(1000)), event);
    for (auto _ : state) {
        s.schedule_after(static_cast<sim::SimTime>(rng.next_below(1000)), event);
        s.step();
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimScheduleRun)->Arg(64)->Arg(4096);

/**
 * The retransmit-timer pattern with `range(0)` timers kept armed: each
 * iteration arms a timer and an ACK 1 us out, and the ACK cancels the
 * oldest armed timer long before it is due, as a sender's ACKs cancel
 * the timers of its packets in flight. Simulated time advances 1 us per
 * iteration and timers are armed (range(0) + 100) us out. 1 timer is one
 * packet in flight, 256 one channel's window, and 12288
 * fabric8_uniform's measured peak of live events.
 */
void
BM_SimArmCancel(benchmark::State& state)
{
    const auto armed = static_cast<std::size_t>(state.range(0));
    const sim::SimTime rto = (state.range(0) + 100) * units::kMicrosecond;
    sim::Simulator s;
    std::uint64_t acks = 0;
    auto timeout = [&acks] { --acks; };
    std::vector<sim::EventId> timers(armed);  // a ring, oldest first
    for (sim::EventId& timer : timers)
        timer = s.schedule_after(rto, timeout);
    std::size_t oldest = 0;
    for (auto _ : state) {
        sim::EventId acked =
            std::exchange(timers[oldest], s.schedule_after(rto, timeout));
        if (++oldest == armed)
            oldest = 0;
        s.schedule_after(units::kMicrosecond, [&s, &acks, acked] {
            s.cancel(acked);
            ++acks;
        });
        s.step();
    }
    benchmark::DoNotOptimize(acks);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimArmCancel)->Arg(1)->Arg(256)->Arg(12288);

/**
 * Network::send from a 16-port switch to one of its hosts, plus running
 * the delivery event: edge lookup, fault draw, link serialization, one
 * scheduled event carrying the Packet, and the receive call. The frame
 * copy mirrors DataChannel::transmit keeping its retransmission copy.
 */
void
BM_NetworkSend(benchmark::State& state)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    SinkNode hub;
    std::array<SinkNode, 16> hosts;
    network.attach(&hub);
    for (SinkNode& host : hosts) {
        network.attach(&host);
        network.connect(hub.node_id(), host.node_id(), 100.0, 500);
    }
    std::vector<std::uint8_t> frame(296);
    std::uint32_t next = 0;
    for (auto _ : state) {
        net::Packet pkt;
        pkt.data = frame;
        network.send(hub.node_id(), hosts[next++ % hosts.size()].node_id(),
                     std::move(pkt));
        simulator.step();
    }
    benchmark::DoNotOptimize(hosts[0].bytes);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSend);

/** `n` tuples with 8-byte keys, as a receiver decodes them from short
 *  DATA slots or a sender submits them. */
core::KvStream
wal_tuples(std::size_t n, std::uint64_t seed)
{
    Rng rng = seeded_rng("micro_hotpaths", seed);
    core::KvStream tuples(n);
    for (core::KvTuple& t : tuples) {
        t.key = u64_key(rng.next_below(1u << 20));
        t.value = static_cast<core::Value>(1 + rng.next_below(100));
    }
    return tuples;
}

/** A kRxData record for `seq` journaling `tuples`. */
core::WalRecord
rx_data_record(core::Seq seq, core::KvStream tuples)
{
    core::WalRecord r;
    r.kind = core::WalRecordKind::kRxData;
    r.task = 1;
    r.channel = 3;
    r.seq = seq;
    r.tuples = std::move(tuples);
    return r;
}

/** Set the `bytes_per_tuple` counter: the log bytes one append of
 *  `record` takes, frame header included, per journaled tuple. */
void
count_bytes_per_tuple(benchmark::State& state, const core::WalRecord& record)
{
    core::Wal wal("sized");
    wal.append(record);
    state.counters["bytes_per_tuple"] =
        static_cast<double>(wal.size_bytes()) /
        static_cast<double>(record.tuples.size());
}

/**
 * Wal::append of the receiver's per-packet journal record: a kRxData
 * carrying the 8 tuples of one residual DATA packet, which the daemon
 * decodes straight into the record. The log is cleared, untimed, every
 * 4096 records.
 */
void
BM_WalAppendData(benchmark::State& state)
{
    core::WalRecord r = rx_data_record(0, wal_tuples(8, 6));
    core::Wal wal("bench");
    for (auto _ : state) {
        wal.append(r);
        if (++r.seq % 4096 == 0) {
            state.PauseTiming();
            wal.clear();
            state.ResumeTiming();
        }
    }
    benchmark::DoNotOptimize(wal.digest());
    state.SetItemsProcessed(state.iterations());
    r.seq = 0;
    count_bytes_per_tuple(state, r);
}
BENCHMARK(BM_WalAppendData);

/** Wal::append of a sender's kSendSubmit journaling a 65,536-tuple
 *  stream (the log is cleared, untimed, after each record). */
void
BM_WalAppendSubmit(benchmark::State& state)
{
    core::WalRecord r;
    r.kind = core::WalRecordKind::kSendSubmit;
    r.task = 1;
    r.arg0 = 2;
    r.tuples = wal_tuples(65536, 7);
    core::Wal wal("bench");
    for (auto _ : state) {
        wal.append(r);
        state.PauseTiming();
        wal.clear();
        state.ResumeTiming();
    }
    benchmark::DoNotOptimize(wal.digest());
    state.SetItemsProcessed(state.iterations() * 65536);
    count_bytes_per_tuple(state, r);
}
BENCHMARK(BM_WalAppendSubmit)->Unit(benchmark::kMicrosecond);

/** The WAL frame payload hash over `range(0)` bytes: 64 B is a small
 *  control record, 1 MiB a slice of a large submit. */
void
BM_WalPayloadHash(benchmark::State& state)
{
    Rng rng = seeded_rng("micro_hotpaths", 11);
    std::string payload(static_cast<std::size_t>(state.range(0)), '\0');
    for (char& c : payload)
        c = static_cast<char>(rng.next_below(256));
    for (auto _ : state)
        benchmark::DoNotOptimize(core::wal_payload_hash(payload));
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WalPayloadHash)->Arg(64)->Arg(1 << 20);

/**
 * One receive task's journal, start to finish: kRxTaskStart, 64
 * 8-tuple kRxData records, a kRxFin and the kRxTaskDone that retires
 * them all — appends plus the compaction the done record triggers. The
 * task id is reused every cycle; the log is cleared, untimed, every 64
 * cycles.
 */
void
BM_WalTaskCycle(benchmark::State& state)
{
    core::WalRecord start;
    start.kind = core::WalRecordKind::kRxTaskStart;
    start.task = 1;
    start.arg0 = 2;
    core::WalRecord data = rx_data_record(0, wal_tuples(8, 8));
    core::WalRecord fin;
    fin.kind = core::WalRecordKind::kRxFin;
    fin.task = 1;
    fin.channel = 3;
    core::WalRecord done;
    done.kind = core::WalRecordKind::kRxTaskDone;
    done.task = 1;
    core::Wal wal("bench");
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        wal.append(start);
        for (data.seq = 0; data.seq < 64; ++data.seq)
            wal.append(data);
        wal.append(fin);
        wal.append(done);
        if (++cycles % 64 == 0) {
            state.PauseTiming();
            wal.clear();
            state.ResumeTiming();
        }
    }
    benchmark::DoNotOptimize(wal.digest());
    state.SetItemsProcessed(state.iterations() * 67);
}
BENCHMARK(BM_WalTaskCycle);

/**
 * Hands every call to the display reporter that --benchmark_format and
 * --benchmark_color ask for, and captures each run into the JSON report.
 */
class CaptureReporter : public benchmark::BenchmarkReporter
{
  public:
    CaptureReporter(benchmark::BenchmarkReporter& display,
                    bench::BenchReport& report)
        : display_(display), report_(report)
    {
    }

    bool ReportContext(const Context& context) override
    {
        return display_.ReportContext(context);
    }

    void ReportRuns(const std::vector<Run>& runs) override
    {
        for (const Run& run : runs) {
            if (run.error_occurred || run.run_type != Run::RT_Iteration)
                continue;
            obs::Json row = obs::Json::object();
            row.set("benchmark", run.benchmark_name());
            row.set("real_time_per_iter", run.GetAdjustedRealTime());
            row.set("cpu_time_per_iter", run.GetAdjustedCPUTime());
            row.set("time_unit",
                    benchmark::GetTimeUnitString(run.time_unit));
            row.set("iterations",
                    static_cast<std::uint64_t>(run.iterations));
            for (const auto& [name, counter] : run.counters)
                row.set(name, counter.value);
            report_.row_json(std::move(row));
        }
        display_.ReportRuns(runs);
    }

    void Finalize() override { display_.Finalize(); }

  private:
    benchmark::BenchmarkReporter& display_;
    bench::BenchReport& report_;
};

}  // namespace

int
main(int argc, char** argv)
{
    ask::bench::BenchReport report(
        "micro_hotpaths", "hot-path microbenchmarks (google-benchmark)", argc,
        argv);

    // google-benchmark rejects flags it does not know: scrub --smoke and
    // --full from argv before Initialize, and in smoke mode cap the
    // per-benchmark measuring time so the whole binary runs in seconds.
    std::vector<char*> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") != 0 &&
            std::strcmp(argv[i], "--full") != 0)
            args.push_back(argv[i]);
    }
    std::string min_time = "--benchmark_min_time=0.01";
    if (report.smoke())
        args.push_back(min_time.data());
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());

    std::unique_ptr<benchmark::BenchmarkReporter> display(
        benchmark::CreateDefaultDisplayReporter());
    CaptureReporter reporter(*display, report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    // Keep a JSON or CSV table on stdout parseable.
    bool console =
        dynamic_cast<benchmark::ConsoleReporter*>(display.get()) != nullptr;
    report.write(console ? std::cout : std::cerr);
    return 0;
}
