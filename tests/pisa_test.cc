/** Unit tests for the PISA switch substrate and its enforced limits. */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "ask/switch_program.h"
#include "common/logging.h"
#include "net/network.h"
#include "pisa/pipeline.h"
#include "pisa/pisa_switch.h"
#include "sim/simulator.h"

namespace ask::pisa {
namespace {

/** Run `body`, expecting an install-time ask::ConfigError whose message
 *  contains `needle`. Install-time rejects are catchable (unlike the
 *  runtime pass-discipline panics below) so callers can probe a
 *  configuration without dying. */
template <typename Body>
void
expect_config_error(Body&& body, const std::string& needle)
{
    try {
        body();
        FAIL() << "expected ConfigError containing '" << needle << "'";
    } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "ConfigError message lacks '" << needle << "': " << e.what();
    }
}

TEST(RegisterArray, RmwReadsAndWrites)
{
    Pipeline p(2, 1024);
    RegisterArray* a = p.stage(0)->add_register_array("a", 8, 32);
    p.begin_pass();
    std::uint64_t out = a->rmw(3, [](std::uint64_t& v) { v = 42; });
    EXPECT_EQ(out, 42u);
    EXPECT_EQ(a->cp_read(3), 42u);
    EXPECT_EQ(a->cp_read(0), 0u);
}

TEST(RegisterArray, OneAccessPerPassEnforced)
{
    Pipeline p(2, 1024);
    RegisterArray* a = p.stage(0)->add_register_array("a", 8, 32);
    p.begin_pass();
    a->rmw(0, [](std::uint64_t&) {});
    EXPECT_DEATH(a->rmw(1, [](std::uint64_t&) {}),
                 "accessed twice in one pipeline pass");
}

TEST(RegisterArray, NewPassAllowsAccessAgain)
{
    Pipeline p(2, 1024);
    RegisterArray* a = p.stage(0)->add_register_array("a", 8, 32);
    p.begin_pass();
    a->rmw(0, [](std::uint64_t& v) { v = 1; });
    p.begin_pass();
    a->rmw(0, [](std::uint64_t& v) { v += 1; });
    EXPECT_EQ(a->cp_read(0), 2u);
    EXPECT_EQ(a->access_count(), 2u);
}

TEST(RegisterArray, BackwardsStageAccessPanics)
{
    Pipeline p(3, 1024);
    RegisterArray* early = p.stage(0)->add_register_array("early", 4, 32);
    RegisterArray* late = p.stage(2)->add_register_array("late", 4, 32);
    p.begin_pass();
    late->rmw(0, [](std::uint64_t&) {});
    EXPECT_DEATH(early->rmw(0, [](std::uint64_t&) {}), "went backwards");
}

TEST(RegisterArray, SameStageTwoArraysOk)
{
    Pipeline p(1, 1024);
    RegisterArray* a = p.stage(0)->add_register_array("a", 4, 32);
    RegisterArray* b = p.stage(0)->add_register_array("b", 4, 32);
    p.begin_pass();
    a->rmw(0, [](std::uint64_t&) {});
    b->rmw(0, [](std::uint64_t&) {});  // parallel arrays: legal
    SUCCEED();
}

TEST(RegisterArray, WidthOverflowPanics)
{
    Pipeline p(1, 1024);
    RegisterArray* a = p.stage(0)->add_register_array("a", 4, 8);
    p.begin_pass();
    EXPECT_DEATH(a->rmw(0, [](std::uint64_t& v) { v = 256; }), "overflows");
}

TEST(RegisterArray, CpWriteChecksWidth)
{
    Pipeline p(1, 1024);
    RegisterArray* a = p.stage(0)->add_register_array("a", 4, 4);
    a->cp_write(0, 15);
    EXPECT_EQ(a->cp_read(0), 15u);
    EXPECT_DEATH(a->cp_write(0, 16), "overflows");
}

TEST(RegisterArray, CpClearRegion)
{
    Pipeline p(1, 1024);
    RegisterArray* a = p.stage(0)->add_register_array("a", 8, 32);
    for (std::size_t i = 0; i < 8; ++i)
        a->cp_write(i, i + 1);
    a->cp_clear(2, 3);
    EXPECT_EQ(a->cp_read(1), 2u);
    EXPECT_EQ(a->cp_read(2), 0u);
    EXPECT_EQ(a->cp_read(4), 0u);
    EXPECT_EQ(a->cp_read(5), 6u);

    // Across page-sized blocks, written and never written: a value in
    // every 100th register of 2000, cleared from 150 up to 1450.
    Pipeline big(1, 1 << 16);
    RegisterArray* b = big.stage(0)->add_register_array("b", 2000, 32);
    for (std::size_t i = 0; i < 2000; i += 100)
        b->cp_write(i, i + 1);
    b->cp_clear(150, 1300);
    for (std::size_t i = 0; i < 2000; i += 100)
        EXPECT_EQ(b->cp_read(i), i >= 150 && i < 1450 ? 0u : i + 1) << i;
}

TEST(RegisterArray, ScanVisitsTheNonzeroRegistersInOrder)
{
    // Six blocks of 512 registers, the last one partial: values at block
    // edges, a block cleared back to zero, a register written and then
    // zeroed, a block never written, and one data-plane write.
    constexpr std::size_t kEntries = 2600;
    Pipeline p(1, 1 << 16);
    RegisterArray* a = p.stage(0)->add_register_array("a", kEntries, 32);
    for (std::size_t i : {0, 511, 512, 700, 1023, 1100, 1535, 2559, 2599})
        a->cp_write(i, i + 1);
    a->cp_clear(1024, 512);
    a->cp_write(700, 0);
    p.begin_pass();
    a->rmw(2048, [](std::uint64_t& v) { v = 9; });

    const std::size_t edges[] = {0,    1,    511,  512,  513,  1023, 1024,
                                 1535, 1536, 2047, 2048, 2559, 2560, 2599,
                                 2600};
    for (std::size_t first : edges) {
        for (std::size_t end : edges) {
            if (end < first)
                continue;
            std::vector<std::pair<std::size_t, std::uint64_t>> want, got;
            for (std::size_t i = first; i < end; ++i) {
                if (a->cp_read(i) != 0)
                    want.emplace_back(i, a->cp_read(i));
            }
            a->cp_scan(first, end - first,
                       [&](std::size_t i, std::uint64_t v) {
                           got.emplace_back(i, v);
                       });
            EXPECT_EQ(got, want) << "[" << first << ", " << end << ")";
        }
    }
    std::size_t visited = 0;
    a->cp_scan(0, kEntries, [&](std::size_t, std::uint64_t) { ++visited; });
    EXPECT_EQ(visited, 7u);  // 0, 511, 512, 1023, 2048, 2559 and 2599
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/** This process's anonymous resident set (resident minus file-backed
 *  pages), from /proc/self/statm: code faulting in, 64 KiB at a time,
 *  does not count. */
std::size_t
resident_bytes()
{
    std::ifstream statm("/proc/self/statm");
    std::size_t pages = 0, resident = 0, file = 0;
    statm >> pages >> resident >> file;
    return (resident - file) * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(RegisterArray, UntouchedRegistersCostNoHostMemory)
{
    if (kSanitized)
        GTEST_SKIP() << "sanitizer runtimes touch memory on their own terms";
    // 8M 64-bit registers (64 MB, above glibc's largest mmap threshold):
    // reads, one write and a full clear must leave almost all of it
    // unmaterialized.
    constexpr std::size_t kEntries = std::size_t{8} << 20;
    constexpr std::size_t kBound = std::size_t{4} << 20;
    std::size_t before = resident_bytes();
    Pipeline p(1, kEntries * sizeof(std::uint64_t));
    RegisterArray* a = p.stage(0)->add_register_array("big", kEntries, 64);
    EXPECT_LT(resident_bytes(), before + kBound) << "after construction";

    std::uint64_t any = 0;
    for (std::size_t i = 0; i < kEntries; ++i)
        any |= a->cp_read(i);
    EXPECT_EQ(any, 0u);
    EXPECT_LT(resident_bytes(), before + kBound) << "after reading it all";

    p.begin_pass();
    a->rmw(kEntries / 2, [](std::uint64_t& v) { v = 7; });
    EXPECT_EQ(a->cp_read(kEntries / 2), 7u);
    EXPECT_LT(resident_bytes(), before + kBound) << "after one rmw";

    a->cp_clear(0, kEntries);
    EXPECT_EQ(a->cp_read(kEntries / 2), 0u);
    EXPECT_LT(resident_bytes(), before + kBound) << "after a full clear";
}

TEST(RegisterArray, LaterArraysStartOnUntouchedZeroPages)
{
    if (kSanitized)
        GTEST_SKIP() << "sanitizer runtimes touch memory on their own terms";
    // A process builds cluster after cluster. Once a block above
    // glibc's mmap threshold is freed, glibc raises the threshold to the
    // block's size and serves smaller blocks from the heap, where calloc
    // clears a reused chunk by hand. A switch array built after another
    // was destroyed must still read zero and cost host memory only where
    // written.
    constexpr std::size_t kEntries = 32768;  // 256 KiB: one paper-sized AA
    constexpr std::size_t kBound = 64 << 10;
    {
        Pipeline first(1, 4 * kEntries * sizeof(std::uint64_t));
        first.stage(0)->add_register_array("first", 4 * kEntries, 64);
    }
    // A free, never-touched heap block larger than the array: where a
    // heap allocator places it and calloc would clear it.
    void* volatile spare = std::malloc(2 * kEntries * sizeof(std::uint64_t));
    std::free(spare);

    std::size_t before = resident_bytes();
    Pipeline p(1, kEntries * sizeof(std::uint64_t));
    RegisterArray* a = p.stage(0)->add_register_array("later", kEntries, 64);
    EXPECT_LT(resident_bytes(), before + kBound) << "after construction";

    std::uint64_t any = 0;
    for (std::size_t i = 0; i < kEntries; ++i)
        any |= a->cp_read(i);
    EXPECT_EQ(any, 0u);

    // One write maps one page (registers 4,608 to 5,119), whose other
    // registers read zero.
    a->cp_write(5000, 7);
    for (std::size_t i = 4608; i < 5120; ++i)
        EXPECT_EQ(a->cp_read(i), i == 5000 ? 7u : 0u) << i;
    EXPECT_LT(resident_bytes(), before + kBound) << "after one write";
}

TEST(RegisterArray, SramFootprint)
{
    Pipeline p(1, 1 << 20);
    // Bit arrays are bit-packed: 1024 one-bit entries = 128 bytes.
    EXPECT_EQ(p.stage(0)->add_register_array("bits", 1024, 1)->sram_bytes(),
              128u);
    EXPECT_EQ(p.stage(0)->add_register_array("words", 100, 64)->sram_bytes(),
              800u);
}

TEST(Stage, MaxFourRegisterArrays)
{
    Pipeline p(1, 1 << 20);
    for (int i = 0; i < 4; ++i)
        p.stage(0)->add_register_array("a" + std::to_string(i), 4, 32);
    expect_config_error(
        [&] { p.stage(0)->add_register_array("a4", 4, 32); },
        "register arrays");
}

TEST(Stage, SramBudgetEnforced)
{
    Pipeline p(1, 1024);
    p.stage(0)->add_register_array("big", 128, 64);  // 1024 bytes: fits
    expect_config_error(
        [&] { p.stage(0)->add_register_array("more", 1, 64); },
        "SRAM exhausted");
}

TEST(Pipeline, FindArrayByName)
{
    Pipeline p(4, 1024);
    RegisterArray* a = p.stage(2)->add_register_array("needle", 4, 32);
    EXPECT_EQ(p.find_array("needle"), a);
    EXPECT_EQ(p.find_array("missing"), nullptr);
}

TEST(Pipeline, SramTotals)
{
    Pipeline p(2, 1000);
    p.stage(0)->add_register_array("a", 10, 64);  // 80 B
    p.stage(1)->add_register_array("b", 5, 64);   // 40 B
    EXPECT_EQ(p.sram_used_bytes(), 120u);
    EXPECT_EQ(p.sram_budget_bytes(), 2000u);
}

/** A trivial program that reflects every packet back to its source. */
class ReflectProgram : public SwitchProgram
{
  public:
    void
    process(net::Packet pkt, Emitter& emit) override
    {
        net::NodeId back = pkt.src;
        emit.emit(back, std::move(pkt));
    }
    std::string name() const override { return "reflect"; }
};

/** Collects delivered packets. */
class SinkNode : public net::Node
{
  public:
    void receive(net::Packet pkt) override { received.push_back(std::move(pkt)); }
    std::string name() const override { return "sink"; }
    std::vector<net::Packet> received;
};

TEST(PisaSwitch, RunsProgramAndEmits)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    PisaSwitch sw(network, 4, 1 << 20, /*latency=*/100);
    SinkNode host;
    network.attach(&sw);
    network.attach(&host);
    network.connect(sw.node_id(), host.node_id(), 100.0, 50);

    ReflectProgram prog;
    sw.install(&prog);

    net::Packet pkt;
    pkt.src = host.node_id();
    pkt.dst = host.node_id();
    pkt.data.resize(100);
    network.send(host.node_id(), sw.node_id(), std::move(pkt));
    simulator.run();

    ASSERT_EQ(host.received.size(), 1u);
    EXPECT_EQ(sw.stats().packets_in, 1u);
    EXPECT_EQ(sw.stats().packets_out, 1u);
    // Latency: serialize (138B @100G = 11ns) + prop 50 + pipeline 100 +
    // serialize + prop again.
    EXPECT_GT(simulator.now(), 200);
}

TEST(PisaSwitch, NoProgramPanics)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    PisaSwitch sw(network, 4, 1 << 20);
    network.attach(&sw);
    EXPECT_DEATH(sw.receive(net::Packet{}), "no program");
}

// ---------------------------------------------------------------------------
// Illegal ASK programs must be rejected at install time
// ---------------------------------------------------------------------------
//
// The hardware-feasibility rules the PISA substrate enforces (one
// access per register array per pass, at most four arrays per stage,
// per-stage SRAM budgets) exist so that any AskSwitchProgram that
// *constructs* is one a real pipeline could run. These tests pin the
// reject paths for programs that break the rules: construction throws
// ask::ConfigError (catchable) before any pipeline state is touched.

core::AskConfig
small_ask_config()
{
    core::AskConfig ask;
    ask.num_aas = 8;
    ask.aggregators_per_aa = 128;
    ask.medium_groups = 2;
    ask.window = 16;
    ask.max_hosts = 4;
    return ask;
}

TEST(AskProgramLimits, TooFewStagesRejected)
{
    // 8 AAs need 2 (seq/seen) + 2 (AAs, four per stage) + 1 (pkt_state)
    // = 5 stages; a 4-stage pipeline cannot host the program.
    sim::Simulator simulator;
    net::Network network(simulator);
    PisaSwitch sw(network, /*num_stages=*/4, 1 << 20);
    network.attach(&sw);
    core::AskConfig ask = small_ask_config();
    expect_config_error(
        [&] { core::AskSwitchProgram program(ask, sw, 0, ask.max_channels()); },
        "stages");
    // The verifier rejected before declaring anything: the pipeline is
    // untouched and usable for another attempt.
    for (std::size_t s = 0; s < sw.pipeline().num_stages(); ++s)
        EXPECT_EQ(sw.pipeline().stage(s)->array_count(), 0u);
}

TEST(AskProgramLimits, SramOverflowRejected)
{
    // Aggregator arrays of 2^20 64-bit entries (8 MiB per AA) blow the
    // default 1.25 MiB stage budget.
    sim::Simulator simulator;
    net::Network network(simulator);
    PisaSwitch sw(network, kDefaultStagesPerPipeline,
                  kDefaultStageSramBytes);
    network.attach(&sw);
    core::AskConfig ask = small_ask_config();
    ask.aggregators_per_aa = 1 << 20;
    expect_config_error(
        [&] { core::AskSwitchProgram program(ask, sw, 0, ask.max_channels()); },
        "SRAM exhausted");
    for (std::size_t s = 0; s < sw.pipeline().num_stages(); ++s)
        EXPECT_EQ(sw.pipeline().stage(s)->array_count(), 0u);
}

TEST(AskProgramLimits, FourArraysPerStageRespected)
{
    // A legal program never places a fifth array on one stage: the
    // widest config (64 AAs) still packs exactly four per stage. Pin
    // the placement arithmetic by building the largest config that
    // fits the default pipeline and counting arrays per stage.
    sim::Simulator simulator;
    net::Network network(simulator);
    PisaSwitch sw(network, kDefaultStagesPerPipeline, 1 << 22);
    network.attach(&sw);
    core::AskConfig ask = small_ask_config();
    ask.num_aas = 32;
    ask.medium_groups = 8;
    core::AskSwitchProgram program(ask, sw, 0, ask.max_channels());
    for (std::size_t s = 0; s < sw.pipeline().num_stages(); ++s)
        EXPECT_LE(sw.pipeline().stage(s)->array_count(), 4u)
            << "stage " << s;
}

TEST(AskProgramLimits, IllegalConfigRejected)
{
    // AskConfig::validate() throws before any switch resources are
    // touched: medium groups exceeding the AA count is a user error.
    sim::Simulator simulator;
    net::Network network(simulator);
    PisaSwitch sw(network, kDefaultStagesPerPipeline, 1 << 20);
    network.attach(&sw);
    core::AskConfig ask = small_ask_config();
    ask.num_aas = 4;
    ask.medium_groups = 3;  // 3*2 medium AAs > 4 total
    expect_config_error(
        [&] { core::AskSwitchProgram program(ask, sw, 0, ask.max_channels()); },
        "exceed");
}

}  // namespace
}  // namespace ask::pisa
