/**
 * Tests of the control plane's fan-out: one AskSwitchController over
 * two AskSwitchPrograms on two PisaSwitches — a rack ToR provisioning
 * channels [0, 4) and a tier switch provisioning [0, 8). The
 * controller journals each region once and installs it on both; the
 * data planes are driven apart the way they can be in a deployment
 * (registers written on one switch only, one switch rebooted), so
 * every rule is exercised where the per-switch answers differ.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ask/controller.h"
#include "ask/packet_builder.h"
#include "ask/switch_program.h"
#include "ask/wal.h"
#include "ask/wire.h"
#include "net/network.h"
#include "pisa/pisa_switch.h"
#include "sim/simulator.h"

namespace ask::core {
namespace {

class SinkNode : public net::Node
{
  public:
    void receive(net::Packet) override {}
    std::string name() const override { return "sink"; }
};

AskConfig
test_config()
{
    AskConfig c;
    c.num_aas = 8;
    c.aggregators_per_aa = 64;  // 32 per shadow copy
    c.medium_groups = 2;
    c.medium_segments = 2;
    c.window = 8;
    c.max_hosts = 4;
    c.channels_per_host = 2;
    c.max_tasks = 4;
    c.swap_threshold_packets = 0;
    return c;
}

constexpr SwitchId kTor{0};
constexpr SwitchId kTier{1};

class ControllerFanOutTest : public ::testing::Test
{
  protected:
    ControllerFanOutTest()
        : network_(simulator_),
          tor_(network_, 16, pisa::kDefaultStageSramBytes),
          tier_(network_, 16, pisa::kDefaultStageSramBytes),
          config_(test_config()),
          tor_program_(config_, tor_, 0, 4),
          tier_program_(config_, tier_, 0, 8),
          controller_({&tor_program_, &tier_program_}, wal_)
    {
        network_.attach(&tor_);
        network_.attach(&tier_);
        network_.attach(&sender_);
        network_.connect(sender_.node_id(), tor_.node_id(), 100.0, 10);
        network_.connect(sender_.node_id(), tier_.node_id(), 100.0, 10);
        wal_.set_append_counter(&appends_);
    }

    AskSwitchProgram& program(SwitchId s)
    {
        return s == kTor ? tor_program_ : tier_program_;
    }
    pisa::PisaSwitch& pisa_switch(SwitchId s)
    {
        return s == kTor ? tor_ : tier_;
    }

    /** Leave (channel, seq) observed on switch `s` with `remaining`
     *  unconsumed slots: the registers a DATA pass writes (compact seen
     *  window, first segment). */
    void mark_observed(SwitchId s, ChannelId channel, Seq seq,
                       std::uint64_t remaining)
    {
        std::size_t idx =
            (channel - program(s).provisioned_lo()) * config_.window +
            seq % config_.window;
        pisa::Pipeline& pipe = pisa_switch(s).pipeline();
        pipe.find_array("seen")->cp_write(idx, 1);
        pipe.find_array("pkt_state")->cp_write(idx, remaining);
    }

    /** Stream `tuples` as DATA frames on `channel` into switch `s`. */
    void aggregate_on(SwitchId s, TaskId task, ChannelId channel,
                      const KvStream& tuples)
    {
        KeySpace key_space(config_);
        PacketBuilder builder(key_space);
        for (const KvTuple& t : tuples)
            builder.enqueue(t);
        Seq seq = 0;
        while (std::optional<BuiltData> built = builder.next_data()) {
            AskHeader hdr;
            hdr.type = PacketType::kData;
            hdr.num_slots = static_cast<std::uint8_t>(config_.num_aas);
            hdr.channel_id = channel;
            hdr.task_id = task;
            hdr.seq = seq++;
            hdr.bitmap = built->bitmap;
            net::Packet pkt;
            pkt.src = sender_.node_id();
            pkt.dst = sender_.node_id();
            pkt.data = make_frame(hdr, config_.payload_bytes());
            write_slots(pkt.data, built->bitmap, config_.num_aas,
                        built->slots.data());
            network_.send(sender_.node_id(), pisa_switch(s).node_id(),
                          std::move(pkt));
        }
        simulator_.run();
    }

    sim::Simulator simulator_;
    net::Network network_;
    pisa::PisaSwitch tor_;
    pisa::PisaSwitch tier_;
    SinkNode sender_;
    AskConfig config_;
    AskSwitchProgram tor_program_;
    AskSwitchProgram tier_program_;
    Wal wal_{"controller"};
    std::uint64_t appends_ = 0;
    AskSwitchController controller_;
};

TEST_F(ControllerFanOutTest, OneJournalRecordPerRegionChange)
{
    std::optional<TaskRegion> r1 = controller_.allocate(1, 8);
    ASSERT_TRUE(r1.has_value());
    EXPECT_EQ(appends_, 1u);
    EXPECT_EQ(wal_.records(), 1u);
    // The one journaled region is installed on both switches.
    for (const AskSwitchProgram* p : {&tor_program_, &tier_program_}) {
        const TaskRegion* got = p->find_task(1);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->base, r1->base);
        EXPECT_EQ(got->len, r1->len);
        EXPECT_EQ(got->epoch_slot, r1->epoch_slot);
    }

    ASSERT_TRUE(controller_.allocate(2, 8).has_value());
    EXPECT_EQ(appends_, 2u);
    controller_.release(1);
    EXPECT_EQ(appends_, 3u);
    EXPECT_EQ(tor_program_.find_task(1), nullptr);
    EXPECT_EQ(tier_program_.find_task(1), nullptr);
    EXPECT_TRUE(controller_.installed(2));
    EXPECT_EQ(controller_.free_aggregators(), config_.copy_size() - 8);

    // An allocation that does not fit journals nothing.
    EXPECT_FALSE(controller_.allocate(3, config_.copy_size()).has_value());
    EXPECT_EQ(appends_, 3u);
}

TEST_F(ControllerFanOutTest, ReleaseOfAnUnknownOrReleasedTaskChangesNothing)
{
    ASSERT_TRUE(controller_.allocate(1, 8).has_value());
    ASSERT_TRUE(controller_.allocate(2, 8).has_value());
    controller_.release(1);
    const std::uint64_t appends = appends_;
    const std::uint64_t records = wal_.records();
    const std::uint32_t free = controller_.free_aggregators();

    EXPECT_THROW(controller_.release(1), StateError);  // twice
    EXPECT_THROW(controller_.release(9), StateError);  // never allocated
    EXPECT_EQ(appends_, appends);
    EXPECT_EQ(wal_.records(), records);
    EXPECT_EQ(controller_.free_aggregators(), free);
    EXPECT_TRUE(controller_.installed(2));

    // The journal the log rebuilds is the one the controller kept.
    controller_.crash();
    EXPECT_EQ(controller_.recover_from_wal(), 1u);
    EXPECT_EQ(controller_.free_aggregators(), free);
}

TEST_F(ControllerFanOutTest, ToRRebootAndControllerCrashReinstallOnTheToRAlone)
{
    std::optional<TaskRegion> region = controller_.allocate(1, 8);
    ASSERT_TRUE(region.has_value());
    const TaskRegion* on_tier = tier_program_.find_task(1);
    ASSERT_NE(on_tier, nullptr);

    tor_program_.on_reboot();
    controller_.crash();
    // The journal holds one region, whichever switches lost it.
    EXPECT_EQ(controller_.recover_from_wal(), 1u);
    EXPECT_EQ(appends_, 1u);  // recovery journals nothing
    const TaskRegion* on_tor = tor_program_.find_task(1);
    ASSERT_NE(on_tor, nullptr);
    EXPECT_EQ(on_tor->base, region->base);
    EXPECT_EQ(on_tor->epoch_slot, region->epoch_slot);
    // The tier kept its binding; it was not installed again.
    EXPECT_EQ(tier_program_.find_task(1), on_tier);
    EXPECT_EQ(controller_.reinstall_after_reboot(), 0u);

    tier_program_.on_reboot();
    EXPECT_FALSE(controller_.installed(1));
    EXPECT_EQ(controller_.reinstall_after_reboot(), 1u);
    EXPECT_TRUE(controller_.installed(1));
}

TEST_F(ControllerFanOutTest, ProbeMergesOverProvisioningSwitches)
{
    // Channel 1 lives on both switches. A slot consumed on either one
    // is consumed: `remaining` is the intersection.
    mark_observed(kTor, 1, 3, 0b0110);
    mark_observed(kTier, 1, 3, 0b0011);
    AskSwitchProgram::ProbeResult both = controller_.probe_packet(1, 3);
    EXPECT_TRUE(both.observed);
    EXPECT_EQ(both.remaining, 0b0010u);

    // `observed` is the union: the tier alone saw seq 4.
    mark_observed(kTier, 1, 4, 0b1000);
    AskSwitchProgram::ProbeResult tier_only = controller_.probe_packet(1, 4);
    EXPECT_TRUE(tier_only.observed);
    EXPECT_EQ(tier_only.remaining, 0b1000u);

    AskSwitchProgram::ProbeResult neither = controller_.probe_packet(1, 5);
    EXPECT_FALSE(neither.observed);
    EXPECT_EQ(neither.remaining, 0u);

    // Channel 5 lives on the tier alone; the ToR is never asked.
    mark_observed(kTier, 5, 3, 0b0101);
    AskSwitchProgram::ProbeResult tier_channel =
        controller_.probe_packet(5, 3);
    EXPECT_TRUE(tier_channel.observed);
    EXPECT_EQ(tier_channel.remaining, 0b0101u);
}

TEST_F(ControllerFanOutTest, FenceTouchesOnlyProvisioningSwitches)
{
    mark_observed(kTor, 1, 3, 0);
    mark_observed(kTier, 1, 3, 0);
    mark_observed(kTier, 5, 3, 0);

    // A fence at seq 100 makes every earlier sequence stale, so a
    // fenced switch no longer reports seq 3 as observed.
    controller_.fence_channel(5, 100);
    EXPECT_FALSE(tier_program_.probe_packet(5, 3).observed);
    EXPECT_TRUE(tier_program_.probe_packet(1, 3).observed);
    EXPECT_TRUE(tor_program_.probe_packet(1, 3).observed);

    controller_.fence_channel(1, 100);
    EXPECT_FALSE(tor_program_.probe_packet(1, 3).observed);
    EXPECT_FALSE(tier_program_.probe_packet(1, 3).observed);
}

TEST_F(ControllerFanOutTest, FetchedTallyHasOneEntryPerSwitch)
{
    ASSERT_TRUE(controller_.allocate(1, 16).has_value());

    aggregate_on(kTor, 1, 1, {{"a", 1}, {"b", 2}, {"c", 3}});
    aggregate_on(kTier, 1, 1, {{"x", 4}, {"y", 5}});
    const std::size_t on_tor = tor_program_.read_region(1, 0, false).size();
    const std::size_t on_tier =
        tier_program_.read_region(1, 0, false).size();
    ASSERT_GT(on_tor, 0u);
    ASSERT_GT(on_tier, 0u);
    KvStream drained = controller_.fetch(1, 0, /*clear=*/true);

    // The drain holds each switch's slice once, concatenated in SwitchId
    // order: the ToR's slice first.
    ASSERT_EQ(drained.size(), on_tor + on_tier);
    for (std::size_t i = 0; i < drained.size(); ++i) {
        bool tor_key = drained[i].key == "a" || drained[i].key == "b" ||
                       drained[i].key == "c";
        EXPECT_EQ(tor_key, i < on_tor) << drained[i].key;
    }
    EXPECT_TRUE(controller_.fetch(1, 0, /*clear=*/false).empty());
}

}  // namespace
}  // namespace ask::core
