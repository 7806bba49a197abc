/**
 * Data-plane tests of the ASK switch program: packets are injected
 * directly into the switch and the emissions + register state checked.
 * Covers vectorized aggregation (§3.2.1), sender-assisted addressing
 * (§3.2.2), coalesced medium keys (§3.2.3), the reliability mechanism
 * (§3.3), and shadow-copy swapping (§3.4).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "ask/controller.h"
#include "ask/packet_builder.h"
#include "common/random.h"
#include "ask/seen_window.h"
#include "ask/switch_program.h"
#include "ask/wire.h"
#include "net/network.h"
#include "pisa/pisa_switch.h"
#include "sim/simulator.h"

namespace ask::core {
namespace {

class SinkNode : public net::Node
{
  public:
    void receive(net::Packet pkt) override { received.push_back(std::move(pkt)); }
    std::string name() const override { return "sink"; }
    std::vector<net::Packet> received;
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
    c.swap_threshold_packets = 0;  // swaps driven explicitly in tests
    return c;
}

class SwitchProgramTest : public ::testing::Test
{
  protected:
    explicit SwitchProgramTest(AskConfig config = test_config())
        : network_(simulator_),
          sw_(network_, 16, pisa::kDefaultStageSramBytes),
          config_(config),
          program_(config_, sw_, 0, config_.max_channels()),
          controller_({&program_}, wal_),
          key_space_(config_)
    {
        network_.attach(&sw_);
        network_.attach(&sender_);
        network_.attach(&receiver_);
        network_.connect(sender_.node_id(), sw_.node_id(), 100.0, 10);
        network_.connect(receiver_.node_id(), sw_.node_id(), 100.0, 10);
        region_ = *controller_.allocate(kTask, 32);
    }

    static constexpr TaskId kTask = 7;
    static constexpr ChannelId kChannel = 3;

    /** Build a DATA frame for `tuples` (must fit one packet). */
    net::Packet
    data_packet(const KvStream& tuples, Seq seq)
    {
        PacketBuilder builder(key_space_,
                              std::make_shared<const KvStream>(tuples));
        AskHeader hdr;
        hdr.op = op_;
        hdr.channel_id = kChannel;
        hdr.task_id = kTask;
        hdr.seq = seq;
        net::Packet pkt;
        pkt.src = sender_.node_id();
        pkt.dst = receiver_.node_id();
        pkt.data = builder.next_frame(hdr, /*bypass=*/false);
        EXPECT_EQ(hdr.type, PacketType::kData);
        EXPECT_TRUE(builder.empty()) << "tuples did not fit one packet";
        return pkt;
    }

    /** Inject a packet and drain the simulator. */
    void
    inject(net::Packet pkt)
    {
        network_.send(pkt.src == sender_.node_id() ? sender_.node_id()
                                                   : receiver_.node_id(),
                      sw_.node_id(), std::move(pkt));
        simulator_.run();
    }

    /** Aggregate all register contents of the task into a map. */
    AggregateMap
    switch_contents()
    {
        AggregateMap out;
        for (std::uint32_t copy = 0; copy < 2; ++copy) {
            for (const auto& kv :
                 program_.read_region(kTask, copy, /*clear=*/false))
                accumulate(out, kv.key, kv.value, op_);
        }
        return out;
    }

    sim::Simulator simulator_;
    net::Network network_;
    pisa::PisaSwitch sw_;
    AskConfig config_;
    AskSwitchProgram program_;
    Wal wal_{"controller"};
    AskSwitchController controller_;
    KeySpace key_space_;
    SinkNode sender_;
    SinkNode receiver_;
    TaskRegion region_;
    /** Op stamped on built DATA frames and used to fold register
     *  contents; tests that reallocate with another op set this too. */
    ReduceOp op_ = ReduceOp::kAdd;
};

TEST_F(SwitchProgramTest, FullyAggregatedPacketIsAckedAndConsumed)
{
    inject(data_packet({{"aa", 1}, {"bb", 2}}, 0));

    // Sender got an ACK with the packet's seq; receiver got nothing.
    ASSERT_EQ(sender_.received.size(), 1u);
    auto ack = parse_header(sender_.received[0].data);
    EXPECT_EQ(ack->type, PacketType::kAck);
    EXPECT_EQ(ack->seq, 0u);
    EXPECT_EQ(ack->channel_id, kChannel);
    EXPECT_TRUE(receiver_.received.empty());

    AggregateMap contents = switch_contents();
    EXPECT_EQ(contents.at("aa"), 1u);
    EXPECT_EQ(contents.at("bb"), 2u);
    EXPECT_EQ(program_.stats().packets_acked, 1u);
    EXPECT_EQ(program_.stats().tuples_aggregated, 2u);
}

TEST_F(SwitchProgramTest, RepeatedKeysSum)
{
    inject(data_packet({{"aa", 1}}, 0));
    inject(data_packet({{"aa", 41}}, 1));
    EXPECT_EQ(switch_contents().at("aa"), 42u);
}

TEST_F(SwitchProgramTest, CollisionForwardsWithUpdatedBitmap)
{
    // Force a collision: region of length 1, so any two distinct keys in
    // the same slot collide at aggregator index 0.
    controller_.release(kTask);
    region_ = *controller_.allocate(kTask, 1);

    // Find two short keys in the same subspace (slot).
    Key k1, k2;
    for (int i = 0; i < 1000 && k2.empty(); ++i) {
        Key k = "k" + std::to_string(i);
        if (key_space_.classify(k) != KeyClass::kShort)
            continue;
        if (k1.empty()) {
            k1 = k;
        } else if (key_space_.short_slot(k) == key_space_.short_slot(k1)) {
            k2 = k;
        }
    }
    ASSERT_FALSE(k2.empty());

    inject(data_packet({{k1, 5}}, 0));  // reserves the aggregator
    sender_.received.clear();
    inject(data_packet({{k2, 9}}, 1));  // collides

    // The second packet was forwarded to the receiver with k2 intact.
    ASSERT_EQ(receiver_.received.size(), 1u);
    auto hdr = parse_header(receiver_.received[0].data);
    std::uint32_t slot = key_space_.short_slot(k2);
    EXPECT_EQ(hdr->bitmap, 1ULL << slot);
    WireSlot ws = read_slot(receiver_.received[0].data, slot);
    EXPECT_EQ(key_space_.decode_key({&ws.seg, 1}), k2);
    EXPECT_EQ(ws.value, 9u);
    EXPECT_TRUE(sender_.received.empty());
    EXPECT_EQ(program_.stats().tuples_collided, 1u);
}

TEST_F(SwitchProgramTest, RetransmitOfAggregatedPacketDedups)
{
    net::Packet pkt = data_packet({{"aa", 10}}, 0);
    inject(pkt);
    inject(pkt);  // identical retransmission

    // No double aggregation; two ACKs (one per appearance).
    EXPECT_EQ(switch_contents().at("aa"), 10u);
    EXPECT_EQ(sender_.received.size(), 2u);
    EXPECT_EQ(program_.stats().duplicates, 1u);
}

TEST_F(SwitchProgramTest, RetransmitOfPartialPacketReplaysBitmap)
{
    controller_.release(kTask);
    region_ = *controller_.allocate(kTask, 1);

    // Two keys in different slots; make one of them collide by
    // pre-seeding its aggregator with a different key.
    Key k_ok, k_clash_a, k_clash_b;
    for (int i = 0; i < 2000; ++i) {
        Key k = "q" + std::to_string(i);
        if (key_space_.classify(k) != KeyClass::kShort)
            continue;
        if (k_clash_a.empty()) {
            k_clash_a = k;
            continue;
        }
        bool same = key_space_.short_slot(k) == key_space_.short_slot(k_clash_a);
        if (same && k_clash_b.empty())
            k_clash_b = k;
        if (!same && k_ok.empty())
            k_ok = k;
        if (!k_clash_b.empty() && !k_ok.empty())
            break;
    }
    ASSERT_FALSE(k_clash_b.empty());
    ASSERT_FALSE(k_ok.empty());

    inject(data_packet({{k_clash_a, 1}}, 0));  // occupies the slot's aggregator
    receiver_.received.clear();

    // This packet is partially aggregated: k_ok consumed, k_clash_b not.
    net::Packet partial = data_packet({{k_ok, 3}, {k_clash_b, 4}}, 1);
    inject(partial);
    ASSERT_EQ(receiver_.received.size(), 1u);
    auto first_fwd = parse_header(receiver_.received[0].data);

    // Retransmit it (as if the forwarded copy was lost): the switch must
    // not re-aggregate k_ok, and must forward the same remaining bitmap.
    inject(partial);
    ASSERT_EQ(receiver_.received.size(), 2u);
    auto second_fwd = parse_header(receiver_.received[1].data);
    EXPECT_EQ(second_fwd->bitmap, first_fwd->bitmap);
    EXPECT_EQ(switch_contents().at(k_ok), 3u);  // aggregated exactly once
    EXPECT_EQ(program_.stats().duplicates, 1u);
}

TEST_F(SwitchProgramTest, StalePacketDropped)
{
    std::uint32_t w = config_.window;
    for (Seq s = 0; s <= w; ++s)
        inject(data_packet({{"aa", 1}}, s));
    sender_.received.clear();
    receiver_.received.clear();

    // A packet from before the window: dropped silently.
    inject(data_packet({{"aa", 100}}, 0));
    EXPECT_TRUE(sender_.received.empty());
    EXPECT_TRUE(receiver_.received.empty());
    EXPECT_EQ(program_.stats().stale_dropped, 1u);
    EXPECT_EQ(switch_contents().at("aa"), w + 1u);
}

TEST_F(SwitchProgramTest, MediumKeyCoalescedAggregation)
{
    inject(data_packet({{"yourself", 4}}, 0));
    inject(data_packet({{"yourself", 6}}, 1));
    AggregateMap contents = switch_contents();
    EXPECT_EQ(contents.at("yourself"), 10u);
    // The key occupies aggregators in its group's AAs, not short AAs.
    EXPECT_EQ(program_.stats().tuples_aggregated, 2u);
}

TEST_F(SwitchProgramTest, MediumKeySegmentsAreNotConfusable)
{
    // The naive independent-segment design would falsely aggregate
    // X1Y2 after X1X2 and Y1Y2 reserved aggregators (§3.2.3). Force all
    // keys to index 0 with a region of length 1 and check the coalesced
    // design rejects the chimera key.
    controller_.release(kTask);
    region_ = *controller_.allocate(kTask, 1);

    // Construct keys in the SAME medium group: brute-force suffixes.
    auto find_in_group = [&](std::uint32_t group, const std::string& prefix) {
        for (int i = 0; i < 10000; ++i) {
            Key k = prefix + std::to_string(i);
            k.resize(8, 'z');
            if (key_space_.classify(k) == KeyClass::kMedium &&
                key_space_.place(k).index == group)
                return k;
        }
        ADD_FAILURE() << "no key found in group";
        return Key("deadbeef");
    };
    Key x = find_in_group(0, "xxxx");
    // Chimera: first segment of x, different second segment, landing in
    // the same medium group (brute-force the suffix).
    Key chimera;
    for (int i = 0; i < 10000 && chimera.empty(); ++i) {
        Key c = x.substr(0, 4) + std::to_string(i);
        c.resize(8, 'Q');
        if (c != x && key_space_.classify(c) == KeyClass::kMedium &&
            key_space_.place(c).index == 0)
            chimera = c;
    }
    ASSERT_FALSE(chimera.empty());

    inject(data_packet({{x, 5}}, 0));
    receiver_.received.clear();
    inject(data_packet({{chimera, 7}}, 1));

    // The chimera must NOT merge into x: forwarded to the receiver.
    AggregateMap contents = switch_contents();
    EXPECT_EQ(contents.at(x), 5u);
    EXPECT_FALSE(contents.count(chimera));
    ASSERT_EQ(receiver_.received.size(), 1u);
}

TEST_F(SwitchProgramTest, BatchedPassMatchesPerTupleReference)
{
    // The batched DATA pass (read_slots once, bit-iterate set slots)
    // must behave exactly like a per-tuple walk. The reference below
    // models the switch registers tuple by tuple through the public
    // KeySpace API alone — same addressing, reservation, and collision
    // rules — and every injected packet's verdict (ACK vs forward, the
    // forwarded bitmap) plus the final register contents must match it
    // bit for bit. Runs with a power-of-two region (mask reduction
    // path) and a non-power-of-two region (modulo path), over full,
    // partial, and blank-slot packets with retransmissions — and under
    // every distinct ALU combine (add covers count/float, whose combine
    // is the same wrapping add; max and min exercise the comparisons).
    Rng rng = seeded_rng("switch_program_equiv", 11);
    Seq seq = 0;

    const std::pair<ReduceOp, std::uint32_t> variants[] = {
        {ReduceOp::kAdd, 2u}, {ReduceOp::kAdd, 3u},
        {ReduceOp::kMax, 2u}, {ReduceOp::kMin, 3u}};
    for (const auto& [op, region_len] : variants) {
        op_ = op;
        controller_.release(kTask);
        region_ = *controller_.allocate(kTask, region_len, op);

        // Reference register file: (aa slot, flat index) -> (seg, value).
        // kpart == 0 means blank, exactly as on the switch.
        std::map<std::pair<std::uint32_t, std::uint64_t>,
                 std::pair<std::uint32_t, Value>>
            regs;
        AggregateMap expect_agg;

        std::uint32_t short_aas = config_.short_aas();
        std::uint32_t m = config_.medium_segments;

        for (int p = 0; p < 60; ++p) {
            // Random tuples, at most one per short slot / medium group
            // so they fit one packet; sometimes only one tuple (blank-
            // heavy packet), sometimes enough to fill every slot.
            KvStream tuples;
            std::vector<bool> slot_used(short_aas, false);
            std::vector<bool> group_used(config_.medium_groups, false);
            std::uint64_t want = 1 + rng.next_below(8);
            std::map<std::uint32_t, Key> short_keys;   // slot -> key
            std::map<std::uint32_t, Key> medium_keys;  // group -> key
            for (int tries = 0; tries < 200 && tuples.size() < want;
                 ++tries) {
                std::size_t len = 1 + rng.next_below(8);
                Key key(len, 'a');
                for (auto& ch : key)
                    ch = static_cast<char>('a' + rng.next_below(26));
                Value val = static_cast<Value>(1 + rng.next_below(100));
                if (key_space_.classify(key) == KeyClass::kShort) {
                    std::uint32_t s = key_space_.short_slot(key);
                    if (slot_used[s])
                        continue;
                    slot_used[s] = true;
                    short_keys[s] = key;
                    tuples.push_back({key, val});
                } else if (key_space_.classify(key) == KeyClass::kMedium) {
                    std::uint32_t g = key_space_.place(key).index;
                    if (group_used[g])
                        continue;
                    group_used[g] = true;
                    medium_keys[g] = key;
                    tuples.push_back({key, val});
                }
            }
            ASSERT_FALSE(tuples.empty());

            net::Packet pkt = data_packet(tuples, seq);
            auto hdr = parse_header(pkt.data);
            ASSERT_TRUE(hdr.has_value());

            // ---- per-tuple reference pass over the built packet ------
            std::uint64_t expect_bitmap = hdr->bitmap;
            for (const auto& [slot, key] : short_keys) {
                WireSlot ws = read_slot(pkt.data, slot);
                std::uint64_t idx =
                    region_.base +
                    key_space_.short_aggregator_index(ws.seg, region_.len);
                auto& cell = regs[{slot, idx}];
                if (cell.first == 0) {
                    cell = {ws.seg, ws.value};
                } else if (cell.first == ws.seg) {
                    cell.second = apply_op(op, cell.second, ws.value);
                } else {
                    continue;  // collision: the bit stays set
                }
                expect_bitmap &= ~(1ULL << slot);
                accumulate(expect_agg, key, ws.value, op);
            }
            for (const auto& [group, key] : medium_keys) {
                std::string padded = key;
                padded.resize(config_.max_medium_key_bytes(), '\0');
                std::uint64_t idx =
                    region_.base +
                    key_space_.aggregator_index(padded, region_.len);
                std::uint32_t mb = config_.medium_base(group);
                // Group invariant: segments at one index are installed
                // atomically, so they are all blank or all this key's.
                bool blank = regs[{mb, idx}].first == 0;
                bool match = true;
                for (std::uint32_t j = 0; j < m; ++j) {
                    if (regs[{mb + j, idx}].first !=
                        key_space_.encode_key_segment(key, j))
                        match = false;
                }
                Value val = read_slot(pkt.data, mb + m - 1).value;
                if (blank) {
                    for (std::uint32_t j = 0; j < m; ++j) {
                        regs[{mb + j, idx}] = {
                            key_space_.encode_key_segment(key, j),
                            j + 1 == m ? val : 0};
                    }
                } else if (match) {
                    auto& value_cell = regs[{mb + m - 1, idx}];
                    value_cell.second = apply_op(op, value_cell.second, val);
                } else {
                    continue;  // collision: the whole group stays set
                }
                for (std::uint32_t j = 0; j < m; ++j)
                    expect_bitmap &= ~(1ULL << (mb + j));
                accumulate(expect_agg, key, val, op);
            }

            // ---- inject (plus an occasional retransmission) ----------
            int sends = (p % 5 == 0) ? 2 : 1;
            for (int s = 0; s < sends; ++s) {
                sender_.received.clear();
                receiver_.received.clear();
                inject(pkt);
                if (expect_bitmap == 0) {
                    ASSERT_EQ(sender_.received.size(), 1u)
                        << "packet " << p << " send " << s;
                    EXPECT_EQ(parse_header(sender_.received[0].data)->type,
                              PacketType::kAck);
                    EXPECT_TRUE(receiver_.received.empty());
                } else {
                    ASSERT_EQ(receiver_.received.size(), 1u)
                        << "packet " << p << " send " << s;
                    EXPECT_EQ(parse_header(receiver_.received[0].data)->bitmap,
                              expect_bitmap)
                        << "packet " << p << " send " << s;
                    EXPECT_TRUE(sender_.received.empty());
                }
            }
            ++seq;
        }

        // ---- final register contents match the reference -------------
        EXPECT_EQ(switch_contents(), expect_agg)
            << reduce_op_name(op) << " region_len " << region_len;
    }
    op_ = ReduceOp::kAdd;
}

TEST_F(SwitchProgramTest, PerOpSwitchMergeMatchesHostFold)
{
    // Same shape of repeated-key packets under every operator: the
    // switch's blank-install-then-combine must equal a plain host-side
    // accumulate fold of the (already lifted) values. Seq keeps
    // increasing across ops — the seen window is per channel, not per
    // task, so it survives the release/reallocate cycles.
    Seq seq = 0;
    const std::uint32_t frac = kFloatFracBits;
    for (ReduceOp op : {ReduceOp::kAdd, ReduceOp::kMax, ReduceOp::kMin,
                        ReduceOp::kCount, ReduceOp::kFloat}) {
        controller_.release(kTask);
        region_ = *controller_.allocate(kTask, 32, op);
        op_ = op;

        // The sender lifts exactly once, so the switch only ever sees
        // lifted values: count observations arrive as 1, float values
        // as Q-format words — including a negative one, which the
        // wrapping two's-complement add must cancel exactly.
        std::vector<KvStream> packets;
        if (op == ReduceOp::kCount) {
            packets = {{{"aa", 1}, {"bb", 1}}, {{"aa", 1}}, {{"aa", 1}}};
        } else if (op == ReduceOp::kFloat) {
            packets = {{{"aa", float_encode(2.5, frac)}},
                       {{"aa", float_encode(-1.25, frac)},
                        {"bb", float_encode(0.5, frac)}}};
        } else {
            packets = {{{"aa", 7}, {"bb", 3}}, {{"aa", 41}}, {{"bb", 3}}};
        }

        AggregateMap expect;
        for (const auto& stream : packets) {
            merge_stream_into(expect, stream, op);
            inject(data_packet(stream, seq++));
        }
        EXPECT_EQ(switch_contents(), expect) << reduce_op_name(op);
        if (op == ReduceOp::kFloat) {
            EXPECT_EQ(float_decode(switch_contents().at("aa"), frac), 1.25);
        }
    }
    op_ = ReduceOp::kAdd;
}

TEST_F(SwitchProgramTest, OpMismatchDroppedBeforeWindow)
{
    // A DATA frame whose op id contradicts the task's bound operator is
    // dropped before the seen window observes its seq: no ACK, no
    // forward — and a correct-op frame with the SAME seq afterwards
    // still aggregates (the mismatch left no reliability state behind).
    op_ = ReduceOp::kMax;
    net::Packet wrong = data_packet({{"aa", 5}}, 0);
    op_ = ReduceOp::kAdd;
    inject(std::move(wrong));
    EXPECT_TRUE(sender_.received.empty());
    EXPECT_TRUE(receiver_.received.empty());
    EXPECT_EQ(program_.stats().op_mismatch, 1u);
    EXPECT_TRUE(switch_contents().empty());

    inject(data_packet({{"aa", 5}}, 0));
    EXPECT_EQ(switch_contents().at("aa"), 5u);
    EXPECT_EQ(program_.stats().duplicates, 0u);
    ASSERT_EQ(sender_.received.size(), 1u);
    EXPECT_EQ(parse_header(sender_.received[0].data)->type,
              PacketType::kAck);
}

TEST(SwitchController, UndeclaredOpRejectedBeforeAllocation)
{
    // 16-bit vParts cannot carry Q-format floats, so the access plan of
    // a part_bits == 16 program does not declare kFloat: asking for it
    // throws ConfigError before any region is journalled or installed,
    // while the declared ops still allocate normally.
    sim::Simulator simulator;
    net::Network network(simulator);
    pisa::PisaSwitch sw(network, 16, pisa::kDefaultStageSramBytes);
    AskConfig cfg = test_config();
    cfg.part_bits = 16;
    AskSwitchProgram program(cfg, sw, 0, cfg.max_channels());
    Wal wal("controller");
    AskSwitchController ctl({&program}, wal);

    std::uint32_t free_before = ctl.free_aggregators();
    EXPECT_THROW(ctl.allocate(1, 10, ReduceOp::kFloat), ConfigError);
    EXPECT_EQ(ctl.free_aggregators(), free_before);  // nothing leaked
    EXPECT_TRUE(ctl.allocate(1, 10, ReduceOp::kMin).has_value());
}

TEST(SwitchController, UnknownOpIdRejectedAtInstall)
{
    // The data-plane backstop: an op id outside the access plan's
    // declarations never installs, whatever path produced the region.
    sim::Simulator simulator;
    net::Network network(simulator);
    pisa::PisaSwitch sw(network, 16, pisa::kDefaultStageSramBytes);
    AskConfig cfg = test_config();
    AskSwitchProgram program(cfg, sw, 0, cfg.max_channels());

    TaskRegion region;
    region.len = 4;
    region.op = static_cast<ReduceOp>(9);
    EXPECT_THROW(program.install_task(1, region), ConfigError);
}

TEST_F(SwitchProgramTest, SwapRedirectsWritesToOtherCopy)
{
    inject(data_packet({{"aa", 1}}, 0));
    EXPECT_EQ(program_.read_region(kTask, 0, false).size(), 1u);
    EXPECT_EQ(program_.read_region(kTask, 1, false).size(), 0u);

    // Receiver-initiated swap (epoch 1).
    AskHeader swap;
    swap.type = PacketType::kSwap;
    swap.task_id = kTask;
    swap.seq = 1;
    net::Packet pkt = make_control_packet(receiver_.node_id(),
                                          receiver_.node_id(), swap);
    network_.send(receiver_.node_id(), sw_.node_id(), std::move(pkt));
    simulator_.run();

    // SwapAck came back to the receiver.
    ASSERT_EQ(receiver_.received.size(), 1u);
    auto ack = parse_header(receiver_.received[0].data);
    EXPECT_EQ(ack->type, PacketType::kSwapAck);
    EXPECT_EQ(ack->seq, 1u);
    EXPECT_EQ(program_.current_epoch(kTask), 1u);

    // New writes land in copy 1; copy 0 is untouched.
    inject(data_packet({{"aa", 9}}, 1));
    auto copy0 = program_.read_region(kTask, 0, false);
    auto copy1 = program_.read_region(kTask, 1, false);
    ASSERT_EQ(copy0.size(), 1u);
    ASSERT_EQ(copy1.size(), 1u);
    EXPECT_EQ(copy0[0].value, 1u);
    EXPECT_EQ(copy1[0].value, 9u);
}

/** The fixture on arrays wide enough that a task's region spans several
 *  512-register blocks of every AA, in each shadow copy. */
class WideRegionTest : public SwitchProgramTest
{
  protected:
    WideRegionTest() : SwitchProgramTest(wide_config()) {}

    static AskConfig
    wide_config()
    {
        AskConfig c = test_config();
        c.aggregators_per_aa = 4096;  // 2,048 per shadow copy
        return c;
    }

    /** read_region as the per-register loop it replaced: a cp_read of
     *  every register of the region, in every AA. */
    KvStream
    read_region_by_register(std::uint32_t copy)
    {
        auto aa = [&](std::uint32_t i) {
            return sw_.pipeline().find_array("aa_" + std::to_string(i));
        };
        const std::uint32_t bits = config_.part_bits;
        auto kpart = [&](std::uint64_t w) {
            return static_cast<std::uint32_t>(w >> bits);
        };
        auto vpart = [&](std::uint64_t w) {
            return static_cast<Value>(w & ((1ULL << bits) - 1));
        };
        const std::uint32_t off = copy * config_.copy_size();
        KvStream out;
        for (std::uint32_t i = 0; i < config_.short_aas(); ++i) {
            for (std::uint32_t idx = region_.base;
                 idx < region_.base + region_.len; ++idx) {
                std::uint64_t w = aa(i)->cp_read(off + idx);
                std::uint32_t k = kpart(w);
                if (k != 0)
                    out.push_back({key_space_.decode_key({&k, 1}), vpart(w)});
            }
        }
        for (std::uint32_t g = 0; g < config_.medium_groups; ++g) {
            std::uint32_t mb = config_.medium_base(g);
            for (std::uint32_t idx = region_.base;
                 idx < region_.base + region_.len; ++idx) {
                if (kpart(aa(mb)->cp_read(off + idx)) == 0)
                    continue;
                std::vector<std::uint32_t> segs;
                Value value = 0;
                for (std::uint32_t j = 0; j < config_.medium_segments; ++j) {
                    std::uint64_t w = aa(mb + j)->cp_read(off + idx);
                    segs.push_back(kpart(w));
                    value = vpart(w);
                }
                out.push_back({key_space_.decode_key(segs), value});
            }
        }
        return out;
    }

    /** A random lower-case key of `min_len`..`max_len` letters. */
    static Key
    random_key(Rng& rng, std::size_t min_len, std::size_t max_len)
    {
        Key key(min_len + rng.next_below(max_len - min_len + 1), 'a');
        for (auto& ch : key)
            ch = static_cast<char>('a' + rng.next_below(26));
        return key;
    }
};

TEST_F(WideRegionTest, ReadRegionMatchesPerRegisterReads)
{
    // A region at [700, 1700) of each copy: it starts and ends inside
    // a block, and copy 1 sits 2,048 registers further on.
    controller_.release(kTask);
    ASSERT_TRUE(controller_.allocate(kTask + 1, 700).has_value());
    region_ = *controller_.allocate(kTask, 1000);
    ASSERT_EQ(region_.base, 700u);

    Rng rng = seeded_rng("wide_region", 1);
    Seq seq = 0;
    // One short and one medium key per packet: they take different
    // slots, so every packet fits.
    auto send_keys = [&](int packets) {
        for (int p = 0; p < packets; ++p) {
            Key short_key = random_key(rng, 1, 4);
            Key medium_key = random_key(rng, 5, 8);
            ASSERT_EQ(key_space_.classify(short_key), KeyClass::kShort);
            ASSERT_EQ(key_space_.classify(medium_key), KeyClass::kMedium);
            inject(data_packet(
                {{short_key, static_cast<Value>(1 + rng.next_below(100))},
                 {medium_key, static_cast<Value>(1 + rng.next_below(100))}},
                seq++));
        }
    };
    send_keys(150);

    AskHeader swap;
    swap.type = PacketType::kSwap;
    swap.task_id = kTask;
    swap.seq = 1;
    network_.send(receiver_.node_id(), sw_.node_id(),
                  make_control_packet(receiver_.node_id(),
                                      receiver_.node_id(), swap));
    simulator_.run();
    ASSERT_EQ(program_.current_epoch(kTask), 1u);
    send_keys(150);

    for (std::uint32_t copy = 0; copy < 2; ++copy) {
        SCOPED_TRACE(testing::Message() << "copy " << copy);
        KvStream want = read_region_by_register(copy);
        std::size_t shorts = 0, mediums = 0;
        for (const auto& kv : want) {
            KeyClass c = key_space_.classify(kv.key);
            shorts += c == KeyClass::kShort;
            mediums += c == KeyClass::kMedium;
        }
        EXPECT_GT(shorts, 100u);
        EXPECT_GT(mediums, 100u);
        EXPECT_EQ(program_.read_region(kTask, copy, /*clear=*/false), want);
        EXPECT_EQ(program_.read_region(kTask, copy, /*clear=*/true), want);
        EXPECT_TRUE(program_.read_region(kTask, copy, false).empty());
    }
}

TEST_F(SwitchProgramTest, DuplicateSwapIsIdempotent)
{
    AskHeader swap;
    swap.type = PacketType::kSwap;
    swap.task_id = kTask;
    swap.seq = 1;
    for (int i = 0; i < 3; ++i) {
        net::Packet pkt = make_control_packet(receiver_.node_id(),
                                              receiver_.node_id(), swap);
        network_.send(receiver_.node_id(), sw_.node_id(), std::move(pkt));
        simulator_.run();
    }
    // Epoch advanced exactly once despite duplicate SWAPs.
    EXPECT_EQ(program_.current_epoch(kTask), 1u);
    EXPECT_EQ(program_.stats().swaps, 1u);
    EXPECT_EQ(receiver_.received.size(), 3u);  // every SWAP is acked
}

TEST_F(SwitchProgramTest, LongDataForwardedAndSeenMarked)
{
    AskHeader hdr;
    hdr.channel_id = kChannel;
    hdr.task_id = kTask;
    hdr.seq = 0;
    net::Packet pkt;
    pkt.src = sender_.node_id();
    pkt.dst = receiver_.node_id();
    pkt.data = make_long_frame(hdr, {{"a-long-key-over-8-bytes", 3}});

    inject(pkt);
    inject(pkt);  // duplicate

    // Both copies forwarded (receiver dedups); switch counted the dup.
    EXPECT_EQ(receiver_.received.size(), 2u);
    EXPECT_EQ(program_.stats().long_packets, 2u);
    EXPECT_EQ(program_.stats().duplicates, 1u);

    // The LONG_DATA seq occupies the channel seq space: a later DATA
    // packet with the next seq still works (compact-seen parity holds).
    inject(data_packet({{"aa", 1}}, 1));
    EXPECT_EQ(switch_contents().at("aa"), 1u);
}

TEST_F(SwitchProgramTest, UnknownTaskDataForwardedUnaggregated)
{
    AskHeader hdr;
    hdr.type = PacketType::kData;
    hdr.channel_id = kChannel;
    hdr.task_id = 999;  // not installed
    hdr.seq = 0;
    hdr.bitmap = 1;
    net::Packet pkt;
    pkt.src = sender_.node_id();
    pkt.dst = receiver_.node_id();
    pkt.data = make_frame(hdr, config_.payload_bytes());
    write_slot(pkt.data, 0, WireSlot{0x61, 5});

    inject(pkt);
    ASSERT_EQ(receiver_.received.size(), 1u);
    EXPECT_EQ(parse_header(receiver_.received[0].data)->bitmap, 1u);
    EXPECT_EQ(program_.stats().unknown_task, 1u);
}

TEST_F(SwitchProgramTest, AcksAndFinsForwarded)
{
    for (auto type : {PacketType::kAck, PacketType::kFin, PacketType::kFinAck,
                      PacketType::kSwapAck}) {
        AskHeader hdr;
        hdr.type = type;
        net::Packet pkt = make_control_packet(sender_.node_id(),
                                              receiver_.node_id(), hdr);
        receiver_.received.clear();
        inject(pkt);
        ASSERT_EQ(receiver_.received.size(), 1u)
            << "type " << static_cast<int>(type);
    }
}

TEST_F(SwitchProgramTest, ReleaseClearsRegionAndEpoch)
{
    inject(data_packet({{"aa", 1}}, 0));
    controller_.release(kTask);
    auto region = controller_.allocate(kTask, 32);
    ASSERT_TRUE(region.has_value());
    EXPECT_TRUE(program_.read_region(kTask, 0, false).empty());
    EXPECT_TRUE(program_.read_region(kTask, 1, false).empty());
    EXPECT_EQ(program_.current_epoch(kTask), 0u);
}

/**
 * The switch's window registers against the model-checked CompactSeen,
 * arrival by arrival. One program with the access oracle armed and one
 * provisioned channel, and a CompactSeen beside it, get the same
 * in-contract trace (drawn like the fuzzer's probe_seen_models): mostly
 * fresh seqs, re-deliveries inside the window, and now and then a
 * register wipe healed by fence_channel on the switch and repair on the
 * class. Frames alternate at random between DATA and LONG_DATA. After
 * every arrival the switch's verdict, its extracted window and its
 * per-seq probe must all equal the class's.
 */
void
expect_registers_match_compact_window(std::uint32_t window)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    pisa::PisaSwitch sw(network, 16, pisa::kDefaultStageSramBytes);
    SinkNode sender;
    SinkNode receiver;
    network.attach(&sw);
    network.attach(&sender);
    network.attach(&receiver);
    network.connect(sender.node_id(), sw.node_id(), 100.0, 10);
    network.connect(receiver.node_id(), sw.node_id(), 100.0, 10);

    AskConfig cfg = test_config();
    cfg.window = window;
    constexpr ChannelId kCh = 3;
    AskSwitchProgram program(cfg, sw, kCh, kCh + 1);
    program.enable_access_verification();
    CompactSeen model(window);

    // The switch's verdict, read from the counters the arrival moved.
    auto arrive = [&](Seq s, bool long_frame) {
        AskHeader hdr;
        hdr.channel_id = kCh;
        hdr.task_id = 1;
        hdr.seq = s;
        net::Packet pkt;
        pkt.src = sender.node_id();
        pkt.dst = receiver.node_id();
        if (long_frame) {
            pkt.data = make_long_frame(hdr, {{"a-long-key-over-8-bytes", 1}});
        } else {
            hdr.type = PacketType::kData;
            hdr.bitmap = 1;
            pkt.data = make_frame(hdr, cfg.payload_bytes());
            write_slot(pkt.data, 0, WireSlot{0x61, 1});
        }
        SwitchAggStats before = program.stats();
        network.send(sender.node_id(), sw.node_id(), std::move(pkt));
        simulator.run();
        if (program.stats().stale_dropped != before.stale_dropped)
            return SeenOutcome::kStale;
        if (program.stats().duplicates != before.duplicates)
            return SeenOutcome::kDuplicate;
        return SeenOutcome::kFresh;
    };

    Rng rng = seeded_rng("switch_window", window);
    Seq issued = 0;
    bool started = false;
    std::size_t fences = 0;
    std::size_t stale = 0;
    std::size_t duplicates = 0;
    for (int step = 0; step < 2000; ++step) {
        Seq s;
        double roll = rng.next_double();
        if (!started || roll < 0.7) {
            s = started ? ++issued : issued;
            started = true;
        } else if (roll < 0.95) {
            auto back = static_cast<Seq>(rng.next_below(window));
            s = issued > back ? issued - back : 0;
        } else {
            sw.pipeline().wipe_registers();
            model.wipe();
            issued += 1;
            program.fence_channel(kCh, issued);
            model.repair(issued);
            s = issued;
            ++fences;
        }
        SeenOutcome got = arrive(s, rng.chance(0.5));
        SeenOutcome want = model.observe(s);
        ASSERT_EQ(got, want) << "W=" << window << " step " << step
                             << " seq " << s;
        stale += want == SeenOutcome::kStale;
        duplicates += want == SeenOutcome::kDuplicate;

        SeenSnapshot regs = program.extract_seen(kCh);
        SeenSnapshot snap = model.snapshot();
        ASSERT_EQ(regs.bits, snap.bits) << "W=" << window << " step " << step;
        ASSERT_EQ(regs.max_seq, snap.max_seq)
            << "W=" << window << " step " << step;

        Seq lo = snap.max_seq >= window ? snap.max_seq - window + 1 : 0;
        for (Seq q = lo; q <= snap.max_seq; ++q) {
            CompactSeen copy = model;
            ASSERT_EQ(program.probe_packet(kCh, q).observed,
                      copy.observe(q) == SeenOutcome::kDuplicate)
                << "W=" << window << " step " << step << " probe seq " << q;
        }
    }
    // The trace reached every verdict and at least one fence.
    EXPECT_GT(fences, 0u);
    EXPECT_GT(stale, 0u);
    EXPECT_GT(duplicates, 0u);
    EXPECT_GT(program.access_oracle()->passes(), 0u);
}

TEST(SwitchWindow, RegistersMatchCompactSeenArrivalByArrival)
{
    expect_registers_match_compact_window(8);
    expect_registers_match_compact_window(16);
}

TEST(SwitchProgramConfig, PaperDefaultsFitDefaultPipeline)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    pisa::PisaSwitch sw(network);
    AskConfig cfg;  // 32 AAs x 32768 aggregators, W=256, 256 channels
    AskSwitchProgram program(cfg, sw, 0, cfg.max_channels());

    // Reliability state per data channel (paper §3.3): 256-bit seen +
    // 256 x 32-bit PktState = 1056 bytes.
    auto* seen = sw.pipeline().find_array("seen");
    auto* pkt_state = sw.pipeline().find_array("pkt_state");
    ASSERT_NE(seen, nullptr);
    ASSERT_NE(pkt_state, nullptr);
    std::size_t per_channel =
        (seen->sram_bytes() + pkt_state->sram_bytes()) / cfg.max_channels();
    EXPECT_EQ(per_channel, 1056u);

    // Total SRAM fits the 16-stage budget with room to spare.
    EXPECT_LE(sw.pipeline().sram_used_bytes(),
              sw.pipeline().sram_budget_bytes());
}

TEST(SwitchProgramConfig, ProvisionsExactlyItsChannelRange)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    pisa::PisaSwitch shard_sw(network, 16, pisa::kDefaultStageSramBytes);
    pisa::PisaSwitch full_sw(network, 16, pisa::kDefaultStageSramBytes);
    AskConfig cfg = test_config();  // 4 hosts x 2 channels
    AskSwitchProgram shard(cfg, shard_sw, 2, 6);
    AskSwitchProgram full(cfg, full_sw, 0, cfg.max_channels());

    EXPECT_EQ(shard.provisioned_lo(), 2u);
    EXPECT_EQ(shard.provisioned_hi(), 6u);
    EXPECT_FALSE(shard.provisions(1));
    EXPECT_TRUE(shard.provisions(2));
    EXPECT_TRUE(shard.provisions(5));
    EXPECT_FALSE(shard.provisions(6));
    // Reliability state is sized by the range, not by max_hosts.
    EXPECT_EQ(shard.reliability_state_bits() * 2,
              full.reliability_state_bits());

    // Without a range, every channel max_hosts allows.
    EXPECT_TRUE(full.provisions(0));
    EXPECT_TRUE(full.provisions(cfg.max_channels() - 1));
    EXPECT_FALSE(full.provisions(cfg.max_channels()));
}

TEST(SwitchController, AllocateReleaseReuse)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    pisa::PisaSwitch sw(network, 16, pisa::kDefaultStageSramBytes);
    AskConfig cfg = test_config();
    AskSwitchProgram program(cfg, sw, 0, cfg.max_channels());
    Wal wal("controller");
    AskSwitchController ctl({&program}, wal);

    std::uint32_t cap = cfg.copy_size();
    EXPECT_EQ(ctl.free_aggregators(), cap);

    auto r1 = ctl.allocate(1, 10);
    auto r2 = ctl.allocate(2, 10);
    ASSERT_TRUE(r1 && r2);
    EXPECT_EQ(ctl.free_aggregators(), cap - 20);
    EXPECT_NE(r1->epoch_slot, r2->epoch_slot);

    // Regions must not overlap.
    EXPECT_TRUE(r1->base + r1->len <= r2->base ||
                r2->base + r2->len <= r1->base);

    ctl.release(1);
    EXPECT_EQ(ctl.free_aggregators(), cap - 10);
    auto r3 = ctl.allocate(3, 10);  // reuses the freed hole
    ASSERT_TRUE(r3);
    EXPECT_EQ(r3->base, r1->base);

    // Exhaustion: asking for more than remains fails cleanly.
    EXPECT_FALSE(ctl.allocate(4, cap).has_value());
}

}  // namespace
}  // namespace ask::core
