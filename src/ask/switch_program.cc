#include "ask/switch_program.h"

#include <bit>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "pisa/verify/verifier.h"

namespace ask::core {

namespace {

/** Pack kPart (key segment) and vPart (value) into one register word. */
std::uint64_t
pack_agg(std::uint32_t part_bits, std::uint32_t seg, Value value)
{
    return (static_cast<std::uint64_t>(seg) << part_bits) | value;
}

std::uint32_t
kpart(std::uint32_t part_bits, std::uint64_t word)
{
    return static_cast<std::uint32_t>(word >> part_bits);
}

Value
vpart(std::uint32_t part_bits, std::uint64_t word)
{
    return static_cast<Value>(word & ((1ULL << part_bits) - 1));
}

}  // namespace

pisa::verify::AccessPlan
AskSwitchProgram::make_access_plan(const AskConfig& config)
{
    return make_access_plan(config, config.max_channels());
}

pisa::verify::AccessPlan
AskSwitchProgram::make_access_plan(const AskConfig& config,
                                   std::uint32_t num_channels)
{
    namespace v = pisa::verify;
    using v::AccessKind;

    std::size_t channels = num_channels;
    std::size_t w = config.window;
    std::size_t aa_stages = (config.num_aas + 3) / 4;
    std::size_t last_stage = 2 + aa_stages;

    v::AccessPlan plan;
    plan.program = "ask-aggregation";

    // ---- declarations: the layout the constructor installs ------------

    plan.arrays.push_back({"max_seq", 0, channels, 32});
    if (config.compact_seen) {
        plan.arrays.push_back({"seen", 1, channels * w, 1});
    } else {
        plan.arrays.push_back({"seen_even", 1, channels * w, 1});
        plan.arrays.push_back({"seen_odd", 1, channels * w, 1});
    }
    plan.arrays.push_back({"swap_epoch", 1, config.max_tasks, 32});
    for (std::uint32_t i = 0; i < config.num_aas; ++i) {
        plan.arrays.push_back({"aa_" + std::to_string(i), 2 + i / 4,
                               config.aggregators_per_aa,
                               config.part_bits * 2});
    }
    plan.arrays.push_back(
        {"pkt_state", last_stage, channels * w, config.num_aas});

    // Reduction operators the aggregator ALUs compile in. The integer
    // menu (add / unsigned max / unsigned min, plus count == add over
    // lifted ones) fits any PISA stateful ALU; the fixed-point float
    // mode reuses the wrapping add and therefore needs the full 32-bit
    // vPart (two's-complement Q-format, see float_encode()).
    auto declare_op = [&](ReduceOp op) {
        plan.reduce_ops.push_back({static_cast<std::uint8_t>(op),
                                   reduce_op_name(op), config.part_bits});
    };
    declare_op(ReduceOp::kAdd);
    declare_op(ReduceOp::kMax);
    declare_op(ReduceOp::kMin);
    declare_op(ReduceOp::kCount);
    if (config.part_bits == 32)
        declare_op(ReduceOp::kFloat);

    // ---- shared fragments ---------------------------------------------

    // Receive window (stage 1), branched on the sequence segment parity
    // (a header-only predicate). The compact variant flips one bit's
    // meaning per segment; the plain variant records in one array and
    // clears one window ahead in the other, in parity order.
    auto seen_steps = [&]() -> v::Step {
        if (config.compact_seen) {
            return v::branch(
                {"segment parity (seq/W)", {}},
                {{"even-segment", {{v::access("seen", AccessKind::kRmw)}}},
                 {"odd-segment", {{v::access("seen", AccessKind::kRmw)}}}});
        }
        return v::branch(
            {"segment parity (seq/W)", {}},
            {{"even-segment",
              {{v::access("seen_even", AccessKind::kRmw),
                v::access("seen_odd", AccessKind::kRmw)}}},
             {"odd-segment",
              {{v::access("seen_odd", AccessKind::kRmw),
                v::access("seen_even", AccessKind::kRmw)}}}});
    };

    std::vector<std::string> seen_deps =
        config.compact_seen
            ? std::vector<std::string>{"seen"}
            : std::vector<std::string>{"seen_even", "seen_odd"};

    // The aggregator arrays: each access is predicated on its slot bit
    // in the packet's bitmap (header-only), so any subset may run —
    // always in ascending array (= non-decreasing stage) order.
    auto aa_steps = [&]() -> std::vector<v::Step> {
        std::vector<v::Step> steps;
        steps.reserve(config.num_aas);
        for (std::uint32_t i = 0; i < config.num_aas; ++i) {
            steps.push_back(v::guarded_access(
                "aa_" + std::to_string(i), AccessKind::kRmw,
                {"bitmap slot " + std::to_string(i), {}}));
        }
        return steps;
    };

    // First-appearance aggregation: with shadow copies the epoch parity
    // (read at stage 1) selects the copy the AAs index into; without
    // them the AAs run unconditionally on the single copy.
    v::Seq first_arm;
    if (config.shadow_copies) {
        first_arm.steps.push_back(
            v::branch({"epoch parity copy selection", {"swap_epoch"}},
                      {{"copy-0", {aa_steps()}}, {"copy-1", {aa_steps()}}}));
    } else {
        first_arm.steps = aa_steps();
    }

    // Task-bound arm: the copy indicator is read before the seen verdict
    // can gate it (both live on stage 1), so the plan models it as a
    // header-predicated skippable read — a sound over-approximation of
    // "read only on first appearance".
    v::Seq task_arm;
    if (config.shadow_copies) {
        task_arm.steps.push_back(v::guarded_access(
            "swap_epoch", AccessKind::kRead, {"copy indicator needed", {}}));
    }
    task_arm.steps.push_back(
        v::branch({"first appearance (per seen)", seen_deps},
                  {{"duplicate", {}}, {"first-appearance", first_arm}}));

    // Fresh arm of the DATA pass: record the window, maybe aggregate,
    // then store (first appearance) or restore (retransmission) the
    // per-packet aggregation state — the operation, not the access, is
    // selected by the seen verdict.
    v::Seq fresh_arm;
    fresh_arm.steps.push_back(seen_steps());
    fresh_arm.steps.push_back(
        v::branch({"aggregation table: task known", {}},
                  {{"unknown-task", {}}, {"task-bound", task_arm}}));
    fresh_arm.steps.push_back(
        v::access("pkt_state", AccessKind::kRmw, seen_deps));

    // ---- passes ---------------------------------------------------------

    v::PassPlan data;
    data.name = "data";
    data.body.steps.push_back(v::access("max_seq", AccessKind::kRmw));
    data.body.steps.push_back(
        v::branch({"stale (seq + W <= max_seq)", {"max_seq"}},
                  {{"stale-drop", {}}, {"fresh", fresh_arm}}));
    plan.passes.push_back(std::move(data));

    v::PassPlan long_data;
    long_data.name = "long_data";
    long_data.body.steps.push_back(v::access("max_seq", AccessKind::kRmw));
    long_data.body.steps.push_back(
        v::branch({"stale (seq + W <= max_seq)", {"max_seq"}},
                  {{"stale-drop", {}}, {"fresh", {{seen_steps()}}}}));
    plan.passes.push_back(std::move(long_data));

    v::PassPlan swap;
    swap.name = "swap";
    swap.body.steps.push_back(v::branch(
        {"aggregation table: task known", {}},
        {{"unknown-task", {}},
         {"task-bound", {{v::access("swap_epoch", AccessKind::kRmw)}}}}));
    plan.passes.push_back(std::move(swap));

    v::PassPlan forward;
    forward.name = "forward";  // control / non-ASK traffic: no state
    plan.passes.push_back(std::move(forward));

    return plan;
}

AskSwitchProgram::AskSwitchProgram(const AskConfig& config,
                                   pisa::PisaSwitch& sw)
    : AskSwitchProgram(config, sw, 0,
                       static_cast<ChannelId>(config.max_channels()))
{
}

AskSwitchProgram::AskSwitchProgram(const AskConfig& config,
                                   pisa::PisaSwitch& sw, ChannelId lo,
                                   ChannelId hi)
    : config_(config),
      key_space_(config),
      simulator_(&sw.simulator()),
      pipeline_(&sw.pipeline()),
      switch_(&sw),
      prov_lo_(lo),
      prov_hi_(hi)
{
    config_.validate();
    ASK_ASSERT(lo < hi, "empty provisioned channel range");
    ASK_ASSERT(hi <= config_.max_channels(),
               "provisioned channels exceed the switch's maximum");

    slot_scratch_.resize(config_.num_aas);
    medium_key_scratch_.resize(config_.max_medium_key_bytes());
    short_mask_ = config_.short_aas() >= 64
                      ? ~0ULL
                      : ((1ULL << config_.short_aas()) - 1);
    medium_masks_.reserve(config_.medium_groups);
    for (std::uint32_t g = 0; g < config_.medium_groups; ++g) {
        std::uint64_t mask = 0;
        for (std::uint32_t j = 0; j < config_.medium_segments; ++j)
            mask |= 1ULL << (config_.medium_base(g) + j);
        medium_masks_.push_back(mask);
    }

    plan_ = make_access_plan(
        config_, static_cast<std::uint32_t>(prov_hi_ - prov_lo_));

    // Prove the plan PISA-legal before touching the pipeline: an illegal
    // program never installs (and never partially declares arrays).
    pisa::verify::PipelineBudget budget;
    budget.num_stages = pipeline_->num_stages();
    budget.sram_per_stage = pipeline_->stage(0)->sram_budget_bytes();
    budget.max_arrays_per_stage = pisa::kMaxRegisterArraysPerStage;
    pisa::verify::VerifyResult proof = pisa::verify::verify(plan_, budget);
    if (!proof.ok()) {
        fail_config("ASK program rejected by the static PISA verifier: ",
                    proof.describe());
    }

    // Declare exactly what the verified plan names: the plan is the
    // single source of truth for placement, so the static proof and the
    // installed layout cannot diverge.
    aas_.reserve(config_.num_aas);
    for (const auto& d : plan_.arrays) {
        pisa::RegisterArray* arr =
            pipeline_->stage(d.stage)->add_register_array(d.name, d.entries,
                                                          d.width_bits);
        if (d.name == "max_seq")
            max_seq_ = arr;
        else if (d.name == "seen")
            seen_ = arr;
        else if (d.name == "seen_even")
            seen_even_ = arr;
        else if (d.name == "seen_odd")
            seen_odd_ = arr;
        else if (d.name == "swap_epoch")
            swap_epoch_ = arr;
        else if (d.name == "pkt_state")
            pkt_state_ = arr;
        else
            aas_.push_back(arr);  // declared in ascending aa_i order
    }

    sw.install(this);

    const char* env = std::getenv("ASK_VERIFY_ACCESSES");
    if (env != nullptr && std::string_view(env) != "" &&
        std::string_view(env) != "0") {
        enable_access_verification();
    }
}

AskSwitchProgram::~AskSwitchProgram()
{
    if (oracle_ != nullptr && pipeline_ != nullptr &&
        pipeline_->access_oracle() == oracle_.get()) {
        pipeline_->set_access_oracle(nullptr);
    }
}

void
AskSwitchProgram::enable_access_verification()
{
    if (oracle_ != nullptr)
        return;
    oracle_ = std::make_unique<pisa::verify::AccessOracle>(plan_);
    pipeline_->set_access_oracle(oracle_.get());
}

void
AskSwitchProgram::install_task(TaskId task, const TaskRegion& region)
{
    ASK_ASSERT(region.len > 0, "empty task region");
    ASK_ASSERT(region.base + region.len <= config_.copy_size(),
               "task region exceeds a shadow copy");
    ASK_ASSERT(region.epoch_slot < config_.max_tasks, "bad epoch slot");
    if (plan_.find_reduce_op(static_cast<std::uint8_t>(region.op)) == nullptr) {
        fail_config("task ", task, " binds reduce op '",
                    reduce_op_name(region.op),
                    "' (id ", static_cast<unsigned>(region.op),
                    "), which this program's access plan does not declare");
    }
    auto [it, inserted] = tasks_.emplace(task, region);
    (void)it;
    ASK_ASSERT(inserted, "task ", task, " already installed");
    cached_region_ = nullptr;
}

void
AskSwitchProgram::remove_task(TaskId task)
{
    tasks_.erase(task);
    cached_region_ = nullptr;
}

const TaskRegion*
AskSwitchProgram::find_task(TaskId task) const
{
    if (cached_region_ != nullptr && task == cached_task_)
        return cached_region_;
    auto it = tasks_.find(task);
    if (it == tasks_.end())
        return nullptr;
    cached_task_ = task;
    cached_region_ = &it->second;
    return cached_region_;
}

std::uint32_t
AskSwitchProgram::current_epoch(TaskId task) const
{
    const TaskRegion* r = find_task(task);
    ASK_ASSERT(r != nullptr, "epoch of unknown task ", task);
    return static_cast<std::uint32_t>(swap_epoch_->cp_read(r->epoch_slot));
}

std::uint64_t
AskSwitchProgram::reliability_state_bits() const
{
    std::uint64_t bits = 0;
    for (const auto& d : plan_.arrays) {
        if (d.name == "max_seq" || d.name == "seen" ||
            d.name == "seen_even" || d.name == "seen_odd" ||
            d.name == "pkt_state") {
            bits += static_cast<std::uint64_t>(d.entries) * d.width_bits;
        }
    }
    return bits;
}

void
AskSwitchProgram::reset_epoch(TaskId task)
{
    const TaskRegion* r = find_task(task);
    ASK_ASSERT(r != nullptr, "reset_epoch of unknown task ", task);
    swap_epoch_->cp_write(r->epoch_slot, 0);
}

std::uint64_t
AskSwitchProgram::region_scan_entries(TaskId task) const
{
    const TaskRegion* r = find_task(task);
    ASK_ASSERT(r != nullptr, "scan of unknown task ", task);
    return static_cast<std::uint64_t>(r->len) * config_.num_aas;
}

KvStream
AskSwitchProgram::read_region(TaskId task, std::uint32_t copy, bool clear)
{
    const TaskRegion* r = find_task(task);
    ASK_ASSERT(r != nullptr, "read_region of unknown task ", task);
    ASK_ASSERT(copy == 0 || (config_.shadow_copies && copy == 1),
               "invalid shadow copy index");

    std::uint32_t off = copy * config_.copy_size();
    KvStream out;

    // Short-key AAs: one aggregator holds one whole tuple.
    for (std::uint32_t i = 0; i < config_.short_aas(); ++i) {
        for (std::uint32_t idx = r->base; idx < r->base + r->len; ++idx) {
            std::uint64_t word = aas_[i]->cp_read(off + idx);
            std::uint32_t k = kpart(config_.part_bits, word);
            if (k != 0) {
                out.push_back(KvTuple{
                    KeySpace::unpad(key_space_.decode_segment(k)),
                    vpart(config_.part_bits, word)});
            }
            if (clear)
                aas_[i]->cp_write(off + idx, 0);
        }
    }

    // Medium-key groups: m adjacent AAs share one key at a unified index.
    for (std::uint32_t g = 0; g < config_.medium_groups; ++g) {
        std::uint32_t mb = config_.medium_base(g);
        for (std::uint32_t idx = r->base; idx < r->base + r->len; ++idx) {
            std::uint64_t first = aas_[mb]->cp_read(off + idx);
            if (kpart(config_.part_bits, first) != 0) {
                std::string padded;
                Value value = 0;
                for (std::uint32_t j = 0; j < config_.medium_segments; ++j) {
                    std::uint64_t word = aas_[mb + j]->cp_read(off + idx);
                    padded += key_space_.decode_segment(
                        kpart(config_.part_bits, word));
                    if (j + 1 == config_.medium_segments)
                        value = vpart(config_.part_bits, word);
                }
                out.push_back(KvTuple{KeySpace::unpad(padded), value});
            }
            if (clear) {
                for (std::uint32_t j = 0; j < config_.medium_segments; ++j)
                    aas_[mb + j]->cp_write(off + idx, 0);
            }
        }
    }
    return out;
}

void
AskSwitchProgram::on_reboot()
{
    tasks_.clear();
    cached_region_ = nullptr;
}

void
AskSwitchProgram::fence_channel(ChannelId channel, Seq next_seq)
{
    ASK_ASSERT(provisions(channel), "channel not provisioned on this switch");
    std::uint32_t w = config_.window;
    max_seq_->cp_write(chan_index(channel),
                       static_cast<std::uint64_t>(next_seq) + w - 1);

    std::size_t base = chan_index(channel) * w;
    if (config_.compact_seen) {
        // A fresh packet in an even segment expects bit==0 (set_bit),
        // in an odd segment bit==1 (clr_bitc). Pre-set the parity for
        // the one window the fence admits.
        for (std::uint64_t seq = next_seq;
             seq < static_cast<std::uint64_t>(next_seq) + w; ++seq) {
            std::uint64_t q = seq / w;
            seen_->cp_write(base + seq % w, q % 2 == 1 ? 1 : 0);
        }
    } else {
        seen_even_->cp_clear(base, w);
        seen_odd_->cp_clear(base, w);
    }
    pkt_state_->cp_clear(base, w);
}

SeenSnapshot
AskSwitchProgram::extract_seen(ChannelId channel) const
{
    ASK_ASSERT(provisions(channel), "channel not provisioned on this switch");
    std::uint32_t w = config_.window;
    std::size_t base = chan_index(channel) * w;

    SeenSnapshot snap;
    snap.compact = config_.compact_seen;
    snap.window = w;
    snap.max_seq = static_cast<Seq>(max_seq_->cp_read(chan_index(channel)));
    // The registers have no "never observed" flag: a freshly installed
    // channel reads all-zero, which satisfies every snapshot invariant,
    // so the snapshot is reported as live unconditionally.
    snap.any = true;
    if (config_.compact_seen) {
        snap.bits.resize(w);
        for (std::uint32_t i = 0; i < w; ++i)
            snap.bits[i] =
                static_cast<std::uint8_t>(seen_->cp_read(base + i));
    } else {
        snap.bits.resize(2 * static_cast<std::size_t>(w));
        for (std::uint32_t i = 0; i < w; ++i) {
            snap.bits[i] =
                static_cast<std::uint8_t>(seen_even_->cp_read(base + i));
            snap.bits[w + i] =
                static_cast<std::uint8_t>(seen_odd_->cp_read(base + i));
        }
    }
    return snap;
}

AskSwitchProgram::ProbeResult
AskSwitchProgram::probe_packet(ChannelId channel, Seq seq) const
{
    ASK_ASSERT(provisions(channel), "channel not provisioned on this switch");
    std::uint32_t w = config_.window;
    ProbeResult out;

    std::uint64_t max = max_seq_->cp_read(chan_index(channel));
    if (static_cast<std::uint64_t>(seq) + w <= max)
        return out;  // outside the live window: report not-observed

    std::size_t idx = chan_index(channel) * w + seq % w;
    if (config_.compact_seen) {
        std::uint64_t bit = seen_->cp_read(idx);
        out.observed = (seq / w) % 2 == 0 ? bit != 0 : bit == 0;
    } else {
        bool even = (seq / w) % 2 == 0;
        out.observed = (even ? seen_even_ : seen_odd_)->cp_read(idx) != 0;
    }
    if (out.observed)
        out.remaining = pkt_state_->cp_read(idx);
    return out;
}

AskSwitchProgram::WindowVerdict
AskSwitchProgram::check_window(ChannelId channel, Seq seq)
{
    ASK_ASSERT(provisions(channel), "channel not provisioned on this switch");
    std::uint32_t w = config_.window;
    WindowVerdict verdict;

    // Stage 0: max_seq = max(max_seq, seq); stale if seq <= max_seq - W.
    std::uint64_t max_after =
        max_seq_->rmw(chan_index(channel), [&](std::uint64_t& v) {
            if (seq > v)
                v = seq;
        });
    if (static_cast<std::uint64_t>(seq) + w <= max_after) {
        verdict.stale = true;
        return verdict;
    }

    // Stage 1: the receive window.
    std::uint32_t r = seq % w;
    std::size_t idx = chan_index(channel) * w + r;
    if (config_.compact_seen) {
        // Branch-light fused set_bit/clr_bitc: an even segment returns
        // the previous bit and sets it, an odd segment returns the
        // complement and clears it — both collapse to one XOR against
        // the segment parity and an unconditional store.
        std::uint64_t parity = (seq / w) & 1;
        seen_->rmw(idx, [&](std::uint64_t& b) {
            verdict.observed = (b ^ parity) != 0;
            b = parity ^ 1;
        });
    } else {
        // Reference design: 2W bits as two arrays; record in one segment
        // array, clear the slot one window ahead in the other.
        bool even = (seq / w) % 2 == 0;
        pisa::RegisterArray* rec = even ? seen_even_ : seen_odd_;
        pisa::RegisterArray* clr = even ? seen_odd_ : seen_even_;
        rec->rmw(idx, [&](std::uint64_t& b) {
            verdict.observed = b != 0;
            b = 1;
        });
        clr->rmw(idx, [&](std::uint64_t& b) { b = 0; });
    }
    return verdict;
}

std::uint32_t
AskSwitchProgram::read_indicator(const TaskRegion& region)
{
    if (!config_.shadow_copies)
        return 0;
    std::uint64_t epoch = swap_epoch_->rmw(region.epoch_slot,
                                           [](std::uint64_t&) {});
    return static_cast<std::uint32_t>(epoch & 1);
}

std::uint64_t
AskSwitchProgram::aa_index(const TaskRegion& region, std::uint32_t indicator,
                           std::string_view padded_key) const
{
    return static_cast<std::uint64_t>(indicator) * config_.copy_size() +
           region.base + key_space_.aggregator_index(padded_key, region.len);
}

bool
AskSwitchProgram::aggregate_short(const TaskRegion& region,
                                  std::uint32_t indicator,
                                  std::uint32_t slot_index,
                                  const WireSlot& slot)
{
    std::uint64_t idx =
        static_cast<std::uint64_t>(indicator) * config_.copy_size() +
        region.base +
        key_space_.short_aggregator_index(slot.seg, region.len);
    bool success = false;
    aas_[slot_index]->rmw(idx, [&](std::uint64_t& word) {
        std::uint32_t k = kpart(config_.part_bits, word);
        if (k == 0) {
            word = pack_agg(config_.part_bits, slot.seg, slot.value);
            success = true;
        } else if (k == slot.seg) {
            Value acc = vpart(config_.part_bits, word);
            word = pack_agg(config_.part_bits, slot.seg,
                            apply_op(region.op, acc, slot.value));
            success = true;
        }
    });
    return success;
}

bool
AskSwitchProgram::aggregate_medium(const TaskRegion& region,
                                   std::uint32_t indicator,
                                   std::uint32_t group,
                                   const WireSlot* slots)
{
    std::uint32_t m = config_.medium_segments;
    std::uint32_t mb = config_.medium_base(group);

    // The unified index: hash of the whole padded key (paper §3.2.3),
    // reassembled into the preallocated scratch.
    std::uint32_t nb = config_.seg_bytes();
    for (std::uint32_t j = 0; j < m; ++j) {
        key_space_.decode_segment_into(
            slots[mb + j].seg,
            medium_key_scratch_.data() + static_cast<std::size_t>(j) * nb);
    }
    std::uint64_t idx = aa_index(
        region, indicator,
        std::string_view(medium_key_scratch_.data(),
                         static_cast<std::size_t>(m) * nb));

    bool installing = false;
    for (std::uint32_t j = 0; j < m; ++j) {
        bool ok = false;
        const WireSlot& slot = slots[mb + j];
        Value write_val = (j + 1 == m) ? slot.value : 0;
        aas_[mb + j]->rmw(idx, [&](std::uint64_t& word) {
            std::uint32_t k = kpart(config_.part_bits, word);
            if (k == 0) {
                // Blank. The group invariant (all segments at one index
                // are installed atomically, in order) means the remaining
                // segments are blank too.
                ASK_ASSERT(j == 0 || installing,
                           "medium group invariant violated: blank segment ",
                           j, " after a matching segment");
                installing = true;
                word = pack_agg(config_.part_bits, slot.seg, write_val);
                ok = true;
            } else if (k == slot.seg && !installing) {
                if (j + 1 == m) {
                    Value acc = vpart(config_.part_bits, word);
                    word = pack_agg(config_.part_bits, slot.seg,
                                    apply_op(region.op, acc, slot.value));
                }
                ok = true;
            } else if (installing) {
                panic("medium group invariant violated: occupied segment ",
                      j, " while installing");
            }
        });
        if (!ok)
            return false;  // collision; no earlier segment was modified
    }
    return true;
}

void
AskSwitchProgram::process_data(net::Packet&& pkt, const AskHeader& hdr,
                               pisa::Emitter& emit)
{
    ++stats_.data_packets;

    // Op binding check (a match-table lookup, before any register is
    // touched): a frame whose op id contradicts the installed region
    // would merge with the wrong ALU function, so it is dropped whole —
    // it must not consume a sequence number or flip seen parity either.
    const TaskRegion* region = find_task(hdr.task_id);
    if (region != nullptr && hdr.op != region->op) {
        ++stats_.op_mismatch;
        return;
    }

    WindowVerdict verdict = check_window(hdr.channel_id, hdr.seq);
    if (verdict.stale) {
        ++stats_.stale_dropped;
        ASK_TRACE(tracer_, simulator_->now(), hdr.task_id, hdr.channel_id,
                  hdr.seq, obs::TraceStage::kSwitchStale);
        return;
    }

    std::uint64_t new_bitmap = hdr.bitmap;

    if (!verdict.observed) {
        // Count logical tuples: one per short slot bit plus one per
        // medium group (a medium tuple occupies m bitmap bits).
        stats_.tuples_in += std::popcount(hdr.bitmap & short_mask_);
        for (std::uint32_t g = 0; g < config_.medium_groups; ++g) {
            if (hdr.bitmap & (1ULL << config_.medium_base(g)))
                ++stats_.tuples_in;
        }
        if (region != nullptr) {
            std::uint32_t indicator = read_indicator(*region);

            // Batched pass: decode every occupied payload slot into the
            // preallocated scratch once, then dispatch set bits — the
            // register accesses themselves are unchanged (one rmw per
            // AA, ascending order), so the PISA pass discipline and the
            // access oracle see the exact per-tuple access pattern.
            read_slots(pkt.data, hdr.bitmap, config_.num_aas,
                       slot_scratch_.data());

            // Short-key slots (iterate set bits only).
            for (std::uint64_t rest = hdr.bitmap & short_mask_; rest != 0;
                 rest &= rest - 1) {
                auto i = static_cast<std::uint32_t>(std::countr_zero(rest));
                if (aggregate_short(*region, indicator, i,
                                    slot_scratch_[i])) {
                    new_bitmap &= ~(1ULL << i);
                    ++stats_.tuples_aggregated;
                } else {
                    ++stats_.tuples_collided;
                }
            }

            // Medium-key groups (all-or-nothing per group).
            for (std::uint32_t g = 0; g < config_.medium_groups; ++g) {
                std::uint64_t group_mask = medium_masks_[g];
                std::uint64_t present = hdr.bitmap & group_mask;
                if (present == 0)
                    continue;
                ASK_ASSERT(present == group_mask,
                           "medium group bitmap must be all-or-nothing");
                if (aggregate_medium(*region, indicator, g,
                                     slot_scratch_.data())) {
                    new_bitmap &= ~group_mask;
                    ++stats_.tuples_aggregated;
                } else {
                    ++stats_.tuples_collided;
                }
            }
        } else {
            ++stats_.unknown_task;
        }
    } else {
        ++stats_.duplicates;
    }

    // Final stage: pkt_state — record the aggregation outcome on first
    // appearance (Eq. 9); restore it on retransmissions (Eq. 10).
    std::size_t ps_idx =
        chan_index(hdr.channel_id) * config_.window +
        hdr.seq % config_.window;
    pkt_state_->rmw(ps_idx, [&](std::uint64_t& state) {
        if (!verdict.observed)
            state = new_bitmap;
        else
            new_bitmap = state;
    });

    // A leaf ToR may consume a fully aggregated packet only when the
    // receiver is directly attached (no window-holding switch further
    // along the route) — one FIB lookup, which the egress pipeline does
    // anyway. Cross-rack residuals must stay alive to the tree root.
    bool may_consume =
        !tree_leaf_ || switch_->next_hop(pkt.dst) == pkt.dst;
    if (new_bitmap == 0 && may_consume) {
        // Fully aggregated at the last aggregating hop: consume the
        // packet and ACK the sender with the same sequence number (the
        // switch impersonates the receiver endpoint).
        ++stats_.packets_acked;
        ASK_TRACE(tracer_, simulator_->now(), hdr.task_id, hdr.channel_id,
                  hdr.seq, obs::TraceStage::kSwitchAck);
        AskHeader ack;
        ack.type = PacketType::kAck;
        ack.channel_id = hdr.channel_id;
        ack.task_id = hdr.task_id;
        ack.seq = hdr.seq;
        emit.emit(pkt.src, make_control_packet(pkt.dst, pkt.src, ack));
    } else {
        // Partially aggregated — or a leaf ToR that absorbed everything:
        // keep the packet alive toward the tree root so every window-
        // holding switch on the path observes this sequence number
        // (empty residuals die at the root, which ACKs on their behalf).
        if (new_bitmap == 0)
            ++stats_.residual_forwarded;
        else
            ++stats_.packets_forwarded;
        ASK_TRACE(tracer_, simulator_->now(), hdr.task_id, hdr.channel_id,
                  hdr.seq, obs::TraceStage::kSwitchForward, new_bitmap);
        rewrite_bitmap(pkt.data, new_bitmap);
        net::NodeId dst = pkt.dst;
        emit.emit(dst, std::move(pkt));
    }
}

void
AskSwitchProgram::process_swap(const net::Packet& pkt, const AskHeader& hdr,
                               pisa::Emitter& emit)
{
    const TaskRegion* region = find_task(hdr.task_id);
    if (region == nullptr) {
        ++stats_.unknown_task;
        return;
    }
    std::uint32_t requested = hdr.seq;  // SWAP reuses seq as the epoch
    bool applied = false;
    swap_epoch_->rmw(region->epoch_slot, [&](std::uint64_t& epoch) {
        if (requested > epoch) {
            epoch = requested;
            applied = true;
        }
    });
    if (applied)
        ++stats_.swaps;

    AskHeader ack;
    ack.type = PacketType::kSwapAck;
    ack.task_id = hdr.task_id;
    ack.channel_id = hdr.channel_id;
    ack.seq = requested;
    emit.emit(pkt.src, make_control_packet(pkt.dst, pkt.src, ack));
}

void
AskSwitchProgram::process(net::Packet pkt, pisa::Emitter& emit)
{
    auto hdr = parse_header(pkt.data);
    if (!hdr) {
        // Not ASK traffic: plain L3 forwarding.
        net::NodeId dst = pkt.dst;
        emit.emit(dst, std::move(pkt));
        return;
    }

    if (data_blackhole_) {
        if (hdr->type == PacketType::kData || hdr->type == PacketType::kSwap) {
            ++stats_.blackholed;
            ASK_TRACE(tracer_, simulator_->now(), hdr->task_id,
                      hdr->channel_id, hdr->seq,
                      obs::TraceStage::kSwitchBlackhole);
            return;
        }
        if (hdr->type == PacketType::kLongData) {
            ++stats_.long_packets;
            net::NodeId dst = pkt.dst;
            emit.emit(dst, std::move(pkt));
            return;
        }
    }

    // Multi-rack fabric (§7): data-plane state only covers this switch's
    // provisioned channels (a ToR's own rack; everything for the tier
    // switch); other racks' traffic is plain-forwarded toward the
    // receiver host (aggregation happens at the tier, or at the host).
    if (!provisions(hdr->channel_id) &&
        (hdr->type == PacketType::kData ||
         hdr->type == PacketType::kLongData)) {
        net::NodeId dst = pkt.dst;
        emit.emit(dst, std::move(pkt));
        return;
    }

    switch (hdr->type) {
      case PacketType::kData:
        process_data(std::move(pkt), *hdr, emit);
        return;
      case PacketType::kLongData: {
        // Long keys bypass aggregation but still occupy channel sequence
        // numbers, so they must be recorded in the receive window to keep
        // the compact-seen segment parity consistent.
        ++stats_.long_packets;
        WindowVerdict verdict = check_window(hdr->channel_id, hdr->seq);
        if (verdict.stale) {
            ++stats_.stale_dropped;
            ASK_TRACE(tracer_, simulator_->now(), hdr->task_id,
                      hdr->channel_id, hdr->seq,
                      obs::TraceStage::kSwitchStale);
            return;
        }
        if (verdict.observed)
            ++stats_.duplicates;
        ASK_TRACE(tracer_, simulator_->now(), hdr->task_id, hdr->channel_id,
                  hdr->seq, obs::TraceStage::kSwitchForward, 0,
                  obs::kTraceFlagBypass);
        net::NodeId dst = pkt.dst;
        emit.emit(dst, std::move(pkt));
        return;
      }
      case PacketType::kSwap:
        process_swap(pkt, *hdr, emit);
        return;
      case PacketType::kAck:
      case PacketType::kFin:
      case PacketType::kFinAck:
      case PacketType::kSwapAck: {
        // Control traffic between hosts: forward.
        net::NodeId dst = pkt.dst;
        emit.emit(dst, std::move(pkt));
        return;
      }
    }
    panic("unknown ASK packet type ",
          static_cast<int>(static_cast<std::uint8_t>(hdr->type)));
}

}  // namespace ask::core
