/**
 * Unit tests for the static PISA-legality verifier: the real ASK plans
 * must prove legal, hand-built illegal plans must be rejected with
 * path-trace diagnostics, and the dynamic AccessOracle must accept
 * exactly the sequences the plan predicts.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "ask/config.h"
#include "ask/switch_program.h"
#include "net/network.h"
#include "pisa/pipeline.h"
#include "pisa/pisa_switch.h"
#include "pisa/verify/access_plan.h"
#include "pisa/verify/oracle.h"
#include "pisa/verify/verifier.h"
#include "sim/simulator.h"

namespace ask::pisa::verify {
namespace {

PipelineBudget
default_budget()
{
    PipelineBudget b;
    b.num_stages = kDefaultStagesPerPipeline;
    b.sram_per_stage = kDefaultStageSramBytes;
    b.max_arrays_per_stage = kMaxRegisterArraysPerStage;
    return b;
}

/** First violation of `rule`; nullptr when the rule never fired. */
const Violation*
find_violation(const VerifyResult& result, const std::string& rule)
{
    for (const auto& v : result.violations) {
        if (v.rule == rule)
            return &v;
    }
    return nullptr;
}

// ---------------------------------------------------------------------------
// The real ASK plans are PISA-legal
// ---------------------------------------------------------------------------

TEST(AccessPlanVerify, DefaultConfigIsLegal)
{
    core::AskConfig config;  // paper default: 32 AAs
    config.validate();
    AccessPlan plan = core::AskSwitchProgram::make_access_plan(
        config, config.max_channels());
    VerifyResult result = verify(plan, default_budget());
    EXPECT_TRUE(result.ok()) << result.describe();
    EXPECT_GT(result.paths_checked, 0u);
}

TEST(AccessPlanVerify, ShadowCopiesOffIsLegal)
{
    core::AskConfig config;
    config.shadow_copies = false;
    config.validate();
    AccessPlan plan = core::AskSwitchProgram::make_access_plan(
        config, config.max_channels());
    VerifyResult result = verify(plan, default_budget());
    EXPECT_TRUE(result.ok()) << result.describe();
}

TEST(AccessPlanVerify, ReduceOpsDeclaredPerPartBits)
{
    // 32-bit vParts compile all five operators; 16-bit vParts cannot
    // carry Q-format floats, so kFloat is absent from that plan — the
    // declaration gap is what install-time binding rejects against.
    core::AskConfig config;
    config.validate();
    AccessPlan plan = core::AskSwitchProgram::make_access_plan(
        config, config.max_channels());
    EXPECT_EQ(plan.reduce_ops.size(), 5u);
    ASSERT_NE(plan.find_reduce_op(4), nullptr);
    EXPECT_EQ(plan.find_reduce_op(4)->name, "float");
    EXPECT_EQ(plan.find_reduce_op(4)->value_bits, 32u);

    core::AskConfig narrow;
    narrow.part_bits = 16;
    narrow.validate();
    AccessPlan p16 = core::AskSwitchProgram::make_access_plan(
        narrow, narrow.max_channels());
    EXPECT_EQ(p16.reduce_ops.size(), 4u);
    EXPECT_EQ(p16.find_reduce_op(4), nullptr);
    for (std::uint8_t id = 0; id < 4; ++id)
        EXPECT_NE(p16.find_reduce_op(id), nullptr) << unsigned(id);
    VerifyResult result = verify(p16, default_budget());
    EXPECT_TRUE(result.ok()) << result.describe();
}

TEST(AccessPlanVerify, MalformedReduceOpDeclarationsRejected)
{
    core::AskConfig config;
    config.validate();
    const AccessPlan base = core::AskSwitchProgram::make_access_plan(
        config, config.max_channels());

    auto expect_rejected = [&](ReduceOpDecl decl, const char* why) {
        AccessPlan plan = base;
        plan.reduce_ops.push_back(std::move(decl));
        VerifyResult result = verify(plan, default_budget());
        EXPECT_NE(find_violation(result, "reduce-op"), nullptr) << why;
    };
    expect_rejected({0, "sum2", 32}, "duplicate id");
    expect_rejected({9, "", 32}, "missing name");
    expect_rejected({9, "sum", 32}, "duplicate name");
    expect_rejected({9, "wide", 64}, "operand wider than a vPart");
    expect_rejected({9, "null", 0}, "zero-width operand");
}

TEST(AccessPlanVerify, PlanMatchesInstalledPlacement)
{
    // The constructor declares exactly the plan's arrays: same names,
    // same stages, same SRAM shape.
    sim::Simulator simulator;
    net::Network network(simulator);
    PisaSwitch sw(network, kDefaultStagesPerPipeline, kDefaultStageSramBytes);
    network.attach(&sw);
    core::AskConfig config;
    core::AskSwitchProgram program(config, sw, 0, config.max_channels());

    const AccessPlan& plan = program.access_plan();
    std::size_t declared = 0;
    for (std::size_t s = 0; s < sw.pipeline().num_stages(); ++s)
        declared += sw.pipeline().stage(s)->array_count();
    EXPECT_EQ(declared, plan.arrays.size());

    for (const auto& d : plan.arrays) {
        RegisterArray* arr = sw.pipeline().find_array(d.name);
        ASSERT_NE(arr, nullptr) << d.name;
        EXPECT_EQ(arr->sram_bytes(), d.sram_bytes()) << d.name;
        bool on_stage = false;
        Stage* st = sw.pipeline().stage(d.stage);
        for (std::size_t i = 0; i < st->array_count(); ++i)
            on_stage = on_stage || st->array(i) == arr;
        EXPECT_TRUE(on_stage)
            << d.name << " not on plan stage " << d.stage;
    }
}

// ---------------------------------------------------------------------------
// Hand-built illegal plans are rejected with path traces
// ---------------------------------------------------------------------------

/** Two arrays on separate stages, no passes: a legal skeleton the
 *  illegal-plan tests below extend. */
AccessPlan
skeleton()
{
    AccessPlan plan;
    plan.program = "test";
    plan.arrays.push_back({"a", 0, 16, 32});
    plan.arrays.push_back({"b", 1, 16, 32});
    return plan;
}

TEST(AccessPlanVerify, DoubleAccessOnOnePathRejected)
{
    AccessPlan plan = skeleton();
    PassPlan pass;
    pass.name = "data";
    pass.body.steps.push_back(access("a", AccessKind::kRmw));
    pass.body.steps.push_back(
        branch({"retry", {}},
               {{"hit", {{access("b", AccessKind::kRmw)}}},
                {"repair", {{access("a", AccessKind::kRmw),
                             access("b", AccessKind::kRmw)}}}}));
    plan.passes.push_back(std::move(pass));

    VerifyResult result = verify(plan, default_budget());
    ASSERT_FALSE(result.ok());
    const Violation* v = find_violation(result, "single-access");
    ASSERT_NE(v, nullptr) << result.describe();
    // The diagnostic names the array and the branch arms that reach it.
    EXPECT_NE(v->message.find("'a'"), std::string::npos) << v->message;
    EXPECT_NE(v->message.find("reached twice"), std::string::npos);
    EXPECT_NE(v->path.find("repair"), std::string::npos) << v->path;
    // The legal arm alone raises no violation: only the repair path is
    // reported.
    EXPECT_EQ(v->path.find("hit"), std::string::npos) << v->path;
}

TEST(AccessPlanVerify, BackwardStageHopRejected)
{
    AccessPlan plan = skeleton();
    PassPlan pass;
    pass.name = "data";
    pass.body.steps.push_back(access("b", AccessKind::kRmw));
    pass.body.steps.push_back(access("a", AccessKind::kRmw));
    plan.passes.push_back(std::move(pass));

    VerifyResult result = verify(plan, default_budget());
    const Violation* v = find_violation(result, "backward-stage");
    ASSERT_NE(v, nullptr) << result.describe();
    EXPECT_NE(v->message.find("'a' accessed after stage 1"),
              std::string::npos)
        << v->message;
}

TEST(AccessPlanVerify, GuardDependencyOnLaterStageRejected)
{
    // 'a' (stage 0) is guarded by 'b' (stage 1): the dependency points
    // backwards, so no single pipeline pass can realize it.
    AccessPlan plan = skeleton();
    plan.arrays.push_back({"c", 2, 16, 32});
    PassPlan pass;
    pass.name = "data";
    pass.body.steps.push_back(access("b", AccessKind::kRmw));
    pass.body.steps.push_back(
        branch({"b verdict", {"b"}},
               {{"yes", {{access("c", AccessKind::kRmw),
                          guarded_access("a", AccessKind::kRmw,
                                         {"stale check", {"b"}})}}}}));
    plan.passes.push_back(std::move(pass));

    VerifyResult result = verify(plan, default_budget());
    const Violation* v = find_violation(result, "forward-dependency");
    ASSERT_NE(v, nullptr) << result.describe();
    EXPECT_NE(v->message.find("only feed guards of later stages"),
              std::string::npos)
        << v->message;
}

TEST(AccessPlanVerify, GuardDependencyNotAccessedOnPathRejected)
{
    // The guard of 'b' names 'a', but the path never accesses 'a': the
    // ALU result the guard consumes is never produced.
    AccessPlan plan = skeleton();
    PassPlan pass;
    pass.name = "data";
    pass.body.steps.push_back(
        guarded_access("b", AccessKind::kRmw, {"a verdict", {"a"}}));
    plan.passes.push_back(std::move(pass));
    // Keep coverage happy: 'a' is accessed by another pass.
    PassPlan other;
    other.name = "other";
    other.body.steps.push_back(access("a", AccessKind::kRmw));
    plan.passes.push_back(std::move(other));

    VerifyResult result = verify(plan, default_budget());
    const Violation* v = find_violation(result, "forward-dependency");
    ASSERT_NE(v, nullptr) << result.describe();
    EXPECT_NE(v->message.find("not accessed earlier on this path"),
              std::string::npos)
        << v->message;
}

TEST(AccessPlanVerify, UndeclaredArrayRejected)
{
    AccessPlan plan = skeleton();
    PassPlan pass;
    pass.name = "data";
    pass.body.steps.push_back(access("a", AccessKind::kRmw));
    pass.body.steps.push_back(access("b", AccessKind::kRmw));
    pass.body.steps.push_back(access("ghost", AccessKind::kRmw));
    plan.passes.push_back(std::move(pass));

    VerifyResult result = verify(plan, default_budget());
    const Violation* v = find_violation(result, "coverage");
    ASSERT_NE(v, nullptr) << result.describe();
    EXPECT_NE(v->message.find("undeclared array 'ghost'"),
              std::string::npos)
        << v->message;
}

TEST(AccessPlanVerify, DeadDeclaredArrayRejected)
{
    AccessPlan plan = skeleton();
    PassPlan pass;
    pass.name = "data";
    pass.body.steps.push_back(access("a", AccessKind::kRmw));
    plan.passes.push_back(std::move(pass));  // 'b' never accessed

    VerifyResult result = verify(plan, default_budget());
    const Violation* v = find_violation(result, "coverage");
    ASSERT_NE(v, nullptr) << result.describe();
    EXPECT_NE(v->message.find("'b' is never accessed"), std::string::npos)
        << v->message;
}

TEST(AccessPlanVerify, TooManyArraysPerStageRejected)
{
    AccessPlan plan;
    plan.program = "test";
    PassPlan pass;
    pass.name = "data";
    for (int i = 0; i < 5; ++i) {
        std::string name = "r" + std::to_string(i);
        plan.arrays.push_back({name, 0, 16, 32});
        pass.body.steps.push_back(access(name, AccessKind::kRmw));
    }
    plan.passes.push_back(std::move(pass));

    VerifyResult result = verify(plan, default_budget());
    const Violation* v = find_violation(result, "stage-arrays");
    ASSERT_NE(v, nullptr) << result.describe();
    EXPECT_NE(v->message.find("5 register arrays"), std::string::npos)
        << v->message;
}

TEST(AccessPlanVerify, SramOverflowRejected)
{
    AccessPlan plan;
    plan.program = "test";
    plan.arrays.push_back({"big", 0, 1 << 20, 64});  // 8 MiB
    PassPlan pass;
    pass.name = "data";
    pass.body.steps.push_back(access("big", AccessKind::kRmw));
    plan.passes.push_back(std::move(pass));

    VerifyResult result = verify(plan, default_budget());
    const Violation* v = find_violation(result, "sram");
    ASSERT_NE(v, nullptr) << result.describe();
    EXPECT_NE(v->message.find("SRAM exhausted"), std::string::npos);
}

TEST(AccessPlanVerify, StagePastPipelineEndRejected)
{
    AccessPlan plan = skeleton();
    plan.arrays.push_back({"far", 99, 16, 32});
    PassPlan pass;
    pass.name = "data";
    pass.body.steps.push_back(access("a", AccessKind::kRmw));
    pass.body.steps.push_back(access("b", AccessKind::kRmw));
    pass.body.steps.push_back(access("far", AccessKind::kRmw));
    plan.passes.push_back(std::move(pass));

    VerifyResult result = verify(plan, default_budget());
    const Violation* v = find_violation(result, "stage-count");
    ASSERT_NE(v, nullptr) << result.describe();
    EXPECT_NE(v->message.find("stage 99"), std::string::npos) << v->message;
}

// ---------------------------------------------------------------------------
// The dynamic oracle accepts planned sequences and kills unplanned ones
// ---------------------------------------------------------------------------

TEST(AccessOracle, AcceptsEveryAskDataPassVariant)
{
    core::AskConfig config;  // shadow copies on
    config.validate();
    AccessOracle oracle(core::AskSwitchProgram::make_access_plan(
        config, config.max_channels()));

    auto accepts = [&](const std::vector<std::string>& seq) {
        oracle.begin_pass();
        for (const auto& a : seq) {
            if (!oracle.on_access(a, nullptr))
                return false;
        }
        return true;
    };

    EXPECT_TRUE(accepts({"max_seq"}));  // stale drop
    EXPECT_TRUE(accepts({"max_seq", "seen", "pkt_state"}));  // duplicate
    EXPECT_TRUE(accepts({"max_seq", "seen"}));               // long_data
    EXPECT_TRUE(accepts({"swap_epoch"}));                    // swap
    EXPECT_TRUE(accepts({}));                                // forward
    // First appearance: epoch read, then any ascending AA subset.
    EXPECT_TRUE(accepts({"max_seq", "seen", "swap_epoch", "aa_0", "aa_5",
                         "aa_31", "pkt_state"}));

    EXPECT_FALSE(accepts({"seen"}));  // skipped the stage-0 boundary
    EXPECT_FALSE(accepts({"max_seq", "seen", "aa_5", "aa_0", "pkt_state"}))
        << "descending AA order must die";
    EXPECT_FALSE(accepts({"max_seq", "seen", "seen"}));
    EXPECT_FALSE(accepts({"max_seq", "seen", "pkt_state", "aa_0"}));
}

TEST(AccessOracle, PlainSeenParityOrders)
{
    // PlainSeen's 2W-bit ring as a PISA program would have to lay it
    // out: two W-bit halves on one stage, so Eq. (6)'s record and
    // Eq. (7)'s clear-ahead touch different arrays. The segment parity
    // picks the order, so the two branch arms reach the same two arrays
    // in opposite orders.
    AccessPlan plan;
    plan.program = "plain-seen";
    plan.arrays.push_back({"max_seq", 0, 4, 32});
    plan.arrays.push_back({"ring_lo", 1, 64, 1});
    plan.arrays.push_back({"ring_hi", 1, 64, 1});
    plan.arrays.push_back({"pkt_state", 2, 64, 8});
    PassPlan data;
    data.name = "data";
    data.body.steps.push_back(access("max_seq", AccessKind::kRmw));
    data.body.steps.push_back(branch(
        {"segment parity (seq/W)", {}},
        {{"even-segment", {{access("ring_lo", AccessKind::kRmw),
                            access("ring_hi", AccessKind::kRmw)}}},
         {"odd-segment", {{access("ring_hi", AccessKind::kRmw),
                           access("ring_lo", AccessKind::kRmw)}}}}));
    data.body.steps.push_back(
        access("pkt_state", AccessKind::kRmw, {"ring_lo", "ring_hi"}));
    plan.passes.push_back(std::move(data));
    VerifyResult result = verify(plan, default_budget());
    ASSERT_TRUE(result.ok()) << result.describe();
    AccessOracle oracle(plan);

    auto accepts = [&](const std::vector<std::string>& seq) {
        oracle.begin_pass();
        for (const auto& a : seq) {
            if (!oracle.on_access(a, nullptr))
                return false;
        }
        return true;
    };

    // Record-then-clear runs in parity order: either array may lead.
    EXPECT_TRUE(accepts({"max_seq", "ring_lo", "ring_hi", "pkt_state"}));
    EXPECT_TRUE(accepts({"max_seq", "ring_hi", "ring_lo", "pkt_state"}));
    EXPECT_FALSE(accepts({"max_seq", "ring_lo", "ring_lo"}));
    EXPECT_FALSE(accepts({"max_seq", "ring_lo", "pkt_state"}))
        << "skipping the clear-ahead must die";
}

TEST(AccessOracle, DiagnosticListsThePassLog)
{
    core::AskConfig config;
    config.validate();
    AccessOracle oracle(core::AskSwitchProgram::make_access_plan(
        config, config.max_channels()));
    oracle.begin_pass();
    EXPECT_TRUE(oracle.on_access("max_seq", nullptr));
    std::string diag;
    EXPECT_FALSE(oracle.on_access("pkt_state", &diag))
        << "pkt_state without seen must die";
    EXPECT_NE(diag.find("pkt_state"), std::string::npos) << diag;
    EXPECT_NE(diag.find("max_seq"), std::string::npos) << diag;
}

TEST(AccessOracle, CountsPassesAndAccesses)
{
    core::AskConfig config;
    config.validate();
    AccessOracle oracle(core::AskSwitchProgram::make_access_plan(
        config, config.max_channels()));
    oracle.begin_pass();
    oracle.on_access("max_seq", nullptr);
    oracle.begin_pass();
    oracle.on_access("max_seq", nullptr);
    oracle.on_access("seen", nullptr);
    EXPECT_EQ(oracle.passes(), 2u);
    EXPECT_EQ(oracle.accesses(), 3u);
}

// ---------------------------------------------------------------------------
// End to end: the armed cross-check survives real traffic
// ---------------------------------------------------------------------------

TEST(AccessOracle, ArmedProgramProcessesTraffic)
{
    sim::Simulator simulator;
    net::Network network(simulator);
    PisaSwitch sw(network, kDefaultStagesPerPipeline, kDefaultStageSramBytes);
    network.attach(&sw);
    core::AskConfig config;
    core::AskSwitchProgram program(config, sw, 0, config.max_channels());
    program.enable_access_verification();
    ASSERT_NE(program.access_oracle(), nullptr);
    EXPECT_EQ(sw.pipeline().access_oracle(), program.access_oracle());
    // Idempotent.
    program.enable_access_verification();
    EXPECT_EQ(sw.pipeline().access_oracle(), program.access_oracle());
}

}  // namespace
}  // namespace ask::pisa::verify
