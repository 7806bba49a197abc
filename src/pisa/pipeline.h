/**
 * @file
 * A PISA pipeline: an ordered sequence of match-action stages.
 *
 * A packet traverses the stages sequentially exactly once per pass
 * (paper §2.2.1). The pipeline tracks the pass discipline: begin_pass()
 * opens a pass, and register accesses must proceed in non-decreasing
 * stage order within it.
 */
#ifndef ASK_PISA_PIPELINE_H
#define ASK_PISA_PIPELINE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "pisa/stage.h"

namespace ask::pisa {

namespace verify {
class AccessOracle;
}  // namespace verify

/** Default number of match-action stages per pipeline (Tofino3: 16). */
constexpr std::size_t kDefaultStagesPerPipeline = 16;

/** An ordered sequence of stages with a per-pass access discipline. */
class Pipeline
{
  public:
    /**
     * @param num_stages stage count (chained pipelines are modeled as one
     *        longer pipeline; see DESIGN.md).
     * @param sram_per_stage SRAM budget per stage in bytes.
     */
    explicit Pipeline(std::size_t num_stages = kDefaultStagesPerPipeline,
                      std::size_t sram_per_stage = kDefaultStageSramBytes);

    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    /** Open a new pass: resets the per-pass access state. */
    void begin_pass();

    /** Current pass number (increments on begin_pass). */
    std::uint64_t pass_epoch() const { return pass_epoch_; }

    /** Called by RegisterArray::rmw to enforce stage ordering. Inline:
     *  one call per stateful access on the data-plane hot path. */
    void
    touch_stage(std::size_t stage_index)
    {
        // A packet flows forward through the stages; a program accessing
        // a stage earlier than one it already used would require a second
        // pass on real hardware.
        if (stage_index < pass_stage_cursor_) [[unlikely]]
            touch_stage_backwards(stage_index);
        pass_stage_cursor_ = stage_index;
    }

    /**
     * Arm the ASK_VERIFY_ACCESSES runtime cross-check: every data-plane
     * access of every subsequent pass is replayed against `oracle`'s
     * access plan, and an access the static proof never predicted
     * panics with the pass's access log. `oracle` is borrowed (owned by
     * the installed program); nullptr disarms.
     */
    void set_access_oracle(verify::AccessOracle* oracle);
    verify::AccessOracle* access_oracle() const { return oracle_; }

    /** Called by RegisterArray::rmw: cross-check one access against
     *  the armed oracle (no-op when disarmed — the common case, so only
     *  the null test sits on the hot path). */
    void
    check_predicted(const std::string& array_name)
    {
        if (oracle_ != nullptr) [[unlikely]]
            check_predicted_armed(array_name);
    }

    std::size_t num_stages() const { return stages_.size(); }
    Stage* stage(std::size_t i) { return stages_.at(i).get(); }

    /** Look up an array by name across all stages; nullptr if absent. */
    RegisterArray* find_array(const std::string& name) const;

    /**
     * Zero every register of every array (chaos injection: the SRAM
     * state a switch reboot destroys). Array declarations survive — a
     * rebooted switch reloads its program image; only the stateful
     * register contents are volatile.
     */
    void wipe_registers();

    /** Total SRAM used across stages. */
    std::size_t sram_used_bytes() const;

    /** Total SRAM budget across stages. */
    std::size_t sram_budget_bytes() const;

  private:
    [[noreturn]] void touch_stage_backwards(std::size_t stage_index) const;
    void check_predicted_armed(const std::string& array_name);

    std::vector<std::unique_ptr<Stage>> stages_;
    std::uint64_t pass_epoch_ = 0;
    std::size_t pass_stage_cursor_ = 0;
    verify::AccessOracle* oracle_ = nullptr;  ///< borrowed, may be null
};

// RegisterArray::check_access guards every data-plane rmw. It walks
// array -> stage -> pipeline, so its body needs the two classes above and
// lives here rather than in register_array.h; `inline` only lets this
// header define it. The compiler is free not to inline it into a call
// site, and the switch program's calls are not inlined today.
inline void
RegisterArray::check_access(std::size_t index)
{
    ASK_ASSERT(stage_ != nullptr,
               "register array '", name_, "' not placed on a stage");
    ASK_ASSERT(index < size_,
               "index ", index, " out of range in '", name_, "'");
    Pipeline* pipe = stage_->pipeline();
    std::uint64_t epoch = pipe->pass_epoch();
    // PISA: one stateful-ALU access per register array per packet pass.
    if (pass_epoch_ == epoch) [[unlikely]] {
        panic("register array '", name_,
              "' accessed twice in one pipeline pass");
    }
    pipe->touch_stage(stage_->index());
    pipe->check_predicted(name_);
    pass_epoch_ = epoch;
    ++access_count_;
}

}  // namespace ask::pisa

#endif  // ASK_PISA_PIPELINE_H
