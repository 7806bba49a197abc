/**
 * @file
 * A stateful register array on a PISA match-action stage.
 *
 * This models the Tofino hardware restriction the whole ASK switch design
 * is shaped by (paper §2.2.1): during one packet's pass through the
 * pipeline, each register array may be accessed *once*, and that access is
 * a read-modify-write of a *single* index (one stateful-ALU operation).
 * The model enforces the restriction at runtime — a program that touches
 * an array twice in one pass, or walks back to an earlier stage, panics —
 * so passing the test suite proves the ASK program is PISA-legal on the
 * packets it ran. The static verifier (`pisa/verify/`) complements this
 * with an install-time proof over *every* path, and with
 * ASK_VERIFY_ACCESSES armed each dynamic access is additionally
 * cross-checked against that proof's access plan.
 */
#ifndef ASK_PISA_REGISTER_ARRAY_H
#define ASK_PISA_REGISTER_ARRAY_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.h"

namespace ask::pisa {

class Stage;

/**
 * An array of fixed-width registers living in one stage's SRAM.
 *
 * Data-plane access goes through rmw(); control-plane (slow path) access
 * through cp_read()/cp_write(), which are not subject to the per-pass
 * discipline (the real switch CPU accesses SRAM out of band).
 */
class RegisterArray
{
  public:
    /**
     * @param name       unique name within the pipeline (for lookups).
     * @param num_entries number of registers.
     * @param width_bits  register width; 1..64.
     */
    RegisterArray(std::string name, std::size_t num_entries,
                  std::uint32_t width_bits);

    ~RegisterArray();
    RegisterArray(const RegisterArray&) = delete;
    RegisterArray& operator=(const RegisterArray&) = delete;

    /**
     * Data-plane read-modify-write of one register during the current
     * pass. `fn` receives the register value by reference and may update
     * it. Enforces: at most one rmw per pass, monotonically increasing
     * stage order within the pass, index in range, and the written value
     * fitting the register width.
     *
     * @return the value left in the register after `fn` runs.
     */
    template <typename Fn>
    std::uint64_t
    rmw(std::size_t index, Fn&& fn)
    {
        check_access(index);
        std::uint64_t& slot = values_[index];
        fn(slot);
        check_width(slot);
        written_[index / kBlockEntries] = 1;
        return slot;
    }

    /** Control-plane read (no pass discipline). */
    std::uint64_t cp_read(std::size_t index) const;

    /** Control-plane write (no pass discipline). */
    void cp_write(std::size_t index, std::uint64_t value);

    /** Control-plane bulk reset of a contiguous region to zero. Writes
     *  only the registers that hold a value, and reads no block that was
     *  never written, so clearing a region no packet touched leaves its
     *  pages unmaterialized. */
    void cp_clear(std::size_t first, std::size_t count);

    /**
     * Control-plane scan of registers [first, first + count): calls
     * `fn(index, value)` for every register holding a nonzero value, in
     * index order. Blocks never written hold only zeros and are skipped
     * unread, so the scan costs what was written, not the region's size.
     */
    template <typename Fn>
    void
    cp_scan(std::size_t first, std::size_t count, Fn&& fn) const
    {
        ASK_ASSERT(first + count <= size_, "register region out of range in '",
                   name_, "'");
        const std::size_t end = first + count;
        for (std::size_t i = first; i < end;) {
            std::size_t block = i / kBlockEntries;
            std::size_t stop = std::min(end, (block + 1) * kBlockEntries);
            if (written_[block] != 0) {
                for (; i < stop; ++i) {
                    if (values_[i] != 0)
                        fn(i, values_[i]);
                }
            }
            i = stop;
        }
    }

    const std::string& name() const { return name_; }
    std::size_t size() const { return size_; }
    std::uint32_t width_bits() const { return width_bits_; }

    /** SRAM footprint in bytes (width rounded up to whole bytes). */
    std::size_t sram_bytes() const;

    /** Number of data-plane accesses ever made (for utilization stats). */
    std::uint64_t access_count() const { return access_count_; }

  private:
    friend class Stage;
    friend class Pipeline;

    /** Defined inline at the bottom of pipeline.h (it dereferences the
     *  owning stage and pipeline, which are incomplete here). */
    void check_access(std::size_t index);

    void
    check_width(std::uint64_t value) const
    {
        if (value > max_value_) [[unlikely]]
            width_overflow(value);
    }

    [[noreturn]] void width_overflow(std::uint64_t value) const;

    std::string name_;
    std::uint32_t width_bits_;
    std::uint64_t max_value_;
    std::size_t size_;
    /** The array's own anonymous mapping: a page costs host memory only
     *  once a register in it is written. */
    std::uint64_t* values_ = nullptr;
    /** Registers per block of `written_`: one 4 KiB page's worth. */
    static constexpr std::size_t kBlockEntries = 512;
    /** 1 for a block any register of which was ever written. A block
     *  never written holds only zeros: the control plane reads and
     *  clears it without touching its pages, which would map them. */
    std::vector<std::uint8_t> written_;

    Stage* stage_ = nullptr;        ///< set when added to a stage
    std::uint64_t pass_epoch_ = 0;  ///< last pass this array was accessed in
    std::uint64_t access_count_ = 0;
};

}  // namespace ask::pisa

#endif  // ASK_PISA_REGISTER_ARRAY_H
