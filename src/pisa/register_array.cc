#include "pisa/register_array.h"

#include <sys/mman.h>

#include <new>

#include "pisa/pipeline.h"
#include "pisa/stage.h"

namespace ask::pisa {

RegisterArray::RegisterArray(std::string name, std::size_t num_entries,
                             std::uint32_t width_bits)
    : name_(std::move(name)),
      width_bits_(width_bits),
      size_(num_entries),
      written_((num_entries + kBlockEntries - 1) / kBlockEntries, 0)
{
    if (width_bits < 1 || width_bits > 64)
        fail_config("register width must be 1..64 bits: ", name_);
    if (num_entries == 0)
        fail_config("empty register array: ", name_);
    max_value_ = width_bits == 64 ? ~0ULL : ((1ULL << width_bits) - 1);
    // A task uses only its own region of a switch's SRAM. A fresh
    // anonymous mapping is untouched zero pages, so a page costs host
    // memory on first write, in every cluster a process builds. calloc
    // gave that only until the first large block was freed: glibc then
    // raises its mmap threshold, serves later arrays from the heap and
    // zeroes reused chunks by hand.
    void* p = mmap(nullptr, size_ * sizeof(std::uint64_t),
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    values_ = static_cast<std::uint64_t*>(p);
}

RegisterArray::~RegisterArray()
{
    munmap(values_, size_ * sizeof(std::uint64_t));
}

void
RegisterArray::width_overflow(std::uint64_t value) const
{
    panic("value 0x", std::hex, value, " overflows ", std::dec,
          width_bits_, "-bit register in '", name_, "'");
}

std::uint64_t
RegisterArray::cp_read(std::size_t index) const
{
    ASK_ASSERT(index < size_, "cp_read out of range in '", name_, "'");
    return written_[index / kBlockEntries] != 0 ? values_[index] : 0;
}

void
RegisterArray::cp_write(std::size_t index, std::uint64_t value)
{
    ASK_ASSERT(index < size_, "cp_write out of range in '", name_, "'");
    check_width(value);
    values_[index] = value;
    written_[index / kBlockEntries] = 1;
}

void
RegisterArray::cp_clear(std::size_t first, std::size_t count)
{
    cp_scan(first, count,
            [this](std::size_t i, std::uint64_t) { values_[i] = 0; });
}

std::size_t
RegisterArray::sram_bytes() const
{
    // Entries are bit-packed in SRAM (a 1-bit array of W entries costs
    // W bits, matching the paper's 256 + 256x32 bit = 1056 B per-channel
    // accounting).
    return (size_ * width_bits_ + 7) / 8;
}

}  // namespace ask::pisa
