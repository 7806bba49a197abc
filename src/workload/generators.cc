#include "workload/generators.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"

namespace ask::workload {

UniformGenerator::UniformGenerator(std::uint64_t distinct_keys,
                                   std::uint64_t seed, std::string key_prefix,
                                   std::uint64_t id_offset)
    : distinct_(distinct_keys),
      rng_(seed),
      prefix_(std::move(key_prefix)),
      offset_(id_offset)
{
    ASK_ASSERT(distinct_keys > 0, "vocabulary must be non-empty");
}

core::Key
UniformGenerator::key_of(std::uint64_t id) const
{
    return prefix_ + u64_key(offset_ + id);
}

core::KvStream
UniformGenerator::generate(std::uint64_t n, core::Value value)
{
    core::KvStream out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        out.push_back({key_of(rng_.next_below(distinct_)), value});
    return out;
}

ZipfSampler::ZipfSampler(std::uint64_t distinct, double alpha)
    : cdf_(distinct), guide_(distinct), scale_(static_cast<double>(distinct))
{
    ASK_ASSERT(distinct > 0, "vocabulary must be non-empty");
    ASK_ASSERT(distinct <= std::numeric_limits<std::uint32_t>::max(),
               "vocabulary beyond 2^32 ranks");
    double acc = 0.0;
    for (std::uint64_t r = 0; r < distinct; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
        cdf_[r] = acc;
    }
    for (auto& c : cdf_)
        c /= acc;
    // The last entry is acc / acc == 1 > every u and every j / D, so
    // neither this sweep nor a draw's forward steps run off the end.
    std::uint32_t r = 0;
    for (std::uint64_t j = 0; j < distinct; ++j) {
        double u = static_cast<double>(j) / scale_;
        while (cdf_[r] < u)
            ++r;
        guide_[j] = r;
    }
}

ZipfGenerator::ZipfGenerator(std::uint64_t distinct_keys, double alpha,
                             std::uint64_t seed, std::string key_prefix)
    : distinct_(distinct_keys),
      alpha_(alpha),
      rng_(seed),
      prefix_(std::move(key_prefix)),
      sampler_(distinct_keys, alpha)
{
    ASK_ASSERT(alpha >= 0.0, "zipf exponent must be non-negative");
}

std::uint64_t
ZipfGenerator::sample_rank()
{
    return sampler_.rank(rng_.next_double());
}

core::Key
ZipfGenerator::key_of(std::uint64_t rank) const
{
    return prefix_ + u64_key(rank);
}

core::KvStream
ZipfGenerator::generate(std::uint64_t n, KeyOrder order, core::Value value)
{
    core::KvStream out;
    out.reserve(n);
    if (order == KeyOrder::kShuffled) {
        for (std::uint64_t i = 0; i < n; ++i)
            out.push_back({key_of(sample_rank()), value});  // i.i.d. draws
        return out;
    }
    // Rank order: count the draws per rank, then lay each rank's key,
    // built once, out as often as it was drawn.
    std::vector<std::uint64_t> draws(distinct_);
    for (std::uint64_t i = 0; i < n; ++i)
        ++draws[sample_rank()];
    for (std::uint64_t k = 0; k < distinct_; ++k) {
        std::uint64_t r = order == KeyOrder::kHotFirst ? k : distinct_ - 1 - k;
        if (draws[r] > 0)
            out.insert(out.end(), draws[r], {key_of(r), value});
    }
    return out;
}

core::KvStream
value_stream(std::uint64_t length, core::Value value, std::uint64_t seed,
             std::uint64_t index_offset)
{
    Rng rng(seed);
    core::KvStream out;
    out.reserve(length);
    for (std::uint64_t i = 0; i < length; ++i) {
        core::Value v = value != 0
                            ? value
                            : static_cast<core::Value>(rng.next_below(1000));
        out.push_back({u64_key(index_offset + i), v});
    }
    return out;
}

}  // namespace ask::workload
