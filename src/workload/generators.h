/**
 * @file
 * Synthetic key-value stream generators: uniform and Zipf-distributed
 * keys with controllable arrival order (paper §5.4's Zipf / Zipf-reverse
 * / Uniform datasets), plus value-stream (tensor) generation for the
 * distributed-training experiments.
 */
#ifndef ASK_WORKLOAD_GENERATORS_H
#define ASK_WORKLOAD_GENERATORS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ask/types.h"
#include "common/random.h"

namespace ask::workload {

/** Arrival order of keys in a generated stream. */
enum class KeyOrder : std::uint8_t
{
    kShuffled,   ///< random interleaving (the realistic default)
    kHotFirst,   ///< hot keys appear early (paper's "Zipf" dataset)
    kColdFirst,  ///< cold keys appear early (paper's "Zipf (reverse)")
};

/** Uniformly-distributed keys over a fixed vocabulary. */
class UniformGenerator
{
  public:
    /**
     * @param distinct_keys vocabulary size.
     * @param seed RNG seed (streams are reproducible).
     * @param key_prefix prepended to every key (distinct per sender if
     *        cross-sender overlap is not wanted). Note: prefixes grow
     *        the key length and may change its class; to isolate key
     *        spaces while keeping keys short, use `id_offset` instead.
     * @param id_offset added to every vocabulary id before encoding.
     */
    UniformGenerator(std::uint64_t distinct_keys, std::uint64_t seed,
                     std::string key_prefix = "",
                     std::uint64_t id_offset = 0);

    /** Generate `n` tuples with the given value. */
    core::KvStream generate(std::uint64_t n, core::Value value = 1);

    /** The key for vocabulary id `id` (stable). */
    core::Key key_of(std::uint64_t id) const;

  private:
    std::uint64_t distinct_;
    Rng rng_;
    std::string prefix_;
    std::uint64_t offset_;
};

/**
 * Exact inverse-CDF sampling of Zipf ranks: the weight of rank r is
 * 1/(r+1)^alpha over D ranks. rank(u) returns the first rank whose CDF
 * entry is >= u, the rank std::lower_bound over cdf() returns. A guide
 * table of D entries holds that rank for each u = j/D; a draw starts at
 * guide[floor(u*D)] and steps back or forward to the exact rank. The
 * steps cross only CDF entries inside u's 1/D slice of [0, 1), and D
 * entries spread over D slices, so a draw takes under one step on
 * average where a binary search over the CDF takes log2(D).
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t distinct, double alpha);

    /** The rank of a uniform draw `u` in [0, 1). */
    std::uint64_t
    rank(double u) const
    {
        std::size_t i = guide_[std::min(
            static_cast<std::size_t>(u * scale_), guide_.size() - 1)];
        while (i > 0 && cdf_[i - 1] >= u)
            --i;
        while (cdf_[i] < u)
            ++i;
        return i;
    }

    /** The normalized CDF: entry r is the probability of ranks 0..r;
     *  the last entry is 1. */
    const std::vector<double>& cdf() const { return cdf_; }

  private:
    std::vector<double> cdf_;
    std::vector<std::uint32_t> guide_;
    double scale_;  ///< D, the guide table's size
};

/**
 * Zipf-distributed keys: frequency of the rank-r key is proportional to
 * 1/(r+1)^alpha, drawn by a ZipfSampler.
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(std::uint64_t distinct_keys, double alpha,
                  std::uint64_t seed, std::string key_prefix = "");

    /**
     * Generate `n` tuples in the requested arrival order. kHotFirst and
     * kColdFirst draw the same multiset of keys as kShuffled (given the
     * same seed) but sort appearances by rank.
     */
    core::KvStream generate(std::uint64_t n, KeyOrder order = KeyOrder::kShuffled,
                            core::Value value = 1);

    /** Rank of one random draw. */
    std::uint64_t sample_rank();

    /** The key for rank `r` (stable). */
    core::Key key_of(std::uint64_t rank) const;

    double alpha() const { return alpha_; }

  private:
    std::uint64_t distinct_;
    double alpha_;
    Rng rng_;
    std::string prefix_;
    ZipfSampler sampler_;
};

/**
 * A value stream (paper §2.1.2): a dense vector of `length` values whose
 * index (plus `index_offset`) is the key. Used by the distributed-
 * training integration; offsets carve one gradient into PS shards.
 */
core::KvStream value_stream(std::uint64_t length, core::Value value,
                            std::uint64_t seed,
                            std::uint64_t index_offset = 0);

}  // namespace ask::workload

#endif  // ASK_WORKLOAD_GENERATORS_H
