/**
 * @file
 * A sample reservoir with exact quantiles, used by the benchmarks.
 */
#ifndef ASK_COMMON_STATS_H
#define ASK_COMMON_STATS_H

#include <cstddef>
#include <vector>

namespace ask {

/**
 * Sample reservoir with exact quantiles.
 *
 * Stores every sample; adequate for the volumes our benches produce
 * (millions of doubles). quantile() sorts lazily.
 */
class Samples
{
  public:
    void add(double x);
    std::size_t count() const { return data_.size(); }
    double mean() const;
    /** q in [0,1]; 0.5 = median. Returns 0 when empty. */
    double quantile(double q) const;
    /** Empirical CDF value: fraction of samples <= x. */
    double cdf_at(double x) const;
    const std::vector<double>& raw() const { return data_; }

  private:
    void ensure_sorted() const;

    std::vector<double> data_;
    mutable std::vector<double> sorted_;
    mutable bool sorted_valid_ = false;
};

}  // namespace ask

#endif  // ASK_COMMON_STATS_H
