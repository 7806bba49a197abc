/**
 * @file
 * The cluster-wide metrics registry and its point-in-time snapshot.
 *
 * Counters live in the components' own plain `std::uint64_t` struct
 * fields (SwitchAggStats, HostStats, ChaosStats, NetworkStats, ...), so
 * the increment path has no string lookup, atomic or indirection. The
 * snapshot's owner writes them in by name with
 * `MetricsSnapshot::add_counter` (AskCluster::metrics_snapshot adds the
 * stats folds).
 *
 * The registry owns gauges, histograms and time series. Histograms are
 * log-linear (HdrHistogram-style: 8 linear sub-buckets per power of
 * two), giving quantiles with <= 1/8 relative error over the full
 * uint64 range in 512 fixed buckets. Time series are plain (SimTime,
 * double) append-only vectors fed by obs::Sampler.
 */
#ifndef ASK_OBS_METRICS_H
#define ASK_OBS_METRICS_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"

namespace ask::obs {

/** A last-value-wins instantaneous measurement. */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Log-linear histogram over non-negative integer values.
 *
 * Bucket layout: values < kSubBuckets land in exact unit buckets;
 * beyond that, each power-of-two range splits into kSubBuckets linear
 * sub-buckets, so the bucket width is always <= value / kSubBuckets
 * and quantile() is exact to a relative error of 1/kSubBuckets.
 */
class LogHistogram
{
  public:
    static constexpr std::uint32_t kSubBucketBits = 3;
    static constexpr std::uint32_t kSubBuckets = 1u << kSubBucketBits;
    /** 64-bit range: one linear region + one set of sub-buckets per
     *  remaining exponent. */
    static constexpr std::size_t kBuckets =
        kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

    void observe(std::uint64_t value);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t max() const { return max_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /**
     * Value at quantile q in [0, 1] (0.5 = median): the representative
     * (upper edge) of the bucket containing the q-th observation,
     * clamped to the exact observed max. Relative error <= 1/8.
     */
    std::uint64_t quantile(double q) const;

    /** Bucket-wise merge (associative, commutative). */
    void merge(const LogHistogram& o);

    /** {count, sum, min, max, mean, p50, p95, p99} */
    Json summary_json() const;

    static std::size_t bucket_index(std::uint64_t value);
    /** Inclusive upper edge of bucket i (its representative value). */
    static std::uint64_t bucket_upper(std::size_t i);

  private:
    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

/** One sampled time series in simulated time. */
struct TimeSeries
{
    std::vector<std::int64_t> times_ns;
    std::vector<double> values;

    void
    record(std::int64_t t_ns, double v)
    {
        times_ns.push_back(t_ns);
        values.push_back(v);
    }
};

/**
 * A point-in-time, self-contained copy of every metric: counters,
 * gauges, histograms and time series.
 */
class MetricsSnapshot
{
  public:
    /** Add `value` to counter `name` (created at 0). */
    void add_counter(const std::string& name, std::uint64_t value);

    /** {counters: {...}, gauges: {...}, histograms: {...},
     *   series: {...}} with keys sorted for schema stability. */
    Json to_json() const;

    std::uint64_t counter(const std::string& name) const;
    const LogHistogram* histogram(const std::string& name) const;

  private:
    friend class MetricsRegistry;

    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, LogHistogram> histograms_;
    std::map<std::string, TimeSeries> series_;
};

/** The registry: gauges, histograms and time series, created by name. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /** Owned metrics, created on first use (one instance per name). */
    Gauge& gauge(const std::string& name);
    LogHistogram& histogram(const std::string& name);
    TimeSeries& series(const std::string& name);

    /** Read the current value of every metric (no counters: the
     *  snapshot's owner adds those). */
    MetricsSnapshot snapshot() const;

  private:
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LogHistogram>> histograms_;
    std::map<std::string, std::unique_ptr<TimeSeries>> series_;
};

}  // namespace ask::obs

#endif  // ASK_OBS_METRICS_H
