#include "obs/metrics.h"

#include <algorithm>
#include <bit>

namespace ask::obs {

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

std::size_t
LogHistogram::bucket_index(std::uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<std::size_t>(value);
    // Exponent of the highest set bit; the kSubBucketBits bits below it
    // select the linear sub-bucket within the power-of-two range.
    std::uint32_t exp = 63u - static_cast<std::uint32_t>(
                                  std::countl_zero(value));
    std::uint64_t sub = (value >> (exp - kSubBucketBits)) & (kSubBuckets - 1);
    return kSubBuckets + static_cast<std::size_t>(exp - kSubBucketBits) *
                             kSubBuckets +
           static_cast<std::size_t>(sub);
}

std::uint64_t
LogHistogram::bucket_upper(std::size_t i)
{
    if (i < kSubBuckets)
        return i;
    std::size_t rel = i - kSubBuckets;
    std::uint32_t exp =
        static_cast<std::uint32_t>(rel / kSubBuckets) + kSubBucketBits;
    std::uint64_t sub = rel % kSubBuckets;
    // Upper edge of the sub-bucket [base + sub*width, base + (sub+1)*width).
    std::uint64_t base = 1ULL << exp;
    std::uint64_t width = base >> kSubBucketBits;
    return base + (sub + 1) * width - 1;
}

void
LogHistogram::observe(std::uint64_t value)
{
    ++counts_[bucket_index(value)];
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

std::uint64_t
LogHistogram::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-th observation (1-based, nearest-rank).
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1) + 0.5);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += counts_[i];
        if (seen > rank)
            return std::min(bucket_upper(i), max_);
    }
    return max_;
}

void
LogHistogram::merge(const LogHistogram& o)
{
    for (std::size_t i = 0; i < kBuckets; ++i)
        counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
}

Json
LogHistogram::summary_json() const
{
    Json j = Json::object();
    j.set("count", count_);
    j.set("sum", sum_);
    j.set("min", min());
    j.set("max", max_);
    j.set("mean", mean());
    j.set("p50", quantile(0.50));
    j.set("p95", quantile(0.95));
    j.set("p99", quantile(0.99));
    return j;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

void
MetricsSnapshot::add_counter(const std::string& name, std::uint64_t value)
{
    counters_[name] += value;
}

std::uint64_t
MetricsSnapshot::counter(const std::string& name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

const LogHistogram*
MetricsSnapshot::histogram(const std::string& name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
}

Json
MetricsSnapshot::to_json() const
{
    Json j = Json::object();
    Json counters = Json::object();
    for (const auto& [name, v] : counters_)
        counters.set(name, v);
    j.set("counters", std::move(counters));

    // No component keeps a gauge; the ask-bench/v1 schema still carries
    // the member.
    j.set("gauges", Json::object());

    Json hists = Json::object();
    for (const auto& [name, h] : histograms_)
        hists.set(name, h.summary_json());
    j.set("histograms", std::move(hists));

    Json series = Json::object();
    for (const auto& [name, s] : series_) {
        Json one = Json::object();
        Json times = Json::array();
        for (std::int64_t t : s.times_ns)
            times.push_back(t);
        Json values = Json::array();
        for (double v : s.values)
            values.push_back(v);
        one.set("t_ns", std::move(times));
        one.set("v", std::move(values));
        series.set(name, std::move(one));
    }
    j.set("series", std::move(series));
    return j;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

LogHistogram&
MetricsRegistry::histogram(const std::string& name)
{
    auto& slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<LogHistogram>();
    return *slot;
}

TimeSeries&
MetricsRegistry::series(const std::string& name)
{
    auto& slot = series_[name];
    if (!slot)
        slot = std::make_unique<TimeSeries>();
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    for (const auto& [name, h] : histograms_)
        snap.histograms_[name].merge(*h);
    for (const auto& [name, s] : series_)
        snap.series_[name] = *s;
    return snap;
}

}  // namespace ask::obs
