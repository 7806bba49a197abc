#include "common/stats.h"

#include <algorithm>

namespace ask {

void
Samples::add(double x)
{
    data_.push_back(x);
    sorted_valid_ = false;
}

double
Samples::mean() const
{
    if (data_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : data_)
        s += x;
    return s / static_cast<double>(data_.size());
}

void
Samples::ensure_sorted() const
{
    if (!sorted_valid_) {
        sorted_ = data_;
        std::sort(sorted_.begin(), sorted_.end());
        sorted_valid_ = true;
    }
}

double
Samples::quantile(double q) const
{
    if (data_.empty())
        return 0.0;
    ensure_sorted();
    q = std::clamp(q, 0.0, 1.0);
    // Nearest-rank with linear interpolation between adjacent order stats.
    double pos = q * static_cast<double>(sorted_.size() - 1);
    std::size_t i = static_cast<std::size_t>(pos);
    double frac = pos - static_cast<double>(i);
    if (i + 1 >= sorted_.size())
        return sorted_.back();
    return sorted_[i] * (1.0 - frac) + sorted_[i + 1] * frac;
}

double
Samples::cdf_at(double x) const
{
    if (data_.empty())
        return 0.0;
    ensure_sorted();
    auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
    return static_cast<double>(it - sorted_.begin()) /
           static_cast<double>(sorted_.size());
}

}  // namespace ask
