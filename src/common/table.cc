#include "common/table.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace ask {

void
TextTable::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream& os) const
{
    std::size_t cols = header_.size();
    for (const auto& r : rows_)
        cols = std::max(cols, r.size());

    std::vector<std::size_t> width(cols, 0);
    auto widen = [&](const std::vector<std::string>& r) {
        for (std::size_t i = 0; i < r.size(); ++i)
            width[i] = std::max(width[i], r[i].size());
    };
    widen(header_);
    for (const auto& r : rows_)
        widen(r);

    auto emit = [&](const std::vector<std::string>& r) {
        for (std::size_t i = 0; i < cols; ++i) {
            const std::string& cell = i < r.size() ? r[i] : std::string();
            os << cell << std::string(width[i] - cell.size(), ' ');
            if (i + 1 < cols)
                os << "  ";
        }
        os << "\n";
    };

    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t w : width)
            total += w;
        total += 2 * (cols - 1);
        os << std::string(total, '-') << "\n";
    }
    for (const auto& r : rows_)
        emit(r);
}

std::string
TextTable::to_string() const
{
    std::ostringstream oss;
    print(oss);
    return oss.str();
}

}  // namespace ask
