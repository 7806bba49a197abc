/**
 * @file
 * Plain-text table printer used by the benchmark harnesses to render
 * paper-style rows/series.
 */
#ifndef ASK_COMMON_TABLE_H
#define ASK_COMMON_TABLE_H

#include <iosfwd>
#include <string>
#include <vector>

namespace ask {

/**
 * A column-aligned text table. Add a header and rows of strings; print()
 * aligns each column to its widest cell.
 */
class TextTable
{
  public:
    /** Set the header row. */
    void header(std::vector<std::string> cells);

    /** Append one data row. */
    void row(std::vector<std::string> cells);

    /** Render to a stream with a rule under the header. */
    void print(std::ostream& os) const;

    /** Render to a string. */
    std::string to_string() const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace ask

#endif  // ASK_COMMON_TABLE_H
