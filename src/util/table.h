#ifndef BIOPERF_UTIL_TABLE_H_
#define BIOPERF_UTIL_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bioperf::util {

/**
 * Plain-text table formatter used by the benchmark harnesses to print
 * paper-style tables (Table 1, 2, 4, 5, 8, ...).
 *
 * Columns are auto-sized; numeric cells are produced via the typed
 * cell() helpers so formatting is consistent across benches.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    /** Starts a fresh row; subsequent cell() calls append to it. */
    TextTable &row();

    TextTable &cell(const std::string &s);
    TextTable &cell(const char *s);
    TextTable &cell(uint64_t v);
    TextTable &cell(int64_t v);
    /** Fixed-point double with the given number of decimals. */
    TextTable &cell(double v, int decimals = 2);
    /** Percentage with '%' suffix. */
    TextTable &cellPercent(double v, int decimals = 2);

    /** Renders the table, including a header separator line. */
    std::string str() const;

    size_t numRows() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace bioperf::util

#endif // BIOPERF_UTIL_TABLE_H_
