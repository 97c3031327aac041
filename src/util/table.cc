#include "util/table.h"

#include <cstdio>
#include <sstream>

namespace bioperf::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

TextTable &
TextTable::row()
{
    rows_.emplace_back();
    return *this;
}

TextTable &
TextTable::cell(const std::string &s)
{
    rows_.back().push_back(s);
    return *this;
}

TextTable &
TextTable::cell(const char *s)
{
    return cell(std::string(s));
}

TextTable &
TextTable::cell(uint64_t v)
{
    return cell(std::to_string(v));
}

TextTable &
TextTable::cell(int64_t v)
{
    return cell(std::to_string(v));
}

TextTable &
TextTable::cell(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return cell(std::string(buf));
}

TextTable &
TextTable::cellPercent(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, v);
    return cell(std::string(buf));
}

std::string
TextTable::str() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); c++)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size() && c < widths.size(); c++)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string> &cells) {
        for (size_t c = 0; c < widths.size(); c++) {
            const std::string &s = c < cells.size() ? cells[c] : "";
            out << (c == 0 ? "| " : " | ");
            out << s;
            out << std::string(widths[c] - s.size(), ' ');
        }
        out << " |\n";
    };

    emit_row(headers_);
    for (size_t c = 0; c < widths.size(); c++) {
        out << (c == 0 ? "|-" : "-|-");
        out << std::string(widths[c], '-');
    }
    out << "-|\n";
    for (const auto &row : rows_)
        emit_row(row);
    return out.str();
}

} // namespace bioperf::util
