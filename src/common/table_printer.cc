#include "common/table_printer.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace groupform::common {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TablePrinter::AddRow(std::vector<std::string> row) {
  GF_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

std::string TablePrinter::ToString() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += ' ';
      line += std::string(widths[c] - row[c].size(), ' ');
      line += row[c];
      line += " |";
    }
    line += '\n';
    return line;
  };
  std::string out = render_row(header_);
  std::string rule = "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    rule += std::string(widths[c] + 2, '-');
    rule += '|';
  }
  rule += '\n';
  out += rule;
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void TablePrinter::Print() const { std::fputs(ToString().c_str(), stdout); }

}  // namespace groupform::common
