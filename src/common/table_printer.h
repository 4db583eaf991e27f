#ifndef GROUPFORM_COMMON_TABLE_PRINTER_H_
#define GROUPFORM_COMMON_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace groupform::common {

/// Fixed-width ASCII table used by the benchmark harness to print the
/// paper's tables and figure series in a readable form:
///
///   | users | GRD-LM-MAX | Baseline-LM-MAX | OPT-LM-MAX |
///   |-------|------------|-----------------|------------|
///   |   200 |      38.00 |           24.00 |      40.00 |
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Appends a data row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Renders the table with column-wise alignment.
  std::string ToString() const;

  /// Renders and writes to stdout.
  void Print() const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace groupform::common

#endif  // GROUPFORM_COMMON_TABLE_PRINTER_H_
