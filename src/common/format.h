// Small text-formatting helpers shared by traces, the harness table
// renderer and the bench binaries.
#pragma once

#include <string>
#include <vector>

#include "common/time.h"

namespace linbound {

/// Render a Tick count as microseconds, e.g. "1500us".
std::string format_ticks(Tick t);

/// Right-pad to a column width.
std::string pad_right(const std::string& s, std::size_t width);

/// An ASCII table with a header row, used by every bench binary that
/// regenerates one of the paper's tables.  Column widths auto-size.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Render with a separator line under the header, e.g.
  ///   operation | lower bound | upper bound | measured
  ///   ----------+-------------+-------------+---------
  ///   write     | 300us       | 300us       | 300us
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace linbound
