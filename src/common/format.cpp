#include "common/format.h"

#include <algorithm>
#include <sstream>

namespace linbound {

std::string format_ticks(Tick t) {
  if (t == kNoTime) return "-";
  return std::to_string(t) + "us";
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << " | ";
      os << pad_right(row[c], widths[c]);
    }
    os << "\n";
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c) os << "-+-";
    os << std::string(widths[c], '-');
  }
  os << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

}  // namespace linbound
