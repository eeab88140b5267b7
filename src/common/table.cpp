#include "common/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace fusedml {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  FUSEDML_CHECK(!headers_.empty(), "table needs at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add(const std::string& cell) {
  FUSEDML_CHECK(!rows_.empty(), "call row() before add()");
  FUSEDML_CHECK(rows_.back().size() < headers_.size(),
                "row has more cells than headers");
  rows_.back().push_back(cell);
  return *this;
}

Table& Table::add(const char* cell) { return add(std::string{cell}); }

Table& Table::add(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return add(os.str());
}

Table& Table::add(long long value) { return add(std::to_string(value)); }

namespace {
std::vector<std::size_t> column_widths(
    const std::vector<std::string>& headers,
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(headers.size());
  for (std::size_t c = 0; c < headers.size(); ++c) widths[c] = headers[c].size();
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  return widths;
}

void append_padded(std::string& out, const std::string& cell,
                   std::size_t width) {
  out += cell;
  out.append(width - cell.size(), ' ');
}
}  // namespace

std::string Table::str() const {
  const auto widths = column_widths(headers_, rows_);
  std::string sep = "+";
  for (auto w : widths) sep += std::string(w + 2, '-') + "+";
  sep += "\n";

  std::string out = sep;
  out += "| ";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    append_padded(out, headers_[c], widths[c]);
    out += " | ";
  }
  out.back() = '\n';
  out += sep;
  for (const auto& row : rows_) {
    out += "| ";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      append_padded(out, c < row.size() ? row[c] : std::string{}, widths[c]);
      out += " | ";
    }
    out.back() = '\n';
  }
  out += sep;
  return out;
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string Table::csv() const {
  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out += ',';
    out += csv_escape(headers_[c]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c) out += ',';
      out += csv_escape(c < row.size() ? row[c] : std::string{});
    }
    out += '\n';
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Table& t) {
  return os << t.str();
}

std::string format_ms(double ms) {
  std::ostringstream os;
  if (ms < 0.01) {
    os << std::scientific << std::setprecision(2) << ms << " ms";
  } else {
    os << std::fixed << std::setprecision(ms < 10 ? 3 : 1) << ms << " ms";
  }
  return os.str();
}

std::string format_speedup(double x) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << x << "x";
  return os.str();
}

std::string format_count(double n) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(2) << n;
  return os.str();
}

}  // namespace fusedml
