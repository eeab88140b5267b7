// ASCII table rendering — every bench prints the paper's rows/series through
// this so output stays uniform and machine-greppable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fusedml {

/// Column-aligned ASCII table with a header row. Cells are strings; numeric
/// convenience overloads format with a fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Begin a new row; subsequent add() calls fill it left to right.
  Table& row();

  Table& add(const std::string& cell);
  Table& add(const char* cell);
  Table& add(double value, int precision = 2);
  Table& add(long long value);
  Table& add(int value) { return add(static_cast<long long>(value)); }
  Table& add(std::size_t value) { return add(static_cast<long long>(value)); }

  /// Number of data rows so far.
  std::size_t row_count() const { return rows_.size(); }

  /// Render with box-drawing separators.
  std::string str() const;


  /// Render as RFC-4180-style CSV (cells containing commas/quotes/newlines
  /// are quoted) — for plotting the figure benches downstream.
  std::string csv() const;

  friend std::ostream& operator<<(std::ostream& os, const Table& t);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers shared by benches.
std::string format_ms(double ms);
std::string format_speedup(double x);
std::string format_count(double n);  // 1.2e+06 style for big counters

}  // namespace fusedml
