#include "la/io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.h"
#include "la/coo_matrix.h"
#include "la/convert.h"

namespace fusedml::la {

namespace {
// Skips %-comment lines; returns the first data line.
std::string next_data_line(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') return line;
  }
  throw DataError("matrix market: unexpected end of file");
}

// True if any non-comment, non-blank line remains — i.e. the file holds
// more entries than the header declared.
bool has_more_data(std::istream& in) {
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%' &&
        line.find_first_not_of(" \t\r\n") != std::string::npos) {
      return true;
    }
  }
  return false;
}
}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string header;
  FUSEDML_CHECK(static_cast<bool>(std::getline(in, header)),
                "matrix market: empty stream");
  FUSEDML_CHECK(header.rfind("%%MatrixMarket", 0) == 0,
                "matrix market: missing banner");
  FUSEDML_CHECK(header.find("coordinate") != std::string::npos,
                "matrix market: expected coordinate format");
  const bool symmetric = header.find("symmetric") != std::string::npos;

  std::istringstream dims(next_data_line(in));
  long long rows = 0, cols = 0, nnz = 0;
  dims >> rows >> cols >> nnz;
  FUSEDML_CHECK(rows > 0 && cols > 0 && nnz >= 0,
                "matrix market: bad dimensions line");

  CooMatrix coo(static_cast<index_t>(rows), static_cast<index_t>(cols));
  coo.reserve(static_cast<usize>(nnz) * (symmetric ? 2 : 1));
  for (long long i = 0; i < nnz; ++i) {
    std::istringstream entry(next_data_line(in));
    long long r = 0, c = 0;
    double v = 0;
    entry >> r >> c >> v;
    if (entry.fail()) {
      throw DataError("matrix market: malformed entry line (entry " +
                      std::to_string(i + 1) + " of " + std::to_string(nnz) +
                      ")");
    }
    if (r < 1 || c < 1) {
      throw DataError("matrix market: 1-based indices expected");
    }
    // An index past the declared shape would otherwise write out-of-bounds
    // CSR entries downstream.
    if (r > rows || c > cols) {
      throw DataError("matrix market: entry (" + std::to_string(r) + ", " +
                      std::to_string(c) + ") outside declared " +
                      std::to_string(rows) + " x " + std::to_string(cols));
    }
    if (!std::isfinite(v)) {
      throw DataError("matrix market: non-finite value at entry (" +
                      std::to_string(r) + ", " + std::to_string(c) + ")");
    }
    coo.add(static_cast<index_t>(r - 1), static_cast<index_t>(c - 1), v);
    if (symmetric && r != c) {
      coo.add(static_cast<index_t>(c - 1), static_cast<index_t>(r - 1), v);
    }
  }
  if (has_more_data(in)) {
    throw DataError("matrix market: more entries than the declared nnz of " +
                    std::to_string(nnz));
  }
  return coo_to_csr(coo);
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  FUSEDML_CHECK(in.good(), "cannot open: " + path);
  return read_matrix_market(in);
}

}  // namespace fusedml::la
