// Matrix Market input, so a user can feed a real dataset (e.g. the actual
// KDD 2010 file) to a bench instead of its synthetic stand-in. The reader
// validates what it reads: shape, index range, entry count, finite values.
#pragma once

#include <iosfwd>
#include <string>

#include "la/csr_matrix.h"

namespace fusedml::la {

/// Reads a MatrixMarket "coordinate real general" file into CSR.
CsrMatrix read_matrix_market(std::istream& in);
CsrMatrix read_matrix_market_file(const std::string& path);

}  // namespace fusedml::la
