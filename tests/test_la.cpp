// Unit tests for the linear-algebra substrate: matrix formats, validation,
// conversions (including the csr2csc transpose), vector ops, generators, and
// Matrix Market I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "la/convert.h"
#include "la/coo_matrix.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"
#include "la/generate.h"
#include "la/io.h"
#include "la/vector_ops.h"
#include "test_util.h"

namespace fusedml::la {
namespace {

CsrMatrix small_csr() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 3 4 0 ]
  return CsrMatrix(3, 3, {0, 2, 2, 4}, {0, 2, 0, 1}, {1, 2, 3, 4});
}

TEST(CsrMatrix, BasicAccessors) {
  const auto m = small_csr();
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_nnz(1), 0);
  EXPECT_NEAR(m.mean_nnz_per_row(), 4.0 / 3.0, 1e-12);
}

TEST(CsrMatrix, ValidationRejectsBadStructures) {
  // Wrong row_off length.
  EXPECT_THROW(CsrMatrix(3, 3, {0, 1}, {0}, {1.0}), Error);
  // Non-monotone row_off.
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1, 2}), Error);
  // Column out of range.
  EXPECT_THROW(CsrMatrix(1, 2, {0, 1}, {5}, {1.0}), Error);
  // Duplicate column in a row.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {1, 1}, {1, 2}), Error);
  // row_off[rows] != nnz.
  EXPECT_THROW(CsrMatrix(1, 3, {0, 5}, {0}, {1.0}), Error);
}

TEST(DenseMatrix, RowSpan) {
  DenseMatrix m(2, 3);
  m.at(0, 0) = 1;
  m.at(1, 2) = 5;
  EXPECT_EQ(m.row(1).size(), 3u);
  EXPECT_DOUBLE_EQ(m.row(1)[2], 5.0);
}

TEST(Coo, NormalizeSortsAndMerges) {
  CooMatrix coo(3, 3);
  coo.add(2, 1, 1.0);
  coo.add(0, 0, 2.0);
  coo.add(2, 1, 3.0);  // duplicate -> summed
  coo.normalize();
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.triplets()[0].row, 0);
  EXPECT_DOUBLE_EQ(coo.triplets()[1].value, 4.0);
}

TEST(Convert, CooToCsrMatchesDense) {
  CooMatrix coo(2, 3);
  coo.add(1, 2, 7.0);
  coo.add(0, 1, 3.0);
  const auto csr = coo_to_csr(coo);
  const auto dense = csr_to_dense(csr);
  EXPECT_DOUBLE_EQ(dense.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(dense.at(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(dense.at(0, 0), 0.0);
}

TEST(Convert, TransposeRoundTrip) {
  const auto X = uniform_sparse(50, 37, 0.1, 123);
  const auto Xt = transpose(X);
  EXPECT_EQ(Xt.rows(), 37);
  EXPECT_EQ(Xt.cols(), 50);
  EXPECT_EQ(Xt.nnz(), X.nnz());
  const auto Xtt = transpose(Xt);
  EXPECT_EQ(Xtt, X);
}

TEST(Convert, TransposeMatchesDenseTranspose) {
  const auto X = uniform_sparse(20, 30, 0.2, 7);
  const auto d1 = csr_to_dense(transpose(X));
  const auto d2 = transpose(csr_to_dense(X));
  EXPECT_EQ(d1, d2);
}

TEST(Convert, DenseToCsrDropsZeros) {
  DenseMatrix d(2, 2);
  d.at(0, 0) = 1.0;
  const auto csr = dense_to_csr(d);
  EXPECT_EQ(csr.nnz(), 1);
}

TEST(VectorOps, Blas1Basics) {
  std::vector<real> x = {1, 2, 3};
  std::vector<real> y = {4, 5, 6};
  axpy(2.0, x, y);
  test::expect_vectors_near(std::vector<real>{6, 9, 12}, y);
  scal(0.5, y);
  test::expect_vectors_near(std::vector<real>{3, 4.5, 6}, y);
  EXPECT_DOUBLE_EQ(dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(nrm2(std::vector<real>{3, 4}), 5.0);
  std::vector<real> out(3);
  ewise_mul(x, x, out);
  test::expect_vectors_near(std::vector<real>{1, 4, 9}, out);
}

TEST(VectorOps, SizeMismatchThrows) {
  std::vector<real> a(3), b(4);
  EXPECT_THROW(axpy(1.0, a, b), Error);
  EXPECT_THROW(dot(a, b), Error);
}

TEST(Reference, SpmvMatchesDense) {
  const auto X = uniform_sparse(40, 25, 0.15, 99);
  const auto Xd = csr_to_dense(X);
  const auto y = random_vector(25, 5);
  test::expect_vectors_near(reference::gemv(Xd, y), reference::spmv(X, y));
}

TEST(Reference, SpmvTransposedMatchesExplicitTranspose) {
  const auto X = uniform_sparse(40, 25, 0.15, 99);
  const auto y = random_vector(40, 6);
  test::expect_vectors_near(reference::spmv(transpose(X), y),
                            reference::spmv_transposed(X, y));
}

TEST(Reference, PatternSparseEqualsComposition) {
  const auto X = uniform_sparse(30, 20, 0.2, 42);
  const auto y = random_vector(20, 1);
  const auto v = random_vector(30, 2);
  const auto z = random_vector(20, 3);
  const real alpha = 2.5, beta = -0.5;

  auto p = reference::spmv(X, y);
  for (usize i = 0; i < p.size(); ++i) p[i] *= v[i];
  auto w = reference::spmv_transposed(X, p);
  for (usize i = 0; i < w.size(); ++i) w[i] = alpha * w[i] + beta * z[i];

  test::expect_vectors_near(w, reference::pattern(alpha, X, v, y, beta, z));
}

TEST(Reference, PatternHandlesEmptyVAndZ) {
  const auto X = uniform_sparse(30, 20, 0.2, 43);
  const auto y = random_vector(20, 1);
  const auto w = reference::pattern(1.0, X, {}, y, 0.0, {});
  auto expect = reference::spmv_transposed(X, reference::spmv(X, y));
  test::expect_vectors_near(expect, w);
}

TEST(Reference, PatternDenseMatchesSparse) {
  const auto X = uniform_sparse(25, 15, 0.3, 44);
  const auto Xd = csr_to_dense(X);
  const auto y = random_vector(15, 1);
  const auto v = random_vector(25, 2);
  const auto z = random_vector(15, 3);
  test::expect_vectors_near(reference::pattern(1.5, X, v, y, 0.5, z),
                            reference::pattern(1.5, Xd, v, y, 0.5, z));
}

TEST(Generate, UniformSparseHitsTargetSparsity) {
  const auto X = uniform_sparse(2000, 500, 0.01, 11);
  const double actual = static_cast<double>(X.nnz()) / (2000.0 * 500.0);
  EXPECT_NEAR(actual, 0.01, 0.002);
}

TEST(Generate, UniformSparseDeterministic) {
  EXPECT_EQ(uniform_sparse(100, 50, 0.05, 3), uniform_sparse(100, 50, 0.05, 3));
}

TEST(Generate, KddLikeShape) {
  const auto X = kdd_like(5000, 100000, 28.0, 1.5, 17);
  EXPECT_NEAR(X.mean_nnz_per_row(), 28.0, 3.0);
  // Power-law skew: the first 1% of columns should hold far more than 1%
  // of non-zeros.
  offset_t head = 0;
  for (usize i = 0; i < static_cast<usize>(X.nnz()); ++i) {
    if (X.col_idx()[i] < 1000) ++head;
  }
  EXPECT_GT(static_cast<double>(head) / static_cast<double>(X.nnz()), 0.05);
}

TEST(Generate, HiggsLikeIsStandardNormalish) {
  const auto X = higgs_like(5000, 28, 23);
  double sum = 0, sq = 0;
  for (real v : X.data()) {
    sum += v;
    sq += v * v;
  }
  const auto n = static_cast<double>(X.data().size());
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Generate, RejectsNonPositiveShapesNamingTheArgument) {
  // --rows / --cols flow straight into these generators; a bad size must be
  // a checked error naming the argument, not a std::length_error.
  auto message_of = [](auto&& make) {
    try {
      make();
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  using Generator = void (*)(index_t rows, index_t cols);
  const Generator generators[] = {
      [](index_t r, index_t c) { uniform_sparse(r, c, 0.1, 1); },
      [](index_t r, index_t c) { kdd_like(r, c, 4.0, 1.0, 1); },
      [](index_t r, index_t c) { higgs_like(r, c, 1); },
      [](index_t r, index_t c) { dense_random(r, c, 1); },
  };
  for (const Generator gen : generators) {
    EXPECT_NE(message_of([&] { gen(-5, 4); }).find("rows"), std::string::npos);
    EXPECT_NE(message_of([&] { gen(0, 4); }).find("rows"), std::string::npos);
    EXPECT_NE(message_of([&] { gen(4, 0); }).find("cols"), std::string::npos);
    EXPECT_NE(message_of([&] { gen(4, -1); }).find("cols"), std::string::npos);
    EXPECT_NO_THROW(gen(1, 1));
  }
}

TEST(Generate, RegressionLabelsCorrelateWithTrueWeights) {
  const auto X = uniform_sparse(500, 40, 0.2, 31);
  const auto y = regression_labels(X, 31, 0.0);  // noiseless
  const auto w = regression_true_weights(40, 31);
  test::expect_vectors_near(reference::spmv(X, w), y);
}

TEST(Generate, ClassificationLabelsAreSigns) {
  const auto X = uniform_sparse(200, 30, 0.2, 33);
  const auto y = classification_labels(X, 33, 0.1);
  for (real v : y) EXPECT_TRUE(v == 1.0 || v == -1.0);
}

// A coordinate file as a writer would emit it, entries out of row order
// and with a comment line, and the CSR matrix it must parse to.
constexpr const char* kCoordinateFile =
    "%%MatrixMarket matrix coordinate real general\n"
    "% 3 x 4, five entries\n"
    "3 4 5\n"
    "1 1 1.5\n"
    "1 4 -2\n"
    "3 3 -0.5\n"
    "2 2 0.25\n"
    "3 1 4\n";

void expect_coordinate_file_matrix(const CsrMatrix& X) {
  EXPECT_EQ(X.rows(), 3);
  EXPECT_EQ(X.cols(), 4);
  EXPECT_EQ(X.nnz(), 5);
  const std::vector<offset_t> row_off{0, 2, 3, 5};
  const std::vector<index_t> col_idx{0, 3, 1, 0, 2};
  const std::vector<real> values{1.5, -2, 0.25, 4, -0.5};
  EXPECT_TRUE(std::equal(X.row_off().begin(), X.row_off().end(),
                         row_off.begin(), row_off.end()));
  EXPECT_TRUE(std::equal(X.col_idx().begin(), X.col_idx().end(),
                         col_idx.begin(), col_idx.end()));
  EXPECT_TRUE(std::equal(X.values().begin(), X.values().end(),
                         values.begin(), values.end()));
}

TEST(Io, SparseRoundTrip) {
  std::stringstream ss(kCoordinateFile);
  expect_coordinate_file_matrix(read_matrix_market(ss));
}

TEST(Io, SymmetricExpansion) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "2 2 2\n"
     << "1 1 1.0\n"
     << "2 1 3.0\n";
  const auto X = read_matrix_market(ss);
  EXPECT_EQ(X.nnz(), 3);  // off-diagonal mirrored
  const auto d = csr_to_dense(X);
  EXPECT_DOUBLE_EQ(d.at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(d.at(1, 0), 3.0);
}

TEST(Io, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/fusedml_io_test.mtx";
  {
    std::ofstream out(path);
    out << kCoordinateFile;
  }
  expect_coordinate_file_matrix(read_matrix_market_file(path));
  EXPECT_THROW(read_matrix_market_file("/nonexistent/definitely.mtx"),
               Error);
  std::remove(path.c_str());
}

TEST(Io, RejectsGarbage) {
  std::stringstream ss("not a matrix market file\n1 2 3\n");
  EXPECT_THROW(read_matrix_market(ss), Error);
}

TEST(Io, RejectsEntryIndexOutsideDeclaredShape) {
  // Row 5 of a declared 2x3 matrix would write out-of-bounds CSR entries.
  std::stringstream rows(
      "%%MatrixMarket matrix coordinate real general\n2 3 1\n5 1 1.0\n");
  EXPECT_THROW(read_matrix_market(rows), DataError);
  std::stringstream cols(
      "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 7 1.0\n");
  EXPECT_THROW(read_matrix_market(cols), DataError);
}

TEST(Io, RejectsNnzMismatch) {
  // Fewer entries than declared: the reader runs out of data.
  std::stringstream missing(
      "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(missing), DataError);
  // More entries than declared: trailing data lines must be rejected, not
  // silently ignored.
  std::stringstream extra(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n1 1 1.0\n2 2 2.0\n");
  EXPECT_THROW(read_matrix_market(extra), DataError);
}

TEST(Io, RejectsNonFiniteAndMalformedValues) {
  std::stringstream nan_entry(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n");
  EXPECT_THROW(read_matrix_market(nan_entry), DataError);
  std::stringstream inf_entry(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 inf\n");
  EXPECT_THROW(read_matrix_market(inf_entry), DataError);
  std::stringstream garbage_entry(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n");
  EXPECT_THROW(read_matrix_market(garbage_entry), DataError);
}

TEST(Io, TrailingCommentsAndBlanksAreNotExtraEntries) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n1 1 1.0\n% trailing comment\n   \n");
  const auto X = read_matrix_market(ss);
  EXPECT_EQ(X.nnz(), 1);
}

}  // namespace
}  // namespace fusedml::la
