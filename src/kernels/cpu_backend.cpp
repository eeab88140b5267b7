#include "kernels/cpu_backend.h"

#include "common/timer.h"
#include "la/vector_ops.h"

namespace fusedml::kernels {

namespace {
// MKL-class sparse kernels (CSR index chasing, gathers on y, scattered
// transposed writes) reach roughly a third of stream bandwidth on a
// dual-channel desktop part; dense gemv streams near the default.
constexpr double kSparseCpuEfficiency = 0.55;

/// The storage-specific terms of the cost formulas below.
struct Footprint {
  std::uint64_t matrix = 0;      ///< bytes one pass over X moves
  std::uint64_t product = 0;     ///< bytes of X * y, vectors included
  std::uint64_t transposed = 0;  ///< bytes of X^T * y, vectors included
  double efficiency = -1.0;      ///< bandwidth efficiency; < 0: the default
};

/// CSR: nnz values + indices + row offsets, and the in/out vectors, which
/// every CSR formula charges; the transposed walk scatters into w, so it
/// pays an extra output pass.
Footprint footprint(const la::CsrMatrix& X) {
  Footprint f;
  f.matrix = static_cast<std::uint64_t>(X.nnz()) *
                 (sizeof(real) + sizeof(index_t)) +
             (static_cast<std::uint64_t>(X.rows()) + X.cols()) * sizeof(real) +
             static_cast<std::uint64_t>(X.rows() + 1) * sizeof(offset_t);
  f.product = f.matrix;
  f.transposed =
      f.matrix + static_cast<std::uint64_t>(X.cols()) * sizeof(real);
  f.efficiency = kSparseCpuEfficiency;
  return f;
}

/// Dense: the values; only the products charge their in/out vectors.
Footprint footprint(const la::DenseMatrix& X) {
  Footprint f;
  f.matrix = X.bytes();
  f.product = X.bytes() + (static_cast<std::uint64_t>(X.rows()) + X.cols()) *
                              sizeof(real);
  f.transposed = f.product;
  return f;
}

Footprint footprint(la::MatrixRef X) {
  return X.visit([](const auto& M) { return footprint(M); });
}

/// The pattern's BLAS-1 traffic: v ⊙ and beta * z each stream two more
/// vectors.
std::uint64_t pattern_blas1_bytes(index_t m, index_t n, bool has_v,
                                  bool has_z) {
  return (static_cast<std::uint64_t>(m) * (has_v ? 3 : 1) +
          static_cast<std::uint64_t>(n) * (has_z ? 3 : 1)) *
         sizeof(real);
}
}  // namespace

CpuOpResult CpuBackend::product(la::MatrixRef X,
                                std::span<const real> y) const {
  Timer t;
  CpuOpResult out;
  out.value = X.sparse() ? la::reference::spmv(*X.csr(), y)
                         : la::reference::gemv(*X.dense(), y);
  out.wall_ms = t.elapsed_ms();
  const Footprint fp = footprint(X);
  out.modeled_ms =
      model_.op_time_ms(fp.product, 2 * X.entries(), threads_, fp.efficiency);
  return out;
}

CpuOpResult CpuBackend::transposed_product(la::MatrixRef X,
                                           std::span<const real> y) const {
  Timer t;
  CpuOpResult out;
  out.value = X.sparse() ? la::reference::spmv_transposed(*X.csr(), y)
                         : la::reference::gemv_transposed(*X.dense(), y);
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = transposed_product_ms(X);
  return out;
}

double CpuBackend::transposed_product_ms(la::MatrixRef X) const {
  const Footprint fp = footprint(X);
  return model_.op_time_ms(fp.transposed, 2 * X.entries(), threads_,
                           fp.efficiency);
}

CpuOpResult CpuBackend::pattern(real alpha, la::MatrixRef X,
                                std::span<const real> v,
                                std::span<const real> y, real beta,
                                std::span<const real> z) const {
  Timer t;
  CpuOpResult out;
  out.value = X.visit([&](const auto& M) {
    return la::reference::pattern(alpha, M, v, y, beta, z);
  });
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = pattern_ms(X, !v.empty(), !z.empty());
  return out;
}

double CpuBackend::pattern_ms(la::MatrixRef X, bool has_v, bool has_z) const {
  // Two passes over X (product + transposed product) plus the BLAS-1 work.
  const Footprint fp = footprint(X);
  return model_.op_time_ms(
      2 * fp.matrix + pattern_blas1_bytes(X.rows(), X.cols(), has_v, has_z),
      4 * X.entries(), threads_, fp.efficiency);
}

namespace {
std::uint64_t vec_bytes(usize n, int streams) {
  return static_cast<std::uint64_t>(n) * sizeof(real) * streams;
}
}  // namespace

CpuOpResult CpuBackend::axpy(real alpha, std::span<const real> x,
                             std::span<real> y) const {
  Timer t;
  CpuOpResult out;
  la::axpy(alpha, x, y);
  out.value.assign(y.begin(), y.end());
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(vec_bytes(x.size(), 3),
                                     2ull * x.size(), threads_);
  return out;
}

CpuOpResult CpuBackend::dot(std::span<const real> x,
                            std::span<const real> y) const {
  Timer t;
  CpuOpResult out;
  out.value.assign(1, la::dot(x, y));
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(vec_bytes(x.size(), 2),
                                     2ull * x.size(), threads_);
  return out;
}

CpuOpResult CpuBackend::nrm2(std::span<const real> x) const {
  Timer t;
  CpuOpResult out;
  out.value.assign(1, la::nrm2(x));
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(vec_bytes(x.size(), 1),
                                     2ull * x.size(), threads_);
  return out;
}

CpuOpResult CpuBackend::ewise_mul(std::span<const real> x,
                                  std::span<const real> y) const {
  Timer t;
  CpuOpResult out;
  out.value.assign(x.size(), real{0});
  la::ewise_mul(x, y, out.value);
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms =
      model_.op_time_ms(vec_bytes(x.size(), 3), x.size(), threads_);
  return out;
}

CpuOpResult CpuBackend::scal(real alpha, std::span<real> x) const {
  Timer t;
  CpuOpResult out;
  la::scal(alpha, x);
  out.value.assign(x.begin(), x.end());
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms =
      model_.op_time_ms(vec_bytes(x.size(), 2), x.size(), threads_);
  return out;
}

CpuOpResult CpuBackend::map(std::span<const real> x, real (*f)(real)) const {
  Timer t;
  CpuOpResult out;
  out.value.resize(x.size());
  for (usize i = 0; i < x.size(); ++i) out.value[i] = f(x[i]);
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms =
      model_.op_time_ms(vec_bytes(x.size(), 2), 4ull * x.size(), threads_);
  return out;
}

CpuOpResult CpuBackend::ewise_chain(
    const EwiseProgram& program,
    std::span<const std::span<const real>> inputs) const {
  Timer t;
  CpuOpResult out;
  out.value = program.evaluate(inputs);
  out.wall_ms = t.elapsed_ms();
  const usize n = out.value.size();
  out.modeled_ms = model_.op_time_ms(
      vec_bytes(n, static_cast<int>(inputs.size()) + 1),
      program.flops_per_element() * n, threads_);
  return out;
}

CpuOpResult CpuBackend::outer_map(std::span<const real> u,
                                  std::span<const real> v,
                                  real (*f)(real)) const {
  Timer t;
  CpuOpResult out;
  const usize n = v.size();
  out.value.resize(u.size() * n);
  with_map(f, [&](auto fn) {
    for (usize i = 0; i < u.size(); ++i) {
      for (usize j = 0; j < n; ++j) out.value[i * n + j] = fn(u[i] * v[j]);
    }
  });
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(vec_bytes(out.value.size(), 2),
                                     5ull * out.value.size(), threads_);
  return out;
}

CpuOpResult CpuBackend::mask_values(la::MatrixRef X,
                                    std::span<const real> om) const {
  Timer t;
  CpuOpResult out;
  const auto n = static_cast<usize>(X.cols());
  out.value.resize(static_cast<usize>(X.entries()));
  X.for_each_entry([&](index_t r, usize k, index_t c, real x) {
    out.value[k] = x * om[static_cast<usize>(r) * n + static_cast<usize>(c)];
  });
  out.wall_ms = t.elapsed_ms();
  const Footprint fp = footprint(X);
  out.modeled_ms =
      model_.op_time_ms(fp.matrix + vec_bytes(out.value.size(), 2),
                        out.value.size(), threads_, fp.efficiency);
  return out;
}

CpuOpResult CpuBackend::masked_product(la::MatrixRef X,
                                       std::span<const real> vals,
                                       std::span<const real> z) const {
  Timer t;
  CpuOpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  X.for_each_entry([&](index_t r, usize k, index_t c, real) {
    out.value[static_cast<usize>(r)] += vals[k] * z[static_cast<usize>(c)];
  });
  out.wall_ms = t.elapsed_ms();
  const Footprint fp = footprint(X);
  out.modeled_ms =
      model_.op_time_ms(fp.matrix, 2 * X.entries(), threads_, fp.efficiency);
  return out;
}

namespace {
/// The fused-row epilogue on the CPU: the product vector prepended to the
/// external streams, evaluated with EwiseProgram::evaluate — which is what
/// keeps the CPU fused kernel bit-exact with its unfused CPU chain.
std::vector<real> row_epilogue(const EwiseProgram& program,
                               std::vector<real> product,
                               std::span<const std::span<const real>> ext) {
  std::vector<std::span<const real>> inputs;
  inputs.reserve(ext.size() + 1);
  inputs.emplace_back(product);
  for (const auto& e : ext) inputs.push_back(e);
  return program.evaluate(inputs);
}
}  // namespace

CpuOpResult CpuBackend::fused_row(
    la::MatrixRef X, std::span<const real> y, const EwiseProgram& program,
    std::span<const std::span<const real>> ext) const {
  Timer t;
  CpuOpResult out;
  out.value = row_epilogue(program,
                           X.sparse() ? la::reference::spmv(*X.csr(), y)
                                      : la::reference::gemv(*X.dense(), y),
                           ext);
  out.wall_ms = t.elapsed_ms();
  const Footprint fp = footprint(X);
  out.modeled_ms = model_.op_time_ms(
      fp.matrix +
          vec_bytes(out.value.size(), static_cast<int>(ext.size()) + 1),
      2 * X.entries() + program.flops_per_element() * out.value.size(),
      threads_, fp.efficiency);
  return out;
}

CpuOpResult CpuBackend::fused_sddmm(la::MatrixRef X, std::span<const real> u,
                                    std::span<const real> v,
                                    std::span<const real> z,
                                    real (*f)(real)) const {
  Timer t;
  CpuOpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  with_map(f, [&](auto fn) {
    X.for_each_entry([&](index_t r, usize, index_t c, real x) {
      const auto ri = static_cast<usize>(r);
      const auto ci = static_cast<usize>(c);
      // Term for term the unfused chain: mask then masked product.
      const real masked = x * fn(u[ri] * v[ci]);
      out.value[ri] += masked * z[ci];
    });
  });
  out.wall_ms = t.elapsed_ms();
  const Footprint fp = footprint(X);
  out.modeled_ms =
      model_.op_time_ms(fp.matrix, 7 * X.entries(), threads_, fp.efficiency);
  return out;
}

}  // namespace fusedml::kernels
