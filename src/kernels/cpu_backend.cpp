#include "kernels/cpu_backend.h"

#include "common/timer.h"
#include "la/vector_ops.h"

namespace fusedml::kernels {

namespace {
// MKL-class sparse kernels (CSR index chasing, gathers on y, scattered
// transposed writes) reach roughly a third of stream bandwidth on a
// dual-channel desktop part; dense gemv streams near the default.
constexpr double kSparseCpuEfficiency = 0.55;

/// The pattern's BLAS-1 traffic: v ⊙ and beta * z each stream two more
/// vectors.
std::uint64_t pattern_blas1_bytes(index_t m, index_t n, bool has_v,
                                  bool has_z) {
  return (static_cast<std::uint64_t>(m) * (has_v ? 3 : 1) +
          static_cast<std::uint64_t>(n) * (has_z ? 3 : 1)) *
         sizeof(real);
}
}  // namespace

std::uint64_t CpuBackend::sparse_bytes(const la::CsrMatrix& X) const {
  return static_cast<std::uint64_t>(X.nnz()) *
             (sizeof(real) + sizeof(index_t)) +
         (static_cast<std::uint64_t>(X.rows()) + X.cols()) * sizeof(real) +
         static_cast<std::uint64_t>(X.rows() + 1) * sizeof(offset_t);
}

CpuOpResult CpuBackend::spmv(const la::CsrMatrix& X,
                             std::span<const real> y) const {
  Timer t;
  CpuOpResult out;
  out.value = la::reference::spmv(X, y);
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(
      sparse_bytes(X), 2ull * static_cast<std::uint64_t>(X.nnz()), threads_,
      kSparseCpuEfficiency);
  return out;
}

CpuOpResult CpuBackend::spmv_t(const la::CsrMatrix& X,
                               std::span<const real> y) const {
  Timer t;
  CpuOpResult out;
  out.value = la::reference::spmv_transposed(X, y);
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = spmv_t_ms(X);
  return out;
}

double CpuBackend::spmv_t_ms(const la::CsrMatrix& X) const {
  // The transposed walk scatters into w; charge an extra output pass.
  return model_.op_time_ms(
      sparse_bytes(X) + static_cast<std::uint64_t>(X.cols()) * sizeof(real),
      2ull * static_cast<std::uint64_t>(X.nnz()), threads_,
      kSparseCpuEfficiency);
}

CpuOpResult CpuBackend::gemv(const la::DenseMatrix& X,
                             std::span<const real> y) const {
  Timer t;
  CpuOpResult out;
  out.value = la::reference::gemv(X, y);
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(
      X.bytes() + (static_cast<std::uint64_t>(X.rows()) + X.cols()) *
                      sizeof(real),
      2ull * X.data().size(), threads_);
  return out;
}

CpuOpResult CpuBackend::gemv_t(const la::DenseMatrix& X,
                               std::span<const real> p) const {
  Timer t;
  CpuOpResult out;
  out.value = la::reference::gemv_transposed(X, p);
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = gemv_t_ms(X);
  return out;
}

double CpuBackend::gemv_t_ms(const la::DenseMatrix& X) const {
  return model_.op_time_ms(
      X.bytes() + (static_cast<std::uint64_t>(X.rows()) + X.cols()) *
                      sizeof(real),
      2ull * X.data().size(), threads_);
}

CpuOpResult CpuBackend::pattern(real alpha, const la::CsrMatrix& X,
                                std::span<const real> v,
                                std::span<const real> y, real beta,
                                std::span<const real> z) const {
  Timer t;
  CpuOpResult out;
  out.value = la::reference::pattern(alpha, X, v, y, beta, z);
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = pattern_ms(X, !v.empty(), !z.empty());
  return out;
}

double CpuBackend::pattern_ms(const la::CsrMatrix& X, bool has_v,
                              bool has_z) const {
  // Two passes over X (product + transposed product) plus the BLAS-1 work.
  return model_.op_time_ms(
      2 * sparse_bytes(X) +
          pattern_blas1_bytes(X.rows(), X.cols(), has_v, has_z),
      4ull * static_cast<std::uint64_t>(X.nnz()), threads_,
      kSparseCpuEfficiency);
}

CpuOpResult CpuBackend::pattern(real alpha, const la::DenseMatrix& X,
                                std::span<const real> v,
                                std::span<const real> y, real beta,
                                std::span<const real> z) const {
  Timer t;
  CpuOpResult out;
  out.value = la::reference::pattern(alpha, X, v, y, beta, z);
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = pattern_ms(X, !v.empty(), !z.empty());
  return out;
}

double CpuBackend::pattern_ms(const la::DenseMatrix& X, bool has_v,
                              bool has_z) const {
  return model_.op_time_ms(
      2 * X.bytes() + pattern_blas1_bytes(X.rows(), X.cols(), has_v, has_z),
      4ull * X.data().size(), threads_);
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
  for (usize i = 0; i < u.size(); ++i) {
    for (usize j = 0; j < n; ++j) out.value[i * n + j] = f(u[i] * v[j]);
  }
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(vec_bytes(out.value.size(), 2),
                                     5ull * out.value.size(), threads_);
  return out;
}

CpuOpResult CpuBackend::mask_values(const la::CsrMatrix& X,
                                    std::span<const real> om) const {
  Timer t;
  CpuOpResult out;
  const auto n = static_cast<usize>(X.cols());
  out.value.resize(static_cast<usize>(X.nnz()));
  for (index_t r = 0; r < X.rows(); ++r) {
    for (offset_t i = X.row_begin(r); i < X.row_end(r); ++i) {
      const auto k = static_cast<usize>(i);
      out.value[k] =
          X.values()[k] *
          om[static_cast<usize>(r) * n + static_cast<usize>(X.col_idx()[k])];
    }
  }
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(
      sparse_bytes(X) + vec_bytes(out.value.size(), 2), out.value.size(),
      threads_, kSparseCpuEfficiency);
  return out;
}

CpuOpResult CpuBackend::mask_values(const la::DenseMatrix& X,
                                    std::span<const real> om) const {
  Timer t;
  CpuOpResult out;
  out.value.resize(X.data().size());
  for (usize i = 0; i < out.value.size(); ++i) {
    out.value[i] = X.data()[i] * om[i];
  }
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(vec_bytes(out.value.size(), 3),
                                     out.value.size(), threads_);
  return out;
}

CpuOpResult CpuBackend::masked_spmv(const la::CsrMatrix& X,
                                    std::span<const real> vals,
                                    std::span<const real> z) const {
  Timer t;
  CpuOpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  for (index_t r = 0; r < X.rows(); ++r) {
    real s = 0;
    for (offset_t i = X.row_begin(r); i < X.row_end(r); ++i) {
      const auto k = static_cast<usize>(i);
      s += vals[k] * z[static_cast<usize>(X.col_idx()[k])];
    }
    out.value[static_cast<usize>(r)] = s;
  }
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(
      sparse_bytes(X), 2ull * static_cast<std::uint64_t>(X.nnz()), threads_,
      kSparseCpuEfficiency);
  return out;
}

CpuOpResult CpuBackend::masked_gemv(const la::DenseMatrix& X,
                                    std::span<const real> vals,
                                    std::span<const real> z) const {
  Timer t;
  CpuOpResult out;
  const auto n = static_cast<usize>(X.cols());
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  for (index_t r = 0; r < X.rows(); ++r) {
    real s = 0;
    for (usize c = 0; c < n; ++c) {
      s += vals[static_cast<usize>(r) * n + c] * z[c];
    }
    out.value[static_cast<usize>(r)] = s;
  }
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms =
      model_.op_time_ms(X.bytes(), 2ull * X.data().size(), threads_);
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
    const la::CsrMatrix& X, std::span<const real> y,
    const EwiseProgram& program,
    std::span<const std::span<const real>> ext) const {
  Timer t;
  CpuOpResult out;
  out.value = row_epilogue(program, la::reference::spmv(X, y), ext);
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(
      sparse_bytes(X) + vec_bytes(out.value.size(),
                                  static_cast<int>(ext.size()) + 1),
      2ull * static_cast<std::uint64_t>(X.nnz()) +
          program.flops_per_element() * out.value.size(),
      threads_, kSparseCpuEfficiency);
  return out;
}

CpuOpResult CpuBackend::fused_row(
    const la::DenseMatrix& X, std::span<const real> y,
    const EwiseProgram& program,
    std::span<const std::span<const real>> ext) const {
  Timer t;
  CpuOpResult out;
  out.value = row_epilogue(program, la::reference::gemv(X, y), ext);
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(
      X.bytes() + vec_bytes(out.value.size(),
                            static_cast<int>(ext.size()) + 1),
      2ull * X.data().size() +
          program.flops_per_element() * out.value.size(),
      threads_);
  return out;
}

CpuOpResult CpuBackend::fused_sddmm(const la::CsrMatrix& X,
                                    std::span<const real> u,
                                    std::span<const real> v,
                                    std::span<const real> z,
                                    real (*f)(real)) const {
  Timer t;
  CpuOpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  for (index_t r = 0; r < X.rows(); ++r) {
    real s = 0;
    for (offset_t i = X.row_begin(r); i < X.row_end(r); ++i) {
      const auto k = static_cast<usize>(i);
      const auto col = static_cast<usize>(X.col_idx()[k]);
      // Term for term the unfused chain: mask then masked product.
      const real masked = X.values()[k] * f(u[static_cast<usize>(r)] * v[col]);
      s += masked * z[col];
    }
    out.value[static_cast<usize>(r)] = s;
  }
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms = model_.op_time_ms(
      sparse_bytes(X), 7ull * static_cast<std::uint64_t>(X.nnz()), threads_,
      kSparseCpuEfficiency);
  return out;
}

CpuOpResult CpuBackend::fused_sddmm(const la::DenseMatrix& X,
                                    std::span<const real> u,
                                    std::span<const real> v,
                                    std::span<const real> z,
                                    real (*f)(real)) const {
  Timer t;
  CpuOpResult out;
  const auto n = static_cast<usize>(X.cols());
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  for (index_t r = 0; r < X.rows(); ++r) {
    const auto row = X.row(r);
    real s = 0;
    for (usize c = 0; c < n; ++c) {
      const real masked = row[c] * f(u[static_cast<usize>(r)] * v[c]);
      s += masked * z[c];
    }
    out.value[static_cast<usize>(r)] = s;
  }
  out.wall_ms = t.elapsed_ms();
  out.modeled_ms =
      model_.op_time_ms(X.bytes(), 7ull * X.data().size(), threads_);
  return out;
}

}  // namespace fusedml::kernels
