// Host-CPU execution backend — the BIDMat-CPU / Intel-MKL comparison lines
// of Figures 3-5 and the single-threaded measurements behind Table 2.
//
// Operations run functionally (they double as correctness oracles) and are
// timed two ways: wall_ms is the real measured time on this host (used by
// the Table 2 profile, which the paper also measured on a CPU), modeled_ms
// comes from the CpuCostModel parameterized like the paper's host (core-i7,
// 8 hyper-threads, dual-channel DDR3) so figure speedup ratios are
// comparable with the GPU numbers regardless of the machine the bench runs
// on.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "kernels/ewise_program.h"
#include "la/matrix_ref.h"
#include "vgpu/cost_model.h"

namespace fusedml::kernels {

struct CpuOpResult {
  std::vector<real> value;
  double modeled_ms = 0.0;
  double wall_ms = 0.0;
};

class CpuBackend {
 public:
  explicit CpuBackend(vgpu::CpuSpec spec = vgpu::paper_host_cpu(),
                      int threads = 8)
      : model_(spec), threads_(threads) {}

  int threads() const { return threads_; }

  // Matrix-vector products. Each matrix op has one body for both storages:
  // it runs the storage's la::reference oracle or one la::for_each_entry
  // walk, and prices the storage's footprint.
  CpuOpResult product(la::MatrixRef X, std::span<const real> y) const;
  CpuOpResult transposed_product(la::MatrixRef X,
                                 std::span<const real> y) const;

  // Whole-pattern evaluations (MKL would run these as two products plus
  // BLAS-1 calls; bytes are charged accordingly).
  CpuOpResult pattern(real alpha, la::MatrixRef X, std::span<const real> v,
                      std::span<const real> y, real beta,
                      std::span<const real> z) const;

  // Cost-only twins: the modeled_ms the op above would return, priced from
  // shapes alone without running it (the op itself calls these).
  double transposed_product_ms(la::MatrixRef X) const;
  double pattern_ms(la::MatrixRef X, bool has_v, bool has_z) const;

  // BLAS-1.
  CpuOpResult axpy(real alpha, std::span<const real> x,
                   std::span<real> y) const;
  CpuOpResult dot(std::span<const real> x, std::span<const real> y) const;
  CpuOpResult nrm2(std::span<const real> x) const;
  CpuOpResult ewise_mul(std::span<const real> x,
                        std::span<const real> y) const;
  CpuOpResult scal(real alpha, std::span<real> x) const;
  CpuOpResult map(std::span<const real> x, real (*f)(real)) const;

  /// Straight-line elementwise program over equal-length inputs — the CPU
  /// analogue of the generated fused chain kernel (one read pass per input,
  /// one write pass, all intermediates in registers).
  CpuOpResult ewise_chain(const EwiseProgram& program,
                          std::span<const std::span<const real>> inputs) const;

  // Sparsity-exploiting template building blocks (see kernels/fused_row.h).
  /// The m*n values of f(u v^T), row-major.
  CpuOpResult outer_map(std::span<const real> u, std::span<const real> v,
                        real (*f)(real)) const;
  /// X's values scaled by an outer-map at X's stored entries.
  CpuOpResult mask_values(la::MatrixRef X, std::span<const real> om) const;
  /// M * z where M is X's structure with substituted values.
  CpuOpResult masked_product(la::MatrixRef X, std::span<const real> vals,
                             std::span<const real> z) const;

  // Fused template kernels (CPU analogues, bit-exact with the unfused CPU
  // chains they replace).
  CpuOpResult fused_row(la::MatrixRef X, std::span<const real> y,
                        const EwiseProgram& program,
                        std::span<const std::span<const real>> ext) const;
  CpuOpResult fused_sddmm(la::MatrixRef X, std::span<const real> u,
                          std::span<const real> v, std::span<const real> z,
                          real (*f)(real)) const;

 private:
  vgpu::CpuCostModel model_;
  int threads_;
};

}  // namespace fusedml::kernels
