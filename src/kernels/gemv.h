// Baseline dense matrix-vector kernels (cuBLAS dgemv equivalents) plus the
// BIDMat-GPU-style variants, for the Figure 5 comparison.
//
// X is row-major. gemv_n streams rows coalesced. gemv_t (w = X^T * p) also
// streams X row-wise but must reduce per *column*: the cuBLAS-style variant
// stages tiles in shared memory and pays bank conflicts on the column
// accumulation; the BIDMat-style variant pads its tiles (conflict-free) —
// which is why BIDMat-GPU beats cuBLAS on this pattern in the paper.
#pragma once

#include <span>

#include "kernels/op_result.h"
#include "la/dense_matrix.h"
#include "vgpu/device.h"

namespace fusedml::kernels {

struct GemvOptions {
  bool texture_y = true;
  /// Bank-conflict multiplier for the shared-memory column reduction of the
  /// transposed kernel; 0 = conflict-free (BIDMat-style padded tiles),
  /// kCublasConflictWays = unpadded cuBLAS-style tiles.
  int smem_conflict_ways = 0;
  /// Global-transaction inflation on the X stream. cuBLAS's dgemv kernels
  /// assume column-major storage; on the row-major matrices these ML
  /// workloads use, its access pattern is strided and achieves roughly half
  /// the coalesced bandwidth (factor 2). BIDMat's kernels are row-major
  /// native (factor 1).
  int transaction_inflation = 1;
};

/// Typical serialization of an unpadded 32-wide tile column walk.
inline constexpr int kCublasConflictWays = 8;
/// cuBLAS-on-row-major strided-access inflation (see GemvOptions).
inline constexpr int kCublasTransactionInflation = 2;

/// out = X * y. One launch, one coalesced pass over X.
OpResult gemv_n(vgpu::Device& dev, const la::DenseMatrix& X,
                std::span<const real> y, GemvOptions opts = {});

/// out = X^T * p. One launch, one coalesced pass over X plus the
/// shared-memory column reduction and per-block atomics on w.
OpResult gemv_t(vgpu::Device& dev, const la::DenseMatrix& X,
                std::span<const real> p, GemvOptions opts = {});

namespace detail {
/// Dense row-per-warp geometry of the gemv kernels, shared with the dense
/// masked and fused row products: 256-thread blocks, a full resident grid,
/// and enough coarsening that its warps cover `rows` rows.
vgpu::LaunchConfig dense_config(const vgpu::Device& dev, index_t rows);
}  // namespace detail

}  // namespace fusedml::kernels
