// Baseline dense matrix-vector kernels (cuBLAS dgemv equivalents) plus the
// BIDMat-GPU-style variants, for the Figure 5 comparison, and the dense row
// walk every row-per-warp kernel shares.
//
// X is row-major. gemv_n streams rows coalesced. gemv_t (w = X^T * p) also
// streams X row-wise but must reduce per *column*: the cuBLAS-style variant
// stages tiles in shared memory and pays bank conflicts on the column
// accumulation; the BIDMat-style variant pads its tiles (conflict-free) —
// which is why BIDMat-GPU beats cuBLAS on this pattern in the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "kernels/op_result.h"
#include "la/dense_matrix.h"
#include "vgpu/device.h"

namespace fusedml::kernels {

/// Whose kernels a baseline composition stitches together (the comparison
/// lines of Figures 3-5 and Table 4).
enum class BaselineLibrary {
  /// cuSPARSE / cuBLAS. Sparse X^T * p is an explicit csr2csc per call and
  /// then csrmv on X^T (§3.1: "NVIDIA suggests an explicit transposition
  /// ... followed by a standard sparse matrix-vector multiplication").
  /// cuBLAS's dgemv kernels assume column-major storage: on the row-major X
  /// these workloads use, the X stream is strided and costs twice the
  /// coalesced transactions, and gemv_t's unpadded tiles serialize on bank
  /// conflicts.
  kVendor,
  /// BIDMat-GPU's custom kernels: sparse X^T * p in one pass with a global
  /// atomic scatter; row-major-native gemv with padded, conflict-free tiles.
  kBidmat,
};

/// out = X * y. One launch, one coalesced pass over X (two with the
/// vendor library's strided stream); y is read through the texture path.
OpResult gemv_n(vgpu::Device& dev, const la::DenseMatrix& X,
                std::span<const real> y, BaselineLibrary library);

/// out = X^T * p. One launch, one pass over X plus the shared-memory column
/// reduction (with the library's tile conflicts) and per-block atomics on w.
OpResult gemv_t(vgpu::Device& dev, const la::DenseMatrix& X,
                std::span<const real> p, BaselineLibrary library);

namespace detail {
/// Dense row-per-warp geometry of the gemv kernels, shared with the dense
/// masked and fused row products: 256-thread blocks, a full resident grid,
/// and enough coarsening that its warps cover `rows` rows.
vgpu::LaunchConfig dense_config(const vgpu::Device& dev, index_t rows);

/// Runs one block's share of the dense row walk: each of the block's
/// block_size/32 warps takes one row, and the block's group of rows
/// advances by the grid's warp count (the last group may be partial). For
/// each row, calls per_row(ctx, r) and charges the warp's 31-shuffle
/// reduction of its lanes' partials; after each group, charges one
/// coalesced store of the group's outputs.
template <typename PerRow>
void sweep_dense_rows(vgpu::BlockCtx& ctx, index_t rows, PerRow&& per_row) {
  const int warps_per_block = ctx.block_size() / 32;
  const long long warps_total =
      static_cast<long long>(ctx.grid_size()) * warps_per_block;
  for (long long first = static_cast<long long>(ctx.block_id()) *
                         warps_per_block;
       first < rows; first += warps_total) {
    const int rows_here = static_cast<int>(
        std::min<long long>(warps_per_block, rows - first));
    for (int w = 0; w < rows_here; ++w) {
      per_row(ctx, static_cast<index_t>(first + w));
      ctx.counters().shuffle_ops += 31;
    }
    ctx.mem().store_contiguous(static_cast<std::uint64_t>(first), rows_here,
                               sizeof(real));
  }
}

/// One warp's sum over a dense row of n columns: term(c) accumulated in
/// column order, `lane_flops` per column. Every dense row product runs this
/// one sequential accumulation, so their results stay bit-exact with each
/// other. Always inlined, like vector_row_sum.
template <typename Term>
[[gnu::always_inline]] inline real dense_row_sum(vgpu::BlockCtx& ctx, usize n,
                                                 std::uint64_t lane_flops,
                                                 Term&& term) {
  ctx.mem().add_flops(lane_flops * n);
  real s = 0;
  for (usize c = 0; c < n; ++c) s += term(c);
  return s;
}

/// A dense row dotted with y: 2 flops per column.
[[gnu::always_inline]] inline real dense_row_dot(vgpu::BlockCtx& ctx,
                                                 std::span<const real> row,
                                                 std::span<const real> y) {
  return dense_row_sum(ctx, y.size(), 2,
                       [row, y](usize c) { return row[c] * y[c]; });
}
}  // namespace detail

}  // namespace fusedml::kernels
