// The CSR row sweep the sparse kernels share, and its warp-level
// transaction accounting.
//
// Every CSR kernel (the CSR-vector and CSR-scalar baselines, the transposed
// products, Algorithms 1-2 and the row/sddmm templates) maps threads to rows
// the same way: VS-wide vectors take consecutive rows, 32/VS of them per
// warp, and a block's rows advance by the grid's vector count at each
// coarsening step. sweep_rows owns that walk; a kernel supplies what each
// warp does with its rows.
//
// A warp holds 32/VS vectors working on consecutive rows; at each step its
// 32 lanes issue ONE memory instruction whose addresses span all those
// vectors' current chunks. Because CSR stores consecutive rows
// contiguously, short rows coalesce across vectors — the property that
// makes CSR-vector efficient at small row lengths. Charging per vector
// would overcount transactions by up to 32/VS for short rows, so the
// sparse kernels charge through these warp-step counts instead.
//
// The counts depend only on X's structure and VS, so they are computed once
// per (structure, VS) into a la::WarpTable that the matrix owns, and every
// launch charges each warp in O(1) from it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "la/csr_matrix.h"
#include "vgpu/device.h"
#include "vgpu/mem_tracker.h"
#include "vgpu/warp.h"

namespace fusedml::kernels::detail {

/// Launch shape of the sparse baselines and the row templates: 256-thread
/// blocks of VS-wide vectors, a grid no larger than the resident one, and
/// the coarsening that covers all m rows. Shared so the masked and fused
/// products keep the baseline's shape, and with it its reduction order.
vgpu::LaunchConfig sparse_config(const vgpu::Device& dev, index_t m, int vs);

/// Runs one block's share of the row sweep over X at the launch's VS, block
/// size, grid size and coarsening. For each warp that still has rows, loads
/// the warp's row_off entries (one coalesced load) and then calls
/// per_warp(ctx, first_row, rows_here) for rows
/// [first_row, first_row + rows_here), which start at a multiple of 32/VS.
template <typename PerWarp>
void sweep_rows(vgpu::BlockCtx& ctx, const la::CsrMatrix& X,
                PerWarp&& per_warp) {
  const int nv = ctx.num_vectors();
  const int rows_per_warp = std::max(1, 32 / ctx.vector_size());
  const long long total_vectors = static_cast<long long>(ctx.grid_size()) * nv;
  const long long rows = X.rows();
  for (int c = 0; c < ctx.coarsening(); ++c) {
    const long long block_first_row =
        static_cast<long long>(ctx.block_id()) * nv +
        static_cast<long long>(c) * total_vectors;
    const long long block_end = std::min(block_first_row + nv, rows);
    for (long long first_row = block_first_row; first_row < block_end;
         first_row += rows_per_warp) {
      const int rows_here = static_cast<int>(
          std::min<long long>(rows_per_warp, rows - first_row));
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(first_row),
                                rows_here + 1, sizeof(offset_t));
      per_warp(ctx, first_row, rows_here);
    }
  }
}

/// One vector's sum over row r of X: lane l adds term(k, col) for the row's
/// elements l, l + VS, l + 2VS, ..., charging `lane_flops` per active lane
/// per step, and the lanes fold through the shuffle tree. Functional work
/// plus flop/shuffle accounting only; the warp's memory traffic is charged
/// through WarpTraffic (loads coalesce across the warp's vectors).
/// Always inlined: in a file with several row products the compiler would
/// otherwise call one shared out-of-line copy per row, which made the masked
/// and fused row products about 10% slower on the host (300x150 CSR).
template <typename Term>
[[gnu::always_inline]] inline real vector_row_sum(vgpu::BlockCtx& ctx,
                                                  const la::CsrMatrix& X,
                                                  index_t r, int vs,
                                                  std::uint64_t lane_flops,
                                                  Term&& term) {
  const offset_t start = X.row_begin(r);
  const offset_t end = X.row_end(r);
  std::array<real, 32> lane_sum{};
  for (offset_t i = start; i < end; i += vs) {
    const int lanes = static_cast<int>(std::min<offset_t>(vs, end - i));
    ctx.mem().add_flops(lane_flops * static_cast<std::uint64_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      const auto k = static_cast<usize>(i) + static_cast<usize>(l);
      lane_sum[l] += term(k, static_cast<usize>(X.col_idx()[k]));
    }
  }
  return vgpu::shuffle_reduce_sum({lane_sum.data(), static_cast<usize>(vs)},
                                  ctx.counters());
}

/// Row r of the matrix with X's structure and `vals` as its values, dotted
/// with y: 2 flops per lane. Every row product runs this one expression.
inline real vector_row_dot(vgpu::BlockCtx& ctx, const la::CsrMatrix& X,
                           std::span<const real> vals, std::span<const real> y,
                           index_t r, int vs) {
  return vector_row_sum(ctx, X, r, vs, 2, [vals, y](usize k, usize col) {
    return vals[k] * y[col];
  });
}

/// X's warp-pass traffic at one VS, looked up (or built) once per launch,
/// before dev.launch. Warps must start at multiples of 32/VS, which every
/// sparse kernel's geometry guarantees.
class WarpTraffic {
 public:
  WarpTraffic(const la::CsrMatrix& X, int vs);

  /// Charges one full pass over the warp's CSR data (values + col indices)
  /// to `data_path`, optionally with the y gathers to `y_path`.
  void charge(vgpu::MemTracker& mem, long long first_row, int rows_here,
              vgpu::MemPath data_path, bool with_y,
              vgpu::MemPath y_path) const;

  /// Charges the warp's y[col_idx] gathers alone (8-byte elements).
  void charge_gather(vgpu::MemTracker& mem, long long first_row,
                     int rows_here, vgpu::MemPath path) const;

 private:
  const la::WarpSweep& sweep(long long first_row, int rows_here) const;
  std::uint64_t nnz(long long first_row, int rows_here) const;

  const la::WarpTable& table_;
  std::span<const offset_t> row_off_;
  int rows_per_warp_;
};

}  // namespace fusedml::kernels::detail
