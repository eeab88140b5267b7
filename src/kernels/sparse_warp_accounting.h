// Warp-level transaction accounting for CSR row sweeps.
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

#include <cstdint>
#include <span>

#include "common/types.h"
#include "la/csr_matrix.h"
#include "vgpu/mem_tracker.h"

namespace fusedml::kernels::detail {

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
