// Baseline kernels for w = X^T * y on sparse X — the operation §3.1 singles
// out as the expensive half of the pattern.
//
// Two baseline strategies exist on real hardware:
//  (1) atomic column scatter: walk rows, atomicAdd into w[col] — what
//      BIDMat-style custom kernels do;
//  (2) explicit transposition (cuSPARSE's recommended csr2csc + csrmv),
//      paying a histogram + scan + scattered-store transpose, plus the
//      memory to keep both X and X^T resident.
#pragma once

#include <span>

#include "kernels/op_result.h"
#include "kernels/spmv.h"
#include "la/csr_matrix.h"
#include "vgpu/device.h"

namespace fusedml::kernels {

/// Strategy (1): one pass over X, atomicAdd per non-zero into w.
OpResult spmv_t_atomic_scatter(vgpu::Device& dev, const la::CsrMatrix& X,
                               std::span<const real> y, SpmvOptions opts = {});

/// Timing split of strategy (2) so benches can study amortization (the
/// second x-axis of Fig. 2): the transpose can be paid once and reused
/// across ML iterations, the multiply is per-iteration.
struct TransposeSplit {
  OpResult transpose;  ///< device csr2csc (histogram, scan, scatter kernels)
  OpResult multiply;   ///< csrmv on the transposed matrix

  /// Both steps as one logical op (what a single pattern evaluation pays).
  OpResult combined() const {
    OpResult out;
    out.value = multiply.value;
    out.absorb_timing(transpose);
    out.absorb_timing(multiply);
    return out;
  }
};

/// Strategy (2): explicit csr2csc on the device, then CSR-vector SpMV on
/// X^T. Matches cuSPARSE's suggested implementation (§3.1).
TransposeSplit spmv_t_explicit_transpose(vgpu::Device& dev,
                                         const la::CsrMatrix& X,
                                         std::span<const real> y,
                                         SpmvOptions opts = {});

/// Device-side csr2csc alone (histogram + scan + scatter); the returned
/// value is empty, only the timing/counters matter. The functional result
/// is the X^T that la::kept_transpose keeps on X.
OpResult device_csr2csc_cost(vgpu::Device& dev, const la::CsrMatrix& X);

}  // namespace fusedml::kernels
