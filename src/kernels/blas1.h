// Device BLAS Level-1 kernels — the cuBLAS calls of the baseline pipeline
// in Listing 1 (axpy, dot, nrm2, scal) plus the element-wise multiply the
// full pattern needs. Each call is one kernel launch on the virtual device
// and pays the corresponding launch overhead and global-memory round trip —
// exactly the costs kernel fusion removes.
#pragma once

#include <algorithm>
#include <span>

#include "common/types.h"
#include "kernels/ewise_program.h"
#include "kernels/op_result.h"
#include "vgpu/device.h"

namespace fusedml::kernels {

/// y += alpha * x  (in place on y). Result value: y.
OpResult dev_axpy(vgpu::Device& dev, real alpha, std::span<const real> x,
                  std::span<real> y);

/// x *= alpha  (in place). Result value: x.
OpResult dev_scal(vgpu::Device& dev, real alpha, std::span<real> x);

/// Dot product; value has exactly one element.
OpResult dev_dot(vgpu::Device& dev, std::span<const real> x,
                 std::span<const real> y);

/// Euclidean norm; value has exactly one element.
OpResult dev_nrm2(vgpu::Device& dev, std::span<const real> x);

/// out[i] = x[i] * y[i].
OpResult dev_ewise_mul(vgpu::Device& dev, std::span<const real> x,
                       std::span<const real> y);

/// out[i] = beta * z[i]  (the beta*z initialization as its own kernel, the
/// "launch two kernels" alternative discussed under Algorithm 2).
OpResult dev_scale_into(vgpu::Device& dev, real beta, std::span<const real> z);

/// out[i] = f(x[i]) — one streaming kernel (sigmoid, exp, ... on the device).
OpResult dev_map(vgpu::Device& dev, std::span<const real> x, real (*f)(real));

/// One launch of the fusion planner's generated elementwise-chain kernel:
/// reads every input stream once, writes the output once, and keeps all
/// intermediates in registers (ewise_program.h).
OpResult dev_ewise_chain(vgpu::Device& dev, const EwiseProgram& program,
                         std::span<const std::span<const real>> inputs);

namespace detail {

/// Launch geometry for a grid-stride streaming kernel over `n` elements.
vgpu::LaunchConfig streaming_config(const vgpu::Device& dev, usize n);

/// Runs `body(ctx, i0, lanes)` for every warp-sized slice [i0, i0+lanes) of
/// [0, n), distributed across blocks grid-stride — the canonical streaming
/// kernel shape of these kernels and the elementwise steps of the fused
/// templates. `body` does both the functional work and the accounting.
template <typename Body>
vgpu::LaunchStats launch_streaming(vgpu::Device& dev, const char* label,
                                   usize n, Body&& body) {
  vgpu::LaunchConfig cfg = streaming_config(dev, n);
  cfg.label = label;
  return dev.launch(cfg, [&](vgpu::BlockCtx& ctx) {
    const usize stride =
        static_cast<usize>(ctx.grid_size()) * ctx.block_size();
    const usize base = static_cast<usize>(ctx.block_id()) * ctx.block_size();
    for (usize chunk = base; chunk < n; chunk += stride) {
      const usize end = std::min(n, chunk + ctx.block_size());
      for (usize i0 = chunk; i0 < end; i0 += 32) {
        const int lanes = static_cast<int>(std::min<usize>(32, end - i0));
        body(ctx, i0, lanes);
      }
    }
  });
}

}  // namespace detail

}  // namespace fusedml::kernels
