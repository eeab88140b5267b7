#include "kernels/blas1.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "kernels/resource_profile.h"

namespace fusedml::kernels {

namespace {

using detail::launch_streaming;
using vgpu::BlockCtx;
using vgpu::LaunchConfig;
using vgpu::MemPath;
}  // namespace

vgpu::LaunchConfig detail::streaming_config(const vgpu::Device& dev,
                                            usize n) {
  LaunchConfig cfg;
  cfg.block_size = 256;
  cfg.resources = {kBlas1RegsPerThread, 0};
  const auto occ =
      vgpu::compute_occupancy(dev.spec(), cfg.block_size, cfg.resources);
  const int max_resident_blocks = occ.blocks_per_sm * dev.spec().num_sms;
  const auto blocks_needed = static_cast<int>(
      std::min<usize>((n + cfg.block_size - 1) / cfg.block_size,
                      static_cast<usize>(max_resident_blocks)));
  cfg.grid_size = std::max(1, blocks_needed);
  return cfg;
}

OpResult dev_axpy(vgpu::Device& dev, real alpha, std::span<const real> x,
                  std::span<real> y) {
  FUSEDML_CHECK(x.size() == y.size(), "axpy size mismatch");
  OpResult out;
  out.absorb(launch_streaming(dev, "axpy", x.size(),
                              [&](BlockCtx& ctx, usize i0, int lanes) {
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));  // x
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));  // y
    ctx.mem().store_contiguous(i0, lanes, sizeof(real));
    ctx.mem().add_flops(2ull * lanes);
    for (int l = 0; l < lanes; ++l) y[i0 + l] += alpha * x[i0 + l];
  }));
  out.value.assign(y.begin(), y.end());
  return out;
}

OpResult dev_scal(vgpu::Device& dev, real alpha, std::span<real> x) {
  OpResult out;
  out.absorb(launch_streaming(dev, "scal", x.size(),
                              [&](BlockCtx& ctx, usize i0, int lanes) {
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));
    ctx.mem().store_contiguous(i0, lanes, sizeof(real));
    ctx.mem().add_flops(static_cast<std::uint64_t>(lanes));
    for (int l = 0; l < lanes; ++l) x[i0 + l] *= alpha;
  }));
  out.value.assign(x.begin(), x.end());
  return out;
}

namespace {
/// Shared implementation of the reduction kernels (dot / nrm2): per-block
/// partials reduced in shared memory, combined with one global atomic per
/// block — the standard cuBLAS-style two-level reduction.
template <typename LanesOp>
OpResult reduction_kernel(vgpu::Device& dev, const char* label, usize n,
                          LanesOp&& lane_sum) {
  OpResult out;
  out.value.assign(1, real{0});
  real& target = out.value.front();
  LaunchConfig cfg = detail::streaming_config(dev, n);
  cfg.label = label;
  cfg.smem_words = static_cast<usize>(cfg.block_size) / 32;  // warp partials
  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    real block_sum = 0;
    const usize stride =
        static_cast<usize>(ctx.grid_size()) * ctx.block_size();
    const usize base = static_cast<usize>(ctx.block_id()) * ctx.block_size();
    for (usize chunk = base; chunk < n; chunk += stride) {
      const usize end = std::min(n, chunk + ctx.block_size());
      for (usize i0 = chunk; i0 < end; i0 += 32) {
        const int lanes = static_cast<int>(std::min<usize>(32, end - i0));
        block_sum += lane_sum(ctx, i0, lanes);
        // Intra-warp shuffle reduce: log2(32) = 5 steps.
        ctx.counters().shuffle_ops += 31;
      }
    }
    // Warp partials into shared memory, then one atomic per block.
    const int warps = ctx.block_size() / 32;
    for (int w = 0; w < warps; ++w) ctx.smem().store(static_cast<usize>(w), 0);
    ctx.mem().atomic_global(1, 1);
    vgpu::atomic_add(target, block_sum);
  }));
  out.launches = 1;
  return out;
}
}  // namespace

OpResult dev_dot(vgpu::Device& dev, std::span<const real> x,
                 std::span<const real> y) {
  FUSEDML_CHECK(x.size() == y.size(), "dot size mismatch");
  return reduction_kernel(dev, "dot", x.size(),
                          [&](BlockCtx& ctx, usize i0, int lanes) {
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));
    ctx.mem().add_flops(2ull * lanes);
    real s = 0;
    for (int l = 0; l < lanes; ++l) s += x[i0 + l] * y[i0 + l];
    return s;
  });
}

OpResult dev_nrm2(vgpu::Device& dev, std::span<const real> x) {
  auto out = reduction_kernel(dev, "nrm2", x.size(),
                              [&](BlockCtx& ctx, usize i0, int lanes) {
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));
    ctx.mem().add_flops(2ull * lanes);
    real s = 0;
    for (int l = 0; l < lanes; ++l) s += x[i0 + l] * x[i0 + l];
    return s;
  });
  out.value.front() = std::sqrt(out.value.front());
  return out;
}

OpResult dev_ewise_mul(vgpu::Device& dev, std::span<const real> x,
                       std::span<const real> y) {
  FUSEDML_CHECK(x.size() == y.size(), "ewise_mul size mismatch");
  OpResult out;
  out.value.assign(x.size(), real{0});
  out.absorb(launch_streaming(dev, "ewise_mul", x.size(),
                              [&](BlockCtx& ctx, usize i0, int lanes) {
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));
    ctx.mem().store_contiguous(i0, lanes, sizeof(real));
    ctx.mem().add_flops(static_cast<std::uint64_t>(lanes));
    for (int l = 0; l < lanes; ++l) out.value[i0 + l] = x[i0 + l] * y[i0 + l];
  }));
  return out;
}

OpResult dev_scale_into(vgpu::Device& dev, real beta,
                        std::span<const real> z) {
  OpResult out;
  out.value.assign(z.size(), real{0});
  out.absorb(launch_streaming(dev, "scale_into", z.size(),
                              [&](BlockCtx& ctx, usize i0, int lanes) {
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));
    ctx.mem().store_contiguous(i0, lanes, sizeof(real));
    ctx.mem().add_flops(static_cast<std::uint64_t>(lanes));
    for (int l = 0; l < lanes; ++l) out.value[i0 + l] = beta * z[i0 + l];
  }));
  return out;
}

OpResult dev_map(vgpu::Device& dev, std::span<const real> x, real (*f)(real)) {
  OpResult out;
  out.value.assign(x.size(), real{0});
  out.absorb(launch_streaming(dev, "map", x.size(),
                              [&](BlockCtx& ctx, usize i0, int lanes) {
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));
    ctx.mem().store_contiguous(i0, lanes, sizeof(real));
    ctx.mem().add_flops(4ull * lanes);  // transcendental-class map
    for (int l = 0; l < lanes; ++l) out.value[i0 + l] = f(x[i0 + l]);
  }));
  return out;
}

OpResult dev_ewise_chain(vgpu::Device& dev, const EwiseProgram& program,
                         std::span<const std::span<const real>> inputs) {
  FUSEDML_CHECK(program.valid(), "dev_ewise_chain: invalid program");
  FUSEDML_CHECK(inputs.size() == static_cast<usize>(program.num_inputs),
                "dev_ewise_chain: input-count mismatch");
  const usize n = inputs.empty() ? 0 : inputs[0].size();
  for (const auto& in : inputs) {
    FUSEDML_CHECK(in.size() == n, "dev_ewise_chain: length mismatch");
  }
  OpResult out;
  out.value.assign(n, real{0});
  const std::uint64_t flops = program.flops_per_element();
  out.absorb(launch_streaming(dev, "ewise_chain", n,
                              [&](BlockCtx& ctx, usize i0, int lanes) {
    for (usize k = 0; k < inputs.size(); ++k) {
      ctx.mem().load_contiguous(i0, lanes, sizeof(real));
    }
    ctx.mem().store_contiguous(i0, lanes, sizeof(real));
    ctx.mem().add_flops(flops * lanes);
    std::vector<real> slots(static_cast<usize>(program.num_inputs) +
                            program.steps.size());
    for (int l = 0; l < lanes; ++l) {
      const usize i = i0 + l;
      for (usize k = 0; k < inputs.size(); ++k) slots[k] = inputs[k][i];
      out.value[i] = eval_device_element(program, slots);
    }
  }));
  return out;
}

}  // namespace fusedml::kernels
