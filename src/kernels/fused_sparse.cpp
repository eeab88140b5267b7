#include "kernels/fused_sparse.h"

#include <algorithm>
#include <array>
#include <string>

#include "common/error.h"
#include "kernels/resource_profile.h"
#include "kernels/sparse_warp_accounting.h"
#include "kernels/texture_model.h"

namespace fusedml::kernels {

namespace {
using vgpu::BlockCtx;
using vgpu::LaunchConfig;
using vgpu::MemPath;

/// Applies user overrides on top of the §3.3 model and re-derives the
/// dependent quantities (coarsening, shared-memory size).
tuner::SparseParams resolve_params(const vgpu::Device& dev, index_t m,
                                   index_t n, double mu,
                                   const FusedSparseOptions& opts) {
  auto params = tuner::sparse_launch_params(dev.spec(), m, n, mu,
                                            opts.aggregation);
  bool dirty = false;
  if (opts.vector_size > 0) {
    params.config.vector_size = opts.vector_size;
    dirty = true;
  }
  if (opts.block_size > 0) {
    params.config.block_size = opts.block_size;
    dirty = true;
  }
  if (opts.grid_size > 0) {
    params.config.grid_size = opts.grid_size;
    dirty = true;
  }
  if (dirty) {
    const int vs = params.config.vector_size;
    const int bs = params.config.block_size;
    FUSEDML_CHECK(bs % vs == 0, "block size must be a multiple of VS");
    // A warp holds 32/VS vectors; a block whose vector count is not a
    // multiple of that would end in a warp that also sweeps the next
    // block's first rows, adding them twice.
    FUSEDML_CHECK((bs / vs) % std::max(1, 32 / vs) == 0,
                  "block size override " + std::to_string(bs) +
                      " at VS " + std::to_string(vs) +
                      " splits a warp across blocks: vectors per block "
                      "must be a multiple of 32/VS");
    params.shared_aggregation =
        params.shared_aggregation &&
        tuner::shared_aggregation_feasible(dev.spec(), n, vs);
    params.config.resources.smem_per_block =
        params.shared_aggregation
            ? sparse_fused_smem_bytes(bs, vs, n)
            : sparse_fused_smem_bytes_global_agg(bs, vs);
    params.config.smem_words =
        params.config.resources.smem_per_block / sizeof(real);
    params.occupancy = vgpu::compute_occupancy(dev.spec(), bs,
                                               params.config.resources);
    if (opts.grid_size == 0) {
      params.config.grid_size = std::max(
          1, params.occupancy.blocks_per_sm * dev.spec().num_sms);
    }
    const long long total_vectors =
        static_cast<long long>(params.config.grid_size) * (bs / vs);
    params.config.coarsening = static_cast<int>(
        std::max<long long>(1, (m + total_vectors - 1) / total_vectors));
  }
  if (opts.coarsening > 0) params.config.coarsening = opts.coarsening;
  return params;
}

/// §3's cache-residency condition: the second pass over a row is an L2 hit
/// when all concurrently processed rows fit in L2.
MemPath second_pass_path(const vgpu::Device& dev,
                         const tuner::SparseParams& params, double mu,
                         bool enabled) {
  if (!enabled) return MemPath::kDram;
  const double active_vectors =
      static_cast<double>(params.occupancy.active_threads_per_sm) /
      params.config.vector_size * dev.spec().num_sms;
  const double row_bytes = mu * (sizeof(real) + sizeof(index_t));
  return active_vectors * row_bytes <= static_cast<double>(dev.spec().l2_bytes)
             ? MemPath::kL2
             : MemPath::kDram;
}

/// Where a transposed product's lanes add X[r,:]^T * p[r]: with shared
/// aggregation, into the block's partial w in shared memory (Alg. 1 L11-14,
/// Alg. 2 L13-14; words [nv, nv + n) after the per-vector staging slots),
/// otherwise straight into the n outputs through global atomics, scaled by
/// alpha.
struct RowScatter {
  RowScatter(const la::CsrMatrix& matrix, const tuner::SparseParams& params,
             real scale, std::span<real> outputs)
      : X(matrix),
        vs(params.config.vector_size),
        sd_base(static_cast<usize>(params.config.num_vectors_per_block())),
        shared(params.shared_aggregation),
        alpha(scale),
        out(outputs) {}

  const la::CsrMatrix& X;
  int vs;
  usize sd_base;
  bool shared;
  real alpha;
  std::span<real> out;
  /// One lane step's shared-memory words, for the bank model.
  std::array<usize, 32> words{};

  /// Scatters row r times pr, one lane step at a time, charging
  /// `lane_flops` per active lane per step.
  void row(BlockCtx& ctx, index_t r, real pr, std::uint64_t lane_flops) {
    const offset_t start = X.row_begin(r);
    const offset_t end = X.row_end(r);
    for (offset_t i = start; i < end; i += vs) {
      const int lanes = static_cast<int>(std::min<offset_t>(vs, end - i));
      ctx.mem().add_flops(lane_flops * static_cast<std::uint64_t>(lanes));
      if (shared) {
        for (int l = 0; l < lanes; ++l) {
          const auto k = static_cast<usize>(i) + static_cast<usize>(l);
          words[l] = sd_base + static_cast<usize>(X.col_idx()[k]);
        }
        ctx.smem().warp_access({words.data(), static_cast<usize>(lanes)});
        for (int l = 0; l < lanes; ++l) {
          const auto k = static_cast<usize>(i) + static_cast<usize>(l);
          ctx.smem().atomic_add(sd_base + static_cast<usize>(X.col_idx()[k]),
                                X.values()[k] * pr);
        }
      } else {
        ctx.mem().atomic_global(static_cast<std::uint64_t>(lanes),
                                static_cast<std::uint64_t>(out.size()));
        for (int l = 0; l < lanes; ++l) {
          const auto k = static_cast<usize>(i) + static_cast<usize>(l);
          vgpu::atomic_add(out[static_cast<usize>(X.col_idx()[k])],
                           alpha * X.values()[k] * pr);
        }
      }
    }
  }
};

}  // namespace

tuner::SparseParams fused_sparse_params(const vgpu::Device& dev,
                                        const la::CsrMatrix& X,
                                        const FusedSparseOptions& opts) {
  return resolve_params(dev, X.rows(), X.cols(), X.mean_nnz_per_row(), opts);
}

OpResult fused_spmv_t(vgpu::Device& dev, const la::CsrMatrix& X,
                      std::span<const real> p, real alpha,
                      FusedSparseOptions opts) {
  FUSEDML_CHECK(p.size() == static_cast<usize>(X.rows()),
                "fused_spmv_t: p must have m entries");
  const double mu = X.mean_nnz_per_row();
  const auto params = resolve_params(dev, X.rows(), X.cols(), mu, opts);
  const auto n = static_cast<usize>(X.cols());
  // Single pass over X here (p is given), so every load is a cold load.

  OpResult out;
  out.value.assign(n, real{0});

  LaunchConfig launch_cfg = params.config;
  launch_cfg.label = "fused_spmv_t";
  const detail::WarpTraffic traffic(X, launch_cfg.vector_size);
  RowScatter scatter(X, params, alpha, out.value);
  const auto per_warp = [&](BlockCtx& ctx, long long first_row,
                            int rows_here) {
    ctx.mem().load_contiguous(static_cast<std::uint64_t>(first_row),
                              rows_here, sizeof(real));  // p[row]
    traffic.charge(ctx.mem(), first_row, rows_here, MemPath::kDram,
                   /*with_y=*/false, MemPath::kDram);
    for (int v = 0; v < rows_here; ++v) {
      const auto r = static_cast<index_t>(first_row + v);
      scatter.row(ctx, r, p[static_cast<usize>(r)], 1);
    }
  };
  out.absorb(dev.launch(launch_cfg, [&](BlockCtx& ctx) {
    detail::sweep_rows(ctx, X, per_warp);
    if (scatter.shared) {
      // __syncthreads, then the inter-block aggregation (Alg. 1 L15-16).
      for (usize i = 0; i < n; i += 32) {
        const int lanes = static_cast<int>(std::min<usize>(32, n - i));
        for (int l = 0; l < lanes; ++l) {
          vgpu::atomic_add(out.value[i + l],
                           alpha * ctx.smem().load(scatter.sd_base + i + l));
        }
        ctx.mem().atomic_global(static_cast<std::uint64_t>(lanes),
                                static_cast<std::uint64_t>(n));
      }
    }
  }));
  return out;
}

OpResult fused_pattern_sparse(vgpu::Device& dev, real alpha,
                              const la::CsrMatrix& X, std::span<const real> v,
                              std::span<const real> y, real beta,
                              std::span<const real> z,
                              FusedSparseOptions opts) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()),
                "fused_pattern_sparse: y must have n entries");
  FUSEDML_CHECK(v.empty() || v.size() == static_cast<usize>(X.rows()),
                "fused_pattern_sparse: v must have m entries or be empty");
  FUSEDML_CHECK(z.empty() || z.size() == static_cast<usize>(X.cols()),
                "fused_pattern_sparse: z must have n entries or be empty");
  const double mu = X.mean_nnz_per_row();
  const auto params = resolve_params(dev, X.rows(), X.cols(), mu, opts);
  const auto n = static_cast<usize>(X.cols());
  const bool y_resident =
      opts.texture_y && tex_resident(dev.spec(), y.size() * sizeof(real));
  const MemPath y_path =
      opts.texture_y ? MemPath::kTexture : MemPath::kDram;
  const MemPath pass2 =
      second_pass_path(dev, params, mu, opts.cache_second_pass);
  const bool has_beta = !z.empty() && beta != real{0};

  OpResult out;
  out.value.assign(n, real{0});

  LaunchConfig launch_cfg = params.config;
  launch_cfg.label = "fused_pattern_sparse";
  const int vs = launch_cfg.vector_size;
  const detail::WarpTraffic traffic(X, vs);
  RowScatter scatter(X, params, alpha, out.value);
  // The fused row sweep (Alg. 2 L5-15).
  const auto per_warp = [&](BlockCtx& ctx, long long first_row,
                            int rows_here) {
    if (!v.empty()) {
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(first_row),
                                rows_here, sizeof(real));  // v[row]
    }
    // First pass over the warp's rows: cold loads + y gathers (skipped
    // when y is texture-resident — only the fill was charged).
    traffic.charge(ctx.mem(), first_row, rows_here, MemPath::kDram,
                   /*with_y=*/!y_resident, y_path);
    // Second pass: same data while still cache-resident.
    traffic.charge(ctx.mem(), first_row, rows_here, pass2,
                   /*with_y=*/false, y_path);
    for (int vv = 0; vv < rows_here; ++vv) {
      const auto r = static_cast<index_t>(first_row + vv);
      // First pass: p[r] = X[r,:] * y (Alg. 2 L10-11), reduced within the
      // vector, then v ⊙ (Alg. 2 L12).
      real pr = detail::vector_row_dot(ctx, X, X.values(), y, r, vs);
      if (!v.empty()) {
        pr *= v[static_cast<usize>(r)];
        ctx.mem().add_flops(1);
      }
      // Second pass: scatter X[r,:]^T * p[r] (Alg. 2 L13-14) — loads
      // already charged above at the pass2 (cache) path.
      scatter.row(ctx, r, pr, 2);
    }
  };
  out.absorb(dev.launch(launch_cfg, [&](BlockCtx& ctx) {
    const usize bs = static_cast<usize>(ctx.block_size());
    const usize grid_stride = static_cast<usize>(ctx.grid_size()) * bs;
    if (ctx.block_id() == 0 && y_resident) {
      charge_tex_fill(ctx.mem(), dev.spec(), y.size() * sizeof(real));
    }

    // --- beta * z initialization (Alg. 2 L3-4): grid-stride atomic adds ---
    if (has_beta) {
      for (usize base = static_cast<usize>(ctx.block_id()) * bs; base < n;
           base += grid_stride) {
        const usize end = std::min(n, base + bs);
        for (usize i0 = base; i0 < end; i0 += 32) {
          const int lanes = static_cast<int>(std::min<usize>(32, end - i0));
          ctx.mem().load_contiguous(i0, lanes, sizeof(real));  // z
          ctx.mem().atomic_global(static_cast<std::uint64_t>(lanes),
                                  static_cast<std::uint64_t>(n));
          ctx.mem().add_flops(static_cast<std::uint64_t>(lanes));
          for (int l = 0; l < lanes; ++l) {
            vgpu::atomic_add(out.value[i0 + l], beta * z[i0 + l]);
          }
        }
      }
    }

    detail::sweep_rows(ctx, X, per_warp);

    // --- __syncthreads + inter-block aggregation (Alg. 2 L16-18) ----------
    if (scatter.shared) {
      for (usize i = 0; i < n; i += 32) {
        const int lanes = static_cast<int>(std::min<usize>(32, n - i));
        ctx.mem().atomic_global(static_cast<std::uint64_t>(lanes),
                                static_cast<std::uint64_t>(n));
        ctx.mem().add_flops(static_cast<std::uint64_t>(lanes));
        for (int l = 0; l < lanes; ++l) {
          vgpu::atomic_add(out.value[i + l],
                           alpha * ctx.smem().load(scatter.sd_base + i + l));
        }
      }
    }
  }));
  return out;
}

}  // namespace fusedml::kernels
