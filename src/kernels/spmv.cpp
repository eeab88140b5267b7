#include "kernels/spmv.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "kernels/resource_profile.h"
#include "kernels/sparse_warp_accounting.h"
#include "kernels/texture_model.h"
#include "vgpu/warp.h"

namespace fusedml::kernels {

namespace {
using vgpu::BlockCtx;
using vgpu::LaunchConfig;
using vgpu::MemPath;
}  // namespace

int vector_size_for(double mu) {
  // Equation 4: VS = 32 if mu > 32; 2^i if 2^(i+1) >= mu > 2^i (i in 1..4);
  // 1 otherwise.
  if (mu > 32.0) return 32;
  for (int i = 4; i >= 1; --i) {
    if (mu > static_cast<double>(1 << i)) return 1 << i;
  }
  return 1;
}

namespace {

/// Geometry shared by the sparse baselines: resident grid, vectors stride
/// over rows.
LaunchConfig sparse_config(const vgpu::Device& dev, index_t m, int vs) {
  LaunchConfig cfg;
  cfg.block_size = 256;
  cfg.vector_size = vs;
  cfg.resources = {kSpmvRegsPerThread, 0};
  const auto occ =
      vgpu::compute_occupancy(dev.spec(), cfg.block_size, cfg.resources);
  const int resident = std::max(1, occ.blocks_per_sm * dev.spec().num_sms);
  const int vectors_needed =
      static_cast<int>((static_cast<long long>(m) + 0) /
                       std::max(1, cfg.block_size / vs)) + 1;
  cfg.grid_size = std::max(1, std::min(resident, vectors_needed));
  const long long total_vectors =
      static_cast<long long>(cfg.grid_size) * (cfg.block_size / vs);
  cfg.coarsening = static_cast<int>((m + total_vectors - 1) / total_vectors);
  return cfg;
}

/// One vector's dot product over row r of X against y — functional work
/// plus flop/shuffle accounting only; the warp-level memory traffic is
/// charged by the caller through sparse_warp_accounting (loads coalesce
/// ACROSS the warp's vectors, not per vector).
real vector_row_dot(BlockCtx& ctx, const la::CsrMatrix& X,
                    std::span<const real> y, index_t r, int vs) {
  const offset_t start = X.row_begin(r);
  const offset_t end = X.row_end(r);
  std::array<real, 32> lane_sum{};
  for (offset_t i = start; i < end; i += vs) {
    const int lanes = static_cast<int>(
        std::min<offset_t>(vs, end - i));
    ctx.mem().add_flops(2ull * lanes);
    for (int l = 0; l < lanes; ++l) {
      const auto k = static_cast<usize>(i) + static_cast<usize>(l);
      lane_sum[l] += X.values()[k] * y[static_cast<usize>(X.col_idx()[k])];
    }
  }
  return vgpu::shuffle_reduce_sum({lane_sum.data(), static_cast<usize>(vs)},
                                  ctx.counters());
}

}  // namespace

OpResult spmv_csr_vector(vgpu::Device& dev, const la::CsrMatrix& X,
                         std::span<const real> y, SpmvOptions opts) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()),
                "spmv dimension mismatch");
  const int vs = opts.vector_size > 0
                     ? opts.vector_size
                     : (opts.adaptive_vs
                            ? vector_size_for(X.mean_nnz_per_row())
                            : 32);
  LaunchConfig cfg = sparse_config(dev, X.rows(), vs);
  cfg.label = "spmv_csr_vector";
  // Texture residency: a y that fits the read-only cache is fetched once
  // per SM; otherwise every gather is charged.
  const bool y_resident =
      opts.texture_y && tex_resident(dev.spec(), y.size() * sizeof(real));
  const MemPath y_path = opts.texture_y ? MemPath::kTexture : MemPath::kDram;

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  const int nv = cfg.num_vectors_per_block();
  const int rows_per_warp = std::max(1, 32 / vs);
  const long long total_vectors =
      static_cast<long long>(cfg.grid_size) * nv;
  const detail::WarpTraffic traffic(X, vs);

  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    if (ctx.block_id() == 0 && y_resident) {
      charge_tex_fill(ctx.mem(), dev.spec(), y.size() * sizeof(real));
    }
    // Warps sweep groups of consecutive rows; the group advances by the
    // total vector count each coarsening step (Alg. 1 line 13 geometry).
    for (int c = 0; c < cfg.coarsening; ++c) {
      const long long block_first_row =
          static_cast<long long>(ctx.block_id()) * nv +
          static_cast<long long>(c) * total_vectors;
      for (int vid0 = 0; vid0 < nv; vid0 += rows_per_warp) {
        const long long warp_first_row = block_first_row + vid0;
        if (warp_first_row >= X.rows()) continue;
        const int rows_here = static_cast<int>(std::min<long long>(
            rows_per_warp, X.rows() - warp_first_row));
        // row_off for the warp's rows: one coalesced load.
        ctx.mem().load_contiguous(static_cast<std::uint64_t>(warp_first_row),
                                  rows_here + 1, sizeof(offset_t));
        traffic.charge(ctx.mem(), warp_first_row, rows_here, MemPath::kDram,
                       /*with_y=*/!y_resident, y_path);
        for (int v = 0; v < rows_here; ++v) {
          const auto r = static_cast<index_t>(warp_first_row + v);
          out.value[static_cast<usize>(r)] =
              vector_row_dot(ctx, X, y, r, vs);
        }
        // Output store, coalesced across the warp's rows (lane 0 of each
        // vector writes).
        ctx.mem().store_contiguous(static_cast<std::uint64_t>(warp_first_row),
                                   rows_here, sizeof(real));
      }
    }
  }));
  return out;
}

OpResult spmv_csr_scalar(vgpu::Device& dev, const la::CsrMatrix& X,
                         std::span<const real> y, SpmvOptions opts) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()),
                "spmv dimension mismatch");
  LaunchConfig cfg = sparse_config(dev, X.rows(), 1);
  cfg.label = "spmv_csr_scalar";
  cfg.vector_size = 1;
  const MemPath y_path = opts.texture_y ? MemPath::kTexture : MemPath::kDram;

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  const int nv = cfg.block_size;  // one thread per row
  const long long total_threads = static_cast<long long>(cfg.grid_size) * nv;
  cfg.coarsening = static_cast<int>(
      (X.rows() + total_threads - 1) / total_threads);

  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    for (int c = 0; c < cfg.coarsening; ++c) {
      const long long block_first_row =
          static_cast<long long>(ctx.block_id()) * nv +
          static_cast<long long>(c) * total_threads;
      for (int w0 = 0; w0 < nv; w0 += 32) {
        const long long warp_first_row = block_first_row + w0;
        if (warp_first_row >= X.rows()) continue;
        const int rows_here = static_cast<int>(
            std::min<long long>(32, X.rows() - warp_first_row));
        ctx.mem().load_contiguous(static_cast<std::uint64_t>(warp_first_row),
                                  rows_here + 1, sizeof(offset_t));
        // Each lane walks its own row: per step the warp's lanes touch 32
        // unrelated positions — the classic CSR-scalar divergence/uncoalesced
        // pattern. We charge a gather per step until every lane's row ends.
        index_t max_len = 0;
        for (int l = 0; l < rows_here; ++l) {
          max_len = std::max(
              max_len, X.row_nnz(static_cast<index_t>(warp_first_row + l)));
        }
        std::array<std::uint64_t, 32> vaddr{};
        std::array<std::uint64_t, 32> yaddr{};
        for (index_t k = 0; k < max_len; ++k) {
          usize active = 0;
          for (int l = 0; l < rows_here; ++l) {
            const auto r = static_cast<index_t>(warp_first_row + l);
            if (k >= X.row_nnz(r)) continue;
            const auto i = static_cast<usize>(X.row_begin(r)) +
                           static_cast<usize>(k);
            vaddr[active] = static_cast<std::uint64_t>(i) * sizeof(real);
            yaddr[active] =
                static_cast<std::uint64_t>(X.col_idx()[i]) * sizeof(real);
            ++active;
            out.value[static_cast<usize>(r)] +=
                X.values()[i] * y[static_cast<usize>(X.col_idx()[i])];
          }
          if (active == 0) break;
          ctx.mem().load_gather({vaddr.data(), active});  // values
          ctx.mem().load_gather({vaddr.data(), active});  // col_idx (same seg pattern)
          ctx.mem().load_gather({yaddr.data(), active}, y_path);
          ctx.mem().add_flops(2ull * active);
        }
        ctx.mem().store_contiguous(static_cast<std::uint64_t>(warp_first_row),
                                   rows_here, sizeof(real));
      }
    }
  }));
  return out;
}

}  // namespace fusedml::kernels
