#include "kernels/spmv_transpose.h"

#include <algorithm>

#include "common/error.h"
#include "kernels/resource_profile.h"
#include "kernels/sparse_warp_accounting.h"
#include "la/convert.h"

namespace fusedml::kernels {

namespace {
using vgpu::BlockCtx;
using vgpu::LaunchConfig;
using vgpu::MemPath;

LaunchConfig nnz_streaming_config(const vgpu::Device& dev, offset_t nnz,
                                  const char* label) {
  LaunchConfig cfg;
  cfg.label = label;
  cfg.block_size = 256;
  cfg.resources = {kSpmvRegsPerThread, 0};
  const auto occ =
      vgpu::compute_occupancy(dev.spec(), cfg.block_size, cfg.resources);
  const int resident = std::max(1, occ.blocks_per_sm * dev.spec().num_sms);
  const auto blocks_needed = static_cast<int>(std::min<offset_t>(
      (nnz + cfg.block_size - 1) / cfg.block_size, resident));
  cfg.grid_size = std::max(1, blocks_needed);
  return cfg;
}
}  // namespace

OpResult spmv_t_atomic_scatter(vgpu::Device& dev, const la::CsrMatrix& X,
                               std::span<const real> y, SpmvOptions opts) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.rows()),
                "spmv_t dimension mismatch");
  const int vs = opts.vector_size > 0 ? opts.vector_size
                                      : vector_size_for(X.mean_nnz_per_row());
  LaunchConfig cfg;
  cfg.label = "spmv_t_atomic_scatter";
  cfg.block_size = 256;
  cfg.vector_size = vs;
  cfg.resources = {kSpmvRegsPerThread, 0};
  const auto occ =
      vgpu::compute_occupancy(dev.spec(), cfg.block_size, cfg.resources);
  cfg.grid_size = std::max(1, occ.blocks_per_sm * dev.spec().num_sms);
  const long long total_vectors =
      static_cast<long long>(cfg.grid_size) * cfg.num_vectors_per_block();
  cfg.coarsening = static_cast<int>(
      (X.rows() + total_vectors - 1) / total_vectors);
  const detail::WarpTraffic traffic(X, vs);

  OpResult out;
  out.value.assign(static_cast<usize>(X.cols()), real{0});
  const auto per_warp = [&](BlockCtx& ctx, long long first_row,
                            int rows_here) {
    ctx.mem().load_contiguous(static_cast<std::uint64_t>(first_row),
                              rows_here, sizeof(real));  // y[row]
    traffic.charge(ctx.mem(), first_row, rows_here, MemPath::kDram,
                   /*with_y=*/false, MemPath::kDram);
    for (int v = 0; v < rows_here; ++v) {
      const auto r = static_cast<index_t>(first_row + v);
      const real yr = y[static_cast<usize>(r)];
      const offset_t start = X.row_begin(r);
      const offset_t end = X.row_end(r);
      for (offset_t i = start; i < end; i += vs) {
        const int lanes = static_cast<int>(std::min<offset_t>(vs, end - i));
        ctx.mem().add_flops(static_cast<std::uint64_t>(lanes));
        for (int l = 0; l < lanes; ++l) {
          const auto k = static_cast<usize>(i) + static_cast<usize>(l);
          vgpu::atomic_add(out.value[static_cast<usize>(X.col_idx()[k])],
                           X.values()[k] * yr);
        }
        ctx.mem().atomic_global(static_cast<std::uint64_t>(lanes),
                                static_cast<std::uint64_t>(X.cols()));
      }
    }
  };
  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    detail::sweep_rows(ctx, X, per_warp);
  }));
  return out;
}

OpResult device_csr2csc_cost(vgpu::Device& dev, const la::CsrMatrix& X) {
  const offset_t nnz = X.nnz();
  const auto n = static_cast<std::uint64_t>(X.cols());
  OpResult out;

  // Kernel 1 — column histogram: stream col_idx coalesced, atomicAdd into
  // the per-column counters.
  out.absorb(dev.launch(nnz_streaming_config(dev, nnz, "transpose_histogram"),
                        [&](BlockCtx& ctx) {
    if (ctx.block_id() != 0) return;  // counters charged once for the grid
    for (offset_t i = 0; i < nnz; i += 32) {
      const int lanes = static_cast<int>(std::min<offset_t>(32, nnz - i));
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(i), lanes,
                                sizeof(index_t));
    }
    // Histogram counts are native integer atomics.
    ctx.mem().atomic_int(static_cast<std::uint64_t>(nnz), n);
  }));

  // Kernel 2 — exclusive scan over the n column counts (device scan does
  // roughly two passes over the array: reduce + downsweep).
  out.absorb(dev.launch(nnz_streaming_config(dev, X.cols(), "transpose_scan"),
                        [&](BlockCtx& ctx) {
    if (ctx.block_id() != 0) return;
    for (std::uint64_t i = 0; i < 2 * n; i += 32) {
      const int lanes = static_cast<int>(std::min<std::uint64_t>(32, 2 * n - i));
      ctx.mem().load_contiguous(i % n, lanes, sizeof(offset_t));
      ctx.mem().store_contiguous(i % n, lanes, sizeof(offset_t));
    }
  }));

  // Kernel 3 — scatter: stream (values, col_idx) coalesced plus the row
  // index of each element; write each (value, row) pair to its column
  // bucket. Destinations of adjacent non-zeros live in different column
  // buckets, so the stores are uncoalesced: one transaction per element —
  // the reason explicit transposition is so expensive (§3.1, Fig. 2).
  out.absorb(dev.launch(nnz_streaming_config(dev, nnz, "transpose_scatter"),
                        [&](BlockCtx& ctx) {
    if (ctx.block_id() != 0) return;
    for (offset_t i = 0; i < nnz; i += 32) {
      const int lanes = static_cast<int>(std::min<offset_t>(32, nnz - i));
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(i), lanes,
                                sizeof(real));     // values
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(i), lanes,
                                sizeof(index_t));  // col_idx
      ctx.mem().store_scatter(lanes, sizeof(real));     // CSC values
      ctx.mem().store_scatter(lanes, sizeof(index_t));  // CSC row_idx
    }
    // Cursor bumps: one integer fetch-add per element over n cursors.
    ctx.mem().atomic_int(static_cast<std::uint64_t>(nnz), n);
    // row_off stream for deriving each element's row.
    for (index_t r = 0; r < X.rows(); r += 32) {
      const int lanes =
          static_cast<int>(std::min<index_t>(32, X.rows() - r));
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(r), lanes,
                                sizeof(offset_t));
    }
  }));
  return out;
}

TransposeSplit spmv_t_explicit_transpose(vgpu::Device& dev,
                                         const la::CsrMatrix& X,
                                         std::span<const real> y,
                                         SpmvOptions opts) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.rows()),
                "spmv_t dimension mismatch");
  TransposeSplit split;
  split.transpose = device_csr2csc_cost(dev, X);

  // Functional transpose on the host (bit-exact), then a standard CSR-vector
  // SpMV over X^T charged on the device. The csr2csc launch is billed on
  // every call, but the host keeps X^T on X and scatters it only once per
  // values.
  const auto Xt = la::kept_transpose(X);
  SpmvOptions mv_opts = opts;
  mv_opts.vector_size = 0;  // re-derive from X^T's row statistics
  split.multiply = spmv_csr_vector(dev, *Xt, y, mv_opts);
  return split;
}

}  // namespace fusedml::kernels
