#include "kernels/gemv.h"

#include <algorithm>

#include "common/error.h"
#include "kernels/resource_profile.h"
#include "kernels/texture_model.h"

namespace fusedml::kernels {

namespace {
using vgpu::BlockCtx;
using vgpu::LaunchConfig;
using vgpu::MemPath;

/// Typical serialization of cuBLAS's unpadded 32-wide tile column walk.
constexpr int kCublasConflictWays = 8;

/// Passes each row's X stream costs: cuBLAS's column-major kernels read
/// row-major X strided, at about half the coalesced bandwidth.
int transaction_inflation(BaselineLibrary library) {
  return library == BaselineLibrary::kVendor ? 2 : 1;
}
}  // namespace

LaunchConfig detail::dense_config(const vgpu::Device& dev, index_t rows) {
  LaunchConfig cfg;
  cfg.block_size = 256;
  cfg.resources = {kGemvRegsPerThread, 32 * sizeof(real)};
  cfg.smem_words = 32;
  const auto occ =
      vgpu::compute_occupancy(dev.spec(), cfg.block_size, cfg.resources);
  cfg.grid_size = std::max(1, occ.blocks_per_sm * dev.spec().num_sms);
  const int warps_total = cfg.grid_size * (cfg.block_size / 32);
  cfg.coarsening = static_cast<int>(
      std::max<long long>(1, (rows + warps_total - 1) / warps_total));
  return cfg;
}

OpResult gemv_n(vgpu::Device& dev, const la::DenseMatrix& X,
                std::span<const real> y, BaselineLibrary library) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()),
                "gemv_n dimension mismatch");
  const auto n = static_cast<usize>(X.cols());
  LaunchConfig cfg = detail::dense_config(dev, X.rows());
  cfg.label = "gemv_n";
  const bool y_resident = tex_resident(dev.spec(), n * sizeof(real));
  const int passes = transaction_inflation(library);

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  const auto per_row = [&](BlockCtx& ctx, index_t r) {
    for (int rep = 0; rep < passes; ++rep) {
      ctx.mem().load_stream(static_cast<std::uint64_t>(r) * n, n,
                            sizeof(real));
    }
    if (!y_resident) {
      ctx.mem().load_stream(0, n, sizeof(real), MemPath::kTexture);
    }
    out.value[static_cast<usize>(r)] = detail::dense_row_dot(ctx, X.row(r), y);
  };

  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    if (ctx.block_id() == 0 && y_resident) {
      charge_tex_fill(ctx.mem(), dev.spec(), n * sizeof(real));
    }
    detail::sweep_dense_rows(ctx, X.rows(), per_row);
  }));
  return out;
}

OpResult gemv_t(vgpu::Device& dev, const la::DenseMatrix& X,
                std::span<const real> p, BaselineLibrary library) {
  FUSEDML_CHECK(p.size() == static_cast<usize>(X.rows()),
                "gemv_t dimension mismatch");
  const auto n = static_cast<usize>(X.cols());
  LaunchConfig cfg = detail::dense_config(dev, X.rows());
  cfg.label = "gemv_t";
  const int warps_per_block = cfg.block_size / 32;
  const long long rows_per_block_step =
      static_cast<long long>(warps_per_block) * 32;
  const int passes = transaction_inflation(library);
  const int conflict_ways =
      library == BaselineLibrary::kVendor ? kCublasConflictWays : 0;

  OpResult out;
  out.value.assign(n, real{0});
  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    // Tile scheme: each block owns a slab of 32-row tiles; rows are read
    // coalesced, partial column sums staged through shared memory (bank
    // conflicts per library), and flushed with one atomic per column per block.
    std::vector<real> partial(n, real{0});
    const long long slab_stride =
        static_cast<long long>(ctx.grid_size()) * rows_per_block_step;
    bool touched = false;
    for (long long r0 = static_cast<long long>(ctx.block_id()) *
                        rows_per_block_step;
         r0 < X.rows(); r0 += slab_stride) {
      const long long r1 =
          std::min<long long>(X.rows(), r0 + rows_per_block_step);
      // p for the slab: coalesced.
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(r0),
                                static_cast<int>(r1 - r0), sizeof(real));
      for (long long r = r0; r < r1; ++r) {
        touched = true;
        const real pr = p[static_cast<usize>(r)];
        const auto row = X.row(static_cast<index_t>(r));
        for (int rep = 0; rep < passes; ++rep) {
          ctx.mem().load_stream(static_cast<std::uint64_t>(r) * n, n,
                                sizeof(real));
        }
        ctx.mem().add_flops(2ull * n);
        // Column accumulation through shared-memory tiles.
        ctx.counters().smem_accesses += 2ull * n;
        if (conflict_ways > 1) {
          ctx.counters().smem_bank_conflicts +=
              (2ull * n / 32) * (conflict_ways - 1);
        }
        if (pr != real{0}) {
          for (usize c = 0; c < n; ++c) partial[c] += row[c] * pr;
        }
      }
    }
    if (touched) {
      // One atomic flush per column per block.
      ctx.mem().atomic_global(n, n);
      for (usize c = 0; c < n; ++c) {
        vgpu::atomic_add(out.value[c], partial[c]);
      }
    }
  }));
  return out;
}

}  // namespace fusedml::kernels
