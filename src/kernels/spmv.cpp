#include "kernels/spmv.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "kernels/sparse_warp_accounting.h"
#include "kernels/texture_model.h"

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

OpResult spmv_csr_vector(vgpu::Device& dev, const la::CsrMatrix& X,
                         std::span<const real> y, SpmvOptions opts) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()),
                "spmv dimension mismatch");
  const int vs = opts.vector_size > 0
                     ? opts.vector_size
                     : (opts.adaptive_vs
                            ? vector_size_for(X.mean_nnz_per_row())
                            : 32);
  LaunchConfig cfg = detail::sparse_config(dev, X.rows(), vs);
  cfg.label = "spmv_csr_vector";
  // Texture residency: a y that fits the read-only cache is fetched once
  // per SM; otherwise every gather is charged.
  const bool y_resident =
      opts.texture_y && tex_resident(dev.spec(), y.size() * sizeof(real));
  const MemPath y_path = opts.texture_y ? MemPath::kTexture : MemPath::kDram;

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  const detail::WarpTraffic traffic(X, vs);
  const auto per_warp = [&](BlockCtx& ctx, long long first_row,
                            int rows_here) {
    traffic.charge(ctx.mem(), first_row, rows_here, MemPath::kDram,
                   /*with_y=*/!y_resident, y_path);
    for (int v = 0; v < rows_here; ++v) {
      const auto r = static_cast<index_t>(first_row + v);
      out.value[static_cast<usize>(r)] =
          detail::vector_row_dot(ctx, X, X.values(), y, r, vs);
    }
    // Output store, coalesced across the warp's rows (lane 0 of each vector
    // writes).
    ctx.mem().store_contiguous(static_cast<std::uint64_t>(first_row),
                               rows_here, sizeof(real));
  };

  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    if (ctx.block_id() == 0 && y_resident) {
      charge_tex_fill(ctx.mem(), dev.spec(), y.size() * sizeof(real));
    }
    detail::sweep_rows(ctx, X, per_warp);
  }));
  return out;
}

OpResult spmv_csr_scalar(vgpu::Device& dev, const la::CsrMatrix& X,
                         std::span<const real> y, SpmvOptions opts) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()),
                "spmv dimension mismatch");
  LaunchConfig cfg = detail::sparse_config(dev, X.rows(), 1);
  cfg.label = "spmv_csr_scalar";
  const MemPath y_path = opts.texture_y ? MemPath::kTexture : MemPath::kDram;

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  // One thread per row: at VS = 1 each warp holds 32 rows.
  const auto per_warp = [&](BlockCtx& ctx, long long first_row,
                            int rows_here) {
    // Each lane walks its own row: per step the warp's lanes touch 32
    // unrelated positions — the classic CSR-scalar divergence/uncoalesced
    // pattern. We charge a gather per step until every lane's row ends.
    index_t max_len = 0;
    for (int l = 0; l < rows_here; ++l) {
      max_len =
          std::max(max_len, X.row_nnz(static_cast<index_t>(first_row + l)));
    }
    std::array<std::uint64_t, 32> vaddr{};
    std::array<std::uint64_t, 32> yaddr{};
    for (index_t k = 0; k < max_len; ++k) {
      usize active = 0;
      for (int l = 0; l < rows_here; ++l) {
        const auto r = static_cast<index_t>(first_row + l);
        if (k >= X.row_nnz(r)) continue;
        const auto i =
            static_cast<usize>(X.row_begin(r)) + static_cast<usize>(k);
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
    ctx.mem().store_contiguous(static_cast<std::uint64_t>(first_row),
                               rows_here, sizeof(real));
  };

  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    detail::sweep_rows(ctx, X, per_warp);
  }));
  return out;
}

}  // namespace fusedml::kernels
