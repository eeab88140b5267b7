#include "kernels/fused_row.h"

#include <array>
#include <vector>

#include "common/error.h"
#include "kernels/blas1.h"
#include "kernels/gemv.h"
#include "kernels/resource_profile.h"
#include "kernels/sparse_warp_accounting.h"
#include "kernels/spmv.h"
#include "kernels/texture_model.h"

namespace fusedml::kernels {

namespace {

using detail::dense_config;
using detail::launch_streaming;
using vgpu::BlockCtx;
using vgpu::LaunchConfig;
using vgpu::MemPath;

/// Row index of every nonzero — host-side helper for the mask kernel.
std::vector<index_t> row_of_nnz(const la::CsrMatrix& X) {
  std::vector<index_t> row_of(static_cast<usize>(X.nnz()));
  for (index_t r = 0; r < X.rows(); ++r) {
    for (offset_t k = X.row_begin(r); k < X.row_end(r); ++k) {
      row_of[static_cast<usize>(k)] = r;
    }
  }
  return row_of;
}

}  // namespace

OpResult dev_outer_map(vgpu::Device& dev, std::span<const real> u,
                       std::span<const real> v, real (*f)(real)) {
  FUSEDML_CHECK(f != nullptr, "outer_map: null map function");
  const usize m = u.size();
  const usize n = v.size();
  OpResult out;
  out.value.assign(m * n, real{0});
  with_map(f, [&](auto fn) {
    out.absorb(launch_streaming(dev, "outer_map", m * n,
                                [&](BlockCtx& ctx, usize i0, int lanes) {
      ctx.mem().load_contiguous(i0, lanes, sizeof(real));  // v slice
      ctx.mem().load_contiguous(i0, lanes, sizeof(real));  // u broadcast
      ctx.mem().store_contiguous(i0, lanes, sizeof(real));
      ctx.mem().add_flops(5ull * lanes);  // mul + transcendental-class map
      for (int l = 0; l < lanes; ++l) {
        const usize i = i0 + static_cast<usize>(l);
        out.value[i] = fn(u[i / n] * v[i % n]);
      }
    }));
  });
  return out;
}

OpResult dev_mask_values(vgpu::Device& dev, const la::CsrMatrix& X,
                         std::span<const real> om) {
  FUSEDML_CHECK(om.size() == static_cast<usize>(X.rows()) *
                                 static_cast<usize>(X.cols()),
                "mask_values: outer-map size mismatch");
  const auto row_of = row_of_nnz(X);
  const auto n = static_cast<usize>(X.cols());
  OpResult out;
  out.value.assign(static_cast<usize>(X.nnz()), real{0});
  out.absorb(launch_streaming(dev, "mask_values", out.value.size(),
                              [&](BlockCtx& ctx, usize i0, int lanes) {
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));     // X.values
    ctx.mem().load_contiguous(i0, lanes, sizeof(index_t));  // col_idx
    ctx.mem().store_contiguous(i0, lanes, sizeof(real));
    ctx.mem().add_flops(static_cast<std::uint64_t>(lanes));
    std::array<std::uint64_t, 32> addr{};
    for (int l = 0; l < lanes; ++l) {
      const usize k = i0 + static_cast<usize>(l);
      const usize j = static_cast<usize>(row_of[k]) * n +
                      static_cast<usize>(X.col_idx()[k]);
      addr[static_cast<usize>(l)] =
          static_cast<std::uint64_t>(j) * sizeof(real);
      out.value[k] = X.values()[k] * om[j];
    }
    ctx.mem().load_gather({addr.data(), static_cast<usize>(lanes)});
  }));
  return out;
}

OpResult dev_mask_values(vgpu::Device& dev, const la::DenseMatrix& X,
                         std::span<const real> om) {
  FUSEDML_CHECK(om.size() == X.data().size(),
                "mask_values: outer-map size mismatch");
  OpResult out;
  out.value.assign(X.data().size(), real{0});
  out.absorb(launch_streaming(dev, "mask_values_dense", out.value.size(),
                              [&](BlockCtx& ctx, usize i0, int lanes) {
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));  // X
    ctx.mem().load_contiguous(i0, lanes, sizeof(real));  // om
    ctx.mem().store_contiguous(i0, lanes, sizeof(real));
    ctx.mem().add_flops(static_cast<std::uint64_t>(lanes));
    for (int l = 0; l < lanes; ++l) {
      const usize i = i0 + static_cast<usize>(l);
      out.value[i] = X.data()[i] * om[i];
    }
  }));
  return out;
}

OpResult dev_masked_spmv(vgpu::Device& dev, const la::CsrMatrix& X,
                         std::span<const real> vals,
                         std::span<const real> z) {
  FUSEDML_CHECK(vals.size() == static_cast<usize>(X.nnz()),
                "masked_spmv: values size mismatch");
  FUSEDML_CHECK(z.size() == static_cast<usize>(X.cols()),
                "masked_spmv dimension mismatch");
  const int vs = vector_size_for(X.mean_nnz_per_row());
  LaunchConfig cfg = detail::sparse_config(dev, X.rows(), vs);
  cfg.label = "masked_spmv";
  const bool z_resident = tex_resident(dev.spec(), z.size() * sizeof(real));
  const MemPath z_path = MemPath::kTexture;

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  const detail::WarpTraffic traffic(X, vs);
  const auto per_warp = [&](BlockCtx& ctx, long long first_row,
                            int rows_here) {
    traffic.charge(ctx.mem(), first_row, rows_here, MemPath::kDram,
                   /*with_y=*/!z_resident, z_path);
    for (int v = 0; v < rows_here; ++v) {
      const auto r = static_cast<index_t>(first_row + v);
      out.value[static_cast<usize>(r)] =
          detail::vector_row_dot(ctx, X, vals, z, r, vs);
    }
    ctx.mem().store_contiguous(static_cast<std::uint64_t>(first_row),
                               rows_here, sizeof(real));
  };

  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    if (ctx.block_id() == 0 && z_resident) {
      charge_tex_fill(ctx.mem(), dev.spec(), z.size() * sizeof(real));
    }
    detail::sweep_rows(ctx, X, per_warp);
  }));
  return out;
}

OpResult dev_masked_gemv(vgpu::Device& dev, const la::DenseMatrix& X,
                         std::span<const real> vals,
                         std::span<const real> z) {
  FUSEDML_CHECK(vals.size() == X.data().size(),
                "masked_gemv: values size mismatch");
  FUSEDML_CHECK(z.size() == static_cast<usize>(X.cols()),
                "masked_gemv dimension mismatch");
  const auto n = static_cast<usize>(X.cols());
  LaunchConfig cfg = dense_config(dev, X.rows());
  cfg.label = "masked_gemv";
  const bool z_resident = tex_resident(dev.spec(), n * sizeof(real));

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  const auto per_row = [&](BlockCtx& ctx, index_t r) {
    const auto row0 = static_cast<usize>(r) * n;
    ctx.mem().load_stream(row0, n, sizeof(real));
    if (!z_resident) {
      ctx.mem().load_stream(0, n, sizeof(real), MemPath::kTexture);
    }
    out.value[static_cast<usize>(r)] =
        detail::dense_row_dot(ctx, vals.subspan(row0, n), z);
  };

  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    if (ctx.block_id() == 0 && z_resident) {
      charge_tex_fill(ctx.mem(), dev.spec(), n * sizeof(real));
    }
    detail::sweep_dense_rows(ctx, X.rows(), per_row);
  }));
  return out;
}

OpResult dev_fused_row(vgpu::Device& dev, const la::CsrMatrix& X,
                       std::span<const real> y, const EwiseProgram& program,
                       std::span<const std::span<const real>> ext) {
  FUSEDML_CHECK(program.valid(), "fused_row: invalid epilogue program");
  FUSEDML_CHECK(static_cast<usize>(program.num_inputs) == ext.size() + 1,
                "fused_row: external input count mismatch");
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()),
                "fused_row dimension mismatch");
  for (const auto& e : ext) {
    FUSEDML_CHECK(e.size() == static_cast<usize>(X.rows()),
                  "fused_row: external input must be a length-m vector");
  }
  const int vs = vector_size_for(X.mean_nnz_per_row());
  LaunchConfig cfg = detail::sparse_config(dev, X.rows(), vs);
  cfg.label = "fused_row";
  const bool y_resident = tex_resident(dev.spec(), y.size() * sizeof(real));
  const MemPath y_path = MemPath::kTexture;

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  const std::uint64_t epilogue_flops = program.flops_per_element();
  const detail::WarpTraffic traffic(X, vs);
  // Blocks run one at a time, so one set of epilogue slots serves them all.
  std::vector<real> slots(static_cast<usize>(program.num_inputs) +
                          program.steps.size());
  const auto per_warp = [&](BlockCtx& ctx, long long first_row,
                            int rows_here) {
    traffic.charge(ctx.mem(), first_row, rows_here, MemPath::kDram,
                   /*with_y=*/!y_resident, y_path);
    // External epilogue inputs: one coalesced load per stream.
    for (usize e = 0; e < ext.size(); ++e) {
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(first_row),
                                rows_here, sizeof(real));
    }
    ctx.mem().add_flops(epilogue_flops *
                        static_cast<std::uint64_t>(rows_here));
    for (int v = 0; v < rows_here; ++v) {
      const auto r = static_cast<index_t>(first_row + v);
      slots[0] = detail::vector_row_dot(ctx, X, X.values(), y, r, vs);
      for (usize e = 0; e < ext.size(); ++e) {
        slots[e + 1] = ext[e][static_cast<usize>(r)];
      }
      out.value[static_cast<usize>(r)] = eval_device_element(program, slots);
    }
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

OpResult dev_fused_row(vgpu::Device& dev, const la::DenseMatrix& X,
                       std::span<const real> y, const EwiseProgram& program,
                       std::span<const std::span<const real>> ext) {
  FUSEDML_CHECK(program.valid(), "fused_row: invalid epilogue program");
  FUSEDML_CHECK(static_cast<usize>(program.num_inputs) == ext.size() + 1,
                "fused_row: external input count mismatch");
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()),
                "fused_row dimension mismatch");
  for (const auto& e : ext) {
    FUSEDML_CHECK(e.size() == static_cast<usize>(X.rows()),
                  "fused_row: external input must be a length-m vector");
  }
  const auto n = static_cast<usize>(X.cols());
  LaunchConfig cfg = dense_config(dev, X.rows());
  cfg.label = "fused_row_dense";
  const bool y_resident = tex_resident(dev.spec(), n * sizeof(real));
  const std::uint64_t epilogue_flops = program.flops_per_element();

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  // Blocks run one at a time, so one set of epilogue slots serves them all.
  std::vector<real> slots(static_cast<usize>(program.num_inputs) +
                          program.steps.size());
  const auto per_row = [&](BlockCtx& ctx, index_t r) {
    ctx.mem().load_stream(static_cast<std::uint64_t>(r) * n, n, sizeof(real));
    if (!y_resident) {
      ctx.mem().load_stream(0, n, sizeof(real), MemPath::kTexture);
    }
    for (usize e = 0; e < ext.size(); ++e) {
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(r), 1,
                                sizeof(real));
    }
    ctx.mem().add_flops(epilogue_flops);
    // gemv_n's row product, then the epilogue.
    slots[0] = detail::dense_row_dot(ctx, X.row(r), y);
    for (usize e = 0; e < ext.size(); ++e) {
      slots[e + 1] = ext[e][static_cast<usize>(r)];
    }
    out.value[static_cast<usize>(r)] = eval_device_element(program, slots);
  };

  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    if (ctx.block_id() == 0 && y_resident) {
      charge_tex_fill(ctx.mem(), dev.spec(), n * sizeof(real));
    }
    detail::sweep_dense_rows(ctx, X.rows(), per_row);
  }));
  return out;
}

OpResult dev_fused_sddmm(vgpu::Device& dev, const la::CsrMatrix& X,
                         std::span<const real> u, std::span<const real> v,
                         std::span<const real> z, real (*f)(real)) {
  FUSEDML_CHECK(f != nullptr, "fused_sddmm: null map function");
  FUSEDML_CHECK(u.size() == static_cast<usize>(X.rows()),
                "fused_sddmm: u must be a length-m vector");
  FUSEDML_CHECK(v.size() == static_cast<usize>(X.cols()) &&
                    z.size() == static_cast<usize>(X.cols()),
                "fused_sddmm: v and z must be length-n vectors");
  const int vs = vector_size_for(X.mean_nnz_per_row());
  LaunchConfig cfg = detail::sparse_config(dev, X.rows(), vs);
  cfg.label = "fused_sddmm";
  // v and z are both gathered at col_idx; they share the read-only cache.
  const bool vz_resident =
      tex_resident(dev.spec(), (v.size() + z.size()) * sizeof(real));
  const MemPath gather_path = MemPath::kTexture;

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  const detail::WarpTraffic traffic(X, vs);
  with_map(f, [&](auto fn) {
    const auto per_warp = [&](BlockCtx& ctx, long long first_row,
                              int rows_here) {
      // u for the warp's rows: one coalesced load.
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(first_row),
                                rows_here, sizeof(real));
      traffic.charge(ctx.mem(), first_row, rows_here, MemPath::kDram,
                     /*with_y=*/!vz_resident, gather_path);
      if (!vz_resident) {
        // Second gather stream (v AND z are fetched per nonzero).
        traffic.charge_gather(ctx.mem(), first_row, rows_here, gather_path);
      }
      for (int vrow = 0; vrow < rows_here; ++vrow) {
        const auto r = static_cast<index_t>(first_row + vrow);
        const real ur = u[static_cast<usize>(r)];
        // 2 mul + map + mul-add per lane. Term for term the unfused chain's
        // expression: mask = X.values[k] * f(u[r] * v[col]);
        // sum += mask * z[col]
        out.value[static_cast<usize>(r)] = detail::vector_row_sum(
            ctx, X, r, vs, 7,
            [vals = X.values(), ur, v, z, fn](usize k, usize col) {
              const real masked = vals[k] * fn(ur * v[col]);
              return masked * z[col];
            });
      }
      ctx.mem().store_contiguous(static_cast<std::uint64_t>(first_row),
                                 rows_here, sizeof(real));
    };

    out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
      if (ctx.block_id() == 0 && vz_resident) {
        charge_tex_fill(ctx.mem(), dev.spec(),
                        (v.size() + z.size()) * sizeof(real));
      }
      detail::sweep_rows(ctx, X, per_warp);
    }));
  });
  return out;
}

OpResult dev_fused_sddmm(vgpu::Device& dev, const la::DenseMatrix& X,
                         std::span<const real> u, std::span<const real> v,
                         std::span<const real> z, real (*f)(real)) {
  FUSEDML_CHECK(f != nullptr, "fused_sddmm: null map function");
  FUSEDML_CHECK(u.size() == static_cast<usize>(X.rows()),
                "fused_sddmm: u must be a length-m vector");
  FUSEDML_CHECK(v.size() == static_cast<usize>(X.cols()) &&
                    z.size() == static_cast<usize>(X.cols()),
                "fused_sddmm: v and z must be length-n vectors");
  const auto n = static_cast<usize>(X.cols());
  LaunchConfig cfg = dense_config(dev, X.rows());
  cfg.label = "fused_sddmm_dense";
  const bool vz_resident =
      tex_resident(dev.spec(), (v.size() + z.size()) * sizeof(real));

  OpResult out;
  out.value.assign(static_cast<usize>(X.rows()), real{0});
  with_map(f, [&](auto fn) {
    const auto per_row = [&](BlockCtx& ctx, index_t r) {
      ctx.mem().load_stream(static_cast<std::uint64_t>(r) * n, n,
                            sizeof(real));
      ctx.mem().load_contiguous(static_cast<std::uint64_t>(r), 1,
                                sizeof(real));  // u[r]
      if (!vz_resident) {
        ctx.mem().load_stream(0, n, sizeof(real), MemPath::kTexture);  // v
        ctx.mem().load_stream(0, n, sizeof(real), MemPath::kTexture);  // z
      }
      const auto row = X.row(r);
      const real ur = u[static_cast<usize>(r)];
      // 2 mul + map + mul-add per column: masked_gemv over mask_values'
      // expression, term for term.
      out.value[static_cast<usize>(r)] = detail::dense_row_sum(
          ctx, n, 7, [row, ur, v, z, fn](usize c) {
            const real masked = row[c] * fn(ur * v[c]);
            return masked * z[c];
          });
    };

    out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
      if (ctx.block_id() == 0 && vz_resident) {
        charge_tex_fill(ctx.mem(), dev.spec(),
                        (v.size() + z.size()) * sizeof(real));
      }
      detail::sweep_dense_rows(ctx, X.rows(), per_row);
    }));
  });
  return out;
}

}  // namespace fusedml::kernels
