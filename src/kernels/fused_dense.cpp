#include "kernels/fused_dense.h"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/error.h"
#include "kernels/resource_profile.h"
#include "kernels/texture_model.h"

namespace fusedml::kernels {

namespace {
using vgpu::BlockCtx;
using vgpu::MemPath;

// ---------------------------------------------------------------------------
// Code-generated row kernels (the template analogue of Listing 2).
//
// With TL a template parameter, l_X is a fixed-size std::array whose every
// access uses a compile-time index, so the loops fully unroll and the array
// stays in registers — exactly the property the paper's code generator
// guarantees on CUDA. The runtime-TL fallback below indexes with a runtime
// bound, which on a real GPU demotes the arrays to local memory.
// ---------------------------------------------------------------------------

/// Phase 1 of Algorithm 3 (L11-13): the vector's dot product
/// sum over lanes/TL of X[row, lane + t*VS] * y[...]. Only the in-range
/// (lane, t) pairs are visited: a lane past the row holds padding zeros,
/// and its lane sum +0 leaves s unchanged, because s starts at +0 and a
/// sum that starts at +0 is never -0. At TL 1 (VS >= n) lane j holds
/// column j alone, so the walk is the row's column order.
template <int TL>
real codegen_dot(std::span<const real> row, std::span<const real> y, int vs) {
  const usize n = row.size();
  const usize lanes = std::min(static_cast<usize>(vs), n);
  real s = 0;
  for (usize lane = 0; lane < lanes; ++lane) {
    real lane_sum = 0;
#pragma GCC unroll 40
    for (int t = 0; t < TL; ++t) {
      const usize j = lane + static_cast<usize>(t) * static_cast<usize>(vs);
      if (j >= n) break;
      lane_sum += row[j] * y[j];
    }
    s += lane_sum;
  }
  return s;
}

/// Runtime-TL fallback (no codegen): identical math, but the register
/// arrays are runtime-indexed; callers charge the local-memory spill.
real dynamic_dot(std::span<const real> row, std::span<const real> y) {
  real s = 0;
  for (usize j = 0; j < row.size(); ++j) s += row[j] * y[j];
  return s;
}

/// Phase 2 of Algorithm 3 (L23-24): l_w[j] += l_X[j] * s. Each column is
/// updated once and alone, so the lane order of the registers does not
/// matter and every TL walks the row in column order.
void row_axpy(std::span<const real> row, real s, std::span<real> l_w) {
  for (usize j = 0; j < row.size(); ++j) l_w[j] += row[j] * s;
}

/// Invokes f.template operator()<TL>() for the runtime thread load.
template <typename F, int... TLs>
void dispatch_tl_impl(int tl, F&& f, std::integer_sequence<int, TLs...>) {
  const bool hit =
      (((tl == TLs + 1) ? (f.template operator()<TLs + 1>(), true) : false) ||
       ...);
  FUSEDML_CHECK(hit, "thread load out of the generated range 1..40");
}

template <typename F>
void dispatch_tl(int tl, F&& f) {
  dispatch_tl_impl(tl, std::forward<F>(f),
                   std::make_integer_sequence<int, kDenseFusedMaxThreadLoad>{});
}

}  // namespace

bool dense_fused_feasible(const vgpu::DeviceSpec& spec, index_t n) {
  // Largest row a vector can cover: BS lanes x TL register elements, with
  // TL capped by the spill limit.
  const long long max_cover =
      static_cast<long long>(std::min(128, spec.max_threads_per_block)) *
      kDenseFusedMaxThreadLoad;
  return n <= max_cover;
}

tuner::DenseParams fused_dense_params(const vgpu::Device& dev,
                                      const la::DenseMatrix& X,
                                      const FusedDenseOptions& opts) {
  auto params = tuner::dense_launch_params(dev.spec(), X.rows(), X.cols());
  bool dirty = false;
  if (opts.block_size > 0) {
    params.config.block_size = opts.block_size;
    dirty = true;
  }
  if (opts.thread_load > 0) {
    params.config.thread_load = opts.thread_load;
    dirty = true;
  }
  if (opts.vector_size > 0) {
    params.config.vector_size = opts.vector_size;
    dirty = true;
  } else if (dirty) {
    params.config.vector_size = tuner::dense_vector_size(
        X.cols(), params.config.thread_load, params.config.block_size);
  }
  if (dirty) {
    FUSEDML_CHECK(params.config.block_size % params.config.vector_size == 0,
                  "block size must be a multiple of VS");
    params.config.resources = {
        dense_fused_regs_per_thread(params.config.thread_load),
        params.config.resources.smem_per_block};
    params.occupancy = vgpu::compute_occupancy(
        dev.spec(), params.config.block_size, params.config.resources);
    params.config.grid_size =
        std::max(1, params.occupancy.blocks_per_sm * dev.spec().num_sms);
    const long long total_vectors =
        static_cast<long long>(params.config.grid_size) *
        params.config.num_vectors_per_block();
    params.config.coarsening = static_cast<int>(std::max<long long>(
        1, (X.rows() + total_vectors - 1) / total_vectors));
  }
  if (opts.coarsening > 0) params.config.coarsening = opts.coarsening;

  // The vector must cover the (padded) row: VS * TL >= n.
  FUSEDML_CHECK(
      static_cast<long long>(params.config.vector_size) *
              params.config.thread_load >=
          X.cols(),
      "VS * TL must cover the row");
  return params;
}

OpResult fused_pattern_dense(vgpu::Device& dev, real alpha,
                             const la::DenseMatrix& X, std::span<const real> v,
                             std::span<const real> y, real beta,
                             std::span<const real> z, FusedDenseOptions opts) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.cols()),
                "fused_pattern_dense: y must have n entries");
  FUSEDML_CHECK(v.empty() || v.size() == static_cast<usize>(X.rows()),
                "fused_pattern_dense: v must have m entries or be empty");
  FUSEDML_CHECK(z.empty() || z.size() == static_cast<usize>(X.cols()),
                "fused_pattern_dense: z must have n entries or be empty");

  const auto params = fused_dense_params(dev, X, opts);
  auto cfg = params.config;
  cfg.label = "fused_pattern_dense";
  const auto n = static_cast<usize>(X.cols());
  // §3.2 zero padding: lanes beyond n load padding zeros; we charge their
  // traffic (the wasted-warp effect the tuner minimizes) and skip the math.
  const usize n_pad =
      (n + cfg.vector_size - 1) / cfg.vector_size * cfg.vector_size;
  const int nv = cfg.num_vectors_per_block();
  const long long total_vectors =
      static_cast<long long>(cfg.grid_size) * nv;
  const bool y_resident =
      opts.texture_y && tex_resident(dev.spec(), n_pad * sizeof(real));
  const MemPath y_path = opts.texture_y ? MemPath::kTexture : MemPath::kDram;
  const bool has_beta = !z.empty() && beta != real{0};
  const int warps_per_vector = std::max(1, cfg.vector_size / 32);

  OpResult out;
  out.value.assign(n, real{0});

  out.absorb(dev.launch(cfg, [&](BlockCtx& ctx) {
    const usize bs = static_cast<usize>(ctx.block_size());
    const usize grid_stride = static_cast<usize>(ctx.grid_size()) * bs;
    if (ctx.block_id() == 0 && y_resident) {
      charge_tex_fill(ctx.mem(), dev.spec(), n_pad * sizeof(real));
    }

    // beta * z initialization (Alg. 3 L6-7).
    if (has_beta) {
      for (usize base = static_cast<usize>(ctx.block_id()) * bs; base < n;
           base += grid_stride) {
        const usize end = std::min(n, base + bs);
        for (usize i0 = base; i0 < end; i0 += 32) {
          const int lanes = static_cast<int>(std::min<usize>(32, end - i0));
          ctx.mem().load_contiguous(i0, lanes, sizeof(real));
          ctx.mem().atomic_global(static_cast<std::uint64_t>(lanes),
                                  static_cast<std::uint64_t>(n));
          ctx.mem().add_flops(static_cast<std::uint64_t>(lanes));
          for (int l = 0; l < lanes; ++l) {
            vgpu::atomic_add(out.value[i0 + l], beta * z[i0 + l]);
          }
        }
      }
    }

    // The per-vector register file l_w (VS * TL >= n registers across the
    // vector's lanes).
    std::vector<real> l_w(n);
    for (int vid = 0; vid < nv; ++vid) {
      const long long first_row =
          static_cast<long long>(ctx.block_id()) * nv + vid;
      if (first_row >= X.rows()) continue;
      std::fill(l_w.begin(), l_w.end(), real{0});

      // y into registers, once per vector (Alg. 3 L4-5); a cache-resident y
      // was charged once at the kernel start.
      if (!y_resident) ctx.mem().load_stream(0, n_pad, sizeof(real), y_path);

      for (int c = 0; c < cfg.coarsening; ++c) {
        const long long r = first_row + static_cast<long long>(c) *
                                            total_vectors;
        if (r >= X.rows()) break;
        const auto row = X.row(static_cast<index_t>(r));

        // X row into registers — the ONLY cold pass over X in the kernel.
        ctx.mem().load_stream(static_cast<std::uint64_t>(r) * n, n_pad,
                              sizeof(real));
        ctx.mem().add_flops(4ull * n);

        real s = 0;
        if (opts.use_codegen) {
          dispatch_tl(cfg.thread_load, [&]<int TL>() {
            s = codegen_dot<TL>(row, y, cfg.vector_size);
          });
        } else {
          s = dynamic_dot(row, y);
          // Runtime-indexed l_X/l_y/l_w spill to local memory: each element
          // round-trips once per phase (store in phase 1, load in phase 2,
          // plus the l_w read-modify-write).
          ctx.mem().local_spill(3ull * n_pad * sizeof(real));
        }

        // Intra-vector reduction (Alg. 3 L14-22).
        if (cfg.vector_size <= 32) {
          ctx.counters().shuffle_ops +=
              static_cast<std::uint64_t>(cfg.vector_size - 1);
        } else {
          ctx.counters().shuffle_ops += 31ull * warps_per_vector;
          ctx.counters().smem_accesses += 2ull * warps_per_vector;
          ctx.counters().shuffle_ops +=
              static_cast<std::uint64_t>(warps_per_vector);
        }
        if (!v.empty()) {
          // One lane multiplies by v[row] (L20); one element load.
          ctx.mem().load_contiguous(static_cast<std::uint64_t>(r), 1,
                                    sizeof(real));
          s *= v[static_cast<usize>(r)];
          ctx.mem().add_flops(1);
        }

        row_axpy(row, s, l_w);
      }

      // Flush l_w with one atomic per element (Alg. 3 L26-27).
      ctx.mem().atomic_global(static_cast<std::uint64_t>(n_pad),
                              static_cast<std::uint64_t>(n));
      ctx.mem().add_flops(static_cast<std::uint64_t>(n));
      real* const w = out.value.data();
      const real* const lw = l_w.data();
      for (usize j = 0; j < n; ++j) {
        if (lw[j] != real{0}) vgpu::atomic_add(w[j], alpha * lw[j]);
      }
    }
  }));
  return out;
}

}  // namespace fusedml::kernels
