#include "kernels/sparse_warp_accounting.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "kernels/resource_profile.h"
#include "obs/metrics.h"
#include "vgpu/coalescing.h"

namespace fusedml::kernels::detail {

vgpu::LaunchConfig sparse_config(const vgpu::Device& dev, index_t m, int vs) {
  vgpu::LaunchConfig cfg;
  cfg.block_size = 256;
  cfg.vector_size = vs;
  cfg.resources = {kSpmvRegsPerThread, 0};
  const auto occ =
      vgpu::compute_occupancy(dev.spec(), cfg.block_size, cfg.resources);
  const int resident = std::max(1, occ.blocks_per_sm * dev.spec().num_sms);
  const int blocks_needed =
      static_cast<int>(static_cast<long long>(m) /
                       std::max(1, cfg.block_size / vs)) + 1;
  cfg.grid_size = std::max(1, std::min(resident, blocks_needed));
  const long long total_vectors =
      static_cast<long long>(cfg.grid_size) * (cfg.block_size / vs);
  cfg.coarsening = static_cast<int>((m + total_vectors - 1) / total_vectors);
  return cfg;
}

namespace {

/// Distinct 128-byte segments of lanes reading elements [i0, i0 + lanes)
/// that the previous, lower-addressed range of the same warp step did not
/// touch; `last` carries the highest segment seen so far. Within a step the
/// vectors' ranges ascend (CSR rows are contiguous), so this equals
/// vgpu::gather_transactions over the step's addresses without the sort.
std::uint64_t new_segments(offset_t i0, int lanes, usize elem_bytes,
                           std::uint64_t& last) {
  const auto first = static_cast<std::uint64_t>(i0);
  const std::uint64_t s0 = vgpu::segment_of(first * elem_bytes);
  const std::uint64_t s1 = vgpu::segment_of(
      (first + static_cast<std::uint64_t>(lanes) - 1) * elem_bytes);
  const std::uint64_t fresh = s1 - s0 + (s0 == last ? 0 : 1);
  last = s1;
  return fresh;
}

/// Sweeps every warp of X at vector size `vs` access by access.
la::WarpTable build_warp_table(const la::CsrMatrix& X, int vs) {
  const int rows_per_warp = std::max(1, 32 / vs);
  const long long m = X.rows();
  la::WarpTable table(static_cast<usize>((m + rows_per_warp - 1) /
                                         rows_per_warp));
  const auto cols = X.col_idx();
  std::array<offset_t, 32> start{};
  std::array<offset_t, 32> end{};
  std::array<std::uint64_t, 32> gather{};
  for (usize w = 0; w < table.size(); ++w) {
    const long long first_row = static_cast<long long>(w) * rows_per_warp;
    const int rows_here = static_cast<int>(
        std::min<long long>(rows_per_warp, m - first_row));
    offset_t max_len = 0;
    for (int v = 0; v < rows_here; ++v) {
      const auto r = static_cast<index_t>(first_row + v);
      start[v] = X.row_begin(r);
      end[v] = X.row_end(r);
      max_len = std::max(max_len, end[v] - start[v]);
    }
    la::WarpSweep& out = table[w];
    // Step by step, the warp's lanes read chunk i/VS of every vector's row.
    for (offset_t i = 0; i < max_len; i += vs) {
      std::uint64_t last_value = ~0ull;
      std::uint64_t last_col = ~0ull;
      usize active = 0;
      for (int v = 0; v < rows_here; ++v) {
        const offset_t i0 = start[v] + i;
        if (i0 >= end[v]) continue;
        const auto lanes =
            static_cast<int>(std::min<offset_t>(vs, end[v] - i0));
        out.values += new_segments(i0, lanes, sizeof(real), last_value);
        out.cols += new_segments(i0, lanes, sizeof(index_t), last_col);
        for (int l = 0; l < lanes; ++l) {
          gather[active++] =
              static_cast<std::uint64_t>(cols[static_cast<usize>(i0 + l)]) *
              sizeof(real);
        }
      }
      out.gather += vgpu::gather_transactions({gather.data(), active});
    }
  }
  return table;
}

const la::WarpTable& lookup(const la::CsrMatrix& X, int vs) {
  bool built = false;
  const la::WarpTable& table =
      X.warp_table(vs, [&] { return build_warp_table(X, vs); }, &built);
  if (obs::metrics().enabled()) {
    static obs::Counter& builds =
        obs::metrics().counter("kernels.warp_table_builds");
    static obs::Counter& hits =
        obs::metrics().counter("kernels.warp_table_hits");
    (built ? builds : hits).add();
  }
  return table;
}

}  // namespace

WarpTraffic::WarpTraffic(const la::CsrMatrix& X, int vs)
    : table_(lookup(X, vs)),
      row_off_(X.row_off()),
      rows_per_warp_(std::max(1, 32 / vs)) {}

const la::WarpSweep& WarpTraffic::sweep(long long first_row,
                                        int rows_here) const {
  const auto rows = static_cast<long long>(row_off_.size()) - 1;
  FUSEDML_CHECK(first_row % rows_per_warp_ == 0 &&
                    rows_here == std::min<long long>(rows_per_warp_,
                                                     rows - first_row),
                "a warp must cover rows [w*32/VS, (w+1)*32/VS)");
  return table_[static_cast<usize>(first_row / rows_per_warp_)];
}

std::uint64_t WarpTraffic::nnz(long long first_row, int rows_here) const {
  return static_cast<std::uint64_t>(
      row_off_[static_cast<usize>(first_row + rows_here)] -
      row_off_[static_cast<usize>(first_row)]);
}

void WarpTraffic::charge(vgpu::MemTracker& mem, long long first_row,
                         int rows_here, vgpu::MemPath data_path, bool with_y,
                         vgpu::MemPath y_path) const {
  const la::WarpSweep& s = sweep(first_row, rows_here);
  const std::uint64_t n = nnz(first_row, rows_here);
  mem.load_precomputed(s.values, n * sizeof(real), data_path);
  mem.load_precomputed(s.cols, n * sizeof(index_t), data_path);
  if (with_y) mem.load_precomputed(s.gather, n * sizeof(real), y_path);
}

void WarpTraffic::charge_gather(vgpu::MemTracker& mem, long long first_row,
                                int rows_here, vgpu::MemPath path) const {
  mem.load_precomputed(sweep(first_row, rows_here).gather,
                       nnz(first_row, rows_here) * sizeof(real), path);
}

}  // namespace fusedml::kernels::detail
