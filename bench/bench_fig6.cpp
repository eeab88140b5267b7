// Figure 6 reproduction — launch-parameter search space vs the analytical
// model (§4.3).
//
// The paper sweeps ~1,200 settings of (block size, rows-per-vector) for the
// fused sparse kernel on a 500k x 1k matrix with sparsity 0.01 (VS fixed at
// 8 by Eq. 4), plots 1/time, and reports that the model's pick is within 2%
// of the global optimum and inside the best 1% of all settings.
//
// Here each setting is priced by the same cost model the kernels use: the
// (config-independent) memory traffic is captured from one functional run,
// then each setting contributes its own occupancy, device utilization
// (too-coarse C leaves SMs idle), and inter-block atomic traffic (too-fine
// C multiplies the final aggregations).
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "common/cli.h"
#include "common/table.h"
#include "kernels/fused_sparse.h"
#include "kernels/resource_profile.h"
#include "la/generate.h"
#include "tuner/autotune.h"
#include "vgpu/cost_model.h"
#include "vgpu/device.h"

using namespace fusedml;

static int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto rows =
      cli.get_positive("rows", 100000, "rows in X (paper: 500000)");
  const auto n = cli.get_positive("cols", 1000, "columns (paper: 1000)");
  const double sparsity = cli.get_double("sparsity", 0.01, "nnz fraction");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, ""));
  const bool dump_surface =
      cli.get_bool("dump-surface", false, "print every (BS,C) point");
  obs::apply_standard_flags(cli);
  bench::JsonReport json(cli, "fig6");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header("Figure 6",
                      "launch-parameter search space vs the Section 3.3 "
                      "analytical model (sparse fused kernel)");

  vgpu::Device dev;
  const auto X = la::uniform_sparse(rows, n, sparsity, seed);
  const auto y = la::random_vector(static_cast<usize>(n), seed + 1);
  const double mu = X.mean_nnz_per_row();

  // One functional run captures the config-independent traffic.
  const auto reference_run =
      kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {});
  vgpu::MemCounters base = reference_run.counters;
  const auto model_params = kernels::fused_sparse_params(dev, X, {});
  const vgpu::CostModel& model = dev.cost_model();
  const auto& spec = dev.spec();

  const auto evaluate = [&](const tuner::SearchPoint& p) -> double {
    const usize smem = kernels::sparse_fused_smem_bytes(
        p.block_size, p.vector_size, n);
    const auto occ = vgpu::compute_occupancy(
        spec, p.block_size, {kernels::kSparseFusedRegsPerThread, smem});
    if (occ.blocks_per_sm == 0) return -1.0;  // infeasible setting

    vgpu::MemCounters c = base;
    // Inter-block aggregation scales with the number of blocks.
    c.atomic_global_ops =
        static_cast<std::uint64_t>(p.grid_size) * static_cast<usize>(n);
    c.atomic_global_targets = static_cast<std::uint64_t>(n);

    // Device utilization: launching fewer blocks than fit leaves SMs idle.
    auto eff = occ;
    const int resident = occ.blocks_per_sm * spec.num_sms;
    if (p.grid_size < resident) {
      eff.occupancy =
          occ.occupancy * static_cast<double>(p.grid_size) / resident;
    }
    return model.kernel_time(c, eff).total_ms;
  };

  const auto result = tuner::exhaustive_search(spec, rows, n, mu, evaluate);

  usize feasible = 0;
  for (const auto& p : result.points) {
    if (p.feasible) ++feasible;
  }

  Table table({"quantity", "measured", "paper"});
  table.row().add("settings explored").add(
      static_cast<long long>(result.points.size())).add("~1,200");
  table.row().add("feasible settings").add(static_cast<long long>(feasible))
      .add("-");
  table.row().add("VS (Eq. 4)").add(
      static_cast<long long>(model_params.config.vector_size)).add("8");
  table.row().add("model BS").add(
      static_cast<long long>(model_params.config.block_size)).add("640");
  table.row().add("model rows/vector (C)").add(
      static_cast<long long>(model_params.config.coarsening)).add("223");
  table.row().add("best time (ms)").add(result.best_ms, 4).add("-");
  table.row().add("model time (ms)").add(result.model_ms, 4).add("-");
  table.row().add("worst time (ms)").add(result.worst_ms, 4).add("-");
  table.row().add("model gap to optimum").add(
      bench::fmt(100.0 * result.model_gap_fraction(), 2) + "%").add("< 2%");
  table.row().add("model rank percentile").add(
      bench::fmt(100.0 * result.model_rank_fraction(), 2) + "%").add(
      "top 1%");
  std::cout << table;

  const auto& best = result.points[result.best_index];
  std::cout << "optimum at BS=" << best.block_size
            << " C=" << best.coarsening << " grid=" << best.grid_size
            << "; worst/best ratio "
            << bench::fmt(result.worst_ms / result.best_ms, 1) << "x\n";

  if (dump_surface) {
    Table surface({"BS", "C(RpV)", "grid", "1/ms"});
    for (const auto& p : result.points) {
      if (!p.feasible) continue;
      surface.row()
          .add(p.block_size)
          .add(p.coarsening)
          .add(p.grid_size)
          .add(1.0 / p.time_ms, 3);
    }
    std::cout << surface;
  }
  json.add("settings_explored", static_cast<double>(result.points.size()));
  json.add("model_gap_fraction", result.model_gap_fraction());
  json.add("model_rank_fraction", result.model_rank_fraction());
  json.add("feasible_settings", static_cast<double>(feasible));
  json.add("model_vector_size", model_params.config.vector_size);
  json.add("model_block_size", model_params.config.block_size);
  json.add("model_coarsening", model_params.config.coarsening);
  json.add("best_ms", result.best_ms);
  json.add("model_ms", result.model_ms);
  json.add("worst_ms", result.worst_ms);
  json.add("best_block_size", best.block_size);
  json.add("best_coarsening", best.coarsening);
  json.add("best_grid_size", best.grid_size);
  json.add("reference_run_ms", reference_run.modeled_ms);
  json.add_table("fig6", table);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
