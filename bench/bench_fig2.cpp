// Figure 2 reproduction — sparse w = X^T * y.
//
// Top panel: speedup of the fused kernel (Algorithm 1) over the
// cuSPARSE-style baseline (explicit csr2csc + csrmv), for X with 500k rows,
// sparsity 0.01, n in 200..4096. The paper reports speedups up to 67x at
// small n, ~35x on average, with the gap driven by the baseline's extra
// load transactions (bottom panel, ~3.5x more loads on average) and its
// scattered transpose stores.
//
// Bottom panel: global load transactions of both kernels (log10 in the
// paper; raw counts here) plus the second x-axis: the number of ML
// iterations needed for an up-front explicit transpose to amortize against
// simply using the fused kernel every iteration.
#include <cmath>
#include <iostream>

#include "bench_common.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "kernels/fused_sparse.h"
#include "kernels/spmv.h"
#include "kernels/spmv_transpose.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "vgpu/device.h"

using namespace fusedml;

static int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto rows =
      cli.get_positive("rows", 100000, "rows in X (paper: 500000)");
  const double sparsity = cli.get_double("sparsity", 0.01, "nnz fraction");
  const auto cols = cli.get_positive_list<index_t>(
      "cols", bench::paper_column_sweep(), "column sweep");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, ""));
  obs::apply_standard_flags(cli);
  bench::JsonReport json(cli, "fig2");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header(
      "Figure 2", "sparse X^T*y: fused kernel vs cuSPARSE-style baseline");
  bench::print_note("X: " + std::to_string(rows) + " rows, sparsity " +
                    bench::fmt(sparsity, 3) +
                    " (paper: 500k rows, 0.01). Times are modeled ms on a "
                    "virtual GTX Titan.");

  Table table({"n", "fused (ms)", "baseline (ms)", "speedup",
               "fused loads", "baseline loads", "load ratio",
               "amortize iters"});
  std::vector<double> speedups, load_ratios;

  for (index_t n : cols) {
    vgpu::Device dev;
    const auto X = la::uniform_sparse(rows, n, sparsity, seed);
    const auto y = la::random_vector(static_cast<usize>(rows), seed + 1);

    const auto fused = kernels::fused_spmv_t(dev, X, y);
    const auto split = kernels::spmv_t_explicit_transpose(dev, X, y);
    const auto baseline = split.combined();

    // Sanity: identical results.
    const auto ref = la::reference::spmv_transposed(X, y);
    if (la::max_abs_diff(ref, fused.value) > 1e-6 ||
        la::max_abs_diff(ref, baseline.value) > 1e-6) {
      std::cerr << "RESULT MISMATCH at n=" << n << "\n";
      return 1;
    }

    const double speedup = baseline.modeled_ms / fused.modeled_ms;
    const double fused_loads =
        static_cast<double>(fused.counters.total_load_transactions());
    const double base_loads =
        static_cast<double>(baseline.counters.total_load_transactions());
    speedups.push_back(speedup);
    load_ratios.push_back(base_loads / fused_loads);

    // Amortization: transpose once (T ms), then every iteration costs the
    // plain csrmv on X^T (M ms) instead of the fused kernel (F ms). Pays
    // off after T / (F - M) iterations — or never, if F <= M.
    const double t = split.transpose.modeled_ms;
    const double mv = split.multiply.modeled_ms;
    const double gain = fused.modeled_ms - mv;
    const std::string amortize =
        gain > 1e-9 ? std::to_string(
                          static_cast<long long>(std::ceil(t / gain)))
                    : "never";

    table.row()
        .add(static_cast<long long>(n))
        .add(fused.modeled_ms, 3)
        .add(baseline.modeled_ms, 3)
        .add(format_speedup(speedup))
        .add(format_count(fused_loads))
        .add(format_count(base_loads))
        .add(base_loads / fused_loads, 2)
        .add(amortize);
    std::string key = "n";  // appended: GCC 12 -Wrestrict false positive
    key += std::to_string(n);
    key += ".";
    json.add(key + "fused_ms", fused.modeled_ms);
    json.add(key + "baseline_ms", baseline.modeled_ms);
    json.add(key + "transpose_ms", t);
    json.add(key + "multiply_ms", mv);
    json.add(key + "fused_loads", fused_loads);
    json.add(key + "baseline_loads", base_loads);
  }

  std::cout << table;
  std::cout << "geomean speedup: " << format_speedup(geomean(speedups))
            << "   (paper: ~35x average, up to 67x at small n)\n";
  std::cout << "mean load ratio (baseline/fused): "
            << bench::fmt(mean(load_ratios)) << "x   (paper: ~3.5x)\n";
  json.add("geomean_speedup", geomean(speedups));
  json.add("mean_load_ratio", mean(load_ratios));
  json.add_table("fig2", table);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
