// Figure 3 reproduction — sparse w = X^T * (X * y).
//
// Speedup of the fused kernel (Algorithm 2) against three alternatives, for
// X with 500k rows and sparsity 0.01, n in 200..4096:
//   - cuSPARSE-style:   csrmv + explicit csr2csc + csrmv,
//   - BIDMat-GPU-style: csrmv + atomic-scatter transposed product,
//   - BIDMat-CPU (MKL, 8 hyper-threads).
// The paper reports average speedups of 20.33x, 14.66x and 9.28x
// respectively.
#include <iostream>

#include "bench_common.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "kernels/baselines.h"
#include "kernels/cpu_backend.h"
#include "kernels/fused_sparse.h"
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
  bench::JsonReport json(cli, "fig3");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header("Figure 3",
                      "sparse X^T*(X*y): fused vs cuSPARSE / BIDMat-GPU / "
                      "BIDMat-CPU");
  bench::print_note("X: " + std::to_string(rows) + " rows, sparsity " +
                    bench::fmt(sparsity, 3) + ". Modeled ms, virtual Titan.");

  Table table({"n", "fused (ms)", "vs cuSPARSE", "vs BIDMat-GPU",
               "vs BIDMat-CPU"});
  std::vector<double> s_cusparse, s_bidmat_gpu, s_bidmat_cpu;
  kernels::CpuBackend cpu;  // MKL-like, 8 hyper-threads

  for (index_t n : cols) {
    vgpu::Device dev;
    const auto X = la::uniform_sparse(rows, n, sparsity, seed);
    const auto y = la::random_vector(static_cast<usize>(n), seed + 1);

    const auto fused = kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {});
    const auto cus = kernels::baseline_xtxy(
        dev, X, y, kernels::BaselineLibrary::kVendor);
    const auto bid = kernels::baseline_xtxy(
        dev, X, y, kernels::BaselineLibrary::kBidmat);
    const auto cpu_res = cpu.pattern(1, X, {}, y, 0, {});

    const auto ref = la::reference::pattern(1, X, {}, y, 0, {});
    if (la::max_abs_diff(ref, fused.value) > 1e-6 ||
        la::max_abs_diff(ref, cus.value) > 1e-6 ||
        la::max_abs_diff(ref, bid.value) > 1e-6) {
      std::cerr << "RESULT MISMATCH at n=" << n << "\n";
      return 1;
    }

    s_cusparse.push_back(cus.modeled_ms / fused.modeled_ms);
    s_bidmat_gpu.push_back(bid.modeled_ms / fused.modeled_ms);
    s_bidmat_cpu.push_back(cpu_res.modeled_ms / fused.modeled_ms);

    table.row()
        .add(static_cast<long long>(n))
        .add(fused.modeled_ms, 3)
        .add(format_speedup(s_cusparse.back()))
        .add(format_speedup(s_bidmat_gpu.back()))
        .add(format_speedup(s_bidmat_cpu.back()));
    std::string key = "n";  // appended: GCC 12 -Wrestrict false positive
    key += std::to_string(n);
    key += ".";
    json.add(key + "fused_ms", fused.modeled_ms);
    json.add(key + "cusparse_ms", cus.modeled_ms);
    json.add(key + "bidmat_gpu_ms", bid.modeled_ms);
    json.add(key + "bidmat_cpu_ms", cpu_res.modeled_ms);
  }

  std::cout << table;
  std::cout << "geomean speedups — vs cuSPARSE: "
            << format_speedup(geomean(s_cusparse))
            << " (paper avg 20.33x), vs BIDMat-GPU: "
            << format_speedup(geomean(s_bidmat_gpu))
            << " (paper avg 14.66x), vs BIDMat-CPU: "
            << format_speedup(geomean(s_bidmat_cpu))
            << " (paper avg 9.28x)\n";
  json.add("geomean_vs_cusparse", geomean(s_cusparse));
  json.add("geomean_vs_bidmat_gpu", geomean(s_bidmat_gpu));
  json.add("geomean_vs_bidmat_cpu", geomean(s_bidmat_cpu));
  json.add_table("fig3", table);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
