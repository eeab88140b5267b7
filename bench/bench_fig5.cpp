// Figure 5 reproduction — dense w = X^T * (X * y).
//
// Speedup of the fused dense kernel (Algorithm 3 + code generation) against
// cuBLAS (two gemv launches, bank-conflicted transposed tiles), a
// BIDMat-GPU-style two-pass gemv (padded conflict-free tiles), and
// BIDMat-CPU (MKL, 8 hyper-threads), on dense X with 500k rows and n up to
// 2K ("for [n] > 2K, the matrix does not fit in device memory anymore").
// The paper reports average speedups of 4.27x / 2.18x / 15.33x — dense
// gains are smaller than sparse because "most of the gain we achieve comes
// from loading X only once".
#include <iostream>

#include "bench_common.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "kernels/baselines.h"
#include "kernels/cpu_backend.h"
#include "kernels/fused_dense.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "vgpu/device.h"

using namespace fusedml;

static int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto rows =
      cli.get_positive("rows", 20000, "rows in X (paper: 500000)");
  const auto cols = cli.get_positive_list<index_t>(
      "cols", {64, 128, 256, 512, 1024, 2048}, "column sweep");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, ""));
  obs::apply_standard_flags(cli);
  bench::JsonReport json(cli, "fig5");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header("Figure 5",
                      "dense X^T*(X*y): fused (codegen) vs cuBLAS / "
                      "BIDMat-GPU / BIDMat-CPU");
  bench::print_note("X: " + std::to_string(rows) +
                    " dense rows (paper: 500k). Modeled ms, virtual Titan.");

  Table table({"n", "fused (ms)", "TL", "VS", "vs cuBLAS", "vs BIDMat-GPU",
               "vs BIDMat-CPU"});
  std::vector<double> s_cublas, s_bidmat_gpu, s_bidmat_cpu;
  kernels::CpuBackend cpu;

  for (index_t n : cols) {
    vgpu::Device dev;
    const auto X = la::dense_random(rows, n, seed);
    const auto y = la::random_vector(static_cast<usize>(n), seed + 1);

    const auto fused = kernels::fused_pattern_dense(dev, 1, X, {}, y, 0, {});
    const auto params = kernels::fused_dense_params(dev, X, {});
    const auto cub = kernels::baseline_xtxy(
        dev, X, y, kernels::BaselineLibrary::kVendor);
    const auto bid = kernels::baseline_xtxy(
        dev, X, y, kernels::BaselineLibrary::kBidmat);
    const auto cpu_res = cpu.pattern(1, X, {}, y, 0, {});

    const auto ref = la::reference::pattern(1, X, {}, y, 0, {});
    if (la::max_abs_diff(ref, fused.value) > 1e-6 ||
        la::max_abs_diff(ref, cub.value) > 1e-6 ||
        la::max_abs_diff(ref, bid.value) > 1e-6) {
      std::cerr << "RESULT MISMATCH at n=" << n << "\n";
      return 1;
    }

    s_cublas.push_back(cub.modeled_ms / fused.modeled_ms);
    s_bidmat_gpu.push_back(bid.modeled_ms / fused.modeled_ms);
    s_bidmat_cpu.push_back(cpu_res.modeled_ms / fused.modeled_ms);

    table.row()
        .add(static_cast<long long>(n))
        .add(fused.modeled_ms, 3)
        .add(params.config.thread_load)
        .add(params.config.vector_size)
        .add(format_speedup(s_cublas.back()))
        .add(format_speedup(s_bidmat_gpu.back()))
        .add(format_speedup(s_bidmat_cpu.back()));
    std::string key = "n";  // appended: GCC 12 -Wrestrict false positive
    key += std::to_string(n);
    key += ".";
    json.add(key + "fused_ms", fused.modeled_ms);
    json.add(key + "cublas_ms", cub.modeled_ms);
    json.add(key + "bidmat_gpu_ms", bid.modeled_ms);
    json.add(key + "bidmat_cpu_ms", cpu_res.modeled_ms);
    json.add(key + "thread_load", params.config.thread_load);
    json.add(key + "vector_size", params.config.vector_size);
  }

  std::cout << table;
  std::cout << "geomean speedups — vs cuBLAS: "
            << format_speedup(geomean(s_cublas))
            << " (paper avg 4.27x), vs BIDMat-GPU: "
            << format_speedup(geomean(s_bidmat_gpu))
            << " (paper avg 2.18x), vs BIDMat-CPU: "
            << format_speedup(geomean(s_bidmat_cpu))
            << " (paper avg 15.33x)\n";
  json.add("geomean_vs_cublas", geomean(s_cublas));
  json.add("geomean_vs_bidmat_gpu", geomean(s_bidmat_gpu));
  json.add("geomean_vs_bidmat_cpu", geomean(s_bidmat_cpu));
  json.add_table("fig5", table);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
