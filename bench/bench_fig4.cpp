// Figure 4 reproduction — the complete sparse pattern
//   w = alpha * X^T * (v ⊙ (X * y)) + beta * z.
//
// Same sweep as Figure 3 but with the BLAS-1 pieces included (the baseline
// pays extra cuBLAS-style kernels for v⊙p, alpha-scaling and beta*z). The
// paper reports average speedups up to 26.21x / 19.62x / 13.41x against
// cuBLAS+cuSPARSE / BIDMat-GPU / BIDMat-CPU, slightly above Figure 3
// because of the extra fused-away launches.
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
  bench::JsonReport json(cli, "fig4");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header("Figure 4",
                      "full sparse pattern a*X^T*(v.(X*y))+b*z: fused vs "
                      "cuBLAS/cuSPARSE / BIDMat-GPU / BIDMat-CPU");
  bench::print_note("X: " + std::to_string(rows) + " rows, sparsity " +
                    bench::fmt(sparsity, 3) + ". Modeled ms, virtual Titan.");

  const real alpha = 0.5, beta = 2.0;
  Table table({"n", "fused (ms)", "launches fused/base", "vs cuSPARSE",
               "vs BIDMat-GPU", "vs BIDMat-CPU"});
  std::vector<double> s_cusparse, s_bidmat_gpu, s_bidmat_cpu;
  kernels::CpuBackend cpu;

  for (index_t n : cols) {
    vgpu::Device dev;
    const auto X = la::uniform_sparse(rows, n, sparsity, seed);
    const auto y = la::random_vector(static_cast<usize>(n), seed + 1);
    const auto v = la::random_vector(static_cast<usize>(rows), seed + 2);
    const auto z = la::random_vector(static_cast<usize>(n), seed + 3);

    const auto fused =
        kernels::fused_pattern_sparse(dev, alpha, X, v, y, beta, z);
    const auto cus = kernels::baseline_pattern(
        dev, alpha, X, v, y, beta, z, kernels::BaselineLibrary::kVendor);
    const auto bid = kernels::baseline_pattern(
        dev, alpha, X, v, y, beta, z, kernels::BaselineLibrary::kBidmat);
    const auto cpu_res = cpu.pattern(alpha, X, v, y, beta, z);

    const auto ref = la::reference::pattern(alpha, X, v, y, beta, z);
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
        .add(std::to_string(fused.launches) + "/" +
             std::to_string(cus.launches))
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
    json.add(key + "fused_launches", static_cast<double>(fused.launches));
    json.add(key + "cusparse_launches", static_cast<double>(cus.launches));
  }

  std::cout << table;
  std::cout << "geomean speedups — vs cuBLAS/cuSPARSE: "
            << format_speedup(geomean(s_cusparse))
            << " (paper up to 26.21x), vs BIDMat-GPU: "
            << format_speedup(geomean(s_bidmat_gpu))
            << " (paper up to 19.62x), vs BIDMat-CPU: "
            << format_speedup(geomean(s_bidmat_cpu))
            << " (paper up to 13.41x)\n";
  json.add("geomean_vs_cusparse", geomean(s_cusparse));
  json.add("geomean_vs_bidmat_gpu", geomean(s_bidmat_gpu));
  json.add("geomean_vs_bidmat_cpu", geomean(s_bidmat_cpu));
  json.add_table("fig4", table);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
