// Table 5 reproduction — end-to-end Linear Regression Conjugate Gradient:
// fused kernels vs a pure cuBLAS/cuSPARSE pipeline, INCLUDING host-to-device
// transfer time.
//
// Paper: 4.8x total speedup on HIGGS (dense, 32 iterations) and 9x on
// KDD 2010 (sparse, 100 iterations); the 939 ms KDD transfer amortizes over
// the iterations.
//
// Both columns run the lr-cg script on a sysml::Runtime. "ours" plans with
// the fusion planner and places device ops on the fused kernels; "cu" runs
// the unfused script with RuntimeOptions::gpu_backend = kCusparse, so every
// device op is an operator-at-a-time cuBLAS/cuSPARSE-style kernel. Both
// runtimes place every op on the device (a tiny gpu_cost_bias), like the
// paper's all-GPU pipelines.
#include <iostream>

#include "bench_common.h"
#include "common/cli.h"
#include "common/table.h"
#include "la/generate.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"

using namespace fusedml;

namespace {

struct EndToEnd {
  double compute_ms;
  double transfer_ms;
  double total() const { return compute_ms + transfer_ms; }
};

/// Device kernels + host ops (RuntimeStats::gpu_kernel_ms + cpu_op_ms) and
/// PCIe traffic (transfer_ms). jni_ms is left out: it is the SystemML
/// integration's conversion cost, which Table 6 itemizes, not part of a
/// pure CUDA pipeline.
template <typename Matrix>
EndToEnd run(kernels::Backend backend, sysml::PlanMode mode, const Matrix& X,
             std::span<const real> y, int iterations) {
  vgpu::Device dev;
  sysml::Runtime rt(dev, {.gpu_cost_bias = 1e-4, .gpu_backend = backend});
  ml::ScriptConfig cfg;
  cfg.max_iterations = iterations;
  cfg.tolerance = 0;  // run the paper's exact iteration counts
  const auto r = ml::run_lr_cg_script(rt, X, y, mode, cfg);
  const auto& st = r.runtime_stats;
  return {st.gpu_kernel_ms + st.cpu_op_ms, st.transfer_ms};
}

}  // namespace

static int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto scale =
      cli.get_positive("scale", 100.0, "dataset shrink factor vs KDD/HIGGS");
  const auto kdd_iters = cli.get_positive("kdd-iterations", 100, "paper: 100");
  const auto higgs_iters =
      cli.get_positive("higgs-iterations", 32, "paper: 32");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, ""));
  obs::apply_standard_flags(cli);
  bench::JsonReport json(cli, "table5");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header("Table 5",
                      "end-to-end LR-CG: ours-end2end vs cu-end2end "
                      "(modeled ms incl. PCIe transfers)");

  Table table({"Data set", "iters", "ours (ms)", "cu (ms)", "transfer (ms)",
               "Total Speedup", "paper"});

  {  // HIGGS-like (dense).
    const auto m = scaled_extent(11000000, scale);
    const auto X = la::higgs_like(m, 28, seed);
    const auto y = la::regression_labels(X, seed, 0.1);
    const auto ours = run(kernels::Backend::kFused, sysml::PlanMode::kPlanner,
                          X, y, higgs_iters);
    const auto cu = run(kernels::Backend::kCusparse,
                        sysml::PlanMode::kUnfused, X, y, higgs_iters);
    table.row()
        .add("HIGGS-like (1/" + bench::fmt(scale, 0) + ")")
        .add(higgs_iters)
        .add(ours.total(), 1)
        .add(cu.total(), 1)
        .add(ours.transfer_ms, 1)
        .add(format_speedup(cu.total() / ours.total()))
        .add("4.8x");
    json.add("higgs.ours_compute_ms", ours.compute_ms);
    json.add("higgs.ours_transfer_ms", ours.transfer_ms);
    json.add("higgs.cu_compute_ms", cu.compute_ms);
    json.add("higgs.cu_transfer_ms", cu.transfer_ms);
  }
  {  // KDD-like (ultra-sparse).
    const auto m = scaled_extent(15009374, scale);
    const auto n = scaled_extent(29890095, scale);
    const auto X = la::kdd_like(m, n, 28.0, 1.5, seed + 1);
    const auto y = la::regression_labels(X, seed + 1, 0.1);
    const auto ours = run(kernels::Backend::kFused, sysml::PlanMode::kPlanner,
                          X, y, kdd_iters);
    const auto cu = run(kernels::Backend::kCusparse,
                        sysml::PlanMode::kUnfused, X, y, kdd_iters);
    table.row()
        .add("KDD-like (1/" + bench::fmt(scale, 0) + ")")
        .add(kdd_iters)
        .add(ours.total(), 1)
        .add(cu.total(), 1)
        .add(ours.transfer_ms, 1)
        .add(format_speedup(cu.total() / ours.total()))
        .add("9x");
    json.add("kdd.ours_compute_ms", ours.compute_ms);
    json.add("kdd.ours_transfer_ms", ours.transfer_ms);
    json.add("kdd.cu_compute_ms", cu.compute_ms);
    json.add("kdd.cu_transfer_ms", cu.transfer_ms);
  }

  std::cout << table;
  bench::print_note(
      "each total is RuntimeStats gpu_kernel_ms + cpu_op_ms + transfer_ms "
      "(the transfer column is ours' transfer_ms; jni_ms, the SystemML "
      "conversion cost Table 6 itemizes, is excluded). ours = lr-cg script, "
      "planner, gpu_backend fused; cu = lr-cg script, unfused, gpu_backend "
      "cuSPARSE. transfer_ms holds the one-time uploads of X, y and the CG "
      "vectors plus the script's checkpoint read-backs of w, r and p. The "
      "paper's measured KDD transfer was 939 ms for the full ~5.3 GB set. "
      "Transfers amortize over the ML iterations, so end-to-end gains stay "
      "close to the kernel-level gains (Fig. 3/4) but below them.");
  json.add_table("table5", table);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
