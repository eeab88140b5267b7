// Table 5 reproduction — end-to-end Linear Regression Conjugate Gradient:
// fused kernels vs a pure cuBLAS/cuSPARSE pipeline, INCLUDING host-to-device
// transfer time.
//
// Paper: 4.8x total speedup on HIGGS (dense, 32 iterations) and 9x on
// KDD 2010 (sparse, 100 iterations); the 939 ms KDD transfer amortizes over
// the iterations.
#include <iostream>

#include "bench_common.h"
#include "common/cli.h"
#include "common/table.h"
#include "la/generate.h"
#include "ml/lr_cg.h"
#include "patterns/executor.h"
#include "vgpu/device.h"

using namespace fusedml;

namespace {

struct EndToEnd {
  double compute_ms;
  double transfer_ms;
  double total() const { return compute_ms + transfer_ms; }
  int iterations;
};

template <typename Matrix>
EndToEnd run(vgpu::Device& dev, patterns::Backend backend, const Matrix& X,
             std::span<const real> y, int iterations, usize extra_bytes) {
  dev.reset_session();
  // Host-to-device: the matrix, labels, and workspace vectors. The
  // cuSPARSE pipeline additionally keeps X^T resident (extra_bytes).
  double transfer =
      dev.transfer_h2d_ms(X.bytes() + y.size() * sizeof(real) + extra_bytes);
  patterns::PatternExecutor exec(dev, backend);
  ml::LrCgConfig cfg;
  cfg.max_iterations = iterations;
  cfg.tolerance = 0;  // run the paper's exact iteration counts
  const auto r = ml::lr_cg(exec, X, y, cfg);
  return {r.stats.total_modeled_ms(), transfer, r.stats.iterations};
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
    const auto m = static_cast<index_t>(11000000 / scale);
    const auto X = la::higgs_like(m, 28, seed);
    const auto y = la::regression_labels(X, seed, 0.1);
    vgpu::Device dev;
    const auto ours =
        run(dev, patterns::Backend::kFused, X, y, higgs_iters, 0);
    const auto cu =
        run(dev, patterns::Backend::kCusparse, X, y, higgs_iters, 0);
    table.row()
        .add("HIGGS-like (1/" + bench::fmt(scale, 0) + ")")
        .add(higgs_iters)
        .add(ours.total(), 1)
        .add(cu.total(), 1)
        .add(ours.transfer_ms, 1)
        .add(format_speedup(cu.total() / ours.total()))
        .add("4.8x");
  }
  {  // KDD-like (ultra-sparse).
    const auto m = static_cast<index_t>(15009374 / scale);
    const auto n = static_cast<index_t>(29890095 / scale);
    const auto X = la::kdd_like(m, n, 28.0, 1.5, seed + 1);
    const auto y = la::regression_labels(X, seed + 1, 0.1);
    vgpu::Device dev;
    const auto ours = run(dev, patterns::Backend::kFused, X, y, kdd_iters, 0);
    // cuSPARSE keeps the explicit transpose resident too — but rebuilds it
    // per call inside the baseline, so no extra one-time bytes are charged.
    const auto cu =
        run(dev, patterns::Backend::kCusparse, X, y, kdd_iters, 0);
    table.row()
        .add("KDD-like (1/" + bench::fmt(scale, 0) + ")")
        .add(kdd_iters)
        .add(ours.total(), 1)
        .add(cu.total(), 1)
        .add(ours.transfer_ms, 1)
        .add(format_speedup(cu.total() / ours.total()))
        .add("9x");
  }

  std::cout << table;
  bench::print_note(
      "the paper's measured KDD transfer was 939 ms for the full ~5.3 GB "
      "set; at 1/100 scale the modeled transfer above is ~1/100 of that. "
      "Transfers amortize over the ML iterations, so end-to-end gains stay "
      "close to the kernel-level gains (Fig. 3/4) but below them.");
  json.add_table("table5", table);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
