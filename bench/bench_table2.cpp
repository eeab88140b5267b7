// Table 2 reproduction — breakdown of single-threaded CPU compute time for
// Linear Regression Conjugate Gradient.
//
// The paper measured, on SystemML's CPU runtime, that the generic-pattern
// operations account for 82.9% (KDD 2010) and 99.4% (HIGGS) of
// single-thread compute time, with BLAS-1 taking most of the rest — the
// motivation for targeting the pattern with a fused GPU kernel. Here the
// same LR-CG script runs single-threaded on this host through the CPU
// backend, attributing *measured wall time* to pattern vs BLAS-1 buckets.
// Datasets are the scaled KDD-like / HIGGS-like stand-ins (see DESIGN.md).
#include <iostream>

#include "bench_common.h"
#include "common/cli.h"
#include "common/table.h"
#include "la/generate.h"
#include "ml/lr_cg.h"
#include "patterns/executor.h"
#include "vgpu/device.h"

using namespace fusedml;

static int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto scale = cli.get_positive(
      "scale", 100.0, "dataset shrink factor vs the real KDD/HIGGS");
  const auto iterations = cli.get_positive("iterations", 20, "CG iterations");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, ""));
  obs::apply_standard_flags(cli);
  bench::JsonReport json(cli, "table2");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header("Table 2",
                      "single-threaded CPU compute-time breakdown, LR-CG "
                      "(measured wall time on this host)");

  vgpu::Device dev;
  Table table({"Data set", "Pattern", "BLAS-1", "Total", "paper Pattern",
               "paper BLAS-1"});

  {  // KDD-like: ultra-sparse, huge n.
    const auto m = static_cast<index_t>(15009374 / scale);
    const auto n = static_cast<index_t>(29890095 / scale);
    const auto X = la::kdd_like(m, n, 28.0, 1.5, seed);
    const auto y = la::regression_labels(X, seed, 0.1);
    patterns::PatternExecutor exec(dev, patterns::Backend::kCpu,
                                   /*cpu_threads=*/1);
    ml::LrCgConfig cfg;
    cfg.max_iterations = iterations;
    cfg.tolerance = 0;  // pin the iteration count
    const auto r = ml::lr_cg(exec, X, y, cfg);
    table.row()
        .add("KDD-like (1/" + bench::fmt(scale, 0) + " scale)")
        .add(bench::fmt(r.stats.pattern_wall_percent(), 1) + "%")
        .add(bench::fmt(r.stats.blas1_wall_percent(), 1) + "%")
        .add(bench::fmt(r.stats.pattern_wall_percent() +
                            r.stats.blas1_wall_percent(), 1) + "%")
        .add("82.9%")
        .add("16.9%");
  }
  {  // HIGGS-like: dense, 28 columns.
    const auto m = static_cast<index_t>(11000000 / scale);
    const auto X = la::higgs_like(m, 28, seed + 1);
    const auto y = la::regression_labels(X, seed + 1, 0.1);
    patterns::PatternExecutor exec(dev, patterns::Backend::kCpu,
                                   /*cpu_threads=*/1);
    ml::LrCgConfig cfg;
    cfg.max_iterations = iterations;
    cfg.tolerance = 0;
    const auto r = ml::lr_cg(exec, X, y, cfg);
    table.row()
        .add("HIGGS-like (1/" + bench::fmt(scale, 0) + " scale)")
        .add(bench::fmt(r.stats.pattern_wall_percent(), 1) + "%")
        .add(bench::fmt(r.stats.blas1_wall_percent(), 1) + "%")
        .add(bench::fmt(r.stats.pattern_wall_percent() +
                            r.stats.blas1_wall_percent(), 1) + "%")
        .add("99.4%")
        .add("0.1%");
  }

  std::cout << table;
  bench::print_note(
      "paper Total column (99.8% / 99.5%) is pattern+BLAS-1 relative to the "
      "whole algorithm; our buckets cover exactly those two classes, so the "
      "split is what is comparable. KDD's BLAS-1 share is large because its "
      "n (columns) is huge relative to nnz; HIGGS's is negligible because "
      "n=28.");
  json.add_table("table2", table);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
