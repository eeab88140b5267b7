// Table 2 reproduction — breakdown of single-threaded CPU compute time for
// Linear Regression Conjugate Gradient.
//
// The paper measured, on SystemML's CPU runtime, that the generic-pattern
// operations account for 82.9% (KDD 2010) and 99.4% (HIGGS) of
// single-thread compute time, with BLAS-1 taking most of the rest — the
// motivation for targeting the pattern with a fused GPU kernel. Here the
// lr-cg script runs in hardcoded-pass mode (Equation-1 fusion only) on a
// CPU-only runtime, and the host wall time of each executed op — the
// single-threaded functional run recorded in Runtime::trace() — is
// attributed to the pattern bucket (the Equation-1 ops and a*X^T*y) or the
// BLAS-1 bucket (everything else: dot, axpy, scal). Datasets are the scaled
// KDD-like / HIGGS-like stand-ins (see DESIGN.md).
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

struct WallSplit {
  double pattern_ms = 0.0;
  double blas1_ms = 0.0;
  double pattern_percent() const {
    return 100.0 * pattern_ms / (pattern_ms + blas1_ms);
  }
  double blas1_percent() const {
    return 100.0 * blas1_ms / (pattern_ms + blas1_ms);
  }
};

template <typename Matrix>
WallSplit run_split(const Matrix& X, std::span<const real> y,
                    int iterations) {
  vgpu::Device dev;
  sysml::Runtime rt(dev, {.enable_gpu = false});
  ml::ScriptConfig cfg;
  cfg.max_iterations = iterations;
  cfg.tolerance = 0;  // pin the iteration count
  ml::run_lr_cg_script(rt, X, y, sysml::PlanMode::kHardcodedPass, cfg);
  WallSplit split;
  for (const auto& entry : rt.trace()) {
    (entry.pattern ? split.pattern_ms : split.blas1_ms) += entry.wall_ms;
  }
  return split;
}

}  // namespace

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

  Table table({"Data set", "Pattern", "BLAS-1", "Total", "paper Pattern",
               "paper BLAS-1"});
  const auto add_row = [&](const std::string& name, const WallSplit& split,
                           const char* paper_pattern,
                           const char* paper_blas1) {
    table.row()
        .add(name)
        .add(bench::fmt(split.pattern_percent(), 1) + "%")
        .add(bench::fmt(split.blas1_percent(), 1) + "%")
        .add(bench::fmt(split.pattern_percent() + split.blas1_percent(), 1) +
             "%")
        .add(paper_pattern)
        .add(paper_blas1);
  };

  {  // KDD-like: ultra-sparse, huge n.
    const auto m = scaled_extent(15009374, scale);
    const auto n = scaled_extent(29890095, scale);
    const auto X = la::kdd_like(m, n, 28.0, 1.5, seed);
    const auto y = la::regression_labels(X, seed, 0.1);
    add_row("KDD-like (1/" + bench::fmt(scale, 0) + " scale)",
            run_split(X, y, iterations), "82.9%", "16.9%");
  }
  {  // HIGGS-like: dense, 28 columns.
    const auto m = scaled_extent(11000000, scale);
    const auto X = la::higgs_like(m, 28, seed + 1);
    const auto y = la::regression_labels(X, seed + 1, 0.1);
    add_row("HIGGS-like (1/" + bench::fmt(scale, 0) + " scale)",
            run_split(X, y, iterations), "99.4%", "0.1%");
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
