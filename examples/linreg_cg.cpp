// Linear regression with conjugate gradient (Listing 1 of the paper): the
// lr-cg script trained on synthetic data with the runtime's device ops on
// each GPU backend and on the CPU, with the pattern-vs-BLAS-1 split of the
// modeled time that motivates kernel fusion.
#include <iostream>

#include "common/table.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"

#include "example_common.h"

using namespace fusedml;

static int run_example() {
  const auto X = la::uniform_sparse(50000, 500, 0.02, 11);
  const auto labels = la::regression_labels(X, 11, 0.05);
  const auto w_true = la::regression_true_weights(500, 11);

  struct Column {
    const char* name;
    sysml::RuntimeOptions options;
  };
  // A tiny GPU cost bias keeps every op on the device, so the GPU columns
  // compare backends rather than the scheduler's placement.
  const Column columns[] = {
      {"fused", {.gpu_cost_bias = 1e-4}},
      {"cuBLAS/cuSPARSE-style",
       {.gpu_cost_bias = 1e-4, .gpu_backend = kernels::Backend::kCusparse}},
      {"BIDMat-GPU-style",
       {.gpu_cost_bias = 1e-4, .gpu_backend = kernels::Backend::kBidmatGpu}},
      {"CPU (MKL-like)", {.enable_gpu = false}},
  };
  Table table({"backend", "iterations", "pattern (ms)", "BLAS-1 (ms)",
               "total (ms)", "weight error"});
  for (const Column& column : columns) {
    vgpu::Device device;
    sysml::Runtime rt(device, column.options);
    ml::ScriptConfig cfg;
    cfg.eps = 1e-6;
    // The planner turns q = X^T*(X*p) + eps*p into one Equation-1 op,
    // which each backend implements its own way (one fused kernel, or an
    // operator-at-a-time chain).
    const auto r =
        ml::run_lr_cg_script(rt, X, labels, sysml::PlanMode::kPlanner, cfg);
    double pattern_ms = 0.0, blas1_ms = 0.0;
    for (const auto& entry : rt.trace()) {
      (entry.pattern ? pattern_ms : blas1_ms) += entry.modeled_ms;
    }
    table.row()
        .add(column.name)
        .add(r.iterations)
        .add(pattern_ms, 3)
        .add(blas1_ms, 3)
        .add(pattern_ms + blas1_ms, 3)
        .add(la::max_abs_diff(w_true, r.weights), 4);
  }
  std::cout << "Linear Regression CG (Listing 1) on 50k x 500 sparse data\n"
            << table
            << "\nEvery backend converges to the same weights; the fused "
               "backend spends the least modeled time because the\n"
               "q = X^T*(X*p) + eps*p update is ONE kernel instead of an "
               "operator-at-a-time chain.\n";
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::examples::example_main(argc, argv,
                                         [&] { return run_example(); });
}
