// Quickstart: evaluate the paper's generic pattern
//     w = alpha * X^T * (v ⊙ (X * y)) + beta * z
// on the virtual GPU with the fused kernel, and compare against the
// operator-at-a-time baseline.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "common/table.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "kernels/op_registry.h"
#include "vgpu/device.h"

#include "example_common.h"

using namespace fusedml;

static int run_example() {
  // A virtual GTX Titan (the paper's evaluation device).
  vgpu::Device device;

  // Synthetic sparse data: 50k x 1k at 1% density — the paper's §4.1 shape.
  const auto X = la::uniform_sparse(50000, 1000, 0.01, /*seed=*/7);
  const auto y = la::random_vector(1000, 1);
  const auto v = la::random_vector(50000, 2);
  const auto z = la::random_vector(1000, 3);

  std::cout << "X: " << X.rows() << " x " << X.cols() << ", " << X.nnz()
            << " non-zeros\n\n";

  // One registry per device; each op is a single backend-switch body run
  // under the retry/fallback policy (a clean device never retries).
  kernels::OpRegistry registry(device);
  const auto eval = [&](kernels::Backend backend) {
    return registry.execute_resilient(
        backend, RetryPolicy{}, [&](kernels::Backend b) {
          return registry.pattern(b, 0.5, X, v, y, 2.0, z);
        });
  };

  // The fused kernel: ONE launch for the whole pattern.
  auto r1 = eval(kernels::Backend::kFused);
  std::cout << "fused    : " << r1.kernel << "\n"
            << "  launches " << r1.launches << ", modeled "
            << format_ms(r1.modeled_ms) << ", load transactions "
            << r1.counters.total_load_transactions() << "\n";

  // The baseline: csrmv + ewise + csr2csc + csrmv + scal + axpy.
  auto r2 = eval(kernels::Backend::kCusparse);
  std::cout << "baseline : " << r2.kernel << "\n"
            << "  launches " << r2.launches << ", modeled "
            << format_ms(r2.modeled_ms) << ", load transactions "
            << r2.counters.total_load_transactions() << "\n\n";

  // Identical results (up to floating-point reassociation)...
  std::cout << "max |fused - baseline| = "
            << la::max_abs_diff(r1.value, r2.value) << "\n";
  // ...and the reference oracle agrees too.
  const auto ref = la::reference::pattern(0.5, X, v, y, 2.0, z);
  std::cout << "max |fused - reference| = " << la::max_abs_diff(r1.value, ref)
            << "\n\n";

  std::cout << "speedup: " << format_speedup(r2.modeled_ms / r1.modeled_ms)
            << " from fusing " << r2.launches << " kernels into "
            << r1.launches << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::examples::example_main(argc, argv,
                                         [&] { return run_example(); });
}
