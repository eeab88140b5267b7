// Operator-level microbenchmarks (google-benchmark).
//
// These time the *functional simulator* itself on the host — useful for
// tracking the library's own performance — and report the modeled device
// milliseconds of each kernel as a counter, so regressions in either the
// simulation speed or the cost model show up here.
#include <benchmark/benchmark.h>

#include "kernels/baselines.h"
#include "kernels/blas1.h"
#include "kernels/fused_dense.h"
#include "kernels/fused_sparse.h"
#include "kernels/spmv.h"
#include "kernels/spmv_transpose.h"
#include "la/generate.h"
#include "vgpu/device.h"

namespace {

using namespace fusedml;

struct SparseFixture {
  vgpu::Device dev;
  la::CsrMatrix X;
  std::vector<real> y_cols, y_rows;

  explicit SparseFixture(index_t m = 20000, index_t n = 512,
                         double sparsity = 0.01)
      : X(la::uniform_sparse(m, n, sparsity, 42)),
        y_cols(la::random_vector(static_cast<usize>(n), 1)),
        y_rows(la::random_vector(static_cast<usize>(m), 2)) {}
};

void BM_SpmvCsrVector(benchmark::State& state) {
  SparseFixture f;
  double modeled = 0;
  for (auto _ : state) {
    auto r = kernels::spmv_csr_vector(f.dev, f.X, f.y_cols);
    benchmark::DoNotOptimize(r.value.data());
    modeled = r.modeled_ms;
  }
  state.counters["modeled_ms"] = modeled;
}
BENCHMARK(BM_SpmvCsrVector);

void BM_FusedSpmvT(benchmark::State& state) {
  SparseFixture f;
  double modeled = 0;
  for (auto _ : state) {
    auto r = kernels::fused_spmv_t(f.dev, f.X, f.y_rows);
    benchmark::DoNotOptimize(r.value.data());
    modeled = r.modeled_ms;
  }
  state.counters["modeled_ms"] = modeled;
}
BENCHMARK(BM_FusedSpmvT);

void BM_FusedPatternSparse(benchmark::State& state) {
  SparseFixture f;
  double modeled = 0;
  for (auto _ : state) {
    auto r = kernels::fused_pattern_sparse(f.dev, 1, f.X, {}, f.y_cols, 0, {});
    benchmark::DoNotOptimize(r.value.data());
    modeled = r.modeled_ms;
  }
  state.counters["modeled_ms"] = modeled;
}
BENCHMARK(BM_FusedPatternSparse);

void BM_BaselinePatternSparse(benchmark::State& state) {
  SparseFixture f;
  double modeled = 0;
  for (auto _ : state) {
    auto r = kernels::baseline_xtxy(
        f.dev, f.X, f.y_cols, kernels::BaselineLibrary::kVendor);
    benchmark::DoNotOptimize(r.value.data());
    modeled = r.modeled_ms;
  }
  state.counters["modeled_ms"] = modeled;
}
BENCHMARK(BM_BaselinePatternSparse);

void BM_FusedPatternDense(benchmark::State& state) {
  vgpu::Device dev;
  const auto X = la::dense_random(5000, 256, 42);
  const auto y = la::random_vector(256, 1);
  double modeled = 0;
  for (auto _ : state) {
    auto r = kernels::fused_pattern_dense(dev, 1, X, {}, y, 0, {});
    benchmark::DoNotOptimize(r.value.data());
    modeled = r.modeled_ms;
  }
  state.counters["modeled_ms"] = modeled;
}
BENCHMARK(BM_FusedPatternDense);

void BM_DeviceCsr2Csc(benchmark::State& state) {
  SparseFixture f;
  for (auto _ : state) {
    auto r = kernels::device_csr2csc_cost(f.dev, f.X);
    benchmark::DoNotOptimize(r.modeled_ms);
  }
}
BENCHMARK(BM_DeviceCsr2Csc);

void BM_DevDot(benchmark::State& state) {
  vgpu::Device dev;
  const auto x = la::random_vector(static_cast<usize>(state.range(0)), 1);
  const auto y = la::random_vector(static_cast<usize>(state.range(0)), 2);
  for (auto _ : state) {
    auto r = kernels::dev_dot(dev, x, y);
    benchmark::DoNotOptimize(r.value[0]);
  }
}
BENCHMARK(BM_DevDot)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_GenerateUniformSparse(benchmark::State& state) {
  for (auto _ : state) {
    auto X = la::uniform_sparse(10000, 500, 0.01, 42);
    benchmark::DoNotOptimize(X.nnz());
  }
}
BENCHMARK(BM_GenerateUniformSparse);

}  // namespace

BENCHMARK_MAIN();
