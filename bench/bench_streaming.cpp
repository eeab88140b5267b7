// Extension bench — out-of-core streaming (§3's streaming design) and
// hybrid CPU+GPU execution (§5 future work).
//
// Streaming: X is larger than the configured device budget; panels are
// double-buffered over PCIe while the fused kernel runs. Reported:
// pipeline time with/without overlap and the in-core lower bound.
//
// Hybrid: the pattern's rows split between the fused GPU kernel and the
// CPU backend at the cost-model-balanced fraction.
#include <iostream>

#include "bench_common.h"
#include "common/cli.h"
#include "common/table.h"
#include "kernels/fused_sparse.h"
#include "kernels/hybrid.h"
#include "kernels/streaming.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "vgpu/device.h"

using namespace fusedml;

static int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto rows = cli.get_positive("rows", 200000, "rows in X");
  const auto n = cli.get_positive("cols", 1000, "columns");
  const double sparsity = cli.get_double("sparsity", 0.01, "nnz fraction");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, ""));
  obs::apply_standard_flags(cli);
  bench::JsonReport json(cli, "streaming");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header("Extensions",
                      "out-of-core streaming + hybrid CPU/GPU execution");

  vgpu::Device dev;
  const auto X = la::uniform_sparse(rows, n, sparsity, seed);
  const auto y = la::random_vector(static_cast<usize>(n), seed + 1);
  const auto ref = la::reference::pattern(1, X, {}, y, 0, {});

  // --- Streaming -----------------------------------------------------------
  const auto in_core = kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {});
  std::cout << "\n[streaming] X = " << (X.bytes() >> 20)
            << " MiB; in-core fused kernel: " << format_ms(in_core.modeled_ms)
            << "\n";
  Table st({"device budget", "panels", "kernel (ms)", "transfer (ms)",
            "pipeline overlap (ms)", "pipeline serial (ms)",
            "overhead vs in-core"});
  for (double budget_fraction : {0.6, 0.25, 0.1}) {
    kernels::StreamingOptions overlap;
    overlap.device_budget_bytes = static_cast<usize>(
        budget_fraction * X.bytes()) + (4u << 20);
    auto serial = overlap;
    serial.overlap_transfers = false;
    const auto a =
        kernels::streaming_pattern_sparse(dev, 1, X, {}, y, 0, {}, overlap);
    const auto b =
        kernels::streaming_pattern_sparse(dev, 1, X, {}, y, 0, {}, serial);
    if (la::max_abs_diff(ref, a.op.value) > 1e-6) {
      std::cerr << "STREAMING RESULT MISMATCH\n";
      return 1;
    }
    st.row()
        .add(bench::fmt(100 * budget_fraction, 0) + "% of X")
        .add(a.panels)
        .add(a.kernel_ms, 3)
        .add(a.transfer_ms, 3)
        .add(a.pipeline_ms, 3)
        .add(b.pipeline_ms, 3)
        .add(format_speedup(a.pipeline_ms / in_core.modeled_ms));
  }
  std::cout << st;
  bench::print_note(
      "double buffering hides the smaller of (copy, compute) per panel; "
      "out-of-core execution approaches PCIe-bandwidth-bound as the budget "
      "shrinks — the regime where §3 recommends the streaming design.");

  // --- Hybrid ---------------------------------------------------------------
  std::cout << "\n[hybrid] cost-model split of the same pattern\n";
  Table ht({"GPU fraction", "GPU (ms)", "CPU (ms)", "combine (ms)",
            "total (ms)"});
  for (double f : {1.0, 0.9, -1.0, 0.5, 0.0}) {
    kernels::HybridOptions opts;
    opts.gpu_fraction = f;
    const auto r = kernels::hybrid_pattern_sparse(dev, 1, X, {}, y, 0, {},
                                                  opts);
    if (la::max_abs_diff(ref, r.value) > 1e-6) {
      std::cerr << "HYBRID RESULT MISMATCH\n";
      return 1;
    }
    ht.row()
        .add(f < 0 ? "auto (" + bench::fmt(r.gpu_fraction, 3) + ")"
                   : bench::fmt(f, 2))
        .add(r.gpu_ms, 3)
        .add(r.cpu_ms, 3)
        .add(r.combine_ms, 3)
        .add(r.total_ms, 3);
  }
  std::cout << ht;
  bench::print_note(
      "the auto split hands the CPU just enough rows to finish alongside "
      "the GPU — the §5 future-work hybrid execution realized.");
  json.add("in_core_ms", in_core.modeled_ms);
  json.add_table("streaming", st);
  json.add_table("hybrid", ht);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
