// Resilience overhead — modeled cost of the retry/backoff machinery as a
// function of the injected fault rate.
//
// The lr-cg script (Listing 1, planner mode) is trained on a
// sysml::Runtime whose device has a fault injector that drops kernel
// launches, corrupts kernel outputs (ECC), and fails PCIe transfers at a
// swept per-event rate. The table checks each run bit-exact against the
// fault-free weights and shows what that resilience costs in modeled
// milliseconds; the silent-corruption level below asserts it.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/resilience.h"
#include "common/table.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"
#include "vgpu/fault_injector.h"

using namespace fusedml;

static int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto rows = cli.get_positive("rows", 20000, "training rows");
  const auto cols = cli.get_positive("cols", 400, "feature columns");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, ""));
  obs::apply_standard_flags(cli);
  bench::JsonReport json(cli, "resilience");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header("Resilience",
                      "modeled overhead of retry + backoff vs fault rate");
  bench::print_note(
      "fault rate is per launch/transfer, split 3:1:1 across kernel-launch, "
      "ECC, and transfer faults; each run is checked bit-exact against the "
      "fault-free weights");

  const auto X = la::uniform_sparse(rows, cols, 0.02, seed);
  const auto labels = la::regression_labels(X, seed, 0.05);
  // Tight tolerance => more CG iterations => enough launches for the
  // injected-fault rates to be visible in the counters.
  const ml::ScriptConfig cfg{.max_iterations = 200, .eps = 1e-6,
                             .tolerance = 1e-12};

  struct Run {
    sysml::ScriptResult result;
    ResilienceStats resilience;
  };
  const auto train = [&](vgpu::Device& dev,
                         kernels::VerifyPolicy verify =
                             kernels::VerifyPolicy::kOff) {
    // A tiny GPU cost bias places every op on the device, where the
    // injector can reach it (the default scheduler keeps this problem's
    // BLAS-1 on the host).
    sysml::Runtime rt(dev, {.gpu_cost_bias = 1e-4});
    rt.set_verify_policy(verify);
    Run run{ml::run_lr_cg_script(rt, X, labels, sysml::PlanMode::kPlanner,
                                 cfg),
            {}};
    run.resilience = rt.resilience();
    return run;
  };

  vgpu::Device clean_dev;
  const auto clean = train(clean_dev);
  const double base_ms = clean.result.end_to_end_ms;

  RunReport report("bench_resilience");
  Table table({"fault rate", "total (ms)", "overhead", "faults", "retries",
               "fallbacks", "backoff (ms)", "bit-exact"});
  for (const double rate : {0.0, 0.01, 0.02, 0.05, 0.10}) {
    vgpu::FaultConfig fc;
    fc.seed = seed;
    fc.kernel_fault_rate = rate * 0.6;
    fc.ecc_fault_rate = rate * 0.2;
    fc.transfer_fault_rate = rate * 0.2;
    vgpu::FaultInjector injector(fc);
    vgpu::Device dev;
    dev.set_fault_injector(&injector);
    const auto r = train(dev);
    const auto& rs = r.resilience;
    const double total_ms = r.result.end_to_end_ms;
    const bool exact =
        la::max_abs_diff(clean.result.weights, r.result.weights) == 0.0 &&
        r.result.iterations == clean.result.iterations;
    table.row()
        .add(bench::fmt(rate * 100, 1) + "%")
        .add(total_ms, 3)
        .add(bench::fmt((total_ms / base_ms - 1.0) * 100, 1) + "%")
        .add(rs.faults_seen)
        .add(rs.retries)
        .add(rs.fallbacks)
        .add(rs.backoff_ms, 3)
        .add(exact ? "yes" : "NO");
    report.add("rate " + bench::fmt(rate * 100, 1) + "%", rs);
  }
  std::cout << table << "\n";

  // Silent-corruption load level: outputs are perturbed WITHOUT any error
  // being raised — only ABFT verification (VerifyPolicy::kFull) catches
  // them. The bit-exact column is the whole point: every detection is
  // recomputed, so the converged weights match the fault-free run to the
  // last bit even while kernels lie at the swept rate.
  bench::print_note(
      "silent-corruption level: outputs perturbed with NO raised error; "
      "full ABFT verification detects + recomputes; bit-exactness gates");
  Table sdc_table({"silent rate", "total (ms)", "overhead", "sdc detected",
                   "verify launches", "verify (ms)", "bit-exact"});
  bool all_exact = true;
  ResilienceStats sdc_total;
  for (const double rate : {0.01, 0.02, 0.05}) {
    vgpu::FaultConfig fc;
    fc.seed = seed;
    fc.silent_fault_rate = rate;
    vgpu::FaultInjector injector(fc);
    vgpu::Device dev;
    dev.set_fault_injector(&injector);
    const auto r = train(dev, kernels::VerifyPolicy::kFull);
    const auto& rs = r.resilience;
    const double total_ms = r.result.end_to_end_ms;
    const bool exact =
        la::max_abs_diff(clean.result.weights, r.result.weights) == 0.0 &&
        r.result.iterations == clean.result.iterations;
    all_exact = all_exact && exact;
    sdc_total += rs;
    sdc_table.row()
        .add(bench::fmt(rate * 100, 1) + "%")
        .add(total_ms, 3)
        .add(bench::fmt((total_ms / base_ms - 1.0) * 100, 1) + "%")
        .add(rs.sdc_detected)
        .add(rs.verify_launches)
        .add(rs.verify_ms, 3)
        .add(exact ? "yes" : "NO");
    report.add("silent " + bench::fmt(rate * 100, 1) + "%", rs);
  }
  std::cout << sdc_table << "\n";
  report.print(std::cout);
  FUSEDML_CHECK(all_exact,
                "silent-corruption defense regressed: a verified run is not "
                "bit-exact with the fault-free weights");
  json.add("clean_total_ms", base_ms);
  json.add_resilience("sdc", sdc_total);
  json.add_table("resilience", table);
  json.add_table("silent_corruption", sdc_table);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
