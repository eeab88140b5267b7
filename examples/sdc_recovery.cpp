// Silent-data-corruption recovery: train the lr-cg script on a virtual GPU
// whose
// kernels LIE — at a seeded rate a launch returns success while one element
// of its output has been flipped. No error is raised, so the retry/backoff
// machinery never engages on its own; only ABFT checksum verification
// (kernels/abft.h) can notice.
//
// Three runs of the same workload:
//   1. fault-free          — the oracle;
//   2. 5% silent, no ABFT  — reports ZERO faults while the corruption
//                            silently derails the solve (a different
//                            iteration count, no correctness guarantee);
//   3. 5% silent, full ABFT — every detection is recomputed; the result is
//                            bit-exact with the oracle, and the table shows
//                            what the verification + recompute bill costs
//                            in modeled milliseconds.
#include <iostream>

#include "common/resilience.h"
#include "common/table.h"
#include "kernels/op_registry.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"
#include "vgpu/fault_injector.h"

#include "example_common.h"

using namespace fusedml;

namespace {

struct Trained {
  sysml::ScriptResult result;
  ResilienceStats resilience;
};

Trained train(vgpu::Device& device, kernels::VerifyPolicy verify) {
  // Every op on the device (tiny GPU cost bias), where corruption can hit.
  sysml::Runtime rt(device, {.gpu_cost_bias = 1e-4});
  rt.set_verify_policy(verify);
  const auto X = la::uniform_sparse(20000, 400, 0.02, 7);
  const auto labels = la::regression_labels(X, 7, 0.05);
  ml::ScriptConfig cfg;
  cfg.eps = 1e-6;
  // Tight tolerance => enough CG iterations (and launches) for the silent
  // rate to be visible in a deterministic, seeded way.
  cfg.tolerance = 1e-12;
  cfg.max_iterations = 200;
  Trained t{ml::run_lr_cg_script(rt, X, labels, sysml::PlanMode::kPlanner,
                                 cfg),
            {}};
  t.resilience = rt.resilience();
  return t;
}

vgpu::FaultConfig silent_storm() {
  vgpu::FaultConfig cfg;
  cfg.seed = 0x51DCULL;
  cfg.silent_fault_rate = 0.05;
  return cfg;
}

}  // namespace

static int run_example() {
  using kernels::VerifyPolicy;

  // Fault-free oracle.
  vgpu::Device clean_device;
  const auto clean = train(clean_device, VerifyPolicy::kOff);

  // Undefended: same silent storm, verification off. Nothing throws,
  // nothing retries — the corruption just flows into the solve.
  vgpu::FaultInjector undefended_injector(silent_storm());
  vgpu::Device undefended_device;
  undefended_device.set_fault_injector(&undefended_injector);
  const auto undefended = train(undefended_device, VerifyPolicy::kOff);

  // Defended: identical storm (same seed, same schedule), full ABFT.
  vgpu::FaultInjector defended_injector(silent_storm());
  vgpu::Device defended_device;
  defended_device.set_fault_injector(&defended_injector);
  const auto defended = train(defended_device, VerifyPolicy::kFull);

  Table table({"run", "iterations", "total (ms)", "faults reported",
               "sdc detected", "verify (ms)", "max |w - w_clean|"});
  const auto row = [&](const char* name, const Trained& t) {
    table.row()
        .add(name)
        .add(t.result.iterations)
        .add(t.result.end_to_end_ms, 3)
        .add(t.resilience.faults_seen)
        .add(t.resilience.sdc_detected)
        .add(t.resilience.verify_ms, 3)
        .add(la::max_abs_diff(clean.result.weights, t.result.weights), 6);
  };
  row("fault-free", clean);
  row("5% silent, no ABFT", undefended);
  row("5% silent, full ABFT", defended);
  std::cout << "LR-CG script on 20k x 400 sparse data under a "
               "silent-corruption "
               "storm, without and with ABFT verification\n"
            << table << "\n";

  RunReport report("sdc_recovery example");
  report.add("undefended", undefended.resilience);
  report.add("full ABFT", defended.resilience);
  report.print(std::cout);

  const double diff =
      la::max_abs_diff(clean.result.weights, defended.result.weights);
  std::cout << "\nThe undefended run reported "
            << undefended.resilience.faults_seen
            << " faults while silent corruption derailed its solve ("
            << undefended.result.iterations << " iterations vs "
            << clean.result.iterations
            << " fault-free, with no correctness guarantee) — that is what "
               "\"silent\" means. The defended run detected "
            << defended.resilience.sdc_detected
            << " corruptions, recomputed each, and matches the fault-free "
               "run exactly: same " << defended.result.iterations
            << " iterations, bit-identical weights (max diff " << diff
            << ").\n";
  // The example doubles as a smoke test: the defense must actually close
  // the gap the undefended run opened.
  FUSEDML_CHECK(diff == 0.0 &&
                    defended.result.iterations == clean.result.iterations,
                "ABFT-defended run is not bit-exact with the oracle");
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::examples::example_main(argc, argv,
                                         [&] { return run_example(); });
}
