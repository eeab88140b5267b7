// Fault injection: train LR-CG on a virtual GPU that drops kernel
// launches, corrupts kernel outputs (ECC), and fails PCIe transfers at a
// seeded, deterministic rate — and show that the lr-cg script on the
// resilient runtime still converges to bit-identical weights, paying only
// modeled retry time.
#include <iostream>

#include "common/resilience.h"
#include "common/table.h"
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

Trained train(vgpu::Device& device) {
  // Every op on the device (tiny GPU cost bias), where faults can hit it.
  sysml::Runtime rt(device, {.gpu_cost_bias = 1e-4});
  const auto X = la::uniform_sparse(20000, 400, 0.02, 7);
  const auto labels = la::regression_labels(X, 7, 0.05);
  ml::ScriptConfig cfg;
  cfg.eps = 1e-6;
  Trained t{ml::run_lr_cg_script(rt, X, labels, sysml::PlanMode::kPlanner,
                                 cfg),
            {}};
  t.resilience = rt.resilience();
  return t;
}

}  // namespace

static int run_example() {
  // Fault-free oracle.
  vgpu::Device clean_device;
  const auto clean = train(clean_device);

  // Same workload on a device that faults ~5% of launches and 2% of
  // transfers. The schedule is fully determined by the seed.
  vgpu::FaultConfig cfg;
  cfg.seed = 0xFA17ULL;
  cfg.kernel_fault_rate = 0.03;
  cfg.ecc_fault_rate = 0.02;
  cfg.transfer_fault_rate = 0.02;
  vgpu::FaultInjector injector(cfg);
  vgpu::Device faulty_device;
  faulty_device.set_fault_injector(&injector);
  const auto faulty = train(faulty_device);

  Table table({"run", "iterations", "total (ms)", "faults", "retries",
               "max |w - w_clean|"});
  table.row()
      .add("fault-free")
      .add(clean.result.iterations)
      .add(clean.result.end_to_end_ms, 3)
      .add(uint64_t{0})
      .add(uint64_t{0})
      .add(0.0, 6);
  table.row()
      .add("5% faults")
      .add(faulty.result.iterations)
      .add(faulty.result.end_to_end_ms, 3)
      .add(faulty.resilience.faults_seen)
      .add(faulty.resilience.retries)
      .add(la::max_abs_diff(clean.result.weights, faulty.result.weights), 6);
  std::cout << "LR-CG script on 20k x 400 sparse data, fused backend, "
               "with and without injected device faults\n"
            << table << "\n";

  RunReport report("fault_injection example");
  report.add("lr_cg script", faulty.resilience);
  report.print(std::cout);

  std::cout << "\nInjector saw " << injector.log().launches_seen
            << " launches and " << injector.log().transfers_seen
            << " transfers; every fault was retried to a bit-exact result — "
               "the overhead above is modeled retry + backoff time.\n";
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::examples::example_main(argc, argv,
                                         [&] { return run_example(); });
}
