// Binary classification with the logreg-gd script: the whole gradient
// X^T * (sigmoid(-y ⊙ (X*w)) ⊙ -y) + lambda*w is one expression Program,
// and the fusion planner turns its elementwise chains into generated
// kernels around the two matrix products.
#include <iostream>
#include <set>

#include "common/table.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"

#include "example_common.h"

using namespace fusedml;

static int run_example() {
  vgpu::Device device;
  sysml::Runtime rt(device);

  const auto X = la::uniform_sparse(20000, 200, 0.05, 21);
  const auto y = la::classification_labels(X, 21, 0.2);

  const ml::ScriptSpec* spec = ml::find_script("logreg_gd/csr/planner");
  FUSEDML_CHECK(spec != nullptr, "script library has no logreg_gd entry");
  const auto r = spec->run_sparse(rt, X, y, /*iterations=*/0);

  const auto margins = la::reference::spmv(X, r.weights);
  int correct = 0;
  for (usize i = 0; i < margins.size(); ++i) {
    if ((margins[i] >= 0 ? 1.0 : -1.0) == y[i]) ++correct;
  }

  std::cout << "Gradient-descent logistic regression on 20k x 200 sparse "
               "data (" << spec->name << ")\n"
            << "  iterations        : " << r.iterations << "\n"
            << "  fused groups      : " << r.fused_groups << "\n"
            << "  kernel launches   : " << r.runtime_stats.kernel_launches
            << "\n"
            << "  training accuracy : "
            << 100.0 * correct / static_cast<double>(margins.size()) << "%\n"
            << "  modeled time      : " << format_ms(r.end_to_end_ms)
            << "\n\n";

  std::set<std::string> ops;
  for (const auto& entry : rt.trace()) ops.insert(entry.op);
  std::cout << "ops this script dispatched:\n";
  for (const auto& op : ops) std::cout << "  " << op << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::examples::example_main(argc, argv,
                                         [&] { return run_example(); });
}
