// The compiler-side view: a declarative expression DAG for Equation 1 is
// rewritten by the Equation-1-only planner into a single fused-kernel node
// (§4.4's "transparently selects our fused GPU kernel"), and the §3.2 code
// generator emits the CUDA source a real system would hand to NVRTC.
#include <iostream>

#include "kernels/cuda_codegen.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "sysml/dag.h"
#include "sysml/fusion_planner.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"

#include "example_common.h"

using namespace fusedml;

static int run_example(const sysml::PlannerOptions& popts) {
  vgpu::Device device;
  sysml::Runtime rt(device, {});
  rt.set_planner_options(popts);

  const auto X = la::uniform_sparse(30000, 400, 0.02, 51);
  const auto Xid = rt.add_sparse(X, "X");
  const auto y = rt.add_vector(la::random_vector(400, 1), "y");
  const auto v = rt.add_vector(la::random_vector(30000, 2), "v");
  const auto z = rt.add_vector(la::random_vector(400, 3), "z");

  // The declarative expression: w = 0.5 * X^T (v ⊙ (X*y)) + 2*z,
  // written as primitive operators the way a script compiler would.
  const auto root = sysml::pattern_expression(
      0.5, sysml::input_matrix(Xid), sysml::input_vector(v),
      sysml::input_vector(y), 2.0, sysml::input_vector(z));

  std::cout << "unfused DAG: " << sysml::count_nodes(root) << " nodes\n";

  // The hardcoded mode's view: the planner restricted to Equation 1.
  const auto fused = sysml::plan_fusion(rt, root, sysml::equation1_only());
  std::cout << "fusion pass: " << fused.groups.size()
            << " Equation-1 pattern(s) recognized; "
            << sysml::count_nodes(root) << " -> "
            << sysml::count_nodes(fused.root) << " nodes; root is now ["
            << to_string(fused.root->kind) << "]\n";

  const auto out = sysml::execute(rt, fused.root);
  const auto w = rt.read_vector(out);
  std::cout << "executed through the runtime: " << rt.stats().gpu_ops
            << " GPU op(s), " << rt.stats().cpu_ops << " CPU op(s), "
            << "device kernel time "
            << rt.stats().gpu_kernel_ms << " ms\n";
  std::cout << "||w||_inf = "
            << la::max_abs_diff(w, std::vector<real>(w.size(), 0.0)) << "\n\n";

  // The full cost-based planner goes beyond Equation 1: it also fuses
  // elementwise chains the Equation-1 matcher cannot see. Here, the logreg
  // residual sigmoid(-y ⊙ Xw) ⊙ -y plus the regularization axpy.
  const auto w0 = rt.add_vector(la::random_vector(400, 7), "w0");
  const auto ny = rt.add_vector(la::random_vector(30000, 8), "-y");
  const auto Xn = sysml::input_matrix(Xid);
  const auto nyn = sysml::input_vector(ny);
  const auto resid = sysml::ewise_mul(
      sysml::map(sysml::ewise_mul(nyn, sysml::mv(Xn, sysml::input_vector(w0))),
                 ml::stable_sigmoid, "sigmoid"),
      nyn);
  const auto grad = sysml::add(sysml::mvt(Xn, resid),
                               sysml::scale(0.01, sysml::input_vector(w0)));

  const auto plan = sysml::plan_fusion(rt, grad, rt.planner_options());
  std::cout << "planner on the logreg gradient DAG:\n" << plan.explain();
  rt.note_plan(plan.explain());
  sysml::execute(rt, plan.root);
  std::cout << "\nRuntime::explain():\n" << rt.explain() << "\n";

  // What the code generator would hand to NVRTC for the dense case.
  kernels::DenseKernelSpec spec{32, 16, 2};  // the paper's Listing-2 example
  std::cout << "generated CUDA kernel " << kernels::cuda_kernel_name(spec)
            << " (paper Listing 2 shape):\n\n"
            << kernels::generate_dense_fused_cuda(spec);
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::examples::guarded_main([&]() -> int {
    Cli cli(argc, argv);
    const auto popts = sysml::planner_options_from_cli(cli);
    obs::apply_standard_flags(cli);
    if (cli.help_requested()) {
      std::cout << cli.usage();
      return 0;
    }
    cli.finish();
    return run_example(popts);
  });
}
