// Umbrella header: the fusedml public API in one include.
//
//   #include "fusedml.h"
//   fusedml::vgpu::Device device;
//   fusedml::sysml::Runtime rt(device);
//   auto r = fusedml::ml::find_script("lr_cg/csr/planner")
//                ->run_sparse(rt, X, y, /*iterations=*/0);
//
// or, for one Equation-1 evaluation without a scheduler:
//
//   fusedml::kernels::OpRegistry registry(device);
//   auto w = registry.execute_resilient(
//       fusedml::kernels::Backend::kFused, fusedml::RetryPolicy{},
//       [&](fusedml::kernels::Backend b) {
//         return registry.pattern(b, alpha, X, v, y, beta, z);
//       });
//
// Layered from bottom to top:
//   common   — RNG, timing, stats, tables
//   vgpu     — the virtual GPU (device model, occupancy, cost model)
//   la       — matrix formats, conversions, generators, reference oracles
//   kernels  — fused kernels + every baseline + streaming/hybrid extensions,
//              dispatched through the operator registry
//   tuner    — §3.3 launch-parameter model + exhaustive autotuner
//   sysml    — declarative runtime: ExprBuilder/Program IR, DAG, fusion
//              planner, GPU memory manager
//   ml       — the algorithm ScriptLibrary (LR-CG, logreg, GLM, SVM, HITS,
//              ALS, k-means, PageRank, mini-batch logreg) lowered through
//              the expression frontend
//   obs      — tracing, metrics, plan audit
//   serve    — the concurrent serving layer on top of everything
#pragma once

#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/types.h"

#include "vgpu/cost_model.h"
#include "vgpu/device.h"
#include "vgpu/device_spec.h"
#include "vgpu/occupancy.h"

#include "la/convert.h"
#include "la/csr_matrix.h"
#include "la/dense_matrix.h"
#include "la/generate.h"
#include "la/io.h"
#include "la/vector_ops.h"

#include "kernels/baselines.h"
#include "kernels/blas1.h"
#include "kernels/cpu_backend.h"
#include "kernels/fused_dense.h"
#include "kernels/fused_sparse.h"
#include "kernels/gemv.h"
#include "kernels/hybrid.h"
#include "kernels/op_registry.h"
#include "kernels/spmv.h"
#include "kernels/spmv_transpose.h"
#include "kernels/streaming.h"

#include "tuner/autotune.h"
#include "tuner/launch_params.h"

#include "sysml/dag.h"
#include "sysml/expr.h"
#include "sysml/fusion_planner.h"
#include "sysml/memory_manager.h"
#include "sysml/runtime.h"

#include "ml/script_library.h"

#include "obs/metrics.h"
#include "obs/plan_audit.h"
#include "obs/profile_flags.h"
#include "obs/trace.h"

#include "serve/admission_queue.h"
#include "serve/circuit_breaker.h"
#include "serve/device_pool.h"
#include "serve/serve_types.h"
#include "serve/server.h"
