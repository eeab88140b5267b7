// The generated ScriptLibrary: every ML algorithm as a declarative script
// on the sysml runtime — algorithm × {CSR, dense} × PlanMode.
//
// This is the single public execution surface the refactor converges on:
// each solver builds its inner-loop expressions once through the
// ExprBuilder/Program frontend (sysml/expr.h), the fusion planner (in the
// hardcoded mode restricted to the §4.4 Equation-1 family) rewrites them,
// and Runtime::run interprets the planned DAGs — PatternExecutor is now an
// internal backend reached only through the operator registry. The serving
// layer routes every ScriptKind here, benches iterate script_library()
// instead of hand-wiring call sites, and the legacy imperative solvers in
// ml/ remain only as the pre-refactor oracles the bit-exactness tests
// compare against.
//
// Bit-exactness contract (asserted in tests/test_script_library.cpp): on a
// runtime whose scheduler places ops on the device, the planner path of
// every script reproduces the legacy imperative path to the last bit —
// the scripts issue the same registry kernels in the same order, reductions
// run on the same backend, and fused elementwise chains are bit-equal to
// op-at-a-time evaluation by construction.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "la/csr_matrix.h"
#include "la/dense_matrix.h"
#include "ml/glm.h"
#include "ml/hits.h"
#include "ml/lr_cg.h"
#include "ml/logreg.h"
#include "ml/svm.h"
#include "sysml/expr.h"
#include "sysml/runtime.h"

namespace fusedml::ml {

using sysml::PlanMode;
using sysml::ScriptResult;

enum class Algorithm {
  kLrCg,
  kLogregGd,
  kGlm,
  kSvm,
  kHits,
  kAls,             ///< rank-1 ALS factorization (the sddmm showcase)
  kKmeans,          ///< Lloyd's iterations, cross term on the device
  kPagerank,        ///< damped power iteration over the transposed walk
  kMinibatchLogreg, ///< logreg SGD over rotating row batches
};
const char* to_string(Algorithm algorithm);

/// lr-cg script knobs (Listing 1's eps / tolerance).
struct ScriptConfig {
  int max_iterations = 100;
  real eps = 0.001;
  real tolerance = 0.000001;
};

/// Logistic-regression gradient-descent script knobs.
struct GdConfig {
  int iterations = 50;
  real step = 0.5;
  real lambda = 0.01;
};

/// Rank-1 ALS knobs: each half-step runs a few CG iterations whose
/// Hessian-vector product is the sddmm-shaped masked expression.
struct AlsConfig {
  int max_outer = 4;
  int max_cg_iterations = 4;
  real lambda = 0.1;
};

/// Lloyd's k-means knobs.
struct KmeansConfig {
  int clusters = 4;
  int max_iterations = 8;
};

/// Damped PageRank power-iteration knobs.
struct PagerankConfig {
  int max_iterations = 40;
  real damping = 0.85;
  real tolerance = 0.0000001;
};

/// Mini-batch logistic-regression SGD knobs: the batch is a fixed quarter
/// of the rows, the window rotating with wraparound every step.
struct MinibatchConfig {
  int iterations = 40;
  real step = 0.5;
  real lambda = 0.01;
};

// --- The five algorithms (CSR and dense) ------------------------------------
ScriptResult run_lr_cg_script(sysml::Runtime& rt, const la::CsrMatrix& X,
                              std::span<const real> labels,
                              PlanMode mode = PlanMode::kPlanner,
                              ScriptConfig config = {});
ScriptResult run_lr_cg_script(sysml::Runtime& rt, const la::DenseMatrix& X,
                              std::span<const real> labels,
                              PlanMode mode = PlanMode::kPlanner,
                              ScriptConfig config = {});

ScriptResult run_logreg_gd_script(sysml::Runtime& rt, const la::CsrMatrix& X,
                                  std::span<const real> labels,
                                  PlanMode mode = PlanMode::kPlanner,
                                  GdConfig config = {});
ScriptResult run_logreg_gd_script(sysml::Runtime& rt,
                                  const la::DenseMatrix& X,
                                  std::span<const real> labels,
                                  PlanMode mode = PlanMode::kPlanner,
                                  GdConfig config = {});

ScriptResult run_glm_script(sysml::Runtime& rt, const la::CsrMatrix& X,
                            std::span<const real> labels,
                            PlanMode mode = PlanMode::kPlanner,
                            GlmConfig config = {});
ScriptResult run_glm_script(sysml::Runtime& rt, const la::DenseMatrix& X,
                            std::span<const real> labels,
                            PlanMode mode = PlanMode::kPlanner,
                            GlmConfig config = {});

ScriptResult run_svm_script(sysml::Runtime& rt, const la::CsrMatrix& X,
                            std::span<const real> labels,
                            PlanMode mode = PlanMode::kPlanner,
                            SvmConfig config = {});
ScriptResult run_svm_script(sysml::Runtime& rt, const la::DenseMatrix& X,
                            std::span<const real> labels,
                            PlanMode mode = PlanMode::kPlanner,
                            SvmConfig config = {});

/// HITS takes no labels; the adjacency matrix is the whole input.
ScriptResult run_hits_script(sysml::Runtime& rt, const la::CsrMatrix& X,
                             PlanMode mode = PlanMode::kPlanner,
                             HitsConfig config = {});
ScriptResult run_hits_script(sysml::Runtime& rt, const la::DenseMatrix& X,
                             PlanMode mode = PlanMode::kPlanner,
                             HitsConfig config = {});

/// Rank-1 ALS over the observed entries of the ratings matrix (no labels);
/// returns the item factor v. The planner collapses the Hessian-vector
/// product into the sparsity-exploiting fused sddmm kernel.
ScriptResult run_als_script(sysml::Runtime& rt, const la::CsrMatrix& X,
                            PlanMode mode = PlanMode::kPlanner,
                            AlsConfig config = {});
ScriptResult run_als_script(sysml::Runtime& rt, const la::DenseMatrix& X,
                            PlanMode mode = PlanMode::kPlanner,
                            AlsConfig config = {});

/// Lloyd's k-means (no labels); returns the centroids flattened row-major.
/// The -2*X*c cross term is a row-template fusion candidate per centroid.
ScriptResult run_kmeans_script(sysml::Runtime& rt, const la::CsrMatrix& X,
                               PlanMode mode = PlanMode::kPlanner,
                               KmeansConfig config = {});
ScriptResult run_kmeans_script(sysml::Runtime& rt, const la::DenseMatrix& X,
                               PlanMode mode = PlanMode::kPlanner,
                               KmeansConfig config = {});

/// Damped PageRank over the leading square of X (no labels); the update
/// add(scale(d, Pt*r), tele) is one fused row-template launch per step.
ScriptResult run_pagerank_script(sysml::Runtime& rt, const la::CsrMatrix& X,
                                 PlanMode mode = PlanMode::kPlanner,
                                 PagerankConfig config = {});
ScriptResult run_pagerank_script(sysml::Runtime& rt, const la::DenseMatrix& X,
                                 PlanMode mode = PlanMode::kPlanner,
                                 PagerankConfig config = {});

/// Mini-batch logistic regression: the logreg gradient over a rotating
/// quarter-of-the-rows batch, re-binding the batch leaves every step.
ScriptResult run_minibatch_logreg_script(sysml::Runtime& rt,
                                         const la::CsrMatrix& X,
                                         std::span<const real> labels,
                                         PlanMode mode = PlanMode::kPlanner,
                                         MinibatchConfig config = {});
ScriptResult run_minibatch_logreg_script(sysml::Runtime& rt,
                                         const la::DenseMatrix& X,
                                         std::span<const real> labels,
                                         PlanMode mode = PlanMode::kPlanner,
                                         MinibatchConfig config = {});

// --- The generated library --------------------------------------------------

/// One entry of the algorithm × storage × plan-mode cross product. The
/// runners share a uniform signature; `iterations` caps the outer loop
/// (0 = the algorithm's default) so callers like serve can bound work.
struct ScriptSpec {
  Algorithm algorithm = Algorithm::kLrCg;
  bool dense = false;
  PlanMode mode = PlanMode::kPlanner;
  std::string name;  ///< "glm/csr/planner"

  std::function<ScriptResult(sysml::Runtime&, const la::CsrMatrix&,
                             std::span<const real>, int)>
      run_sparse;  ///< null for dense entries
  std::function<ScriptResult(sysml::Runtime&, const la::DenseMatrix&,
                             std::span<const real>, int)>
      run_dense;  ///< null for CSR entries
};

/// All 9 algorithms × {csr, dense} × {unfused, hardcoded-pass, planner}.
const std::vector<ScriptSpec>& script_library();

const ScriptSpec* find_script(const std::string& name);
const ScriptSpec* find_script(Algorithm algorithm, bool dense, PlanMode mode);

}  // namespace fusedml::ml
