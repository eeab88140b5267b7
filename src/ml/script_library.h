// The generated ScriptLibrary: every ML algorithm as a declarative script
// on the sysml runtime — algorithm × {CSR, dense} × PlanMode.
//
// This is the library's one execution surface for whole solvers: each
// algorithm builds its inner-loop expressions once through the
// ExprBuilder/Program frontend (sysml/expr.h), the fusion planner (in the
// hardcoded mode restricted to the §4.4 Equation-1 family) rewrites them,
// and Runtime::run interprets the planned DAGs, dispatching every op
// through the operator registry. The serving layer routes every ScriptKind
// here, and benches and examples iterate script_library() / find_script()
// instead of hand-wiring call sites. The GPU backend the runtime places ops
// on is RuntimeOptions::gpu_backend (fused kernels by default; the
// cuSPARSE/BIDMat baselines for the paper's comparison columns).
//
// Bit-exactness contracts (asserted in tests/test_script_library.cpp and
// tests/test_golden.cpp): on a runtime whose scheduler places ops on the
// device, the lr-cg, glm, svm and hits scripts reproduce the weights of
// the pre-script imperative solvers to the last bit (frozen in
// tests/golden/legacy_oracles.golden), and every planner-mode script is
// bit-equal to its unfused twin wherever fused elementwise chains replace
// op-at-a-time evaluation.
#pragma once

#include <cmath>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "la/csr_matrix.h"
#include "la/dense_matrix.h"
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

/// Numerically stable sigmoid — never exponentiates a large positive t.
/// Header-inline (plain function) so DAG kMap nodes can take its address.
inline real stable_sigmoid(real t) {
  return t >= 0 ? real{1} / (real{1} + std::exp(-t))
                : std::exp(t) / (real{1} + std::exp(t));
}

/// GLM families (McCullagh [28]) fitted by Fisher scoring / IRLS.
enum class GlmFamily {
  kGaussian,  ///< identity link; IRLS degenerates to least squares
  kPoisson,   ///< log link
  kBinomial,  ///< logit link; labels in {0, 1}
};

struct GlmConfig {
  GlmFamily family = GlmFamily::kPoisson;
  int max_irls_iterations = 25;
  int max_cg_iterations = 30;
  real ridge = 1e-6;           ///< tiny ridge for numerical stability
  real gradient_tolerance = 1e-5;
};

/// The family's scalar mean function mu = g^{-1}(eta) and variance weight
/// W(mu), as plain function pointers so DAG kMap nodes can take them.
real (*glm_inverse_link(GlmFamily family))(real);
real (*glm_variance_weight(GlmFamily family))(real);

/// Primal linear SVM (squared hinge, Newton with a CG inner solve —
/// Chapelle [9]); labels in {-1, +1}.
struct SvmConfig {
  int max_newton_iterations = 30;
  int max_cg_iterations = 40;
  real C = 1.0;                ///< hinge weight
  real gradient_tolerance = 1e-4;
};

/// HITS (Kleinberg [23]) power-iteration knobs.
struct HitsConfig {
  int max_iterations = 50;
  real tolerance = 1e-9;  ///< L2 change in authority scores
};

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
