// The expression-builder frontend: algorithms describe WHAT they compute,
// the planner decides HOW it runs.
//
// SystemML's layering (and this paper's §4.4 integration) is: a declarative
// script builds an operator DAG, one optimizer picks the fused plan, one
// runtime interprets it. ExprBuilder/Program reproduce that layering for
// every solver in ml/: an algorithm declares symbolic matrices/vectors,
// combines them with spmv / spmv_t / elementwise chains / Equation-1
// patterns, and names the outputs it wants. The resulting Program is the
// single IR every algorithm lowers to — all nine script-library algorithms
// reach the cost-based fusion planner through it, and there is no other
// way to run a whole solver.
//
// Iteration loops with loop-carried state work by BINDING: leaves are bound
// to runtime tensors by name, and may be re-bound every iteration (hits
// re-binds "a" to the previous refresh's output; glm re-binds "resid" to
// the freshly computed residual). Planning cost is paid once per solver,
// not per iteration: prepare() keys its plan cache on (plan mode, planner
// options, shape of every bound leaf), so the steady-state loop hits the
// cache and run() just interprets the already-rewritten DAG.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/plan_audit.h"
#include "sysml/dag.h"
#include "sysml/runtime.h"

namespace fusedml::sysml {

/// How a Program's DAG is prepared before interpretation.
enum class PlanMode {
  kUnfused,        ///< interpret the operator DAG as built
  kHardcodedPass,  ///< §4.4: the planner restricted to the Equation-1
                   ///< family (equation1_only() in fusion_planner.h)
  kPlanner,        ///< the cost-based fusion planner with the runtime's
                   ///< planner options (fusion_planner.h)
};

const char* to_string(PlanMode mode);

/// What every generated algorithm script returns (weights + the runtime's
/// books, so benches and the serving layer share one result shape).
struct ScriptResult {
  std::vector<real> weights;
  int iterations = 0;
  RuntimeStats runtime_stats;
  MemoryStats memory_stats;
  double end_to_end_ms = 0.0;
  std::string plan_explain;     ///< what the planner chose (fusion modes)
  int fused_groups = 0;         ///< fusion groups across the script's programs
  int plans_built = 0;          ///< shape-signature plans constructed
  int plan_cache_hits = 0;      ///< prepare() calls served from the cache
  obs::PlanAudit plan_audit;    ///< plan-vs-actual audit (fusion modes)
};

/// A symbolic value inside a Program under construction — just a handle to
/// a DAG node.
class Expr {
 public:
  Expr() = default;
  explicit Expr(NodePtr node) : node_(std::move(node)) {}
  const NodePtr& node() const { return node_; }
  explicit operator bool() const { return node_ != nullptr; }

 private:
  NodePtr node_;
};

class Program;

/// Builds symbolic expressions over named leaves. The combinators are pure
/// (they only assemble DAG nodes); build() moves the declared leaves and
/// outputs into a Program.
class ExprBuilder {
 public:
  /// Declares a named matrix / vector leaf. Bind a runtime tensor to the
  /// name before preparing the Program.
  Expr matrix(const std::string& name);
  Expr vector(const std::string& name);

  // --- Combinators --------------------------------------------------------
  static Expr spmv(const Expr& X, const Expr& y);   ///< X * y (CSR or dense)
  /// alpha * X^T * y, alpha applied per-term inside the kernel (exactly
  /// op_transposed_product's alpha — not bit-equal to scale(alpha, ...)).
  static Expr spmv_t(const Expr& X, const Expr& y, real alpha = 1);
  static Expr mul(const Expr& a, const Expr& b);    ///< a ⊙ b
  static Expr scale(real s, const Expr& a);
  static Expr add(const Expr& a, const Expr& b);
  /// alpha * x + y as an elementwise chain (a planner fusion candidate).
  static Expr axpy(real alpha, const Expr& x, const Expr& y);
  static Expr map(const Expr& a, real (*f)(real), const std::string& name);
  /// The m*n values of f(u v^T), row-major — a VALUES vector. Feed it to
  /// sparse_mask to express sddmm-shaped products the planner can collapse
  /// into the sparsity-exploiting fused kernel.
  static Expr outer_map(const Expr& u, const Expr& v, real (*f)(real),
                        const std::string& name);
  /// X's values elementwise-scaled by an outer-map (at X's nonzeros for CSR
  /// storage). The result reuses X's structure: spmv(sparse_mask(X, om), z)
  /// is the masked product (X ⊙ f(u v^T)) * z.
  static Expr sparse_mask(const Expr& X, const Expr& om);
  /// The full Equation-1 expression alpha * X^T (v ⊙ (X*y)) + beta*z as an
  /// UNFUSED operator DAG (pass default Expr{} for absent v / z) — what the
  /// hardcoded pass and the planner both recognize and collapse.
  static Expr pattern(real alpha, const Expr& X, const Expr& v,
                      const Expr& y, real beta, const Expr& z);

  /// Names a result the Program can execute.
  void output(const std::string& name, const Expr& e);

  Program build();

 private:
  std::vector<std::pair<std::string, NodePtr>> leaves_;
  std::vector<std::pair<std::string, NodePtr>> outputs_;
};

/// A compiled expression program: named leaves, named output DAGs, and a
/// per-(plan mode, planner options, leaf shapes) cache of prepared plans.
class Program {
 public:
  Program() = default;

  /// Binds (or re-binds) a leaf to a runtime tensor. Re-binding is how
  /// loops thread loop-carried state through a cached plan: prepared DAGs
  /// share the leaf nodes, so the new tensor is visible to them without
  /// replanning.
  void bind(const std::string& leaf, TensorId id);

  /// Plans every output for (mode, current leaf shapes). Cached: the same
  /// mode + options + shapes never plan twice. Both fusion modes plan
  /// through plan_fusion() and record the plan with rt.note_plan() so
  /// Runtime::explain() can print it.
  void prepare(Runtime& rt, PlanMode mode);

  /// Interprets one prepared output (default: the first). Roots prepared by
  /// a fusion mode re-arm the runtime's plan-audit prediction before
  /// executing.
  TensorId run(Runtime& rt, const std::string& output = "");

  int plans_built() const { return plans_built_; }
  int plan_cache_hits() const { return cache_hits_; }
  /// Fusion groups / explain text of the CURRENTLY prepared plan.
  int fused_groups() const;
  const std::string& plan_explain() const;

 private:
  friend class ExprBuilder;

  struct RootPlan {
    NodePtr root;
    bool has_prediction = false;      // fusion modes only
    std::uint64_t launches = 0;       // planner's per-execution prediction
    double ms = 0.0;
  };
  struct Prepared {
    std::vector<RootPlan> roots;  // parallel to outputs_
    std::string explain;
    int fused_groups = 0;
  };

  /// Cache key: mode, the planner options the mode plans with (every field
  /// compared exactly; default under kUnfused, which plans nothing), and
  /// the shape and storage of every bound leaf in leaf order.
  struct PlanKey {
    PlanMode mode = PlanMode::kUnfused;
    PlannerOptions opts;
    std::vector<TensorInfo> leaves;
    bool operator==(const PlanKey&) const = default;
  };
  PlanKey plan_key(Runtime& rt, PlanMode mode,
                   const PlannerOptions& opts) const;

  std::vector<std::pair<std::string, NodePtr>> leaves_;
  std::vector<std::pair<std::string, NodePtr>> outputs_;
  // A handful of entries per program (one per mode and leaf shape), so a
  // linear scan; a list keeps current_ stable across insertions.
  std::list<std::pair<PlanKey, Prepared>> cache_;
  Prepared* current_ = nullptr;
  int plans_built_ = 0;
  int cache_hits_ = 0;
};

}  // namespace fusedml::sysml
