#include "sysml/expr.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "common/timer.h"
#include "sysml/fusion_planner.h"

namespace fusedml::sysml {

const char* to_string(PlanMode mode) {
  switch (mode) {
    case PlanMode::kUnfused: return "unfused";
    case PlanMode::kHardcodedPass: return "hardcoded-pass";
    case PlanMode::kPlanner: return "planner";
  }
  return "?";
}

namespace {

NodePtr leaf_node(OpKind kind) {
  auto node = std::make_shared<Node>();
  node->kind = kind;
  node->tensor = 0;  // unbound until Program::bind
  return node;
}

}  // namespace

// --- ExprBuilder ------------------------------------------------------------

Expr ExprBuilder::matrix(const std::string& name) {
  auto node = leaf_node(OpKind::kInputMatrix);
  leaves_.emplace_back(name, node);
  return Expr(node);
}

Expr ExprBuilder::vector(const std::string& name) {
  auto node = leaf_node(OpKind::kInputVector);
  leaves_.emplace_back(name, node);
  return Expr(node);
}

Expr ExprBuilder::spmv(const Expr& X, const Expr& y) {
  return Expr(mv(X.node(), y.node()));
}

Expr ExprBuilder::spmv_t(const Expr& X, const Expr& y, real alpha) {
  return Expr(mvt(X.node(), y.node(), alpha));
}

Expr ExprBuilder::mul(const Expr& a, const Expr& b) {
  return Expr(ewise_mul(a.node(), b.node()));
}

Expr ExprBuilder::scale(real s, const Expr& a) {
  return Expr(sysml::scale(s, a.node()));
}

Expr ExprBuilder::add(const Expr& a, const Expr& b) {
  return Expr(sysml::add(a.node(), b.node()));
}

Expr ExprBuilder::axpy(real alpha, const Expr& x, const Expr& y) {
  return add(scale(alpha, x), y);
}

Expr ExprBuilder::map(const Expr& a, real (*f)(real),
                      const std::string& name) {
  return Expr(sysml::map(a.node(), f, name));
}

Expr ExprBuilder::outer_map(const Expr& u, const Expr& v, real (*f)(real),
                            const std::string& name) {
  return Expr(sysml::outer_map(u.node(), v.node(), f, name));
}

Expr ExprBuilder::sparse_mask(const Expr& X, const Expr& om) {
  return Expr(sysml::sparse_mask(X.node(), om.node()));
}

Expr ExprBuilder::pattern(real alpha, const Expr& X, const Expr& v,
                          const Expr& y, real beta, const Expr& z) {
  return Expr(pattern_expression(alpha, X.node(), v.node(), y.node(), beta,
                                 z.node()));
}

void ExprBuilder::output(const std::string& name, const Expr& e) {
  FUSEDML_CHECK(static_cast<bool>(e), "output expression is empty");
  outputs_.emplace_back(name, e.node());
}

Program ExprBuilder::build() {
  FUSEDML_CHECK(!outputs_.empty(), "a Program needs at least one output");
  Program program;
  program.leaves_ = std::move(leaves_);
  program.outputs_ = std::move(outputs_);
  return program;
}

// --- Program ----------------------------------------------------------------

void Program::bind(const std::string& leaf, TensorId id) {
  for (auto& [name, node] : leaves_) {
    if (name == leaf) {
      node->tensor = id;
      return;
    }
  }
  FUSEDML_CHECK(false, "Program has no leaf named '" + leaf + "'");
}

Program::PlanKey Program::plan_key(Runtime& rt, PlanMode mode,
                                   const PlannerOptions& po) const {
  PlanKey key;
  key.mode = mode;
  // Planner knobs change the plan, so they are part of the key.
  if (mode != PlanMode::kUnfused) key.opts = po;
  key.leaves.reserve(leaves_.size());
  for (const auto& [name, node] : leaves_) {
    FUSEDML_CHECK(node->tensor != 0,
                  "Program leaf '" + name + "' is not bound to a tensor");
    key.leaves.push_back(rt.tensor_info(node->tensor));
  }
  return key;
}

void Program::prepare(Runtime& rt, PlanMode mode) {
  const Timer plan_timer;  // host wall clock — planning is unmodeled work
  // The hardcoded pass is the planner restricted to Equation 1; planner
  // mode plans with the session's knobs.
  const PlannerOptions opts = mode == PlanMode::kHardcodedPass
                                  ? equation1_only()
                                  : rt.planner_options();
  PlanKey key = plan_key(rt, mode, opts);
  const auto it = std::find_if(cache_.begin(), cache_.end(),
                               [&](const auto& e) { return e.first == key; });
  if (it != cache_.end()) {
    current_ = &it->second;
    ++cache_hits_;
    rt.note_plan_prepare(plan_timer.elapsed_ms(), /*cache_hit=*/true);
  } else {
    Prepared prep;
    std::ostringstream explain;
    for (const auto& [name, root] : outputs_) {
      RootPlan rp;
      if (mode == PlanMode::kUnfused) {
        rp.root = root;
      } else {
        FusionPlan plan = plan_fusion(rt, root, opts);
        rp.root = plan.root;
        rp.has_prediction = true;
        rp.launches = plan.launches_planned;
        rp.ms = plan.modeled_planned_ms;
        prep.fused_groups += static_cast<int>(plan.groups.size());
        explain << "output " << name << ":\n" << plan.explain() << "\n";
      }
      prep.roots.push_back(std::move(rp));
    }
    prep.explain = explain.str();
    ++plans_built_;
    current_ = &cache_.emplace_back(std::move(key), std::move(prep)).second;
    rt.note_plan_prepare(plan_timer.elapsed_ms(), /*cache_hit=*/false);
  }
  if (mode != PlanMode::kUnfused) rt.note_plan(current_->explain);
}

TensorId Program::run(Runtime& rt, const std::string& output) {
  FUSEDML_CHECK(current_ != nullptr, "Program::run() before prepare()");
  usize idx = 0;
  if (!output.empty()) {
    bool found = false;
    for (usize i = 0; i < outputs_.size(); ++i) {
      if (outputs_[i].first == output) {
        idx = i;
        found = true;
        break;
      }
    }
    FUSEDML_CHECK(found, "Program has no output named '" + output + "'");
  }
  const RootPlan& rp = current_->roots[idx];
  if (rp.has_prediction) rt.note_plan_prediction(rp.launches, rp.ms);
  return execute(rt, rp.root);
}

int Program::fused_groups() const {
  return current_ != nullptr ? current_->fused_groups : 0;
}

const std::string& Program::plan_explain() const {
  static const std::string kEmpty;
  return current_ != nullptr ? current_->explain : kEmpty;
}

// The public execution entry point lives on the runtime so call sites read
// rt.run(program) — the runtime owns execution, the program owns the plan.
TensorId Runtime::run(Program& program, const std::string& output) {
  return program.run(*this, output);
}

}  // namespace fusedml::sysml
