#include "sysml/dag.h"

#include <unordered_map>
#include <unordered_set>

#include "common/error.h"

namespace fusedml::sysml {

std::string to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kInputMatrix: return "matrix";
    case OpKind::kInputVector: return "vector";
    case OpKind::kMv: return "mv";
    case OpKind::kMvT: return "mvt";
    case OpKind::kEwiseMul: return "ewise_mul";
    case OpKind::kScale: return "scale";
    case OpKind::kAdd: return "add";
    case OpKind::kMap: return "map";
    case OpKind::kOuterMap: return "outer_map";
    case OpKind::kSparseMask: return "sparse_mask";
    case OpKind::kFusedPattern: return "FUSED_PATTERN";
    case OpKind::kFusedEwise: return "FUSED_EWISE";
    case OpKind::kFusedRow: return "FUSED_ROW";
    case OpKind::kFusedSddmm: return "FUSED_SDDMM";
  }
  return "?";
}

namespace {
NodePtr make(OpKind kind, std::vector<NodePtr> inputs) {
  auto node = std::make_shared<Node>();
  node->kind = kind;
  node->inputs = std::move(inputs);
  return node;
}
}  // namespace

NodePtr input_matrix(TensorId id) {
  auto node = make(OpKind::kInputMatrix, {});
  node->tensor = id;
  return node;
}

NodePtr input_vector(TensorId id) {
  auto node = make(OpKind::kInputVector, {});
  node->tensor = id;
  return node;
}

NodePtr mv(NodePtr X, NodePtr y) { return make(OpKind::kMv, {X, y}); }
NodePtr mvt(NodePtr X, NodePtr y) { return make(OpKind::kMvT, {X, y}); }
NodePtr mvt(NodePtr X, NodePtr y, real alpha) {
  auto node = make(OpKind::kMvT, {std::move(X), std::move(y)});
  node->scalar = alpha;
  return node;
}
NodePtr ewise_mul(NodePtr a, NodePtr b) {
  return make(OpKind::kEwiseMul, {a, b});
}
NodePtr scale(real s, NodePtr a) {
  auto node = make(OpKind::kScale, {a});
  node->scalar = s;
  return node;
}
NodePtr add(NodePtr a, NodePtr b) { return make(OpKind::kAdd, {a, b}); }

NodePtr map(NodePtr a, real (*f)(real), std::string name) {
  auto node = make(OpKind::kMap, {a});
  node->map_f = f;
  node->map_name = std::move(name);
  return node;
}

NodePtr outer_map(NodePtr u, NodePtr v, real (*f)(real), std::string name) {
  auto node = make(OpKind::kOuterMap, {std::move(u), std::move(v)});
  node->map_f = f;
  node->map_name = std::move(name);
  return node;
}

NodePtr sparse_mask(NodePtr X, NodePtr om) {
  FUSEDML_CHECK(X && X->kind == OpKind::kInputMatrix,
                "sparse_mask: X must be an input-matrix leaf");
  return make(OpKind::kSparseMask, {std::move(X), std::move(om)});
}

NodePtr pattern_expression(real alpha, NodePtr X, NodePtr v, NodePtr y,
                           real beta, NodePtr z) {
  NodePtr p = mv(X, y);
  if (v) p = ewise_mul(v, p);
  NodePtr w = mvt(X, p);
  if (alpha != real{1}) w = scale(alpha, w);
  if (z) w = add(w, scale(beta, z));
  return w;
}

int count_nodes(const NodePtr& root) {
  std::unordered_set<const Node*> seen;
  std::vector<const Node*> stack = {root.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (!node || !seen.insert(node).second) continue;
    for_each_operand(*node,
                     [&](const NodePtr& in) { stack.push_back(in.get()); });
  }
  return static_cast<int>(seen.size());
}

namespace {
TensorId eval(Runtime& rt, const NodePtr& node,
              std::unordered_map<const Node*, TensorId>& memo) {
  const auto it = memo.find(node.get());
  if (it != memo.end()) return it->second;

  TensorId out = 0;
  switch (node->kind) {
    case OpKind::kInputMatrix:
    case OpKind::kInputVector:
      out = node->tensor;
      break;
    case OpKind::kMv:
      if (node->inputs[0]->kind == OpKind::kSparseMask) {
        // Masked product: X's structure with the mask node's values.
        const NodePtr& mask = node->inputs[0];
        out = rt.op_masked_product(eval(rt, mask->inputs[0], memo),
                                   eval(rt, mask, memo),
                                   eval(rt, node->inputs[1], memo));
      } else {
        out = rt.op_product(eval(rt, node->inputs[0], memo),
                            eval(rt, node->inputs[1], memo));
      }
      break;
    case OpKind::kMvT:
      out = rt.op_transposed_product(eval(rt, node->inputs[0], memo),
                                     eval(rt, node->inputs[1], memo),
                                     node->scalar);
      break;
    case OpKind::kEwiseMul:
      out = rt.op_ewise_mul(eval(rt, node->inputs[0], memo),
                            eval(rt, node->inputs[1], memo));
      break;
    case OpKind::kScale: {
      // Copy-then-scale keeps shared subexpressions intact.
      const TensorId in = eval(rt, node->inputs[0], memo);
      const auto view = rt.read_vector(in);
      out = rt.add_vector({view.begin(), view.end()}, "scale_tmp");
      rt.op_scal(node->scalar, out);
      break;
    }
    case OpKind::kAdd: {
      const TensorId a = eval(rt, node->inputs[0], memo);
      const TensorId b = eval(rt, node->inputs[1], memo);
      const auto view = rt.read_vector(b);
      out = rt.add_vector({view.begin(), view.end()}, "add_tmp");
      rt.op_axpy(real{1}, a, out);
      break;
    }
    case OpKind::kMap:
      out = rt.op_map(eval(rt, node->inputs[0], memo), node->map_f,
                      node->map_name);
      break;
    case OpKind::kOuterMap:
      out = rt.op_outer_map(eval(rt, node->inputs[0], memo),
                            eval(rt, node->inputs[1], memo), node->map_f,
                            node->map_name);
      break;
    case OpKind::kSparseMask:
      out = rt.op_sparse_mask(eval(rt, node->inputs[0], memo),
                              eval(rt, node->inputs[1], memo));
      break;
    case OpKind::kFusedRow: {
      std::vector<TensorId> ids;
      ids.reserve(node->inputs.size());
      for (const auto& in : node->inputs) ids.push_back(eval(rt, in, memo));
      out = rt.op_fused_row(eval(rt, node->fused_matrix, memo),
                            eval(rt, node->fused_y, memo), node->program, ids);
      break;
    }
    case OpKind::kFusedSddmm:
      out = rt.op_fused_sddmm(
          eval(rt, node->fused_matrix, memo), eval(rt, node->fused_v, memo),
          eval(rt, node->fused_y, memo), eval(rt, node->fused_z, memo),
          node->map_f, node->map_name);
      break;
    case OpKind::kFusedEwise: {
      std::vector<TensorId> ids;
      ids.reserve(node->inputs.size());
      for (const auto& in : node->inputs) ids.push_back(eval(rt, in, memo));
      out = rt.op_fused_ewise(node->program, ids, "fused_ewise");
      break;
    }
    case OpKind::kFusedPattern:
      out = rt.op_pattern(
          node->scalar, eval(rt, node->fused_matrix, memo),
          node->fused_v ? eval(rt, node->fused_v, memo) : 0,
          eval(rt, node->fused_y, memo), node->scalar2,
          node->fused_z ? eval(rt, node->fused_z, memo) : 0);
      break;
  }
  FUSEDML_CHECK(out != 0, "DAG evaluation produced no tensor");
  memo.emplace(node.get(), out);
  return out;
}

bool is_leaf(const Node& node) {
  return node.kind == OpKind::kInputMatrix ||
         node.kind == OpKind::kInputVector;
}

/// Discards every tensor the evaluation created except `keep`. Leaves are
/// the caller's tensors and are never discarded.
void discard_intermediates(
    Runtime& rt, const std::unordered_map<const Node*, TensorId>& memo,
    TensorId keep) {
  std::unordered_set<TensorId> seen;  // the leaves, then each discard
  for (const auto& [node, id] : memo) {
    if (is_leaf(*node)) seen.insert(id);
  }
  for (const auto& [node, id] : memo) {
    if (is_leaf(*node) || id == keep) continue;
    FUSEDML_CHECK(seen.insert(id).second,
                  "DAG intermediate is a leaf or was already discarded");
    rt.discard(id);
  }
}
}  // namespace

TensorId execute(Runtime& rt, const NodePtr& root) {
  // Plan-vs-actual audit: snapshot the launch/time books around the
  // interpretation so the runtime can compare what this execution actually
  // cost against the planner's per-execution prediction.
  const RuntimeStats before = rt.stats();
  std::unordered_map<const Node*, TensorId> memo;
  TensorId out = 0;
  try {
    out = eval(rt, root, memo);
  } catch (...) {
    discard_intermediates(rt, memo, 0);
    throw;
  }
  // Only the root outlives the execution.
  discard_intermediates(rt, memo, out);
  const RuntimeStats& after = rt.stats();
  // ABFT verification launches/time ride inside the kernel books (the
  // device really issued them) but are not part of the PLAN — subtract
  // them so the audit compares the plan's own kernels against prediction
  // and verification shows up in its declared bucket instead of as drift.
  rt.note_plan_execution((after.kernel_launches - before.kernel_launches) -
                             (after.verify_launches - before.verify_launches),
                         (after.total_ms() - before.total_ms()) -
                             (after.verify_ms - before.verify_ms));
  return out;
}

}  // namespace fusedml::sysml
