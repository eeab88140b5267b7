// Expression DAGs of primitive linear-algebra operators, and their
// interpreter.
//
// SystemML compiles declarative scripts into operator DAGs; the paper's
// integration (§4.4) makes the system "transparently select our fused GPU
// kernel" for the Equation-1 pattern. This module holds the compiler-side
// IR: build a DAG of primitive operators — e.g. Equation 1 as
//
//        Add
//       /   \.
//   Scale    Scale(beta)
//     |         \.
//    MvT         z
//   /   \.
//  X   EwiseMul
//        /  \.
//       v    Mv
//           /  \.
//          X    y
//
// — and execute() interprets it over a Runtime. Fused node kinds
// (kFusedPattern, kFusedEwise, ...) are produced only by the fusion planner
// (sysml/fusion_planner.h), which recognizes the Equation-1 subgraph and all
// its Table-1 degenerations (missing Scale/EwiseMul/Add) and returns a
// rewritten DAG; fused nodes land on the device as ONE kernel, while
// unfused DAGs run operator-at-a-time.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.h"
#include "kernels/ewise_program.h"
#include "sysml/runtime.h"

namespace fusedml::sysml {

enum class OpKind {
  kInputMatrix,   ///< leaf: a matrix registered with the runtime
  kInputVector,   ///< leaf: a vector registered with the runtime
  kMv,            ///< X * y (X may also be a kSparseMask value node)
  kMvT,           ///< X^T * y  (optionally pre-scaled by `scalar`)
  kEwiseMul,      ///< a ⊙ b
  kScale,         ///< scalar * a
  kAdd,           ///< a + b
  kMap,           ///< f(a) element-wise (sigmoid, exp, ...)
  kOuterMap,      ///< f(u_i * v_j): the m*n values of f(u v^T), row-major
  kSparseMask,    ///< X ⊙ O: values of X scaled by an outer-map, at X's
                  ///< nonzeros (CSR) or densely — a VALUES vector, reusing
                  ///< X's structure
  kFusedPattern,  ///< scalar * X^T (v ⊙ (X*y)) + scalar2 * z — one kernel
  kFusedEwise,    ///< a whole elementwise chain as one generated kernel
  kFusedRow,      ///< (X*y) fed through an elementwise epilogue — one kernel
  kFusedSddmm,    ///< (X ⊙ f(u v^T)) * z evaluated only at nnz(X) — one kernel
};

std::string to_string(OpKind kind);

struct Node;
using NodePtr = std::shared_ptr<Node>;

struct Node {
  OpKind kind;
  std::vector<NodePtr> inputs;
  real scalar = 1;     ///< kScale factor; kFusedPattern alpha
  real scalar2 = 0;    ///< kFusedPattern beta
  TensorId tensor = 0; ///< leaves: the runtime tensor

  // kMap / kOuterMap / kFusedSddmm payload.
  real (*map_f)(real) = nullptr;
  std::string map_name;

  // kFusedEwise payload: inputs[] are the program's input slots, in order.
  // kFusedRow reuses it for the epilogue: program slot 0 is the row product
  // X*y, and inputs[] are the remaining external slots, in order.
  kernels::EwiseProgram program;

  // kFusedPattern operand slots (empty NodePtr = absent v / z).
  // kFusedRow: fused_matrix = X leaf, fused_y = the product's vector.
  // kFusedSddmm: fused_matrix = X leaf, fused_v = u, fused_y = v,
  // fused_z = the product vector z.
  NodePtr fused_matrix, fused_v, fused_y, fused_z;
};

// --- Construction helpers ---------------------------------------------------
NodePtr input_matrix(TensorId id);
NodePtr input_vector(TensorId id);
NodePtr mv(NodePtr X, NodePtr y);
NodePtr mvt(NodePtr X, NodePtr y);
/// X^T * y with the scale applied inside the kernel (per-term, exactly as
/// op_transposed_product's alpha) — NOT bit-equal to scale(alpha, mvt(X,y)).
NodePtr mvt(NodePtr X, NodePtr y, real alpha);
NodePtr ewise_mul(NodePtr a, NodePtr b);
NodePtr scale(real s, NodePtr a);
NodePtr add(NodePtr a, NodePtr b);
NodePtr map(NodePtr a, real (*f)(real), std::string name);
/// The m*n values of f(u v^T), row-major — a VALUES vector, not a matrix.
NodePtr outer_map(NodePtr u, NodePtr v, real (*f)(real), std::string name);
/// Values of X elementwise-scaled by an outer-map `om` (evaluated at X's
/// nonzeros for CSR storage, densely for dense storage). The result reuses
/// X's structure, so `mv(sparse_mask(X, om), z)` is a masked product.
NodePtr sparse_mask(NodePtr X, NodePtr om);

/// Builds the full Equation-1 expression as an UNFUSED operator DAG:
///   alpha * X^T (v ⊙ (X*y)) + beta*z     (pass nullptr for absent v / z)
NodePtr pattern_expression(real alpha, NodePtr X, NodePtr v, NodePtr y,
                           real beta, NodePtr z);

/// Calls `f` on every operand slot of `node` in the order every DAG walk
/// uses: inputs[], then fused_matrix, fused_v, fused_y and fused_z. Empty
/// slots are visited too. N is Node or const Node, so a rewriter reassigns
/// the slots through the same walk that readers use.
template <typename N, typename F>
void for_each_operand(N& node, F&& f) {
  static_assert(std::is_same_v<std::remove_const_t<N>, Node>);
  for (auto& in : node.inputs) f(in);
  f(node.fused_matrix);
  f(node.fused_v);
  f(node.fused_y);
  f(node.fused_z);
}

/// Number of distinct nodes reachable from root.
int count_nodes(const NodePtr& root);

// --- Execution -----------------------------------------------------------------

/// Interprets the DAG over the runtime; returns the root's result tensor.
/// Each non-leaf node costs one runtime op (kFusedPattern = one fused
/// kernel; the unfused operators run operator-at-a-time). Every
/// intermediate tensor is discarded once the root is computed (or the
/// evaluation throws); leaf tensors belong to the caller and stay.
TensorId execute(Runtime& rt, const NodePtr& root);

}  // namespace fusedml::sysml
