#include "sysml/fusion_planner.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.h"
#include "kernels/op_registry.h"
#include "vgpu/cost_model.h"

namespace fusedml::sysml {

namespace {

using kernels::EwiseOp;
using kernels::EwiseProgram;
using kernels::EwiseStep;
using kernels::op_profile;
using kernels::RegistryOp;

using ConsumerMap =
    std::unordered_map<const Node*, std::vector<const Node*>>;

struct NodeCost {
  std::uint64_t launches = 0;
  double ms = 0;

  NodeCost& operator+=(const NodeCost& o) {
    launches += o.launches;
    ms += o.ms;
    return *this;
  }
};

bool is_ewise(const Node* n) {
  switch (n->kind) {
    case OpKind::kScale:
    case OpKind::kAdd:
    case OpKind::kEwiseMul:
    case OpKind::kMap:
      return true;
    default:
      return false;
  }
}

// --- The Equation-1 matcher --------------------------------------------------

/// A successful structural match of the Equation-1 template
///   alpha * X^T (v ⊙ (X*y)) + beta*z
/// rooted at some node (v / z may be absent — the Table-1 degenerations).
/// `covered` lists the interior operator nodes the fused kernel would
/// replace (the match root, the MvT/Mv pair, and any Scale/EwiseMul/Add
/// glue); the retained operands X, v, y, z are NOT in it.
struct Equation1Match {
  real alpha = 1;
  real beta = 0;
  NodePtr X, v, y, z;  ///< v / z may be null
  std::vector<const Node*> covered;
};

struct CoreMatch {
  real alpha = 1;
  NodePtr X, v, y;  // v may be null
  std::vector<const Node*> covered;  // scale?, mvt, ewise?, mv
};

/// Matches [Scale(alpha)] -> MvT(X, [EwiseMul(v,)] Mv(X, y)) with the SAME
/// matrix node on both products — the data-reuse condition fusion needs.
std::optional<CoreMatch> match_core(const NodePtr& node) {
  CoreMatch out;
  NodePtr mvt_node = node;
  if (node->kind == OpKind::kScale) {
    out.alpha = node->scalar;
    out.covered.push_back(node.get());
    mvt_node = node->inputs[0];
  }
  if (mvt_node->kind != OpKind::kMvT) return std::nullopt;
  // A pre-scaled MvT already pays its alpha per-term inside the kernel;
  // folding it into the Equation-1 template would re-associate the scale
  // (alpha * sum vs sum of alpha-scaled terms) and break bit-exactness.
  if (mvt_node->scalar != real{1}) return std::nullopt;
  out.X = mvt_node->inputs[0];
  if (out.X->kind != OpKind::kInputMatrix) return std::nullopt;
  out.covered.push_back(mvt_node.get());

  NodePtr t = mvt_node->inputs[1];
  if (t->kind == OpKind::kEwiseMul) {
    // Either operand order: v ⊙ (X*y) or (X*y) ⊙ v.
    for (int side = 0; side < 2; ++side) {
      const NodePtr& maybe_mv = t->inputs[side];
      const NodePtr& maybe_v = t->inputs[1 - side];
      if (maybe_mv->kind == OpKind::kMv &&
          maybe_mv->inputs[0] == out.X) {
        out.v = maybe_v;
        out.y = maybe_mv->inputs[1];
        out.covered.push_back(t.get());
        out.covered.push_back(maybe_mv.get());
        return out;
      }
    }
    return std::nullopt;
  }
  if (t->kind == OpKind::kMv && t->inputs[0] == out.X) {
    out.y = t->inputs[1];
    out.covered.push_back(t.get());
    return out;
  }
  return std::nullopt;
}

/// Matches the Equation-1 template at the LARGEST extent rooted at `node`:
/// an optional Add with a [Scale(beta)] z term around the core.
std::optional<Equation1Match> match_equation1(const NodePtr& node) {
  Equation1Match m;
  NodePtr core_root = node;
  std::vector<const Node*> add_covered;

  if (node->kind == OpKind::kAdd) {
    // One operand is the core, the other the beta*z term (either order).
    for (int side = 0; side < 2; ++side) {
      const NodePtr& maybe_core = node->inputs[side];
      NodePtr maybe_z = node->inputs[1 - side];
      real maybe_beta = 1;
      const Node* z_scale = nullptr;
      if (maybe_z->kind == OpKind::kScale) {
        maybe_beta = maybe_z->scalar;
        z_scale = maybe_z.get();
        maybe_z = maybe_z->inputs[0];
      }
      if (match_core(maybe_core)) {
        core_root = maybe_core;
        m.beta = maybe_beta;
        m.z = maybe_z;
        add_covered.push_back(node.get());
        if (z_scale != nullptr) add_covered.push_back(z_scale);
        break;
      }
    }
    if (!m.z) return std::nullopt;
  }

  auto core = match_core(core_root);
  if (!core) return std::nullopt;
  m.alpha = core->alpha;
  m.X = core->X;
  m.v = core->v;
  m.y = core->y;
  m.covered = std::move(add_covered);
  m.covered.insert(m.covered.end(), core->covered.begin(),
                   core->covered.end());
  return m;
}

/// Parents of every node reachable from root (materialization analysis:
/// an intermediate with a consumer outside a fusion candidate must be
/// materialized anyway, so fusing it buys nothing and recomputes work).
ConsumerMap consumer_map(const NodePtr& root) {
  ConsumerMap consumers;
  std::unordered_set<const Node*> seen;
  std::vector<const Node*> stack = {root.get()};
  consumers[root.get()];  // the root has no consumers but must be present
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node == nullptr || !seen.insert(node).second) continue;
    auto visit = [&](const NodePtr& in) {
      if (!in) return;
      consumers[in.get()].push_back(node);
      stack.push_back(in.get());
    };
    for (const auto& in : node->inputs) visit(in);
    for (const auto& in :
         {node->fused_matrix, node->fused_v, node->fused_y, node->fused_z}) {
      visit(in);
    }
  }
  return consumers;
}

/// True when fusing `m` rooted in the DAG of `consumers` would NOT force an
/// interior intermediate to be materialized anyway: every covered interior
/// node (other than the match root) is consumed only inside the match, and
/// no retained operand (X/v/y/z) is itself a covered interior node.
bool fusion_is_materialization_safe(const Equation1Match& m,
                                    const NodePtr& match_root,
                                    const ConsumerMap& consumers) {
  std::unordered_set<const Node*> covered(m.covered.begin(), m.covered.end());
  // A retained operand that is itself a covered interior node means the
  // fused kernel would both recompute it internally AND read it as an
  // input — e.g. z sharing the X*y node with the core. Never profitable.
  for (const NodePtr& operand : {m.X, m.v, m.y, m.z}) {
    if (operand && covered.count(operand.get()) != 0) return false;
  }
  // Every interior node below the match root must be consumed only inside
  // the match; an outside consumer forces materialization of the
  // intermediate anyway, so the fused kernel would duplicate that work.
  for (const Node* c : m.covered) {
    if (c == match_root.get()) continue;
    const auto it = consumers.find(c);
    if (it == consumers.end()) continue;
    for (const Node* parent : it->second) {
      if (covered.count(parent) == 0) return false;
    }
  }
  return true;
}

/// Shape + cost oracle over one DAG: leaf shapes come from the runtime's
/// tensor registry, device constants from the vgpu cost model, per-op
/// traffic shapes from the registry's declared profiles.
class CostOracle {
 public:
  explicit CostOracle(Runtime& rt) : rt_(rt) {
    const auto& params = rt.device().cost_model().params();
    launch_ms_ = params.launch_overhead_us / 1000.0;
    effective_gbs_ =
        rt.device().spec().mem_bandwidth_gbs * params.dram_efficiency;
  }

  double launch_ms() const { return launch_ms_; }

  double bw_ms(double bytes) const { return bytes / (effective_gbs_ * 1e6); }

  /// Output vector length of a vector-valued node (0 for matrices).
  index_t length(const Node* n) {
    const auto it = len_.find(n);
    if (it != len_.end()) return it->second;
    index_t out = 0;
    switch (n->kind) {
      case OpKind::kInputMatrix:
        break;
      case OpKind::kInputVector:
        out = rt_.tensor_info(n->tensor).rows;
        break;
      case OpKind::kMv:
        // A masked product (Mv over a kSparseMask value node) has the mask's
        // underlying matrix shape.
        if (n->inputs[0]->kind == OpKind::kSparseMask) {
          out = matrix_info(n->inputs[0]->inputs[0].get()).rows;
        } else {
          out = matrix_info(n->inputs[0].get()).rows;
        }
        break;
      case OpKind::kMvT:
        out = matrix_info(n->inputs[0].get()).cols;
        break;
      case OpKind::kEwiseMul:
      case OpKind::kScale:
      case OpKind::kAdd:
      case OpKind::kMap:
      case OpKind::kFusedEwise:
        out = length(n->inputs[0].get());
        break;
      case OpKind::kOuterMap:
        out = length(n->inputs[0].get()) * length(n->inputs[1].get());
        break;
      case OpKind::kSparseMask: {
        const auto info = matrix_info(n->inputs[0].get());
        out = info.is_sparse ? static_cast<index_t>(info.nnz)
                             : info.rows * info.cols;
        break;
      }
      case OpKind::kFusedPattern:
        out = matrix_info(n->fused_matrix.get()).cols;
        break;
      case OpKind::kFusedRow:
      case OpKind::kFusedSddmm:
        out = matrix_info(n->fused_matrix.get()).rows;
        break;
    }
    len_.emplace(n, out);
    return out;
  }

  TensorInfo matrix_info(const Node* n) {
    FUSEDML_CHECK(n->kind == OpKind::kInputMatrix,
                  "planner: matrix operand must be an input leaf");
    return rt_.tensor_info(n->tensor);
  }

  /// Cost of the fused Equation-1 kernel over matrix `info`.
  NodeCost pattern_cost(const TensorInfo& info) {
    const auto p = op_profile(RegistryOp::kPattern, info.is_sparse);
    const double bytes =
        p.matrix_passes * static_cast<double>(info.bytes) +
        p.vector_words_per_elem * static_cast<double>(info.cols) *
            sizeof(real);
    return {p.launches,
            static_cast<double>(p.launches) * launch_ms_ + bw_ms(bytes)};
  }

  /// Cost of one generated elementwise kernel: `num_inputs` streams in,
  /// one out, `n_elems` elements each.
  NodeCost fused_ewise_cost(index_t n_elems, int num_inputs) {
    const auto p = op_profile(RegistryOp::kFusedEwise, false);
    const double words = p.vector_words_per_elem *
                         static_cast<double>(num_inputs + 1) *
                         static_cast<double>(n_elems);
    return {p.launches, static_cast<double>(p.launches) * launch_ms_ +
                            bw_ms(words * sizeof(real))};
  }

  /// Cost of the fused row kernel: one matrix pass plus the epilogue's
  /// streams (program inputs + the output, `rows` elements each).
  NodeCost fused_row_cost(const TensorInfo& info, int num_inputs) {
    const auto p = op_profile(RegistryOp::kFusedRow, info.is_sparse);
    const double words = p.vector_words_per_elem *
                         static_cast<double>(num_inputs + 1) *
                         static_cast<double>(info.rows);
    const double bytes = p.matrix_passes * static_cast<double>(info.bytes) +
                         words * sizeof(real);
    return {p.launches,
            static_cast<double>(p.launches) * launch_ms_ + bw_ms(bytes)};
  }

  /// Cost of the fused sddmm kernel: one pass over X plus the u/v/z/out
  /// vector traffic the profile declares.
  NodeCost fused_sddmm_cost(const TensorInfo& info) {
    const auto p = op_profile(RegistryOp::kFusedSddmm, info.is_sparse);
    const double bytes = p.matrix_passes * static_cast<double>(info.bytes) +
                         p.vector_words_per_elem *
                             static_cast<double>(info.rows) * sizeof(real);
    return {p.launches,
            static_cast<double>(p.launches) * launch_ms_ + bw_ms(bytes)};
  }

  /// Modeled GPU cost of executing `n` as its own operator (leaves are
  /// free). Uses the registry-declared profile of the op's fused-backend
  /// implementation: launches * overhead + DRAM traffic at effective BW.
  NodeCost node_cost(const Node* n) {
    double mat_bytes = 0;
    bool sparse = false;
    RegistryOp op;
    switch (n->kind) {
      case OpKind::kInputMatrix:
      case OpKind::kInputVector:
        return {};
      case OpKind::kMv: {
        if (n->inputs[0]->kind == OpKind::kSparseMask) {
          // Masked product: streams X's structure, the substituted values
          // and z in, one row-length result out.
          const Node* mask = n->inputs[0].get();
          const auto info = matrix_info(mask->inputs[0].get());
          const auto p = op_profile(RegistryOp::kMaskedProduct, info.is_sparse);
          const double bytes =
              p.matrix_passes * static_cast<double>(info.bytes) +
              p.vector_words_per_elem * static_cast<double>(length(n)) *
                  sizeof(real) +
              static_cast<double>(length(mask)) * sizeof(real);
          return {p.launches, static_cast<double>(p.launches) * launch_ms_ +
                                  bw_ms(bytes)};
        }
        const auto info = matrix_info(n->inputs[0].get());
        mat_bytes = static_cast<double>(info.bytes);
        sparse = info.is_sparse;
        op = RegistryOp::kProduct;
        break;
      }
      case OpKind::kMvT: {
        const auto info = matrix_info(n->inputs[0].get());
        mat_bytes = static_cast<double>(info.bytes);
        sparse = info.is_sparse;
        op = RegistryOp::kTransposedProduct;
        if (!sparse && n->scalar != real{1}) {
          // Dense X^T*y runs gemv_t and then a separate scal launch for
          // alpha (OpRegistry::transposed_product); the sparse kernel
          // applies alpha per term inside its single launch.
          NodeCost out = profile_cost(op, sparse, mat_bytes, length(n));
          out += profile_cost(RegistryOp::kScal, false, 0, length(n));
          return out;
        }
        break;
      }
      case OpKind::kEwiseMul:
        op = RegistryOp::kEwiseMul;
        break;
      case OpKind::kScale:
        op = RegistryOp::kScal;
        break;
      case OpKind::kAdd:
        op = RegistryOp::kAxpy;
        break;
      case OpKind::kMap:
        op = RegistryOp::kMap;
        break;
      case OpKind::kOuterMap:
        op = RegistryOp::kOuterMap;
        break;
      case OpKind::kSparseMask:
        op = RegistryOp::kSparseMask;
        break;
      case OpKind::kFusedPattern:
        return pattern_cost(matrix_info(n->fused_matrix.get()));
      case OpKind::kFusedEwise:
        return fused_ewise_cost(length(n), n->program.num_inputs);
      case OpKind::kFusedRow:
        return fused_row_cost(matrix_info(n->fused_matrix.get()),
                              n->program.num_inputs);
      case OpKind::kFusedSddmm:
        return fused_sddmm_cost(matrix_info(n->fused_matrix.get()));
      default:
        return {};
    }
    return profile_cost(op, sparse, mat_bytes, length(n));
  }

  /// Cost of one registry op from its declared fused-backend profile:
  /// launches * overhead + matrix passes and `n_elems`-long vector streams
  /// at effective bandwidth.
  NodeCost profile_cost(RegistryOp op, bool sparse, double mat_bytes,
                        index_t n_elems) {
    const auto p = op_profile(op, sparse);
    const double bytes = p.matrix_passes * mat_bytes +
                         p.vector_words_per_elem *
                             static_cast<double>(n_elems) * sizeof(real);
    return {p.launches,
            static_cast<double>(p.launches) * launch_ms_ + bw_ms(bytes)};
  }

  /// Total modeled cost of the whole DAG — distinct reachable operator
  /// nodes, each costed once (matching the memoized interpreter).
  NodeCost dag_cost(const NodePtr& root) {
    NodeCost total;
    std::unordered_set<const Node*> seen;
    std::vector<const Node*> stack = {root.get()};
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      if (n == nullptr || !seen.insert(n).second) continue;
      total += node_cost(n);
      for (const auto& in : n->inputs) stack.push_back(in.get());
      for (const auto& in :
           {n->fused_matrix, n->fused_v, n->fused_y, n->fused_z}) {
        stack.push_back(in.get());
      }
    }
    return total;
  }

 private:
  Runtime& rt_;
  double launch_ms_ = 0;
  double effective_gbs_ = 1;
  std::unordered_map<const Node*, index_t> len_;
};

/// Producers-first (post-order) list of distinct reachable nodes.
std::vector<const Node*> topo_order(const NodePtr& root) {
  std::vector<const Node*> order;
  std::unordered_set<const Node*> done;
  // Iterative post-order: (node, expanded?) pairs.
  std::vector<std::pair<const Node*, bool>> stack = {{root.get(), false}};
  while (!stack.empty()) {
    auto [n, expanded] = stack.back();
    stack.pop_back();
    if (n == nullptr || done.count(n) != 0) continue;
    if (expanded) {
      done.insert(n);
      order.push_back(n);
      continue;
    }
    stack.push_back({n, true});
    for (const auto& in : n->inputs) stack.push_back({in.get(), false});
    for (const auto& in :
         {n->fused_matrix, n->fused_v, n->fused_y, n->fused_z}) {
      stack.push_back({in.get(), false});
    }
  }
  return order;
}

/// One explored fusion opportunity — any template family. Candidates may
/// OVERLAP; the selection stage resolves overlaps by benefit.
struct Candidate {
  enum class Family { kEq1 = 0, kEwise, kRow, kSddmm };

  Family family = Family::kEq1;
  const char* kind = "";           ///< PlannedGroup::kind string
  std::string detail;
  const Node* sink = nullptr;      ///< the node the fused node replaces
  std::vector<const Node*> members;  ///< producers first; sink last

  NodeCost before;       ///< members executed operator-at-a-time
  NodeCost fused_after;  ///< the single fused kernel
  NodeCost kept_cost;    ///< members re-materialized for outside consumers

  // Family payloads (only the matching family's fields are set).
  Equation1Match match;               // eq1
  std::vector<NodePtr> ext_inputs;    // ewise / row: program input slots
  EwiseProgram program;               // ewise / row
  NodePtr row_matrix, row_y;          // row: the product's operands
  NodePtr sd_X, sd_u, sd_v, sd_z;     // sddmm operands
  real (*sd_f)(real) = nullptr;       // sddmm map
  std::string sd_fname;

  NodeCost after() const {
    NodeCost out = fused_after;
    out += kept_cost;
    return out;
  }
  double benefit_ms() const { return before.ms - after().ms; }
};

/// CSE-aware costing: members with a consumer OUTSIDE the candidate must
/// stay materialized (the rewriter's memoized clone keeps them for those
/// consumers), so the candidate pays their cost again — plus, transitively,
/// any member inputs those kept nodes need.
void apply_cse(Candidate& cand, const ConsumerMap& consumers,
               CostOracle& oracle) {
  const std::unordered_set<const Node*> member_set(cand.members.begin(),
                                                   cand.members.end());
  std::unordered_set<const Node*> kept;
  for (const Node* m : cand.members) {
    if (m == cand.sink) continue;
    const auto it = consumers.find(m);
    if (it == consumers.end()) continue;
    for (const Node* p : it->second) {
      if (member_set.count(p) == 0) {
        kept.insert(m);
        break;
      }
    }
  }
  bool grew = true;
  while (grew) {
    grew = false;
    for (const Node* k :
         std::vector<const Node*>(kept.begin(), kept.end())) {
      for (const auto& in : k->inputs) {
        const Node* c = in.get();
        if (c != cand.sink && member_set.count(c) != 0 &&
            kept.insert(c).second) {
          grew = true;
        }
      }
    }
  }
  for (const Node* k : kept) cand.kept_cost += oracle.node_cost(k);
}

/// Builds the EwiseProgram for an elementwise region (members in
/// producers-first order); external inputs become the program's slots.
void build_ewise_program(Candidate& cand) {
  std::unordered_set<const Node*> member_set(cand.members.begin(),
                                             cand.members.end());
  std::unordered_map<const Node*, int> ext_slot;
  for (const Node* m : cand.members) {
    for (const auto& in : m->inputs) {
      if (member_set.count(in.get()) != 0) continue;
      if (ext_slot.emplace(in.get(), static_cast<int>(cand.ext_inputs.size()))
              .second) {
        cand.ext_inputs.push_back(in);
      }
    }
  }
  cand.program.num_inputs = static_cast<int>(cand.ext_inputs.size());

  std::unordered_map<const Node*, int> step_slot;
  auto slot_of = [&](const NodePtr& in) {
    const auto it = step_slot.find(in.get());
    if (it != step_slot.end()) return it->second;
    return ext_slot.at(in.get());
  };
  for (const Node* m : cand.members) {
    EwiseStep step;
    switch (m->kind) {
      case OpKind::kScale:
        step.op = EwiseOp::kScale;
        step.a = slot_of(m->inputs[0]);
        step.scalar = m->scalar;
        break;
      case OpKind::kAdd:
        step.op = EwiseOp::kAdd;
        step.a = slot_of(m->inputs[0]);
        step.b = slot_of(m->inputs[1]);
        break;
      case OpKind::kEwiseMul:
        step.op = EwiseOp::kMul;
        step.a = slot_of(m->inputs[0]);
        step.b = slot_of(m->inputs[1]);
        break;
      case OpKind::kMap:
        step.op = EwiseOp::kMap;
        step.a = slot_of(m->inputs[0]);
        step.map_fn = m->map_f;
        step.map_name = m->map_name;
        break;
      default:
        FUSEDML_CHECK(false, "planner: non-elementwise node in ewise region");
    }
    step_slot.emplace(
        m, cand.program.num_inputs +
               static_cast<int>(cand.program.steps.size()));
    cand.program.steps.push_back(std::move(step));
  }
  FUSEDML_CHECK(cand.program.valid(), "planner built an invalid program");
}

/// Builds the epilogue program for a row candidate: slot 0 is the row
/// product (members.front()), external vectors take slots 1.., and the
/// chain members after the product become the steps.
void build_row_program(Candidate& cand) {
  const Node* product = cand.members.front();
  std::unordered_set<const Node*> member_set(cand.members.begin(),
                                             cand.members.end());
  std::unordered_map<const Node*, int> ext_slot;
  for (std::size_t i = 1; i < cand.members.size(); ++i) {
    for (const auto& in : cand.members[i]->inputs) {
      if (member_set.count(in.get()) != 0) continue;
      if (ext_slot
              .emplace(in.get(),
                       1 + static_cast<int>(cand.ext_inputs.size()))
              .second) {
        cand.ext_inputs.push_back(in);
      }
    }
  }
  cand.program.num_inputs = 1 + static_cast<int>(cand.ext_inputs.size());

  std::unordered_map<const Node*, int> value_slot;
  value_slot.emplace(product, 0);
  auto slot_of = [&](const NodePtr& in) {
    const auto it = value_slot.find(in.get());
    if (it != value_slot.end()) return it->second;
    return ext_slot.at(in.get());
  };
  for (std::size_t i = 1; i < cand.members.size(); ++i) {
    const Node* m = cand.members[i];
    EwiseStep step;
    switch (m->kind) {
      case OpKind::kScale:
        step.op = EwiseOp::kScale;
        step.a = slot_of(m->inputs[0]);
        step.scalar = m->scalar;
        break;
      case OpKind::kAdd:
        step.op = EwiseOp::kAdd;
        step.a = slot_of(m->inputs[0]);
        step.b = slot_of(m->inputs[1]);
        break;
      case OpKind::kEwiseMul:
        step.op = EwiseOp::kMul;
        step.a = slot_of(m->inputs[0]);
        step.b = slot_of(m->inputs[1]);
        break;
      case OpKind::kMap:
        step.op = EwiseOp::kMap;
        step.a = slot_of(m->inputs[0]);
        step.map_fn = m->map_f;
        step.map_name = m->map_name;
        break;
      default:
        FUSEDML_CHECK(false, "planner: non-elementwise node in row epilogue");
    }
    value_slot.emplace(
        m, cand.program.num_inputs +
               static_cast<int>(cand.program.steps.size()));
    cand.program.steps.push_back(std::move(step));
  }
  FUSEDML_CHECK(cand.program.valid(),
                "planner built an invalid row program");
}

/// EXPLORE, family 1: Equation-1 / Table-1 matches (largest extent at each
/// root), filtered by the materialization-point analysis. Matches touching
/// `claimed` nodes are skipped silently; unsafe matches are counted in
/// `rejected` when it is non-null (first fixpoint iteration only, so the
/// count is not inflated by re-enumeration).
void explore_equation1(const NodePtr& root, const ConsumerMap& consumers,
                       CostOracle& oracle,
                       const std::unordered_set<const Node*>& claimed,
                       std::vector<Candidate>& out, int* rejected) {
  std::unordered_set<const Node*> visited;
  std::vector<NodePtr> stack = {root};
  while (!stack.empty()) {
    NodePtr n = stack.back();
    stack.pop_back();
    if (!n || !visited.insert(n.get()).second) continue;
    if (auto m = match_equation1(n)) {
      const bool overlaps_claimed =
          std::any_of(m->covered.begin(), m->covered.end(),
                      [&](const Node* c) { return claimed.count(c) != 0; });
      if (!overlaps_claimed) {
        if (fusion_is_materialization_safe(*m, n, consumers)) {
          Candidate cand;
          cand.family = Candidate::Family::kEq1;
          cand.kind = "equation1";
          cand.sink = n.get();
          cand.members = m->covered;
          for (const Node* c : m->covered) cand.before += oracle.node_cost(c);
          cand.fused_after =
              oracle.pattern_cost(oracle.matrix_info(m->X.get()));
          // Materialization safety guarantees no member is consumed outside
          // the match, so nothing is kept.
          std::ostringstream detail;
          detail << "alpha=" << m->alpha;
          if (m->z) detail << " beta=" << m->beta;
          if (!m->v) detail << " (no v)";
          cand.detail = detail.str();
          cand.match = std::move(*m);
          out.push_back(std::move(cand));
        } else if (rejected != nullptr) {
          ++*rejected;
        }
      }
    }
    for (const auto& in : n->inputs) stack.push_back(in);
    for (const auto& in :
         {n->fused_matrix, n->fused_v, n->fused_y, n->fused_z}) {
      if (in) stack.push_back(in);
    }
  }
}

/// EXPLORE, family 2: maximal elementwise regions. A region grows from a
/// sink by absorbing elementwise producers whose consumers all lie inside
/// the region; nodes absorbed into one region do not seed their own (the
/// fixpoint loop re-enumerates leftovers after selection).
void explore_ewise(const std::vector<const Node*>& topo,
                   const ConsumerMap& consumers, CostOracle& oracle,
                   const std::unordered_set<const Node*>& claimed,
                   std::vector<Candidate>& out) {
  std::unordered_set<const Node*> absorbed;
  // Consumers-first: a region's sink is the member closest to the root.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const Node* sink = *it;
    if (!is_ewise(sink) || claimed.count(sink) != 0 ||
        absorbed.count(sink) != 0) {
      continue;
    }
    std::unordered_set<const Node*> region = {sink};
    bool grew = true;
    while (grew) {
      grew = false;
      for (const Node* r :
           std::vector<const Node*>(region.begin(), region.end())) {
        for (const auto& in : r->inputs) {
          const Node* c = in.get();
          if (region.count(c) != 0 || claimed.count(c) != 0 ||
              !is_ewise(c)) {
            continue;
          }
          const auto cit = consumers.find(c);
          const bool internal =
              cit != consumers.end() &&
              std::all_of(cit->second.begin(), cit->second.end(),
                          [&](const Node* p) { return region.count(p); });
          if (internal) {
            region.insert(c);
            grew = true;
          }
        }
      }
    }
    if (region.size() < 2) continue;

    Candidate cand;
    cand.family = Candidate::Family::kEwise;
    cand.kind = "ewise_chain";
    cand.sink = sink;
    for (const Node* n : topo) {
      if (region.count(n) != 0) {
        cand.members.push_back(n);
        absorbed.insert(n);
      }
    }
    build_ewise_program(cand);
    for (const Node* m : cand.members) cand.before += oracle.node_cost(m);
    cand.fused_after =
        oracle.fused_ewise_cost(oracle.length(sink),
                                cand.program.num_inputs);
    cand.detail = cand.program.signature();
    out.push_back(std::move(cand));
  }
}

/// EXPLORE, family 3: the row template — a product (Mv over an input
/// matrix) whose value flows through a single-consumer elementwise chain.
/// The product itself may keep outside consumers (the CSE costing charges
/// for re-materializing it).
void explore_row(const std::vector<const Node*>& topo,
                 const ConsumerMap& consumers, CostOracle& oracle,
                 const std::unordered_set<const Node*>& claimed,
                 std::vector<Candidate>& out) {
  auto distinct_consumers = [&](const Node* n) {
    std::vector<const Node*> ds;
    const auto it = consumers.find(n);
    if (it == consumers.end()) return ds;
    for (const Node* p : it->second) {
      if (std::find(ds.begin(), ds.end(), p) == ds.end()) ds.push_back(p);
    }
    return ds;
  };

  for (const Node* n : topo) {
    if (n->kind != OpKind::kMv || claimed.count(n) != 0) continue;
    if (n->inputs[0]->kind != OpKind::kInputMatrix) continue;
    const index_t rows = oracle.length(n);

    std::vector<const Node*> chain = {n};
    std::unordered_set<const Node*> chain_set = {n};
    const Node* cur = n;
    while (true) {
      const auto ds = distinct_consumers(cur);
      // Mid-chain values live only in registers — they must have a single
      // consumer. The product may keep extra consumers (CSE materializes
      // it); the sink is materialized by the fused kernel anyway.
      if (cur != n && ds.size() != 1) break;
      const Node* next = nullptr;
      for (const Node* p : ds) {
        if (!is_ewise(p) || claimed.count(p) != 0 ||
            chain_set.count(p) != 0) {
          continue;
        }
        bool ok = true;
        for (const auto& in : p->inputs) {
          const Node* c = in.get();
          if (c == cur || c == n) continue;  // has a program slot
          if (chain_set.count(c) != 0 || claimed.count(c) != 0 ||
              oracle.length(c) != rows) {
            ok = false;
            break;
          }
        }
        if (ok) {
          next = p;
          break;
        }
      }
      if (next == nullptr) break;
      chain.push_back(next);
      chain_set.insert(next);
      cur = next;
    }
    if (chain.size() < 2) continue;

    Candidate cand;
    cand.family = Candidate::Family::kRow;
    cand.kind = "row_template";
    cand.sink = chain.back();
    cand.members = chain;
    cand.row_matrix = n->inputs[0];
    cand.row_y = n->inputs[1];
    build_row_program(cand);
    for (const Node* m : cand.members) cand.before += oracle.node_cost(m);
    cand.fused_after = oracle.fused_row_cost(
        oracle.matrix_info(cand.row_matrix.get()), cand.program.num_inputs);
    apply_cse(cand, consumers, oracle);
    cand.detail = cand.program.signature();
    out.push_back(std::move(cand));
  }
}

/// EXPLORE, family 4: the sparsity-exploiting sddmm template —
/// Mv(SparseMask(X, OuterMap(u, v, f)), z). The fused kernel evaluates
/// (X ⊙ f(u v^T)) * z only at nnz(X) and never materializes the m*n
/// outer map or the masked values.
void explore_sddmm(const std::vector<const Node*>& topo,
                   const ConsumerMap& consumers, CostOracle& oracle,
                   const std::unordered_set<const Node*>& claimed,
                   std::vector<Candidate>& out) {
  for (const Node* n : topo) {
    if (n->kind != OpKind::kMv || claimed.count(n) != 0) continue;
    if (n->inputs[0]->kind != OpKind::kSparseMask) continue;
    const Node* mask = n->inputs[0].get();
    if (mask->inputs[1]->kind != OpKind::kOuterMap) continue;
    const Node* om = mask->inputs[1].get();
    if (claimed.count(mask) != 0 || claimed.count(om) != 0) continue;

    Candidate cand;
    cand.family = Candidate::Family::kSddmm;
    cand.kind = "sddmm";
    cand.sink = n;
    cand.members = {om, mask, n};
    cand.sd_X = mask->inputs[0];
    cand.sd_u = om->inputs[0];
    cand.sd_v = om->inputs[1];
    cand.sd_z = n->inputs[1];
    cand.sd_f = om->map_f;
    cand.sd_fname = om->map_name;
    for (const Node* m : cand.members) cand.before += oracle.node_cost(m);
    cand.fused_after =
        oracle.fused_sddmm_cost(oracle.matrix_info(cand.sd_X.get()));
    apply_cse(cand, consumers, oracle);
    cand.detail = "f=" + cand.sd_fname;
    out.push_back(std::move(cand));
  }
}

/// SELECT, exact: maximum-benefit weighted set packing by DFS over the
/// benefit-sorted candidates with a suffix-sum upper bound. Include-first
/// ordering plus strict comparisons make ties deterministic (earlier /
/// higher-benefit candidates win).
std::vector<int> select_exact(const std::vector<Candidate>& cands,
                              const std::vector<std::vector<int>>& conflicts) {
  const int n = static_cast<int>(cands.size());
  std::vector<double> suffix(static_cast<std::size_t>(n) + 1, 0);
  for (int i = n - 1; i >= 0; --i) {
    suffix[i] = suffix[i + 1] + cands[i].benefit_ms();
  }
  std::vector<int> blocked(n, 0), cur, best;
  double cur_ben = 0, best_ben = -1;
  auto dfs = [&](auto&& self, int i) -> void {
    if (cur_ben + suffix[i] <= best_ben) return;
    if (i == n) {
      best = cur;
      best_ben = cur_ben;
      return;
    }
    if (blocked[i] == 0) {
      cur.push_back(i);
      cur_ben += cands[i].benefit_ms();
      for (int j : conflicts[i]) ++blocked[j];
      self(self, i + 1);
      for (int j : conflicts[i]) --blocked[j];
      cur.pop_back();
      cur_ben -= cands[i].benefit_ms();
    }
    self(self, i + 1);
  };
  dfs(dfs, 0);
  return best;
}

/// SELECT, greedy with one-step lookahead: scan in benefit order; before
/// taking a candidate, check whether two of its still-live conflicts could
/// jointly beat it — if so, skip it in their favor.
std::vector<int> select_greedy(const std::vector<Candidate>& cands,
                               const std::vector<std::vector<int>>& conflicts) {
  const int n = static_cast<int>(cands.size());
  std::vector<char> dead(n, 0);
  std::vector<int> picked;
  for (int t = 0; t < n; ++t) {
    if (dead[t] != 0) continue;
    const auto& cf = conflicts[t];
    double best_pair = -1;
    for (std::size_t a = 0; a < cf.size(); ++a) {
      if (dead[cf[a]] != 0) continue;
      for (std::size_t b = a + 1; b < cf.size(); ++b) {
        if (dead[cf[b]] != 0) continue;
        const auto& ca = conflicts[cf[a]];
        if (std::find(ca.begin(), ca.end(), cf[b]) != ca.end()) continue;
        best_pair = std::max(best_pair, cands[cf[a]].benefit_ms() +
                                            cands[cf[b]].benefit_ms());
      }
    }
    if (best_pair > cands[t].benefit_ms()) {
      dead[t] = 1;
      continue;
    }
    picked.push_back(t);
    for (int j : cf) dead[j] = 1;
  }
  return picked;
}

/// REWRITE: memoized clone-with-replacement — each selected candidate's
/// sink becomes its fused node, every other interior node is cloned fresh,
/// input leaves are shared. Kept members materialize naturally: their
/// outside consumers rebuild them as ordinary nodes.
class Rewriter {
 public:
  explicit Rewriter(
      const std::unordered_map<const Node*, const Candidate*>& chosen)
      : chosen_(chosen) {}

  NodePtr rebuild(const NodePtr& node) {
    if (!node) return nullptr;
    const auto it = memo_.find(node.get());
    if (it != memo_.end()) return it->second;

    NodePtr out;
    if (const auto cit = chosen_.find(node.get()); cit != chosen_.end()) {
      const Candidate& cand = *cit->second;
      out = std::make_shared<Node>();
      switch (cand.family) {
        case Candidate::Family::kEq1: {
          const Equation1Match& m = cand.match;
          out->kind = OpKind::kFusedPattern;
          out->scalar = m.alpha;
          out->scalar2 = m.beta;
          out->fused_matrix = rebuild(m.X);
          out->fused_v = rebuild(m.v);
          out->fused_y = rebuild(m.y);
          out->fused_z = rebuild(m.z);
          break;
        }
        case Candidate::Family::kEwise:
          out->kind = OpKind::kFusedEwise;
          out->program = cand.program;
          out->inputs.reserve(cand.ext_inputs.size());
          for (const auto& in : cand.ext_inputs) {
            out->inputs.push_back(rebuild(in));
          }
          break;
        case Candidate::Family::kRow:
          out->kind = OpKind::kFusedRow;
          out->program = cand.program;
          out->fused_matrix = rebuild(cand.row_matrix);
          out->fused_y = rebuild(cand.row_y);
          out->inputs.reserve(cand.ext_inputs.size());
          for (const auto& in : cand.ext_inputs) {
            out->inputs.push_back(rebuild(in));
          }
          break;
        case Candidate::Family::kSddmm:
          out->kind = OpKind::kFusedSddmm;
          out->fused_matrix = rebuild(cand.sd_X);
          out->fused_v = rebuild(cand.sd_u);
          out->fused_y = rebuild(cand.sd_v);
          out->fused_z = rebuild(cand.sd_z);
          out->map_f = cand.sd_f;
          out->map_name = cand.sd_fname;
          break;
      }
    } else if (node->kind == OpKind::kInputMatrix ||
               node->kind == OpKind::kInputVector) {
      out = node;  // leaves carry no rewritable structure — share them
    } else {
      out = std::make_shared<Node>(*node);
      for (auto& in : out->inputs) in = rebuild(in);
      out->fused_matrix = rebuild(out->fused_matrix);
      out->fused_v = rebuild(out->fused_v);
      out->fused_y = rebuild(out->fused_y);
      out->fused_z = rebuild(out->fused_z);
    }
    memo_.emplace(node.get(), out);
    return out;
  }

 private:
  const std::unordered_map<const Node*, const Candidate*>& chosen_;
  std::unordered_map<const Node*, NodePtr> memo_;
};

}  // namespace

std::string FusionPlan::explain() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4);
  os << "fusion plan: " << groups.size() << " group(s)";
  if (rejected_multi_consumer > 0) {
    os << ", " << rejected_multi_consumer
       << " match(es) rejected (multi-consumer intermediate)";
  }
  os << "\n";
  int i = 0;
  for (const auto& g : groups) {
    os << "  [" << ++i << "] " << g.kind << " {" << g.detail << "} covers "
       << g.nodes_covered << " node(s); launches " << g.launches_before
       << " -> " << g.launches_after << "; modeled " << g.modeled_before_ms
       << " ms -> " << g.modeled_after_ms << " ms\n";
  }
  os << "  explored " << candidates_enumerated << " candidate(s) ("
     << (selection_exact ? "exact" : "greedy") << " selection); "
     << candidates_lost << " lost selection\n";
  for (const auto& l : losers) {
    os << "  lost: " << l.kind << " {" << l.detail << "} forgone "
       << l.forgone_benefit_ms << " ms\n";
  }
  os << "  totals: launches " << launches_unfused << " -> "
     << launches_planned << ", modeled " << modeled_unfused_ms << " ms -> "
     << modeled_planned_ms << " ms";
  return os.str();
}

PlannerOptions equation1_only() {
  PlannerOptions opts;
  opts.enable_ewise_fusion = false;
  opts.enable_row_fusion = false;
  opts.enable_sddmm_fusion = false;
  return opts;
}

FusionPlan plan_fusion(Runtime& rt, const NodePtr& root,
                       const PlannerOptions& opts) {
  FusionPlan plan;
  CostOracle oracle(rt);

  const auto cost_before = oracle.dag_cost(root);
  plan.launches_unfused = cost_before.launches;
  plan.modeled_unfused_ms = cost_before.ms;

  const auto consumers = consumer_map(root);
  const auto topo = topo_order(root);

  // Fixpoint: explore all families over the unclaimed DAG, select the best
  // compatible set, claim it, repeat — a second round picks up sub-regions
  // left behind when a larger overlapping candidate lost selection.
  std::vector<Candidate> chosen;
  std::unordered_set<const Node*> claimed;
  std::map<std::pair<const Node*, int>, LostCandidate> loser_map;
  bool first = true;
  while (true) {
    std::vector<Candidate> cands;
    if (opts.enable_pattern_fusion) {
      explore_equation1(root, consumers, oracle, claimed, cands,
                        first ? &plan.rejected_multi_consumer : nullptr);
    }
    if (opts.enable_ewise_fusion) {
      explore_ewise(topo, consumers, oracle, claimed, cands);
    }
    if (opts.enable_row_fusion) {
      explore_row(topo, consumers, oracle, claimed, cands);
    }
    if (opts.enable_sddmm_fusion) {
      explore_sddmm(topo, consumers, oracle, claimed, cands);
    }
    first = false;
    plan.candidates_enumerated += static_cast<int>(cands.size());

    std::vector<Candidate> viable;
    for (auto& c : cands) {
      if (c.after().launches >= c.before.launches) continue;
      if (c.benefit_ms() < opts.min_benefit_ms) continue;
      viable.push_back(std::move(c));
    }
    if (viable.empty()) break;

    // Benefit order; ties keep enumeration order (equation1 first).
    std::stable_sort(viable.begin(), viable.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.benefit_ms() > b.benefit_ms();
                     });

    std::vector<std::unordered_set<const Node*>> member_sets;
    member_sets.reserve(viable.size());
    for (const auto& c : viable) {
      member_sets.emplace_back(c.members.begin(), c.members.end());
    }
    std::vector<std::vector<int>> conflicts(viable.size());
    for (std::size_t a = 0; a < viable.size(); ++a) {
      for (std::size_t b = a + 1; b < viable.size(); ++b) {
        const auto& small =
            member_sets[a].size() <= member_sets[b].size() ? member_sets[a]
                                                           : member_sets[b];
        const auto& large =
            member_sets[a].size() <= member_sets[b].size() ? member_sets[b]
                                                           : member_sets[a];
        const bool overlap =
            std::any_of(small.begin(), small.end(), [&](const Node* m) {
              return large.count(m) != 0;
            });
        if (overlap) {
          conflicts[a].push_back(static_cast<int>(b));
          conflicts[b].push_back(static_cast<int>(a));
        }
      }
    }

    const bool exact =
        static_cast<int>(viable.size()) <= opts.candidate_budget;
    if (!exact) plan.selection_exact = false;
    const auto picked = exact ? select_exact(viable, conflicts)
                              : select_greedy(viable, conflicts);
    if (picked.empty()) break;

    std::vector<char> is_picked(viable.size(), 0);
    for (int i : picked) is_picked[static_cast<std::size_t>(i)] = 1;
    for (std::size_t i = 0; i < viable.size(); ++i) {
      const auto key = std::make_pair(
          viable[i].sink, static_cast<int>(viable[i].family));
      if (is_picked[i] != 0) {
        loser_map.erase(key);
        for (const Node* m : viable[i].members) claimed.insert(m);
        chosen.push_back(std::move(viable[i]));
      } else {
        loser_map[key] = LostCandidate{viable[i].kind, viable[i].detail,
                                       viable[i].benefit_ms()};
      }
    }
  }

  for (const auto& cand : chosen) {
    PlannedGroup g;
    g.kind = cand.kind;
    g.detail = cand.detail;
    g.nodes_covered = static_cast<int>(cand.members.size());
    g.launches_before = cand.before.launches;
    g.launches_after = cand.after().launches;
    g.modeled_before_ms = cand.before.ms;
    g.modeled_after_ms = cand.after().ms;
    plan.groups.push_back(std::move(g));
  }

  plan.candidates_lost = static_cast<int>(loser_map.size());
  for (auto& [key, lost] : loser_map) plan.losers.push_back(std::move(lost));
  std::stable_sort(plan.losers.begin(), plan.losers.end(),
                   [](const LostCandidate& a, const LostCandidate& b) {
                     return a.forgone_benefit_ms > b.forgone_benefit_ms;
                   });
  if (plan.losers.size() > 3) plan.losers.resize(3);

  std::unordered_map<const Node*, const Candidate*> chosen_by_sink;
  for (const auto& cand : chosen) chosen_by_sink.emplace(cand.sink, &cand);
  Rewriter rewriter(chosen_by_sink);
  plan.root = rewriter.rebuild(root);

  const auto cost_after = oracle.dag_cost(plan.root);
  plan.launches_planned = cost_after.launches;
  plan.modeled_planned_ms = cost_after.ms;
  return plan;
}

}  // namespace fusedml::sysml
