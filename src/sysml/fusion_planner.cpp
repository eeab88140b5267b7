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
#include "vgpu/cost_model.h"

namespace fusedml::sysml {

namespace {

using kernels::EwiseOp;
using kernels::EwiseProgram;
using kernels::EwiseStep;

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
    for_each_operand(*node, [&](const NodePtr& in) {
      if (!in) return;
      consumers[in.get()].push_back(node);
      stack.push_back(in.get());
    });
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

/// Cost shape of one op on the fused backend: kernel launches, streaming
/// passes over the matrix operand, and vector words moved per output
/// element. The generated kernels (kFusedEwise, kFusedRow) declare words
/// per program stream; node_cost multiplies by their stream count.
struct OpCost {
  std::uint64_t launches = 1;
  double matrix_passes = 0.0;
  double words_per_elem = 0.0;
};

/// The planner's per-op cost table, keyed by the op kinds the DAG, the
/// interpreter and the planner share. `sparse` selects the CSR-vs-dense
/// entry where the two differ.
OpCost op_cost(OpKind kind, bool sparse) {
  switch (kind) {
    case OpKind::kInputMatrix:
    case OpKind::kInputVector:
      return {0, 0.0, 0.0};  // free: node_cost returns before the formula
    case OpKind::kMv:   // y in, result out; a masked product also streams
    case OpKind::kMvT:  // its substituted values (node_cost adds them)
      return {1, 1.0, 2.0};
    case OpKind::kEwiseMul:
    case OpKind::kAdd:  // axpy: x in, y in, y out
      return {1, 0.0, 3.0};
    case OpKind::kScale:
    case OpKind::kMap:
    case OpKind::kOuterMap:  // the m*n outer-map values; u/v are tiny
      return {1, 0.0, 2.0};
    case OpKind::kSparseMask:  // matrix value in, outer-map gather, out
      return {1, 0.0, 3.0};
    case OpKind::kFusedPattern:
      // ONE launch, one product pass + one (mostly cached) transpose pass;
      // y in, v in, z in, w out.
      return {1, sparse ? 1.25 : 1.0, 4.0};
    case OpKind::kFusedEwise:  // per stream: inputs + the output
      return {1, 0.0, 1.0};
    case OpKind::kFusedRow:  // one matrix pass + per-stream words
      return {1, 1.0, 1.0};
    case OpKind::kFusedSddmm:  // one pass over nnz(X); u, v, z in, out
      return {1, 1.0, 4.0};
  }
  return {};
}

/// Shape + cost oracle over one DAG: leaf shapes come from the runtime's
/// tensor registry, device constants from the vgpu cost model, per-op
/// traffic shapes from op_cost.
class CostOracle {
 public:
  explicit CostOracle(Runtime& rt) : rt_(rt) {
    const auto& params = rt.device().cost_model().params();
    launch_ms_ = params.launch_overhead_us / 1000.0;
    effective_gbs_ =
        rt.device().spec().mem_bandwidth_gbs * params.dram_efficiency;
  }

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
        out = matrix_info(matrix_operand(n)).rows;
        break;
      case OpKind::kMvT:
      case OpKind::kFusedPattern:
        out = matrix_info(matrix_operand(n)).cols;
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
      case OpKind::kFusedRow:
      case OpKind::kFusedSddmm:
        out = matrix_info(matrix_operand(n)).rows;
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

  /// Modeled GPU cost of executing `n` as its own operator (leaves are
  /// free): launches * overhead + the op_cost traffic at effective
  /// bandwidth — matrix passes over the operand's bytes plus vector words.
  NodeCost node_cost(const Node* n) {
    if (n->kind == OpKind::kInputMatrix || n->kind == OpKind::kInputVector) {
      return {};
    }
    const Node* matrix = matrix_operand(n);
    const TensorInfo info = matrix != nullptr ? matrix_info(matrix)
                                              : TensorInfo{};
    const auto cost = [&](const OpCost& c, double mat_bytes, double words) {
      const double bytes = c.matrix_passes * mat_bytes + words * sizeof(real);
      return NodeCost{
          c.launches,
          static_cast<double>(c.launches) * launch_ms_ + bw_ms(bytes)};
    };
    const OpCost c = op_cost(n->kind, info.is_sparse);
    const auto elems = static_cast<double>(length(n));
    double words = c.words_per_elem * elems;
    if (n->kind == OpKind::kFusedEwise || n->kind == OpKind::kFusedRow) {
      words = c.words_per_elem *
              static_cast<double>(n->program.num_inputs + 1) * elems;
    } else if (n->kind == OpKind::kMv &&
               n->inputs[0]->kind == OpKind::kSparseMask) {
      words += static_cast<double>(length(n->inputs[0].get()));
    }
    NodeCost out = cost(c, static_cast<double>(info.bytes), words);
    if (n->kind == OpKind::kMvT && !info.is_sparse && n->scalar != real{1}) {
      // Dense X^T*y runs gemv_t and then a separate scal launch for alpha
      // (OpRegistry::transposed_product); the sparse kernel applies alpha
      // per term inside its single launch.
      const OpCost scal = op_cost(OpKind::kScale, false);
      out += cost(scal, 0.0, scal.words_per_elem * elems);
    }
    return out;
  }

  /// Cost of a candidate's prototype fused node. The oracle keeps every
  /// prototype alive until planning ends: len_ is keyed by address, so a
  /// freed prototype whose address a later node reused would hand that
  /// node a stale length.
  NodeCost prototype_cost(const NodePtr& fused) {
    prototypes_.push_back(fused);
    return node_cost(fused.get());
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
      for_each_operand(*n,
                       [&](const NodePtr& in) { stack.push_back(in.get()); });
    }
    return total;
  }

 private:
  Runtime& rt_;
  double launch_ms_ = 0;
  double effective_gbs_ = 1;
  std::unordered_map<const Node*, index_t> len_;
  std::vector<NodePtr> prototypes_;

  double bw_ms(double bytes) const { return bytes / (effective_gbs_ * 1e6); }

  /// The matrix leaf `n` streams, or null: a product's X (under a masked
  /// product, the mask's X) or a fused node's fused_matrix.
  static const Node* matrix_operand(const Node* n) {
    switch (n->kind) {
      case OpKind::kMv: {
        const Node* X = n->inputs[0].get();
        return X->kind == OpKind::kSparseMask ? X->inputs[0].get() : X;
      }
      case OpKind::kMvT:
        return n->inputs[0].get();
      case OpKind::kFusedPattern:
      case OpKind::kFusedRow:
      case OpKind::kFusedSddmm:
        return n->fused_matrix.get();
      default:
        return nullptr;
    }
  }
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
    for_each_operand(*n, [&](const NodePtr& in) {
      stack.push_back({in.get(), false});
    });
  }
  return order;
}

/// The plan-group kind of a fused node.
const char* group_kind(OpKind fused) {
  switch (fused) {
    case OpKind::kFusedPattern: return "equation1";
    case OpKind::kFusedEwise: return "ewise_chain";
    case OpKind::kFusedRow: return "row_template";
    case OpKind::kFusedSddmm: return "sddmm";
    default: return "?";
  }
}

/// One explored fusion opportunity — any template family. Candidates may
/// OVERLAP; the selection stage resolves overlaps by benefit.
struct Candidate {
  /// The fused node that replaces `sink`: its kind, scalars, program, map
  /// and operand slots, which point at the original DAG's nodes. Costing
  /// reads it through node_cost; the rewriter copies it.
  NodePtr fused;
  std::string detail;
  const Node* sink = nullptr;      ///< the node the fused node replaces
  std::vector<const Node*> members;  ///< producers first; sink last

  NodeCost before;       ///< members executed operator-at-a-time
  NodeCost fused_after;  ///< the single fused kernel
  NodeCost kept_cost;    ///< members re-materialized for outside consumers

  const char* kind() const { return group_kind(fused->kind); }
  NodeCost after() const {
    NodeCost out = fused_after;
    out += kept_cost;
    return out;
  }
  double benefit_ms() const { return before.ms - after().ms; }
};

/// A candidate replacing `sink` by `fused`, with its members' unfused cost
/// and the fused node's cost.
Candidate make_candidate(CostOracle& oracle, NodePtr fused, const Node* sink,
                         std::vector<const Node*> members) {
  Candidate cand;
  cand.fused = std::move(fused);
  cand.sink = sink;
  cand.members = std::move(members);
  for (const Node* m : cand.members) cand.before += oracle.node_cost(m);
  cand.fused_after = oracle.prototype_cost(cand.fused);
  return cand;
}

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

/// Builds the elementwise program of `members` (producers first) into
/// `fused`. The first `first_step` members are values the kernel computes
/// itself and take slots 0.. (the row family's product: first_step = 1);
/// inputs from outside the members take the next slots, in first-use
/// order, and become fused->inputs; the remaining members become the steps.
void build_program(Node& fused, const std::vector<const Node*>& members,
                   std::size_t first_step) {
  const std::unordered_set<const Node*> member_set(members.begin(),
                                                   members.end());
  std::unordered_map<const Node*, int> slot;
  for (std::size_t i = 0; i < first_step; ++i) {
    slot.emplace(members[i], static_cast<int>(i));
  }
  std::unordered_map<const Node*, int> ext_slot;
  for (std::size_t i = first_step; i < members.size(); ++i) {
    for (const auto& in : members[i]->inputs) {
      if (member_set.count(in.get()) != 0) continue;
      const int next = static_cast<int>(first_step + fused.inputs.size());
      if (ext_slot.emplace(in.get(), next).second) fused.inputs.push_back(in);
    }
  }
  EwiseProgram& program = fused.program;
  program.num_inputs = static_cast<int>(first_step + fused.inputs.size());

  auto slot_of = [&](const NodePtr& in) {
    const auto it = slot.find(in.get());
    if (it != slot.end()) return it->second;
    return ext_slot.at(in.get());
  };
  for (std::size_t i = first_step; i < members.size(); ++i) {
    const Node* m = members[i];
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
        FUSEDML_CHECK(false, "planner: non-elementwise node in a program");
    }
    slot.emplace(m, program.num_inputs +
                        static_cast<int>(program.steps.size()));
    program.steps.push_back(std::move(step));
  }
  FUSEDML_CHECK(program.valid(), "planner built an invalid program");
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
          auto fused = std::make_shared<Node>();
          fused->kind = OpKind::kFusedPattern;
          fused->scalar = m->alpha;
          fused->scalar2 = m->beta;
          fused->fused_matrix = m->X;
          fused->fused_v = m->v;
          fused->fused_y = m->y;
          fused->fused_z = m->z;
          // Materialization safety guarantees no member is consumed outside
          // the match, so nothing is kept.
          Candidate cand =
              make_candidate(oracle, std::move(fused), n.get(), m->covered);
          std::ostringstream detail;
          detail << "alpha=" << m->alpha;
          if (m->z) detail << " beta=" << m->beta;
          if (!m->v) detail << " (no v)";
          cand.detail = detail.str();
          out.push_back(std::move(cand));
        } else if (rejected != nullptr) {
          ++*rejected;
        }
      }
    }
    for_each_operand(*n, [&](const NodePtr& in) { stack.push_back(in); });
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

    std::vector<const Node*> members;
    for (const Node* n : topo) {
      if (region.count(n) != 0) {
        members.push_back(n);
        absorbed.insert(n);
      }
    }
    auto fused = std::make_shared<Node>();
    fused->kind = OpKind::kFusedEwise;
    build_program(*fused, members, 0);
    Candidate cand =
        make_candidate(oracle, std::move(fused), sink, std::move(members));
    cand.detail = cand.fused->program.signature();
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

    auto fused = std::make_shared<Node>();
    fused->kind = OpKind::kFusedRow;
    fused->fused_matrix = n->inputs[0];
    fused->fused_y = n->inputs[1];
    build_program(*fused, chain, 1);
    const Node* sink = chain.back();
    Candidate cand =
        make_candidate(oracle, std::move(fused), sink, std::move(chain));
    apply_cse(cand, consumers, oracle);
    cand.detail = cand.fused->program.signature();
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

    auto fused = std::make_shared<Node>();
    fused->kind = OpKind::kFusedSddmm;
    fused->fused_matrix = mask->inputs[0];
    fused->fused_v = om->inputs[0];
    fused->fused_y = om->inputs[1];
    fused->fused_z = n->inputs[1];
    fused->map_f = om->map_f;
    fused->map_name = om->map_name;
    Candidate cand =
        make_candidate(oracle, std::move(fused), n, {om, mask, n});
    apply_cse(cand, consumers, oracle);
    cand.detail = "f=" + om->map_name;
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
/// sink becomes a copy of its fused node, every other interior node is
/// cloned fresh, input leaves are shared; copies and clones rebuild their
/// operand slots the same way. Kept members materialize naturally: their
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
      out = std::make_shared<Node>(*cit->second->fused);
    } else if (node->kind == OpKind::kInputMatrix ||
               node->kind == OpKind::kInputVector) {
      out = node;  // leaves carry no rewritable structure — share them
    } else {
      out = std::make_shared<Node>(*node);
    }
    if (out != node) {
      for_each_operand(*out, [&](NodePtr& in) { in = rebuild(in); });
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
  std::map<std::pair<const Node*, OpKind>, LostCandidate> loser_map;
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
      const auto key = std::make_pair(viable[i].sink, viable[i].fused->kind);
      if (is_picked[i] != 0) {
        loser_map.erase(key);
        for (const Node* m : viable[i].members) claimed.insert(m);
        chosen.push_back(std::move(viable[i]));
      } else {
        loser_map[key] = LostCandidate{viable[i].kind(), viable[i].detail,
                                       viable[i].benefit_ms()};
      }
    }
  }

  for (const auto& cand : chosen) {
    PlannedGroup g;
    g.kind = cand.kind();
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
