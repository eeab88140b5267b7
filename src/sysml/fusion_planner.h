// Cost-based fusion planner — a three-stage explore/select/rewrite pipeline
// over the operator DAG, the way a declarative ML compiler picks fused
// operators.
//
//   1. EXPLORE walks the whole DAG once per template family and emits
//      OVERLAPPING FusionCandidate sets — the same node may appear in an
//      Equation-1 candidate, a row-template candidate, and an elementwise
//      region at the same time. Four families are registered:
//        - equation1: match_equation1 + Table-1 degenerations, filtered by
//          the materialization-point analysis;
//        - ewise_chain: maximal elementwise regions (kScale/kAdd/kEwiseMul/
//          kMap with region-internal interiors) collapsed into ONE generated
//          streaming kernel;
//        - row_template: a product (Mv over CSR or dense X) whose value
//          feeds a single-consumer elementwise epilogue — product + epilogue
//          in one launch (kernels/fused_row.h);
//        - sddmm: Mv(SparseMask(X, OuterMap(u, v, f)), z) — the
//          sparsity-exploiting rewrite that evaluates (X ⊙ f(u v^T)) * z
//          only at nnz(X) and never materializes the m*n outer map.
//   2. SELECT resolves overlaps with CSE-aware cost-based search. Every
//      candidate's benefit accounts for members that must stay materialized
//      because of consumers OUTSIDE the candidate (plus, transitively, the
//      member inputs those kept nodes need). Selection is EXACT maximum-
//      benefit weighted set packing (DFS with upper-bound pruning) while the
//      candidate count is within PlannerOptions::candidate_budget; larger
//      sets use benefit-ordered greedy with one-step lookahead. Candidates
//      that passed the filters but lost selection are reported in the plan.
//   3. REWRITE produces a FRESH DAG (the input is never mutated, so one
//      Runtime can execute both and compare) with each selected candidate
//      collapsed to its fused node, then re-costs the result.
//
// Every candidate is scored with the vgpu cost model (kernel launches at
// launch_overhead_us each, DRAM traffic at the device's effective
// bandwidth) from one per-OpKind table of launches, matrix passes and
// vector words. A candidate carries the fused node that would replace it,
// and exploration costs that node with the same node cost the whole-DAG
// totals use on the rewritten DAG.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sysml/dag.h"
#include "sysml/runtime.h"

namespace fusedml::sysml {

// PlannerOptions lives in sysml/runtime.h (the Runtime carries a copy so
// Program::prepare can plan with session-level knobs).

/// One chosen fusion group in the plan.
struct PlannedGroup {
  std::string kind;    ///< "equation1", "ewise_chain", "row_template", "sddmm"
  std::string detail;  ///< alpha/beta summary or the program signature
  int nodes_covered = 0;
  std::uint64_t launches_before = 0;
  std::uint64_t launches_after = 0;
  double modeled_before_ms = 0;
  double modeled_after_ms = 0;

  double benefit_ms() const { return modeled_before_ms - modeled_after_ms; }
};

/// A candidate that passed the profitability filters but lost the overlap
/// resolution to a better combination.
struct LostCandidate {
  std::string kind;
  std::string detail;
  double forgone_benefit_ms = 0;
};

struct FusionPlan {
  /// The rewritten DAG — fresh nodes; the planner never mutates its input.
  NodePtr root;
  std::vector<PlannedGroup> groups;

  /// Whole-DAG modeled totals (distinct reachable operator nodes).
  std::uint64_t launches_unfused = 0;
  std::uint64_t launches_planned = 0;
  double modeled_unfused_ms = 0;
  double modeled_planned_ms = 0;

  /// Equation-1 matches skipped by the materialization-point analysis.
  int rejected_multi_consumer = 0;

  /// Exploration bookkeeping: every candidate the template families emitted
  /// (before profitability filtering), and the ones that passed the filters
  /// but were not selected (top 3 by forgone benefit kept in `losers`).
  int candidates_enumerated = 0;
  int candidates_lost = 0;
  std::vector<LostCandidate> losers;

  /// True when the candidate count fit the budget and selection was exact
  /// (optimal weighted set packing); false = greedy with lookahead.
  bool selection_exact = true;

  /// Database-style plan text: one line per group plus the totals. Feed it
  /// to Runtime::note_plan() so Runtime::explain() shows plan + execution.
  std::string explain() const;
};

/// Plans fusion for the DAG rooted at `root`. `rt` supplies tensor shapes
/// (Runtime::tensor_info) and the device cost parameters; no ops execute.
FusionPlan plan_fusion(Runtime& rt, const NodePtr& root,
                       const PlannerOptions& opts = {});

/// The fixed options of PlanMode::kHardcodedPass: the planner restricted to
/// the Equation-1 family (ewise, row and sddmm off, default budget and
/// benefit threshold) — §4.4's "transparently selects our fused GPU kernel"
/// and nothing else. Independent of the --planner-* flags.
PlannerOptions equation1_only();

}  // namespace fusedml::sysml
