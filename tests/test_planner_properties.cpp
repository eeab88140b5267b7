// Seeded random-DAG property suite for the explore/select/rewrite fusion
// planner. Each seed builds a random operator DAG from the bit-preserving
// vocabulary (mv / ewise chains / maps / the sddmm chain — no mvt, so no
// Equation-1 site and no reassociating kernel can be selected) and asserts
// the planner's core contracts:
//   - the planned DAG is BIT-EXACT vs the unfused interpretation;
//   - the planner's launch prediction matches what the interpreter runs
//     (zero plan-vs-actual drift);
//   - fusion never increases launches or modeled time;
//   - planning is deterministic for a fixed DAG and fixed options;
//   - exact overlap resolution (within candidate_budget) never loses to
//     the greedy fallback, and a fixed oracle DAG shows it strictly
//     winning — the case greedy's one-step lookahead cannot see.
// PlannerGolden freezes every number the planner reports over the library
// scripts' DAGs and these seeds (see its own comment below).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "la/convert.h"
#include "la/generate.h"
#include "ml/script_library.h"
#include "sysml/dag.h"
#include "sysml/fusion_planner.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"

namespace fusedml {
namespace {

using sysml::NodePtr;

sysml::RuntimeOptions forced_gpu() {
  return {.enable_gpu = true, .gpu_cost_bias = 1e-4};
}

real square_map(real x) { return x * x; }
real identity_map(real x) { return x; }

/// Random DAG over one CSR leaf: a pool of row-space (length m) and
/// column-space (length n) vector values grown by random ops. Every planner
/// family except Equation-1 can arise; all of them are bit-preserving.
NodePtr random_dag(sysml::Runtime& rt, const la::CsrMatrix& X,
                   sysml::TensorId Xid, Rng& rng) {
  const auto m = static_cast<usize>(X.rows());
  const auto n = static_cast<usize>(X.cols());
  std::vector<NodePtr> rows, cols;
  for (int i = 0; i < 2; ++i) {
    rows.push_back(sysml::input_vector(
        rt.add_vector(la::random_vector(m, rng.next_u64()), "rm")));
    cols.push_back(sysml::input_vector(
        rt.add_vector(la::random_vector(n, rng.next_u64()), "cn")));
  }
  const auto pick = [&](std::vector<NodePtr>& pool) {
    return pool[static_cast<usize>(rng.uniform_index(pool.size()))];
  };
  const int ops = 8 + static_cast<int>(rng.uniform_index(8));
  for (int i = 0; i < ops; ++i) {
    auto& pool = rng.uniform_index(2) == 0 ? rows : cols;
    switch (rng.uniform_index(6)) {
      case 0:
        pool.push_back(sysml::scale(rng.uniform(0.5, 2.0), pick(pool)));
        break;
      case 1:
        pool.push_back(sysml::add(pick(pool), pick(pool)));
        break;
      case 2:
        pool.push_back(sysml::ewise_mul(pick(pool), pick(pool)));
        break;
      case 3:
        pool.push_back(sysml::map(pick(pool), square_map, "sq"));
        break;
      case 4:
        rows.push_back(sysml::mv(sysml::input_matrix(Xid), pick(cols)));
        break;
      case 5:
        // The sddmm chain: (X ⊙ f(u v^T)) * z evaluated at X's nonzeros.
        rows.push_back(sysml::mv(
            sysml::sparse_mask(sysml::input_matrix(Xid),
                               sysml::outer_map(pick(rows), pick(cols),
                                                identity_map, "id")),
            pick(cols)));
        break;
    }
  }
  // Fold every row-space value into one root so all of them are reachable.
  NodePtr root = rows.front();
  for (usize i = 1; i < rows.size(); ++i) root = sysml::add(root, rows[i]);
  return root;
}

std::vector<real> run_root(sysml::Runtime& rt, const NodePtr& root,
                           std::uint64_t* launches = nullptr) {
  const auto before = rt.stats().kernel_launches;
  const auto view = rt.read_vector(sysml::execute(rt, root));
  if (launches != nullptr) {
    *launches = rt.stats().kernel_launches - before;
  }
  return {view.begin(), view.end()};
}

TEST(PlannerProperties, RandomDagsBitExactDriftFreeDeterministic) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    vgpu::Device dev;
    sysml::Runtime rt(dev, forced_gpu());
    const auto X = la::uniform_sparse(120, 40, 0.15, 7000 + seed);
    const auto Xid = rt.add_sparse(X, "X");
    Rng rng(seed);
    const NodePtr root = random_dag(rt, X, Xid, rng);

    std::uint64_t unfused_launches = 0;
    const auto unfused = run_root(rt, root, &unfused_launches);

    const sysml::PlannerOptions po;
    const auto plan = sysml::plan_fusion(rt, root, po);
    const auto plan2 = sysml::plan_fusion(rt, root, po);
    // Deterministic: planning the same DAG twice yields the same plan.
    EXPECT_EQ(plan.explain(), plan2.explain()) << "seed " << seed;

    // The cost model's view of the unfused DAG matches the interpreter.
    EXPECT_EQ(plan.launches_unfused, unfused_launches) << "seed " << seed;
    // Fusion never costs launches or modeled time.
    EXPECT_LE(plan.launches_planned, plan.launches_unfused)
        << "seed " << seed;
    EXPECT_LE(plan.modeled_planned_ms,
              plan.modeled_unfused_ms * (1.0 + 1e-9))
        << "seed " << seed;

    // Zero plan-vs-actual drift AND bit-exactness of the rewritten DAG.
    std::uint64_t planned_launches = 0;
    const auto planned = run_root(rt, plan.root, &planned_launches);
    EXPECT_EQ(planned_launches, plan.launches_planned) << "seed " << seed;
    EXPECT_EQ(unfused, planned) << "seed " << seed;
  }
}

TEST(PlannerProperties, BudgetSelectsExactAndGreedyNeverBeatsExact) {
  int greedy_plans_with_groups = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    vgpu::Device dev;
    sysml::Runtime rt(dev, forced_gpu());
    const auto X = la::uniform_sparse(120, 40, 0.15, 7100 + seed);
    const auto Xid = rt.add_sparse(X, "X");
    Rng rng(seed);
    const NodePtr root = random_dag(rt, X, Xid, rng);

    sysml::PlannerOptions exact_po;
    exact_po.candidate_budget = 1 << 20;  // everything fits: exact
    sysml::PlannerOptions greedy_po;
    greedy_po.candidate_budget = 0;  // nothing fits: always greedy

    const auto exact = sysml::plan_fusion(rt, root, exact_po);
    const auto greedy = sysml::plan_fusion(rt, root, greedy_po);

    // The budget knob is respected in both directions.
    EXPECT_TRUE(exact.selection_exact) << "seed " << seed;
    if (!greedy.groups.empty()) {
      EXPECT_FALSE(greedy.selection_exact) << "seed " << seed;
      ++greedy_plans_with_groups;
    }
    // Optimal set packing can never be worse than the greedy fallback.
    EXPECT_LE(exact.modeled_planned_ms,
              greedy.modeled_planned_ms * (1.0 + 1e-9))
        << "seed " << seed;
    EXPECT_LE(exact.launches_planned, greedy.launches_planned)
        << "seed " << seed;

    // Both still bit-exact vs unfused, whatever they selected.
    const auto unfused = run_root(rt, root);
    EXPECT_EQ(unfused, run_root(rt, exact.root)) << "seed " << seed;
    EXPECT_EQ(unfused, run_root(rt, greedy.root)) << "seed " << seed;
  }
  // The sweep must actually have exercised the greedy path.
  EXPECT_GT(greedy_plans_with_groups, 0);
}

// The fixed-DAG oracle: the Equation-1 matcher emits nested candidates at
// three extents of the same site (bare mvt / +scale / +add), the glue ops
// also sit inside an elementwise region, and two row templates overlap the
// rest. Greedy's one-step pair lookahead cascades: it kills the full-extent
// equation1 candidate because {bare-extent, ewise-region} jointly beat it,
// then kills the ewise region because {mid-extent, row} beat THAT, and
// settles for the mid extent — leaving the add glue as its own launch.
// Exact weighted set packing keeps the full extent, so the exact plan is
// strictly cheaper in modeled time AND in planned launches.
TEST(PlannerProperties, ExactSelectionBeatsGreedyOnOverlapOracle) {
  vgpu::Device dev;
  sysml::Runtime rt(dev, forced_gpu());
  // m*density ~ 2 nonzeros per column keeps the matrix pass ~3 column
  // streams, which puts the candidate benefits in the order the cascade
  // needs (full > region > mid > row' > bare > row).
  const auto X = la::uniform_sparse(2000, 8000, 0.001, 7311);
  const auto Z = la::uniform_sparse(8000, 16, 0.05, 7313);
  const auto Xid = rt.add_sparse(X, "X");
  const auto Zid = rt.add_sparse(Z, "Z");

  const auto Xn = sysml::input_matrix(Xid);
  const auto y = sysml::input_vector(
      rt.add_vector(la::random_vector(8000, 1), "y"));
  const auto v = sysml::input_vector(
      rt.add_vector(la::random_vector(2000, 2), "v"));
  const auto z = sysml::input_vector(
      rt.add_vector(la::random_vector(8000, 3), "z"));
  const auto u = sysml::input_vector(
      rt.add_vector(la::random_vector(16, 4), "u"));

  // Equation-1 site with scale+add glue: a = 2 * X^T (v ⊙ X y) + z.
  // Candidates at three extents: {mv,mul,mvt}, +scale, +scale+add.
  const auto p = sysml::mv(Xn, y);
  const auto mu = sysml::ewise_mul(v, p);
  const auto q = sysml::mvt(Xn, mu);
  const auto s = sysml::scale(2.0, q);
  const auto a = sysml::add(s, z);

  // Second branch: a row template over Z whose chain absorbs the merge,
  // so it overlaps the ewise region {s, a, d1, root} on {d1, root}.
  const auto p2 = sysml::mv(sysml::input_matrix(Zid), u);
  const auto d1 = sysml::map(p2, square_map, "sq");
  const auto root = sysml::add(a, d1);

  sysml::PlannerOptions exact_po;
  sysml::PlannerOptions greedy_po;
  greedy_po.candidate_budget = 0;

  const auto exact = sysml::plan_fusion(rt, root, exact_po);
  const auto greedy = sysml::plan_fusion(rt, root, greedy_po);
  ASSERT_TRUE(exact.selection_exact);
  ASSERT_FALSE(greedy.selection_exact);

  EXPECT_LT(exact.modeled_planned_ms, greedy.modeled_planned_ms)
      << "exact:\n" << exact.explain() << "greedy:\n" << greedy.explain();
  EXPECT_LT(exact.launches_planned, greedy.launches_planned);

  // Both plans fuse an Equation-1 extent (which reassociates the scale),
  // so the comparison vs unfused is numeric, not bitwise — but both must
  // still run with exactly the launches their plan predicted.
  const auto unfused = run_root(rt, root);
  real scale_ref = 0;
  for (const real x : unfused) scale_ref = std::max(scale_ref, std::abs(x));
  for (const auto* plan : {&exact, &greedy}) {
    std::uint64_t launches = 0;
    const auto planned = run_root(rt, plan->root, &launches);
    EXPECT_EQ(launches, plan->launches_planned) << plan->explain();
    ASSERT_EQ(planned.size(), unfused.size());
    real diff = 0;
    for (usize i = 0; i < unfused.size(); ++i) {
      diff = std::max(diff, std::abs(planned[i] - unfused[i]));
    }
    EXPECT_LE(diff, 1e-9 * (1.0 + scale_ref)) << plan->explain();
  }
}

// --- The frozen plan costs ---------------------------------------------------
//
// PlannerGolden.CostsAreFrozen plans the DAG of every planner and
// hardcoded-pass library script (the expressions of ml/script_library.cpp,
// rebuilt here over leaves of the same shapes) on both storages of a
// 300x150 KDD-like and a 500x28 HIGGS-like matrix, plus the 24 random DAGs
// above on CSR and on the dense copy of the same matrix. Every plan's
// launch and modeled-ms totals, candidate counts, groups and losers are
// printed with %a and must match tests/golden/plans.golden line for line.
// To move a number on purpose, regenerate the file in the same diff and
// explain the move: run
//
//   ./build/tests/test_planner_properties --gtest_filter='PlannerGolden.*'
//
// with FUSEDML_GOLDEN_OUT=/tmp/plans.golden in the environment, then copy
// /tmp/plans.golden over tests/golden/plans.golden.

void append_plan(std::vector<std::string>& lines, const std::string& name,
                 const sysml::FusionPlan& plan) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s | launches %llu -> %llu, modeled %a -> %a, "
                "enumerated %d, lost %d",
                name.c_str(),
                static_cast<unsigned long long>(plan.launches_unfused),
                static_cast<unsigned long long>(plan.launches_planned),
                plan.modeled_unfused_ms, plan.modeled_planned_ms,
                plan.candidates_enumerated, plan.candidates_lost);
  lines.emplace_back(buf);
  for (const auto& g : plan.groups) {
    std::snprintf(buf, sizeof buf, "%s | group %s {%s}: %llu %a -> %llu %a",
                  name.c_str(), g.kind.c_str(), g.detail.c_str(),
                  static_cast<unsigned long long>(g.launches_before),
                  g.modeled_before_ms,
                  static_cast<unsigned long long>(g.launches_after),
                  g.modeled_after_ms);
    lines.emplace_back(buf);
  }
  for (const auto& l : plan.losers) {
    std::snprintf(buf, sizeof buf, "%s | lost %s {%s}: forgone %a",
                  name.c_str(), l.kind.c_str(), l.detail.c_str(),
                  l.forgone_benefit_ms);
    lines.emplace_back(buf);
  }
}

/// The matrix leaves one storage of one shape offers the scripts: X, its
/// transpose (ALS's Rt / Mt) and a square matrix (PageRank's Pt).
struct ScriptLeaves {
  sysml::TensorId X = 0, Xt = 0, S = 0;
  usize m = 0, n = 0, k = 0;
};

/// (script/output, root) for every output of every library script's
/// programs, built as ml/script_library.cpp builds them.
std::vector<std::pair<std::string, NodePtr>> script_dags(
    sysml::Runtime& rt, const ScriptLeaves& L) {
  using namespace sysml;
  const auto vec = [&](usize n) { return input_vector(rt.new_vector(n, "v")); };
  const auto X = [&] { return input_matrix(L.X); };
  real (*const sigmoid)(real) = ml::stable_sigmoid;
  real (*const inv_link)(real) = ml::glm_inverse_link(ml::GlmFamily::kPoisson);
  real (*const var_weight)(real) =
      ml::glm_variance_weight(ml::GlmFamily::kPoisson);
  std::vector<std::pair<std::string, NodePtr>> out;

  {  // lr-cg
    const auto V = X();
    const auto p = vec(L.n);
    out.emplace_back("lr-cg q", add(mvt(V, mv(V, p)), scale(0.001, p)));
  }
  // logreg-gd and minibatch-logreg share the gradient expression.
  for (const char* name : {"logreg-gd g", "minibatch-logreg g"}) {
    const auto Xe = X();
    const auto w = vec(L.n);
    const auto ny = vec(L.m);
    const auto margins = map(ewise_mul(ny, mv(Xe, w)), sigmoid, "sigmoid");
    out.emplace_back(name, add(mvt(Xe, ewise_mul(margins, ny)),
                               scale(0.01, w)));
  }
  {  // glm
    const auto eta = vec(L.m);
    out.emplace_back("glm wdiag",
                     map(map(eta, inv_link, "inv_link"), var_weight,
                         "variance"));
    out.emplace_back("glm resid", add(map(eta, inv_link, "inv_link"),
                                      scale(real{-1}, vec(L.m))));
    out.emplace_back("glm grad",
                     add(mvt(X(), vec(L.m)), scale(1e-6, vec(L.n))));
    const auto p = vec(L.n);
    out.emplace_back("glm Fp",
                     pattern_expression(real{1}, X(), vec(L.m), p, 1e-6, p));
    out.emplace_back("glm eta", mv(X(), vec(L.n)));
  }
  {  // svm: the gradient's 2C rides inside the transposed product
    out.emplace_back("svm grad",
                     add(mvt(X(), vec(L.m), real{2}), vec(L.n)));
    const auto p = vec(L.n);
    out.emplace_back("svm Hp",
                     pattern_expression(real{2}, X(), nullptr, p, real{1}, p));
    out.emplace_back("svm margins", mv(X(), vec(L.n)));
  }
  {  // hits
    const auto Xr = X();
    const auto a = vec(L.n);
    out.emplace_back("hits a_next", mvt(Xr, mv(Xr, a)));
    out.emplace_back("hits h", mv(X(), vec(L.n)));
  }
  {  // als: both half-steps' Hessian products and right-hand sides
    const auto p = vec(L.m);
    const auto v = vec(L.n);
    out.emplace_back(
        "als Hp(u)",
        add(mv(sparse_mask(X(), outer_map(p, v, identity_map, "id")), v),
            scale(0.1, p)));
    const auto q = vec(L.n);
    const auto u = vec(L.m);
    out.emplace_back(
        "als Hp(v)",
        add(mv(sparse_mask(input_matrix(L.Xt),
                           outer_map(q, u, identity_map, "id")),
               u),
            scale(0.1, q)));
    out.emplace_back("als b(u)", mv(X(), vec(L.n)));
    out.emplace_back("als b(v)", mv(input_matrix(L.Xt), vec(L.m)));
  }
  out.emplace_back("kmeans cross", scale(real{-2}, mv(X(), vec(L.n))));
  out.emplace_back("pagerank r_next",
                   add(scale(0.85, mv(input_matrix(L.S), vec(L.k))),
                       vec(L.k)));
  return out;
}

std::vector<std::string> golden_plan_lines() {
  std::vector<std::string> lines;
  const std::pair<const char*, sysml::PlannerOptions> kModes[] = {
      {"planner", sysml::PlannerOptions{}},
      {"hardcoded-pass", sysml::equation1_only()}};
  for (const char* shape : {"300x150", "500x28"}) {
    la::CsrMatrix csr;
    la::DenseMatrix dense;
    if (std::string(shape) == "300x150") {
      csr = la::kdd_like(300, 150, 10.0, 1.5, 1);
      dense = la::csr_to_dense(csr);
    } else {
      dense = la::higgs_like(500, 28, 2);
      csr = la::dense_to_csr(dense);
    }
    const index_t k = std::min(csr.rows(), csr.cols());
    const auto square = la::uniform_sparse(k, k, 0.1, 3);
    for (const bool is_dense : {false, true}) {
      vgpu::Device dev;
      sysml::Runtime rt(dev, forced_gpu());
      ScriptLeaves L;
      L.m = static_cast<usize>(csr.rows());
      L.n = static_cast<usize>(csr.cols());
      L.k = static_cast<usize>(k);
      if (is_dense) {
        L.X = rt.add_dense(dense, "X");
        L.Xt = rt.add_dense(la::transpose(dense), "Xt");
        L.S = rt.add_dense(la::csr_to_dense(square), "S");
      } else {
        L.X = rt.add_sparse(csr, "X");
        L.Xt = rt.add_sparse(la::transpose(csr), "Xt");
        L.S = rt.add_sparse(square, "S");
      }
      const auto dags = script_dags(rt, L);
      for (const auto& [mode, opts] : kModes) {
        for (const auto& [output, root] : dags) {
          append_plan(lines,
                      output + " " + (is_dense ? "dense" : "csr") + " " +
                          shape + " " + mode,
                      sysml::plan_fusion(rt, root, opts));
        }
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    vgpu::Device dev;
    sysml::Runtime rt(dev, forced_gpu());
    const auto X = la::uniform_sparse(120, 40, 0.15, 7000 + seed);
    const sysml::TensorId ids[] = {rt.add_sparse(X, "X"),
                                   rt.add_dense(la::csr_to_dense(X), "Xd")};
    for (int d = 0; d < 2; ++d) {
      Rng rng(seed);
      const NodePtr root = random_dag(rt, X, ids[d], rng);
      append_plan(lines,
                  "random seed=" + std::to_string(seed) +
                      (d == 0 ? " csr" : " dense"),
                  sysml::plan_fusion(rt, root));
    }
  }
  return lines;
}

TEST(PlannerGolden, CostsAreFrozen) {
  const auto actual = golden_plan_lines();
  if (const char* path = std::getenv("FUSEDML_GOLDEN_OUT")) {
    std::ofstream out(path);
    for (const auto& line : actual) out << line << "\n";
  }
  std::vector<std::string> expected;
  std::ifstream in(FUSEDML_GOLDEN_DIR "/plans.golden");
  for (std::string line; std::getline(in, line);) expected.push_back(line);
  ASSERT_FALSE(expected.empty()) << "tests/golden/plans.golden is missing";
  EXPECT_EQ(expected.size(), actual.size());
  int mismatches = 0;
  for (usize i = 0; i < std::min(expected.size(), actual.size()); ++i) {
    if (expected[i] != actual[i] && ++mismatches <= 10) {
      ADD_FAILURE() << "line " << i + 1 << "\n  golden: " << expected[i]
                    << "\n  actual: " << actual[i];
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace fusedml
