// Fusion-planner evaluation — the generalization of the paper's hardcoded
// Equation-1 rewrite into cost-based planning, measured end to end through
// the mini-SystemML runtime on two DAG scripts:
//
//   lr-cg:   q = (t(V) %*% (V %*% p)) + eps*p       (the Equation-1 shape)
//   logreg:  g = t(X) %*% (sigma(-y⊙(X%*%w))⊙-y) + lambda*w
//            (an elementwise chain the hardcoded pass cannot touch)
//
// Three plan modes per script: unfused interpretation, the hardcoded mode
// (the planner restricted to the Equation-1 family), and the full
// cost-based planner. Reported per mode:
// kernel launches (the quantity fusion minimizes), modeled time, fusion
// groups chosen, and max |Δweights| vs the unfused run.
//
// Exit status enforces the planner's contract: never more launches or
// modeled time than the hardcoded pass, STRICTLY fewer launches than
// unfused on the elementwise-chain script, and results matching the
// unfused interpreter (bit-exact where only ewise fusion applies).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/table.h"
#include "la/generate.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"

using namespace fusedml;

namespace {

constexpr sysml::PlanMode kModes[] = {sysml::PlanMode::kUnfused,
                                      sysml::PlanMode::kHardcodedPass,
                                      sysml::PlanMode::kPlanner};

double max_abs_diff(std::span<const real> a, std::span<const real> b) {
  double worst = 0;
  for (usize i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(a[i] - b[i])));
  }
  return worst;
}

struct ModeRun {
  sysml::ScriptResult result;
};

/// Runs one script under each plan mode on a fresh device+runtime (tiny
/// gpu_cost_bias so the scheduler sends the work to the device even at
/// smoke-test sizes — launch counts are the point here).
template <typename Script>
bool run_script(Table& table, const std::string& name,
                const sysml::PlannerOptions& popts, Script&& script,
                bool expect_ewise_gain) {
  std::vector<ModeRun> runs;
  for (const auto mode : kModes) {
    vgpu::Device dev;
    sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
    rt.set_planner_options(popts);
    runs.push_back({script(rt, mode)});
  }
  const auto& unfused = runs[0].result;
  const auto& hardcoded = runs[1].result;
  const auto& planner = runs[2].result;

  for (usize i = 0; i < runs.size(); ++i) {
    const auto& r = runs[i].result;
    table.row()
        .add(name)
        .add(to_string(kModes[i]))
        .add(static_cast<long long>(r.runtime_stats.kernel_launches))
        .add(r.runtime_stats.total_ms(), 3)
        .add(static_cast<long long>(r.runtime_stats.gpu_ops))
        .add(static_cast<long long>(r.runtime_stats.cpu_ops))
        .add(r.fused_groups)
        .add(max_abs_diff(unfused.weights, r.weights), 12);
  }
  if (!planner.plan_explain.empty()) {
    std::cout << "\n" << name << " planner plan:\n" << planner.plan_explain;
  }

  bool ok = true;
  const auto fail = [&](const std::string& why) {
    std::cout << "REGRESSION [" << name << "]: " << why << "\n";
    ok = false;
  };
  // Plan-vs-actual audit: the planner predicted a launch count per DAG
  // execution; the interpreter counted what actually ran. Any drift means
  // the planner's model of the DAG diverged from the interpreter.
  if (planner.plan_audit.has_prediction) {
    std::cout << "\n" << name << " plan-vs-actual audit:\n";
    planner.plan_audit.print(std::cout);
    if (planner.plan_audit.launch_drift() != 0) {
      fail("plan-vs-actual launch drift is nonzero (" +
           std::to_string(planner.plan_audit.launch_drift()) + ")");
    }
  } else {
    fail("planner mode produced no plan-vs-actual prediction");
  }
  if (planner.runtime_stats.kernel_launches >
      hardcoded.runtime_stats.kernel_launches) {
    fail("planner issued more launches than the hardcoded pass");
  }
  if (planner.runtime_stats.total_ms() >
      hardcoded.runtime_stats.total_ms() * 1.001) {
    fail("planner modeled time exceeds the hardcoded pass");
  }
  if (expect_ewise_gain) {
    if (planner.runtime_stats.kernel_launches >=
        unfused.runtime_stats.kernel_launches) {
      fail("planner did not strictly reduce launches on the ewise chain");
    }
    if (max_abs_diff(unfused.weights, planner.weights) != 0.0) {
      fail("ewise-only plan is not bit-exact vs the unfused interpreter");
    }
  } else {
    if (max_abs_diff(hardcoded.weights, planner.weights) != 0.0) {
      fail("planner diverged from the hardcoded pass on Equation-1");
    }
    // Unfused-vs-fused differs only by the pattern kernel's reassociation.
    if (max_abs_diff(unfused.weights, planner.weights) > 1e-4) {
      fail("planner result too far from the unfused interpreter");
    }
  }
  return ok;
}

}  // namespace

static int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto rows = cli.get_positive("rows", 2000, "");
  const auto cols = cli.get_positive("cols", 400, "");
  const auto sparsity = cli.get_double("sparsity", 0.01, "");
  const auto iters = cli.get_positive("iterations", 10, "per script");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, ""));
  const auto popts = sysml::planner_options_from_cli(cli);
  obs::apply_standard_flags(cli);
  bench::JsonReport json(cli, "fusion_planner");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header(
      "Fusion planner",
      "cost-based planner vs hardcoded Equation-1 pass vs unfused");

  const auto X = la::uniform_sparse(rows, cols, sparsity, seed);
  const auto y_reg = la::regression_labels(X, seed, 0.1);
  const auto y_cls = la::classification_labels(X, seed + 1, 0.1);

  Table table({"Script", "Plan mode", "launches", "modeled ms", "gpu ops",
               "cpu ops", "groups", "max|dw| vs unfused"});

  bool ok = run_script(
      table, "lr-cg", popts,
      [&](sysml::Runtime& rt, sysml::PlanMode mode) {
        ml::ScriptConfig cfg;
        cfg.max_iterations = iters;
        cfg.tolerance = 0;
        return ml::run_lr_cg_script(rt, X, y_reg, mode, cfg);
      },
      /*expect_ewise_gain=*/false);

  ok &= run_script(
      table, "logreg-gd", popts,
      [&](sysml::Runtime& rt, sysml::PlanMode mode) {
        ml::GdConfig cfg;
        cfg.iterations = iters;
        return ml::run_logreg_gd_script(rt, X, y_cls, mode, cfg);
      },
      /*expect_ewise_gain=*/true);

  // The four new workloads exercise the row-template and sddmm families.
  // None of them contain an Equation-1 site, so the expect_ewise_gain
  // contract applies: strictly fewer launches than unfused AND bit-exact.
  ok &= run_script(
      table, "als", popts,
      [&](sysml::Runtime& rt, sysml::PlanMode mode) {
        ml::AlsConfig cfg;
        cfg.max_outer = std::max(1, iters / 4);
        return ml::run_als_script(rt, X, mode, cfg);
      },
      /*expect_ewise_gain=*/true);

  ok &= run_script(
      table, "kmeans", popts,
      [&](sysml::Runtime& rt, sysml::PlanMode mode) {
        ml::KmeansConfig cfg;
        cfg.max_iterations = std::max(1, iters / 2);
        return ml::run_kmeans_script(rt, X, mode, cfg);
      },
      /*expect_ewise_gain=*/true);

  ok &= run_script(
      table, "pagerank", popts,
      [&](sysml::Runtime& rt, sysml::PlanMode mode) {
        ml::PagerankConfig cfg;
        cfg.max_iterations = iters;
        cfg.tolerance = 0;
        return ml::run_pagerank_script(rt, X, mode, cfg);
      },
      /*expect_ewise_gain=*/true);

  ok &= run_script(
      table, "minibatch-logreg", popts,
      [&](sysml::Runtime& rt, sysml::PlanMode mode) {
        ml::MinibatchConfig cfg;
        cfg.iterations = iters;
        return ml::run_minibatch_logreg_script(rt, X, y_cls, mode, cfg);
      },
      /*expect_ewise_gain=*/true);

  // The sparsity-exploitation gate: on ALS the planner must PICK the sddmm
  // template over the best disjoint-greedy alternative (row + ewise only),
  // and the whole-DAG exploration must beat that restricted plan in modeled
  // time — the candidate families overlap on the Hessian-vector product, so
  // this only holds if overlap resolution works.
  double sddmm_ms = 0.0, disjoint_ms = 0.0;
  bool sddmm_selected = false;
  for (const bool allow_sddmm : {true, false}) {
    vgpu::Device dev;
    sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
    auto po = popts;
    po.enable_sddmm_fusion = allow_sddmm;
    rt.set_planner_options(po);
    ml::AlsConfig cfg;
    cfg.max_outer = std::max(1, iters / 4);
    const auto r =
        ml::run_als_script(rt, X, sysml::PlanMode::kPlanner, cfg);
    if (allow_sddmm) {
      sddmm_ms = r.runtime_stats.total_ms();
      sddmm_selected = r.plan_explain.find("sddmm") != std::string::npos;
    } else {
      disjoint_ms = r.runtime_stats.total_ms();
    }
  }
  std::cout << "\nals sddmm-template gate: with sddmm " << sddmm_ms
            << " ms, best disjoint plan " << disjoint_ms << " ms\n";
  if (!sddmm_selected) {
    std::cout << "REGRESSION [als]: planner did not select the sddmm "
                 "template\n";
    ok = false;
  }
  if (sddmm_ms >= disjoint_ms) {
    std::cout << "REGRESSION [als]: sddmm plan does not beat the best "
                 "disjoint-greedy plan in modeled ms\n";
    ok = false;
  }

  std::cout << "\n" << table;
  bench::print_note(
      "the hardcoded pass only helps where the Equation-1 template matches "
      "(lr-cg); the planner also collapses the logreg sigmoid chain into one "
      "generated kernel, cutting launches the template pass cannot.");
  json.add("ok", ok ? 1.0 : 0.0);
  json.add_table("fusion_planner", table);
  json.write();
  if (!ok) {
    std::cout << "FAILED: planner regressed vs the contract above\n";
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
