// Whole-library algorithm sweep — every ScriptLibrary algorithm (lr-cg,
// logreg-gd, glm, svm, hits, als, kmeans, pagerank, minibatch-logreg) run
// through the declarative DAG path under all three plan modes: unfused
// interpretation, the paper's hardcoded Equation-1 template pass, and the
// cost-based fusion planner.
//
// Reported per (algorithm, mode): kernel launches (the quantity fusion
// minimizes), modeled milliseconds from the virtual GPU's cost model,
// bytes moved across the modeled PCIe bus (H2D + D2H), fusion groups
// chosen, and max |Δweights| vs the unfused interpreter.
//
// Exit status enforces the library-wide contract CI gates on:
//   - the planner matches the hardcoded pass bit-exactly on every
//     algorithm (it must subsume the paper's rewrite, never diverge);
//   - the planner needs STRICTLY fewer launches than unfused on the
//     algorithms with fusable elementwise chains (glm, svm, hits);
//   - it never needs more launches than unfused on any algorithm;
//   - plan-vs-actual launch drift is zero wherever a prediction was armed.
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"

using namespace fusedml;

namespace {

constexpr sysml::PlanMode kModes[] = {sysml::PlanMode::kUnfused,
                                      sysml::PlanMode::kHardcodedPass,
                                      sysml::PlanMode::kPlanner};

struct AlgoCase {
  ml::Algorithm algorithm;
  la::CsrMatrix X;
  std::vector<real> labels;
  int iterations;
  /// True when the algorithm's update contains an elementwise chain the
  /// hardcoded pass cannot touch, so the planner must strictly win.
  bool expect_planner_gain;
};

/// Poisson counts from a small-weight linear predictor (keeps exp(eta)
/// tame at bench scale).
std::vector<real> poisson_labels(const la::CsrMatrix& X, std::uint64_t seed) {
  auto w = la::regression_true_weights(X.cols(), seed);
  for (real& v : w) v *= 0.3;
  const auto eta = la::reference::spmv(X, w);
  Rng rng(seed);
  std::vector<real> y(eta.size());
  for (usize i = 0; i < y.size(); ++i) {
    y[i] = static_cast<real>(rng.poisson(std::exp(eta[i])));
  }
  return y;
}

std::vector<AlgoCase> build_cases(index_t rows, index_t cols) {
  std::vector<AlgoCase> cases;
  {
    auto X = la::uniform_sparse(rows, cols, 0.05, 11);
    auto y = la::regression_labels(X, 11, 0.1);
    cases.push_back({ml::Algorithm::kLrCg, std::move(X), std::move(y), 15,
                     /*expect_planner_gain=*/false});
  }
  {
    auto X = la::uniform_sparse(rows, cols, 0.05, 13);
    auto y = la::classification_labels(X, 13, 0.1);
    cases.push_back({ml::Algorithm::kLogregGd, std::move(X), std::move(y), 15,
                     /*expect_planner_gain=*/false});
  }
  {
    auto X = la::uniform_sparse(rows, cols, 0.05, 17);
    auto y = poisson_labels(X, 17);
    cases.push_back({ml::Algorithm::kGlm, std::move(X), std::move(y), 8,
                     /*expect_planner_gain=*/true});
  }
  {
    auto X = la::uniform_sparse(rows, cols, 0.05, 19);
    auto y = la::classification_labels(X, 19, 0.1);
    cases.push_back({ml::Algorithm::kSvm, std::move(X), std::move(y), 8,
                     /*expect_planner_gain=*/true});
  }
  {
    // HITS wants a square link matrix; labels are ignored by its runner.
    const index_t pages = rows / 4;
    auto X = la::uniform_sparse(pages, pages, 0.01, 23);
    cases.push_back({ml::Algorithm::kHits, std::move(X), {}, 20,
                     /*expect_planner_gain=*/true});
  }
  {
    // ALS holds four matrix leaves (R, R^T and both mask orientations), so
    // the ratings matrix is kept smaller. The Hessian-vector product is the
    // sddmm template — the planner must strictly win.
    auto X = la::uniform_sparse(rows / 4, cols, 0.05, 29);
    cases.push_back({ml::Algorithm::kAls, std::move(X), {}, 4,
                     /*expect_planner_gain=*/true});
  }
  {
    auto X = la::uniform_sparse(rows / 2, cols, 0.05, 31);
    cases.push_back({ml::Algorithm::kKmeans, std::move(X), {}, 4,
                     /*expect_planner_gain=*/true});
  }
  {
    const index_t pages = rows / 4;
    auto X = la::uniform_sparse(pages, pages, 0.01, 37);
    cases.push_back({ml::Algorithm::kPagerank, std::move(X), {}, 20,
                     /*expect_planner_gain=*/true});
  }
  {
    auto X = la::uniform_sparse(rows, cols, 0.05, 41);
    auto y = la::classification_labels(X, 41, 0.1);
    cases.push_back({ml::Algorithm::kMinibatchLogreg, std::move(X),
                     std::move(y), 12,
                     /*expect_planner_gain=*/true});
  }
  return cases;
}

double max_abs_diff(std::span<const real> a, std::span<const real> b) {
  double worst = 0;
  for (usize i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(a[i] - b[i])));
  }
  return worst;
}

bool bit_equal(std::span<const real> a, std::span<const real> b) {
  if (a.size() != b.size()) return false;
  for (usize i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto rows = cli.get_positive("rows", 4000, "dataset rows");
  const auto cols = cli.get_positive("cols", 60, "dataset columns");
  const auto popts = sysml::planner_options_from_cli(cli);
  obs::apply_standard_flags(cli);
  bench::JsonReport json(cli, "bench_algorithms");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header(
      "algorithm library sweep",
      "every ScriptLibrary algorithm x {unfused, hardcoded, planner}");

  Table table({"algorithm", "plan mode", "launches", "modeled ms",
               "bytes moved", "fused groups", "max|dw| vs unfused"});
  Table spot_table({"algorithm", "planner ms", "spot-verify ms", "overhead",
                    "verify launches", "drift"});

  bool ok = true;
  for (auto& c : build_cases(rows, cols)) {
    std::vector<sysml::ScriptResult> runs;
    std::vector<std::int64_t> drifts;
    for (const auto mode : kModes) {
      const ml::ScriptSpec* spec =
          ml::find_script(c.algorithm, /*dense=*/false, mode);
      if (spec == nullptr || !spec->run_sparse) {
        std::cerr << "missing library entry for " << to_string(c.algorithm)
                  << " / " << to_string(mode) << "\n";
        return 1;
      }
      vgpu::Device dev;
      sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
      rt.set_planner_options(popts);
      runs.push_back(spec->run_sparse(rt, c.X, c.labels, c.iterations));
      drifts.push_back(runs.back().plan_audit.has_prediction
                           ? runs.back().plan_audit.launch_drift()
                           : 0);
    }
    const auto& unfused = runs[0];
    const auto& hardcoded = runs[1];
    const auto& planner = runs[2];
    const std::string name = to_string(c.algorithm);

    for (usize i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      const auto bytes = r.memory_stats.h2d_bytes + r.memory_stats.d2h_bytes;
      table.row()
          .add(name)
          .add(to_string(kModes[i]))
          .add(static_cast<long long>(r.runtime_stats.kernel_launches))
          .add(r.runtime_stats.total_ms(), 3)
          .add(static_cast<long long>(bytes))
          .add(r.fused_groups)
          .add(max_abs_diff(unfused.weights, r.weights), 12);
      json.add(name + "_" + to_string(kModes[i]) + "_launches",
               static_cast<double>(r.runtime_stats.kernel_launches));
      json.add(name + "_" + to_string(kModes[i]) + "_modeled_ms",
               r.runtime_stats.total_ms());
      json.add(name + "_" + to_string(kModes[i]) + "_bytes_moved",
               static_cast<double>(bytes));
    }

    // Gate 1: the planner subsumes the paper's hardcoded rewrite — same
    // fusion decisions, bit-identical weights.
    if (!bit_equal(planner.weights, hardcoded.weights)) {
      std::cerr << "GATE FAILED: " << name
                << " planner diverges from the hardcoded pass\n";
      ok = false;
    }
    // Gate 2: strict launch win where an elementwise chain is fusable.
    if (c.expect_planner_gain &&
        planner.runtime_stats.kernel_launches >=
            unfused.runtime_stats.kernel_launches) {
      std::cerr << "GATE FAILED: " << name
                << " planner did not reduce launches (planner="
                << planner.runtime_stats.kernel_launches
                << " unfused=" << unfused.runtime_stats.kernel_launches
                << ")\n";
      ok = false;
    }
    // Gate 3: fusion never costs launches.
    if (planner.runtime_stats.kernel_launches >
        unfused.runtime_stats.kernel_launches) {
      std::cerr << "GATE FAILED: " << name
                << " planner needs MORE launches than unfused\n";
      ok = false;
    }
    // Gate 4: plan-vs-actual audit — zero launch drift wherever the
    // planner armed a prediction.
    for (usize i = 0; i < drifts.size(); ++i) {
      if (drifts[i] != 0) {
        std::cerr << "GATE FAILED: " << name << " / " << to_string(kModes[i])
                  << " plan audit drift = " << drifts[i] << "\n";
        ok = false;
      }
    }

    // Gate 5: spot ABFT verification is cheap enough to leave on — the
    // planner run with VerifyPolicy::kSpot stays within 10% modeled
    // overhead, its weights stay bit-exact (no false positives on a clean
    // device), and the plan audit still shows zero drift (verification
    // launches are excluded from plan-vs-actual accounting).
    {
      const ml::ScriptSpec* spec =
          ml::find_script(c.algorithm, /*dense=*/false, sysml::PlanMode::kPlanner);
      vgpu::Device dev;
      sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
      rt.set_planner_options(popts);
      rt.set_verify_policy(kernels::VerifyPolicy::kSpot);
      const auto spot = spec->run_sparse(rt, c.X, c.labels, c.iterations);
      const double base_ms = planner.runtime_stats.total_ms();
      const double spot_ms = spot.runtime_stats.total_ms();
      const double overhead = base_ms > 0 ? spot_ms / base_ms - 1.0 : 0.0;
      const std::int64_t spot_drift = spot.plan_audit.has_prediction
                                          ? spot.plan_audit.launch_drift()
                                          : 0;
      spot_table.row()
          .add(name)
          .add(base_ms, 3)
          .add(spot_ms, 3)
          .add(bench::fmt(overhead * 100, 2) + "%")
          .add(static_cast<long long>(spot.runtime_stats.verify_launches))
          .add(static_cast<long long>(spot_drift));
      json.add(name + "_spot_verify_overhead_pct", overhead * 100);
      json.add(name + "_spot_verify_launches",
               static_cast<double>(spot.runtime_stats.verify_launches));
      if (overhead > 0.10) {
        std::cerr << "GATE FAILED: " << name << " spot-verify overhead "
                  << bench::fmt(overhead * 100, 2) << "% exceeds 10%\n";
        ok = false;
      }
      if (!bit_equal(spot.weights, planner.weights)) {
        std::cerr << "GATE FAILED: " << name
                  << " spot-verify run is not bit-exact with the planner "
                     "run (false positive on a clean device?)\n";
        ok = false;
      }
      if (spot_drift != 0) {
        std::cerr << "GATE FAILED: " << name
                  << " spot-verify plan audit drift = " << spot_drift << "\n";
        ok = false;
      }
    }
  }

  std::cout << "\n" << table;
  std::cout << "\n" << spot_table;
  json.add("ok", ok ? 1.0 : 0.0);
  json.add_table("algorithms", table);
  json.add_table("spot_verify", spot_table);
  json.write();
  bench::print_note(
      "modeled milliseconds from the virtual GTX-Titan cost model; bytes "
      "moved = modeled H2D + D2H traffic. Exit status gates: planner == "
      "hardcoded bit-exact, strict launch win on glm/svm/hits and on all "
      "four new workloads (als/kmeans/pagerank/minibatch-logreg), zero "
      "plan-audit drift, spot ABFT verification <= 10% modeled overhead.");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main(
      [&]() -> int { return run_bench(argc, argv); });
}
