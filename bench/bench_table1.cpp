// Table 1 reproduction — which pattern instantiations appear in which ML
// algorithms.
//
// The paper's Table 1 is analytical; here it is *observed*: each of the
// five algorithms (LR, GLM, LogReg, SVM, HITS) is trained on a small
// synthetic problem through a usage-recording PatternExecutor, and the
// checkmarks are derived from the kinds of pattern evaluations the
// algorithm actually issued. The printed matrix should match the paper's.
#include <iostream>
#include <map>

#include "bench_common.h"
#include "common/cli.h"
#include "common/table.h"
#include "la/generate.h"
#include "ml/glm.h"
#include "ml/hits.h"
#include "ml/logreg.h"
#include "ml/lr_cg.h"
#include "ml/svm.h"
#include "patterns/executor.h"
#include "vgpu/device.h"

using namespace fusedml;
using patterns::PatternKind;

static int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto rows = cli.get_positive("rows", 2000, "training rows");
  const auto cols = cli.get_positive("cols", 50, "feature columns");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, ""));
  obs::apply_standard_flags(cli);
  bench::JsonReport json(cli, "table1");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header("Table 1",
                      "pattern instantiations observed per ML algorithm");

  vgpu::Device dev;
  const auto X = la::uniform_sparse(rows, cols, 0.2, seed);
  std::map<std::string, std::map<PatternKind, std::uint64_t>> usage;

  {  // Linear Regression (Listing 1)
    patterns::PatternExecutor exec(dev, patterns::Backend::kFused);
    const auto y = la::regression_labels(X, seed, 0.05);
    ml::lr_cg(exec, X, y, {.max_iterations = 10});
    usage["LR"] = exec.usage();
  }
  {  // GLM (binomial, IRLS)
    patterns::PatternExecutor exec(dev, patterns::Backend::kFused);
    auto y = la::classification_labels(X, seed, 0.1);
    for (real& v : y) v = v > 0 ? 1.0 : 0.0;
    ml::glm_irls(exec, X, y,
                 {.family = ml::GlmFamily::kBinomial,
                  .max_irls_iterations = 5});
    usage["GLM"] = exec.usage();
  }
  {  // Logistic Regression (trust region)
    patterns::PatternExecutor exec(dev, patterns::Backend::kFused);
    const auto y = la::classification_labels(X, seed, 0.1);
    ml::logreg_trust_region(exec, X, y, {.max_newton_iterations = 5});
    usage["LogReg"] = exec.usage();
  }
  {  // SVM (primal Newton)
    patterns::PatternExecutor exec(dev, patterns::Backend::kFused);
    const auto y = la::classification_labels(X, seed, 0.1);
    ml::svm_primal(exec, X, y, {.max_newton_iterations = 5});
    usage["SVM"] = exec.usage();
  }
  {  // HITS
    patterns::PatternExecutor exec(dev, patterns::Backend::kFused);
    ml::hits(exec, X, {.max_iterations = 10});
    usage["HITS"] = exec.usage();
  }

  const char* algos[] = {"LR", "GLM", "LogReg", "SVM", "HITS"};
  Table table({"Pattern Instantiation", "LR", "GLM", "LogReg", "SVM", "HITS",
               "paper row"});
  for (const auto& row : patterns::table1()) {
    table.row().add(to_string(row.kind));
    for (const char* algo : algos) {
      const auto& u = usage[algo];
      const auto it = u.find(row.kind);
      table.add(it != u.end() && it->second > 0 ? "x" : "");
    }
    std::string paper;
    paper += row.lr ? "x" : "-";
    paper += row.glm ? "x" : "-";
    paper += row.logreg ? "x" : "-";
    paper += row.svm ? "x" : "-";
    paper += row.hits ? "x" : "-";
    table.add(paper);
  }
  std::cout << table;
  bench::print_note(
      "observed marks may be a subset of the paper's: an algorithm variant "
      "only issues the instantiations its update rule needs (e.g. Gaussian "
      "GLM skips the v-weighted form; our GLM folds the ridge z-term into "
      "the v-weighted call, surfacing it as the full pattern).");
  json.add_table("table1", table);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
