#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kernels/op_registry.h"
#include "la/generate.h"
#include "ml/script_library.h"
#include "oracles.h"
#include "serve/server.h"
#include "stats.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"

namespace perfbench {

void Phase::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

namespace {

namespace la = fusedml::la;
namespace ml = fusedml::ml;
namespace kernels = fusedml::kernels;
namespace serve = fusedml::serve;
namespace sysml = fusedml::sysml;
namespace vgpu = fusedml::vgpu;
using fusedml::real;

// --- Per-sample counts the library returns ----------------------------------

/// Exact per-sample counts of one script run: the device's session counters
/// and the ScriptResult's runtime/planner books.
struct Counts {
  double launches = 0;
  double dram_bytes = 0;
  double dram_transactions = 0;
  double atomics = 0;
  double gpu_ops = 0;
  double cpu_ops = 0;
  double plans_built = 0;
  double plan_cache_hits = 0;
  double fused_groups = 0;
  double transfer_ms = 0;  ///< modeled
  double jni_ms = 0;       ///< modeled
  double modeled_ms = 0;
  double plan_host_ms = 0;  ///< host, RuntimeStats::plan_host_ms

  Counts& operator+=(const Counts& o) {
    launches += o.launches;
    dram_bytes += o.dram_bytes;
    dram_transactions += o.dram_transactions;
    atomics += o.atomics;
    gpu_ops += o.gpu_ops;
    cpu_ops += o.cpu_ops;
    plans_built += o.plans_built;
    plan_cache_hits += o.plan_cache_hits;
    fused_groups += o.fused_groups;
    transfer_ms += o.transfer_ms;
    jni_ms += o.jni_ms;
    modeled_ms += o.modeled_ms;
    plan_host_ms += o.plan_host_ms;
    return *this;
  }
  Counts scaled(double f) const {
    Counts c = *this;
    for (double* v : {&c.launches, &c.dram_bytes, &c.dram_transactions,
                      &c.atomics, &c.gpu_ops, &c.cpu_ops, &c.plans_built,
                      &c.plan_cache_hits, &c.fused_groups, &c.transfer_ms,
                      &c.jni_ms, &c.modeled_ms, &c.plan_host_ms}) {
      *v *= f;
    }
    return c;
  }
};

void add_device_counters(Counts& c, const vgpu::Device& dev) {
  const vgpu::MemCounters& m = dev.session_counters();
  c.launches += static_cast<double>(dev.session_launches());
  c.dram_bytes += static_cast<double>(m.dram_bytes());
  c.dram_transactions +=
      static_cast<double>(m.gld_transactions + m.gst_transactions);
  c.atomics += static_cast<double>(m.atomic_global_ops + m.atomic_shared_ops +
                                   m.atomic_int_ops);
}

Counts counts_of(const vgpu::Device& dev, const sysml::ScriptResult& r) {
  Counts c;
  add_device_counters(c, dev);
  c.gpu_ops = static_cast<double>(r.runtime_stats.gpu_ops);
  c.cpu_ops = static_cast<double>(r.runtime_stats.cpu_ops);
  c.plans_built = r.plans_built;
  c.plan_cache_hits = r.plan_cache_hits;
  c.fused_groups = r.fused_groups;
  c.transfer_ms = r.runtime_stats.transfer_ms;
  c.jni_ms = r.runtime_stats.jni_ms;
  c.modeled_ms = r.end_to_end_ms;
  c.plan_host_ms = r.runtime_stats.plan_host_ms;
  return c;
}

void emit_counts(const Counts& c, std::size_t n, std::vector<Metric>& out) {
  const char* note = "per sample, exact for a seed";
  out.push_back({"vgpu.launches", c.launches, "count", n, note});
  out.push_back({"vgpu.dram_bytes", c.dram_bytes, "bytes", n, note});
  out.push_back(
      {"vgpu.dram_transactions", c.dram_transactions, "count", n, note});
  out.push_back({"vgpu.atomics", c.atomics, "count", n, note});
  out.push_back({"runtime.gpu_ops", c.gpu_ops, "count", n, note});
  out.push_back({"runtime.cpu_ops", c.cpu_ops, "count", n, note});
  out.push_back({"planner.plans_built", c.plans_built, "count", n, note});
  out.push_back(
      {"planner.plan_cache_hits", c.plan_cache_hits, "count", n, note});
  out.push_back({"planner.fused_groups", c.fused_groups, "count", n, note});
}

/// Server outcome counts of the last measured phase (zero on the workloads
/// that run no server).
struct ServeCounts {
  double completed = 0, rejected = 0, deadline_exceeded = 0, failed = 0,
         queue_high_water = 0;
};

void emit_serve_counts(const ServeCounts& c, std::size_t n,
                       std::vector<Metric>& out) {
  const char* note = "ServeStats over the last measured phase";
  out.push_back({"serve.completed", c.completed, "count", n, note});
  out.push_back({"serve.rejected", c.rejected, "count", n, note});
  out.push_back(
      {"serve.deadline_exceeded", c.deadline_exceeded, "count", n, note});
  out.push_back({"serve.failed", c.failed, "count", n, note});
  out.push_back(
      {"serve.queue_high_water", c.queue_high_water, "count", n, note});
}

/// Detail lines for the script workloads. The library does not return how
/// a script's host time splits between the runtime interpreter, registry
/// dispatch and vgpu kernel bodies, so the `ml` layer's self time holds all
/// three; runtime.host_us_per_op divides it by the ops executed.
void print_script_details(std::ostream& os, const Counts& per_sample,
                          double sample_host_ms_p50) {
  const double ops = per_sample.gpu_ops + per_sample.cpu_ops;
  os << "# ml self time = runtime interpreter + registry dispatch + vgpu "
        "kernel bodies\n";
  os << "# planner.plan_host_ms " << per_sample.plan_host_ms
     << " ms per sample (RuntimeStats::plan_host_ms, reference runs)\n";
  os << "# runtime.host_us_per_op "
     << (sample_host_ms_p50 - per_sample.plan_host_ms) * 1e3 / ops
     << " us (median sample host ms less planning, per op)\n";
  os << "# runtime.transfer_ms " << per_sample.transfer_ms
     << " ms, runtime.jni_ms " << per_sample.jni_ms
     << " ms (modeled, per sample)\n";
}

// --- Registry probe ----------------------------------------------------------

constexpr int kProbeReps = 15;

/// Timed direct OpRegistry calls (Backend::kFused) and a direct ABFT check
/// on one matrix. Host ms are medians over kProbeReps calls; the kernel
/// body's share is KernelOutcome::wall_ms, which the library measures.
struct Probe {
  double pattern_ms = 0, product_ms = 0, transposed_ms = 0;
  double body_ms = 0;      ///< kernel-body host ms of one call of each op
  double modeled_ms = 0;   ///< modeled ms of one call of each op
  double entries = 0;      ///< stored matrix entries, times three ops
  double abft_ms = 0;      ///< host ms of one check_pattern
  Counts pattern_counts;   ///< device counters of one fused pattern call
  std::size_t reps = 0;

  Probe& operator+=(const Probe& o) {
    pattern_ms += o.pattern_ms;
    product_ms += o.product_ms;
    transposed_ms += o.transposed_ms;
    body_ms += o.body_ms;
    modeled_ms += o.modeled_ms;
    entries += o.entries;
    abft_ms += o.abft_ms;
    pattern_counts += o.pattern_counts;
    reps = std::max(reps, o.reps);
    return *this;
  }
};

double entries_of(const la::CsrMatrix& X) { return static_cast<double>(X.nnz()); }
double entries_of(const la::DenseMatrix& X) {
  return static_cast<double>(X.rows()) * static_cast<double>(X.cols());
}

template <typename Matrix>
Probe probe_registry(const Matrix& X, std::uint64_t seed, Recorder* rec,
                     Phase& checks) {
  const auto y = la::random_vector(static_cast<std::size_t>(X.cols()), seed);
  const auto v = la::random_vector(static_cast<std::size_t>(X.rows()), seed + 1);
  const auto p = la::random_vector(static_cast<std::size_t>(X.rows()), seed + 2);
  const std::vector<real> expect = equation1(X, 1.0, v, y, 0.0, {});

  std::vector<double> pattern, product, transposed, body, abft;
  Probe out;
  out.reps = kProbeReps;
  out.entries = 3.0 * entries_of(X);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    vgpu::Device dev;
    kernels::OpRegistry reg(dev);
    auto timed = [&](const char* name, std::vector<double>& into, auto&& call) {
      ScopedSpan span(rec, "kernels", name);
      const Clock::time_point t0 = Clock::now();
      kernels::KernelOutcome o = call();
      const double ms = ms_between(t0, Clock::now());
      into.push_back(ms);
      if (rec != nullptr) rec->add("vgpu", name, t0, o.wall_ms, span.id());
      return o;
    };
    const auto o_pat = timed("registry.pattern", pattern, [&] {
      return reg.pattern(kernels::Backend::kFused, 1.0, X, v, y, 0.0, {});
    });
    const double pat_modeled = o_pat.modeled_ms;
    if (rep == 0) {
      add_device_counters(out.pattern_counts, dev);
      if (max_scaled_diff(o_pat.value, expect) > 1e-10) {
        checks.fail("registry probe: fused pattern differs from the "
                    "plain-loop Equation-1 oracle");
      }
    }
    const auto o_prod = timed("registry.product", product, [&] {
      return reg.product(kernels::Backend::kFused, X, y);
    });
    const auto o_tr = timed("registry.transposed_product", transposed, [&] {
      return reg.transposed_product(kernels::Backend::kFused, X, p, 1.0);
    });
    body.push_back(o_pat.wall_ms + o_prod.wall_ms + o_tr.wall_ms);
    if (rep == 0) {
      out.modeled_ms = pat_modeled + o_prod.modeled_ms + o_tr.modeled_ms;
    }

    ScopedSpan span(rec, "abft", "abft.check_pattern");
    const Clock::time_point t0 = Clock::now();
    try {
      reg.verifier().check_pattern(o_pat.value, 1.0, X, v, y, 0.0, {});
    } catch (const std::exception& e) {
      checks.fail(std::string("abft probe: clean output failed its check: ") +
                  e.what());
    }
    abft.push_back(ms_between(t0, Clock::now()));
  }
  out.pattern_ms = median(pattern);
  out.product_ms = median(product);
  out.transposed_ms = median(transposed);
  out.body_ms = median(body);
  out.abft_ms = median(abft);
  return out;
}

void emit_probe(const Probe& p, std::vector<Metric>& out) {
  const char* med = "median of direct OpRegistry calls, Backend::kFused";
  out.push_back({"registry.pattern_host_ms", p.pattern_ms, "ms", p.reps, med});
  out.push_back({"registry.product_host_ms", p.product_ms, "ms", p.reps, med});
  out.push_back({"registry.transposed_product_host_ms", p.transposed_ms, "ms",
                 p.reps, med});
  out.push_back({"vgpu.host_ns_per_nnz", p.body_ms * 1e6 / p.entries, "ns",
                 p.reps,
                 "kernel-body host ns (KernelOutcome::wall_ms) per stored "
                 "entry per op, registry probe"});
  out.push_back({"vgpu.host_ms_per_modeled_ms", p.body_ms / p.modeled_ms,
                 "ratio", p.reps,
                 "simulator host ms per modeled device ms, registry probe"});
  out.push_back({"abft.check_host_ms", p.abft_ms, "ms", p.reps,
                 "median host ms of a direct AbftVerifier::check_pattern"});
}

// --- Script workloads --------------------------------------------------------

/// One script call: fresh Device and Runtime, traced as an `ml` span with
/// the planner's reported host time as a child span.
template <typename Matrix>
sysml::ScriptResult run_script(const ml::ScriptSpec& spec, const Matrix& X,
                               std::span<const real> labels, int iterations,
                               Recorder* rec, Counts* counts) {
  ScopedSpan span(rec, "ml", spec.name);
  const Clock::time_point t0 = Clock::now();
  vgpu::Device dev;
  sysml::Runtime rt(dev);
  sysml::ScriptResult r;
  if constexpr (std::is_same_v<Matrix, la::DenseMatrix>) {
    r = spec.run_dense(rt, X, labels, iterations);
  } else {
    r = spec.run_sparse(rt, X, labels, iterations);
  }
  if (rec != nullptr) {
    rec->add("planner", spec.name, t0, r.runtime_stats.plan_host_ms,
             span.id());
  }
  if (counts != nullptr) *counts = counts_of(dev, r);
  return r;
}

std::string spec_key(const ml::ScriptSpec& spec) {
  return std::string(ml::to_string(spec.algorithm)) +
         (spec.dense ? ".dense" : ".csr");
}

/// kdd_sparse: converged lr-cg (CSR, planner) solves on KDD-like matrices.
/// Samples rotate over kDatasets matrices drawn from the seed, so every
/// figure averages over several sparsity patterns instead of resting on one.
class KddSparse final : public Workload {
 public:
  static constexpr int kDatasets = 4;
  static constexpr fusedml::index_t kRows = 1000;
  static constexpr fusedml::index_t kCols = 500;
  static constexpr double kNnzPerRow = 28.0;
  static constexpr double kSkew = 1.5;
  /// The true residual of the normal equations may exceed the solver's
  /// recursive residual by rounding; this is the allowed factor (observed:
  /// 0.77-0.92 times the tolerance).
  static constexpr double kResidualSlack = 2.0;

  explicit KddSparse(std::uint64_t seed)
      : seed_(seed),
        spec_(ml::find_script(ml::Algorithm::kLrCg, false,
                              sysml::PlanMode::kPlanner)),
        unfused_(ml::find_script(ml::Algorithm::kLrCg, false,
                                 sysml::PlanMode::kUnfused)) {}

  void setup(Recorder* rec) override {
    {
      ScopedSpan span(rec, "la", "setup.generate");
      const Clock::time_point t0 = Clock::now();
      for (int k = 0; k < kDatasets; ++k) {
        const std::uint64_t s = seed_ * 1000 + static_cast<std::uint64_t>(k);
        X_.push_back(la::kdd_like(kRows, kCols, kNnzPerRow, kSkew, s));
        y_.push_back(la::regression_labels(X_.back(), s, 0.1));
      }
      generate_ms_ = ms_between(t0, Clock::now());
    }
    run_script(*spec_, X_[0], y_[0], 0, rec, nullptr);  // warm-up sample
  }

  void prepare_oracles(Phase& /*checks*/) override {
    for (int k = 0; k < kDatasets; ++k) {
      Counts c;
      run_script(*spec_, X_[k], y_[k], 0, nullptr, &c);
      expected_.push_back(c);
      Counts u;
      run_script(*unfused_, X_[k], y_[k], 0, nullptr, &u);
      speedups_.push_back(u.modeled_ms / c.modeled_ms);
    }
  }

  void measure(double seconds, Recorder* rec, Phase& out) override {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; ms_between(start, Clock::now()) < seconds * 1e3;
         ++i) {
      const std::size_t k = i % kDatasets;
      ++out.attempted;
      try {
        const Clock::time_point t0 = Clock::now();
        const sysml::ScriptResult r =
            run_script(*spec_, X_[k], y_[k], 0, rec, nullptr);
        const double ms = ms_between(t0, Clock::now());
        out.sample_ms.push_back(ms);
        host_ms_.push_back(ms);
        check(k, r, out);
      } catch (const std::exception& e) {
        out.fail(std::string("lr_cg solve threw: ") + e.what());
      }
    }
    out.seconds = ms_between(start, Clock::now()) / 1e3;
  }

  void modeled_metrics(std::vector<Metric>& out) const override {
    out.push_back({"modeled_ms", per_solve().modeled_ms, "ms",
                   expected_.size(),
                   "modeled device ms per solve, mean over the seed's "
                   "matrices (exact)"});
    out.push_back({"fusion_speedup", geomean(speedups_), "x",
                   speedups_.size(),
                   "geomean of unfused / planner modeled ms (exact)"});
  }

  void layer_metrics(Recorder* rec, Phase& checks,
                     std::vector<Metric>& out) override {
    emit_counts(per_solve(), expected_.size(), out);
    out.push_back({"abft.verify_launches", 0.0, "count", expected_.size(),
                   "verification is off in this workload"});
    emit_probe(probe_registry(X_[0], seed_, rec, checks), out);
    emit_serve_counts({}, 0, out);
  }

  void print_details(std::ostream& os) const override {
    print_script_details(os, per_solve(), median(host_ms_));
    os << "# ml.solve_host_ms.lr_cg.csr p50 " << median(host_ms_) << " ms (n="
       << host_ms_.size() << ")\n";
    for (std::size_t k = 0; k < speedups_.size(); ++k) {
      os << "# planner.speedup.lr_cg.csr[dataset " << k << "] "
         << speedups_[k] << " x\n";
    }
  }

 private:
  /// Mean of the reference runs' counts over the seed's matrices.
  Counts per_solve() const {
    Counts sum;
    for (const Counts& c : expected_) sum += c;
    return sum.scaled(1.0 / kDatasets);
  }

  void check(std::size_t k, const sysml::ScriptResult& r, Phase& out) const {
    const ml::ScriptConfig cfg;
    if (r.end_to_end_ms != expected_[k].modeled_ms) {
      out.fail("lr_cg modeled ms is not reproducible for dataset " +
               std::to_string(k));
    } else if (r.iterations >= cfg.max_iterations) {
      out.fail("lr_cg did not converge on dataset " + std::to_string(k));
    } else if (lr_cg_relative_residual(X_[k], y_[k], r.weights, cfg.eps) >
               kResidualSlack * cfg.tolerance) {
      out.fail("lr_cg normal-equation residual above tolerance on dataset " +
               std::to_string(k));
    }
  }

  std::uint64_t seed_;
  const ml::ScriptSpec* spec_;
  const ml::ScriptSpec* unfused_;
  std::vector<la::CsrMatrix> X_;
  std::vector<std::vector<real>> y_;
  std::vector<Counts> expected_;
  std::vector<double> speedups_;
  std::vector<double> host_ms_;
};

/// library_sweep: one pass over the 18 planner-mode scripts (9 algorithms ×
/// {CSR KDD-like, dense HIGGS-like}), each on a fresh Device and Runtime.
class LibrarySweep final : public Workload {
 public:
  static constexpr fusedml::index_t kCsrRows = 300;
  static constexpr fusedml::index_t kCsrCols = 150;
  static constexpr double kCsrNnzPerRow = 10.0;
  static constexpr fusedml::index_t kDenseRows = 500;
  static constexpr fusedml::index_t kDenseCols = 28;
  /// Outer-iteration cap passed to every runner, so glm and svm do not
  /// dominate the pass.
  static constexpr int kIterations = 8;
  /// Scripts whose planner weights differ from the unfused twin's in the
  /// last bits (max |diff| / max(1, max |w|) up to 1.5e-14 over seeds 1-6:
  /// the planner moves ops between host and device, which reassociates
  /// reductions). They are held to kUlpTolerance; every other script must
  /// be bit-identical to its twin.
  static constexpr const char* kUlpScripts[] = {
      "lr_cg/dense/planner", "glm/dense/planner", "svm/dense/planner",
      "hits/dense/planner", "als/csr/planner"};
  static constexpr double kUlpTolerance = 1e-12;

  explicit LibrarySweep(std::uint64_t seed) : seed_(seed) {
    for (const ml::ScriptSpec& s : ml::script_library()) {
      if (s.mode == sysml::PlanMode::kPlanner) specs_.push_back(&s);
    }
  }

  void setup(Recorder* rec) override {
    {
      ScopedSpan span(rec, "la", "setup.generate");
      const Clock::time_point t0 = Clock::now();
      csr_ = la::kdd_like(kCsrRows, kCsrCols, kCsrNnzPerRow, 1.5, seed_);
      dense_ = la::higgs_like(kDenseRows, kDenseCols, seed_ + 1);
      csr_labels_ = make_labels(la::regression_labels(csr_, seed_ + 2, 0.1));
      dense_labels_ =
          make_labels(la::regression_labels(dense_, seed_ + 3, 0.1));
      generate_ms_ = ms_between(t0, Clock::now());
    }
    pass(rec, nullptr);  // warm-up sample
  }

  void prepare_oracles(Phase& checks) override {
    for (const ml::ScriptSpec* s : specs_) {
      const ml::ScriptSpec* twin =
          ml::find_script(s->algorithm, s->dense, sysml::PlanMode::kUnfused);
      Counts planned, unfused;
      Reference ref;
      ref.weights = run(*s, nullptr, &planned).weights;
      ref.unfused = run(*twin, nullptr, &unfused).weights;
      ref.counts = planned;
      ref.speedup = unfused.modeled_ms / planned.modeled_ms;
      ref.bit_identical = std::find(std::begin(kUlpScripts),
                                    std::end(kUlpScripts),
                                    s->name) == std::end(kUlpScripts);
      if (!matches_twin(ref, ref.weights)) {
        checks.fail(s->name + " weights differ from its unfused twin");
      }
      refs_.push_back(std::move(ref));
    }
  }

  void measure(double seconds, Recorder* rec, Phase& out) override {
    const Clock::time_point start = Clock::now();
    while (ms_between(start, Clock::now()) < seconds * 1e3) {
      ++out.attempted;
      const Clock::time_point t0 = Clock::now();
      try {
        pass(rec, &out);
        out.sample_ms.push_back(ms_between(t0, Clock::now()));
        pass_ms_.push_back(out.sample_ms.back());
      } catch (const std::exception& e) {
        out.fail(std::string("sweep script threw: ") + e.what());
      }
    }
    out.seconds = ms_between(start, Clock::now()) / 1e3;
  }

  void modeled_metrics(std::vector<Metric>& out) const override {
    std::vector<double> speedups;
    for (const Reference& r : refs_) speedups.push_back(r.speedup);
    out.push_back({"modeled_ms", per_pass().modeled_ms, "ms", refs_.size(),
                   "modeled device ms per pass over the 18 scripts (exact)"});
    out.push_back({"fusion_speedup", geomean(speedups), "x", speedups.size(),
                   "geomean over the scripts of unfused / planner modeled "
                   "ms (exact)"});
  }

  void layer_metrics(Recorder* rec, Phase& checks,
                     std::vector<Metric>& out) override {
    emit_counts(per_pass(), refs_.size(), out);
    out.push_back({"abft.verify_launches", 0.0, "count", refs_.size(),
                   "verification is off in this workload"});
    Probe p = probe_registry(csr_, seed_, rec, checks);
    p += probe_registry(dense_, seed_, rec, checks);
    emit_probe(p, out);
    emit_serve_counts({}, 0, out);
  }

  void print_details(std::ostream& os) const override {
    print_script_details(os, per_pass(), median(pass_ms_));
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const std::string key = spec_key(*specs_[i]);
      const auto it = host_ms_.find(specs_[i]->name);
      os << "# planner.speedup." << key << " " << refs_[i].speedup
         << " x   ml.solve_host_ms." << key << " p50 "
         << (it == host_ms_.end() ? 0.0 : median(it->second)) << " ms   "
         << (refs_[i].bit_identical ? "bit-identical to unfused"
                                    : "within kUlpTolerance of unfused")
         << "\n";
    }
  }

 private:
  struct Reference {
    std::vector<real> weights;  ///< planner weights (the determinism check)
    std::vector<real> unfused;  ///< the unfused twin's weights
    Counts counts;
    double speedup = 0.0;
    bool bit_identical = false;
  };
  struct Labels {
    std::vector<real> regression, sign, counts;
  };

  Counts per_pass() const {
    Counts sum;
    for (const Reference& r : refs_) sum += r.counts;
    return sum;
  }

  static bool matches_twin(const Reference& ref, std::span<const real> w) {
    return ref.bit_identical
               ? bit_equal(w, ref.unfused)
               : max_scaled_diff(w, ref.unfused) <= kUlpTolerance;
  }

  Labels make_labels(std::vector<real> regression) const {
    Labels l;
    fusedml::Rng rng(seed_ + 4);
    for (const real v : regression) {
      l.sign.push_back(v >= 0 ? real{1} : real{-1});
      l.counts.push_back(
          static_cast<real>(rng.poisson(std::exp(0.1 * std::tanh(v)))));
    }
    l.regression = std::move(regression);
    return l;
  }

  std::span<const real> labels_for(const ml::ScriptSpec& s) const {
    const Labels& l = s.dense ? dense_labels_ : csr_labels_;
    switch (s.algorithm) {
      case ml::Algorithm::kLrCg: return l.regression;
      case ml::Algorithm::kGlm: return l.counts;
      case ml::Algorithm::kLogregGd:
      case ml::Algorithm::kSvm:
      case ml::Algorithm::kMinibatchLogreg: return l.sign;
      default: return {};
    }
  }

  sysml::ScriptResult run(const ml::ScriptSpec& s, Recorder* rec,
                          Counts* counts) const {
    return s.dense
               ? run_script(s, dense_, labels_for(s), kIterations, rec, counts)
               : run_script(s, csr_, labels_for(s), kIterations, rec, counts);
  }

  /// One sample; checks each script against its reference when `out` is
  /// given (the warm-up pass runs before references exist).
  void pass(Recorder* rec, Phase* out) {
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const sysml::ScriptResult r = run(*specs_[i], rec, nullptr);
      if (out == nullptr) continue;
      host_ms_[specs_[i]->name].push_back(ms_between(t0, Clock::now()));
      const Reference& ref = refs_[i];
      if (r.end_to_end_ms != ref.counts.modeled_ms ||
          !bit_equal(r.weights, ref.weights)) {
        out->fail(specs_[i]->name + " is not reproducible run to run");
      }
    }
  }

  std::uint64_t seed_;
  std::vector<const ml::ScriptSpec*> specs_;
  la::CsrMatrix csr_;
  la::DenseMatrix dense_;
  Labels csr_labels_, dense_labels_;
  std::vector<Reference> refs_;
  std::map<std::string, std::vector<double>> host_ms_;
  std::vector<double> pass_ms_;
};

// --- Serving -----------------------------------------------------------------

/// serve_closed: a 2-worker Server under a closed loop of one client thread
/// that keeps kOutstanding Equation-1 PatternEvals in flight, rotating the
/// three priority classes (ABFT full / spot / off).
class ServeClosed final : public Workload {
 public:
  static constexpr int kWorkers = 2;
  static constexpr int kOutstanding = 4 * kWorkers;
  static constexpr int kPool = 48;  ///< distinct prebuilt requests
  static constexpr fusedml::index_t kRows = 600;
  static constexpr fusedml::index_t kCols = 200;
  static constexpr std::chrono::microseconds kPollInterval{20};
  static constexpr real kAlpha = 1.0;
  static constexpr real kBeta = 0.5;
  /// Fused summation order differs from the plain loops'.
  static constexpr double kTolerance = 1e-10;

  explicit ServeClosed(std::uint64_t seed) : seed_(seed) {}

  void setup(Recorder* rec) override {
    {
      ScopedSpan span(rec, "la", "setup.generate");
      const Clock::time_point t0 = Clock::now();
      X_ = la::kdd_like(kRows, kCols, 28.0, 1.5, seed_);
      for (int i = 0; i < kPool; ++i) {
        const std::uint64_t s = seed_ * 1000 + 10 * static_cast<std::uint64_t>(i);
        serve::PatternEval e;
        e.alpha = kAlpha;
        e.beta = kBeta;
        e.y = la::random_vector(kCols, s);
        e.v = la::random_vector(kRows, s + 1);
        e.z = la::random_vector(kCols, s + 2);
        pool_.push_back(std::move(e));
      }
      generate_ms_ = ms_between(t0, Clock::now());
    }
    {
      ScopedSpan span(rec, "ingest", "setup.ingest");
      serve::ServeOptions opts;
      opts.workers = kWorkers;
      opts.verify_interactive = kernels::VerifyPolicy::kFull;
      opts.verify_normal = kernels::VerifyPolicy::kSpot;
      opts.verify_batch = kernels::VerifyPolicy::kOff;
      server_ = std::make_unique<serve::Server>(opts);
      dataset_ = server_->add_dataset(X_);
      server_->start();
    }
    for (auto& e : pool_) e.dataset = dataset_;
    // Warm-up sample: one closed-loop pass over the request pool, so every
    // worker has seen the dataset (and built its ABFT checksums) before
    // the first timed request.
    Phase warm_up;
    run_loop(0.0, kPool, nullptr, warm_up);
    submit_us_.clear();
  }

  void prepare_oracles(Phase& /*checks*/) override {
    for (const auto& e : pool_) {
      expected_.push_back(equation1(X_, e.alpha, e.v, e.y, e.beta, e.z));
    }
    vgpu::Device dev;
    kernels::OpRegistry reg(dev);
    const auto& e = pool_[0];
    const double fused =
        reg.pattern(kernels::Backend::kFused, e.alpha, X_, e.v, e.y, e.beta, e.z)
            .modeled_ms;
    double baseline = 0.0;
    for (const auto b : {kernels::Backend::kCusparse, kernels::Backend::kBidmatGpu}) {
      const double ms = reg.pattern(b, e.alpha, X_, e.v, e.y, e.beta, e.z).modeled_ms;
      baseline = baseline == 0.0 ? ms : std::min(baseline, ms);
    }
    speedup_ = baseline / fused;
  }

  void measure(double seconds, Recorder* rec, Phase& out) override {
    const serve::ServeStats before = server_->stats();
    run_loop(seconds, 0, rec, out);
    const serve::ServeStats after = server_->stats();
    counts_.completed = static_cast<double>(after.completed - before.completed);
    counts_.rejected = static_cast<double>(
        (after.rejected_queue_full + after.rejected_over_capacity +
         after.shed) -
        (before.rejected_queue_full + before.rejected_over_capacity +
         before.shed));
    counts_.deadline_exceeded =
        static_cast<double>(after.deadline_exceeded - before.deadline_exceeded);
    counts_.failed = static_cast<double>(after.failed - before.failed);
    counts_.queue_high_water = static_cast<double>(after.queue_high_water);
  }

  void modeled_metrics(std::vector<Metric>& out) const override {
    out.push_back({"modeled_ms", median(exec_modeled_ms_), "ms",
                   exec_modeled_ms_.size(),
                   "median modeled execution ms per request, ABFT checks "
                   "excluded (exact)"});
    out.push_back({"fusion_speedup", speedup_, "x", 1,
                   "best operator-at-a-time backend / fused modeled ms of "
                   "the request's Equation-1 (exact)"});
  }

  void layer_metrics(Recorder* rec, Phase& checks,
                     std::vector<Metric>& out) override {
    const std::size_t n = exec_modeled_ms_.size();
    const Probe p = probe_registry(X_, seed_, rec, checks);
    Counts per_request = p.pattern_counts;
    emit_counts(per_request, n, out);
    out.push_back({"abft.verify_launches",
                   verify_launches_ / static_cast<double>(n), "count", n,
                   "ABFT launches per completed request"});
    emit_probe(p, out);
    emit_serve_counts(counts_, n, out);
  }

  void print_details(std::ostream& os) const override {
    os << "# serve.submit_us_p50 " << median(submit_us_) << " us (n="
       << submit_us_.size() << ")\n";
    os << "# serve.exec_modeled_ms_p50 " << median(exec_modeled_ms_)
       << " ms\n# abft.verify_ms " << verify_ms_ / static_cast<double>(
                                                       std::max<std::size_t>(
                                                           1, exec_modeled_ms_.size()))
       << " ms per request (modeled)\n";
  }

 private:
  /// Closed loop with kOutstanding requests in flight. Submits until
  /// `seconds` have passed (or, with `budget` > 0, until `budget` requests
  /// were submitted), then waits for the ones still in flight.
  void run_loop(double seconds, std::size_t budget, Recorder* rec,
                Phase& out) {
    struct Slot {
      serve::ServeHandle handle;
      Clock::time_point submitted;
      std::size_t pool_index = 0;
      int span = Recorder::kNoParent;
    };
    std::vector<Slot> slots(kOutstanding);
    std::size_t submitted = 0;
    const Clock::time_point start = Clock::now();
    const double window_ms = seconds * 1e3;
    auto more = [&] {
      return budget > 0 ? submitted < budget
                        : ms_between(start, Clock::now()) < window_ms;
    };
    auto submit = [&](Slot& slot) {
      ++submitted;
      const std::uint64_t tag = next_tag_++;
      slot.pool_index = static_cast<std::size_t>(tag % kPool);
      serve::ServeRequest req = request(tag);
      slot.submitted = Clock::now();
      if (rec != nullptr) {
        slot.span = rec->begin("serve", "serve.request", Recorder::kNoParent, tag);
      }
      {
        ScopedSpan span(rec, "serve.submit", "serve.submit", slot.span, tag);
        const Clock::time_point t0 = Clock::now();
        slot.handle = server_->submit(std::move(req));
        submit_us_.push_back(ms_between(t0, Clock::now()) * 1e3);
      }
      ++out.attempted;
    };

    for (Slot& s : slots) submit(s);
    std::size_t in_flight = slots.size();
    while (in_flight > 0) {
      bool any = false;
      for (Slot& s : slots) {
        if (!s.handle.valid() || !s.handle.resolved()) continue;
        any = true;
        const Clock::time_point done = Clock::now();
        if (rec != nullptr) rec->end(s.span);
        const serve::ServeOutcome& o = s.handle.wait();
        out.sample_ms.push_back(ms_between(s.submitted, done));
        if (!expected_.empty()) check(s.pool_index, o, out);
        s.handle = serve::ServeHandle();
        --in_flight;
        if (more()) {
          submit(s);
          ++in_flight;
        }
      }
      // Sleep rather than spin between scans: a spinning client would
      // compete with the two workers for the host's cores.
      if (!any) std::this_thread::sleep_for(kPollInterval);
    }
    out.seconds = window_ms / 1e3;
  }

  serve::ServeRequest request(std::uint64_t tag) const {
    serve::ServeRequest r;
    r.work = pool_[static_cast<std::size_t>(tag % kPool)];
    r.priority = static_cast<serve::Priority>(tag % serve::kNumPriorities);
    r.tag = tag;
    return r;
  }

  void check(std::size_t pool_index, const serve::ServeOutcome& o, Phase& out) {
    if (o.kind != serve::OutcomeKind::kCompleted) {
      out.fail(std::string("request ended ") + serve::to_string(o.kind) +
               ": " + o.error);
      return;
    }
    exec_modeled_ms_.push_back(o.modeled_ms - o.resilience.verify_ms);
    verify_launches_ += static_cast<double>(o.resilience.verify_launches);
    verify_ms_ += o.resilience.verify_ms;
    if (max_scaled_diff(o.value, expected_[pool_index]) > kTolerance) {
      out.fail("request value differs from the plain-loop Equation-1 oracle");
    }
  }

  std::uint64_t seed_;
  la::CsrMatrix X_;
  std::vector<serve::PatternEval> pool_;
  std::vector<std::vector<real>> expected_;
  std::unique_ptr<serve::Server> server_;
  serve::DatasetId dataset_ = 0;
  std::uint64_t next_tag_ = 1;
  double speedup_ = 0.0;
  std::vector<double> exec_modeled_ms_;
  std::vector<double> submit_us_;
  double verify_launches_ = 0.0;
  double verify_ms_ = 0.0;
  ServeCounts counts_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"kdd_sparse", "library_sweep",
                                                 "serve_closed"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "kdd_sparse") return std::make_unique<KddSparse>(seed);
  if (name == "library_sweep") return std::make_unique<LibrarySweep>(seed);
  if (name == "serve_closed") return std::make_unique<ServeClosed>(seed);
  return nullptr;
}

}  // namespace perfbench
