#include "ml/script_library.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.h"
#include "kernels/ewise_program.h"
#include "la/convert.h"
#include "la/vector_ops.h"
#include "sysml/checkpoint.h"

// The lr-cg, glm, svm and hits scripts issue the op stream of the
// imperative solvers they replaced, op for op: the same registry kernels
// fire in the same order, reductions run where those solvers ran them (host
// la::dot/nrm2 where they reduced on the host, runtime op_dot/op_nrm2 where
// they reduced through the registry), and elementwise work moves onto the
// device only where that is bit-exact by construction. That is what keeps
// them equal to the frozen weights in tests/golden/legacy_oracles.golden;
// see each port's comments for the venue decisions.
//
// Every script discards each run() output, and each leaf it registers per
// iteration, after its last read, and a loop-carried tensor when its
// successor replaces it (sysml/runtime.h, tensor lifetime). A solver's
// live tensors therefore do not grow with its iteration count.

namespace fusedml::ml {

using sysml::Expr;
using sysml::ExprBuilder;
using sysml::Program;
using sysml::Runtime;
using sysml::TensorId;

namespace {

real inv_link_gaussian(real eta) { return eta; }
real inv_link_poisson(real eta) { return std::exp(std::min<real>(eta, 30.0)); }
real inv_link_binomial(real eta) {
  return real{1} / (real{1} + std::exp(-eta));
}

real var_weight_gaussian(real) { return real{1}; }
real var_weight_poisson(real mu) { return std::max<real>(mu, 1e-10); }
real var_weight_binomial(real mu) {
  return std::max<real>(mu * (1 - mu), 1e-10);
}

}  // namespace

real (*glm_inverse_link(GlmFamily family))(real) {
  switch (family) {
    case GlmFamily::kGaussian: return inv_link_gaussian;
    case GlmFamily::kPoisson: return inv_link_poisson;
    case GlmFamily::kBinomial: return inv_link_binomial;
  }
  return inv_link_gaussian;
}

real (*glm_variance_weight(GlmFamily family))(real) {
  switch (family) {
    case GlmFamily::kGaussian: return var_weight_gaussian;
    case GlmFamily::kPoisson: return var_weight_poisson;
    case GlmFamily::kBinomial: return var_weight_binomial;
  }
  return var_weight_gaussian;
}

const char* to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kLrCg: return "lr_cg";
    case Algorithm::kLogregGd: return "logreg_gd";
    case Algorithm::kGlm: return "glm";
    case Algorithm::kSvm: return "svm";
    case Algorithm::kHits: return "hits";
    case Algorithm::kAls: return "als";
    case Algorithm::kKmeans: return "kmeans";
    case Algorithm::kPagerank: return "pagerank";
    case Algorithm::kMinibatchLogreg: return "minibatch_logreg";
  }
  return "?";
}

namespace {

/// Checkpoint slot for a runtime-owned vector tensor: snapshot by host
/// read, restore by writing the saved values back into the tensor the
/// solver currently reads (all of a solver's generations of a loop-carried
/// tensor share one length, so this also covers re-bound tensors like
/// GLM's eta or HITS' a — the set-lambda captures the live TensorId by
/// reference).
void track_tensor(sysml::SolverCheckpoint& ckpt, Runtime& rt,
                  const TensorId& id) {
  ckpt.track_vector(
      [&rt, &id] {
        const auto v = rt.read_vector(id);
        return std::vector<real>(v.begin(), v.end());
      },
      [&rt, &id](const std::vector<real>& saved) {
        rt.write_vector(id, saved);
      });
}

/// Checkpoint slot for solver state held in a host std::vector.
void track_host(sysml::SolverCheckpoint& ckpt, std::vector<real>& v) {
  ckpt.track_vector([&v] { return v; },
                    [&v](const std::vector<real>& saved) { v = saved; });
}

/// Registers X; pass a matrix the script no longer needs as an rvalue so
/// the runtime takes it over instead of holding a second host copy.
template <typename Matrix>
TensorId add_matrix(Runtime& rt, Matrix X, std::string name) {
  if constexpr (std::is_same_v<Matrix, la::CsrMatrix>) {
    return rt.add_sparse(std::move(X), std::move(name));
  } else {
    return rt.add_dense(std::move(X), std::move(name));
  }
}

la::CsrMatrix take_rows(const la::CsrMatrix& X,
                        std::span<const index_t> rows) {
  return la::select_rows(X, rows);
}

la::DenseMatrix take_rows(const la::DenseMatrix& X,
                          std::span<const index_t> rows) {
  std::vector<real> data;
  data.reserve(rows.size() * static_cast<usize>(X.cols()));
  for (const index_t r : rows) {
    for (index_t c = 0; c < X.cols(); ++c) data.push_back(X.at(r, c));
  }
  return la::DenseMatrix(static_cast<index_t>(rows.size()), X.cols(),
                         std::move(data));
}

/// Copies the runtime's books into the result (shared epilogue).
void finish(Runtime& rt, Program* programs[], int num_programs,
            int iterations, ScriptResult& out) {
  out.iterations = iterations;
  out.fused_groups = 0;
  out.plans_built = 0;
  out.plan_cache_hits = 0;
  for (int i = 0; i < num_programs; ++i) {
    out.fused_groups += programs[i]->fused_groups();
    out.plans_built += programs[i]->plans_built();
    out.plan_cache_hits += programs[i]->plan_cache_hits();
    if (!programs[i]->plan_explain().empty()) {
      out.plan_explain += programs[i]->plan_explain();
    }
  }
  out.runtime_stats = rt.stats();
  out.memory_stats = rt.memory_stats();
  out.end_to_end_ms = out.runtime_stats.total_ms();
  out.plan_audit = rt.plan_audit();
}

// --- lr-cg: Listing 1, the q = (X^T (X p)) + eps*p product as a Program ----

template <typename Matrix>
ScriptResult lr_cg_impl(Runtime& rt, const Matrix& X,
                        std::span<const real> y, PlanMode mode,
                        ScriptConfig config) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.rows()),
                "labels must have one entry per row");
  ScriptResult out;
  const auto n = static_cast<usize>(X.cols());

  const TensorId Xid = add_matrix(rt, X, "V");
  const TensorId yid = rt.add_vector({y.begin(), y.end()}, "y");

  // r = -(t(V) %*% y);  p = -r;  nr2 = sum(r*r).
  const TensorId rid = rt.op_transposed_product(Xid, yid, real{-1});
  const auto r_view = rt.read_vector(rid);
  const TensorId pid = rt.add_vector({r_view.begin(), r_view.end()}, "p");
  rt.op_scal(real{-1}, pid);
  real nr2 = rt.op_dot(rid, rid);
  const real nr2_target = nr2 * config.tolerance * config.tolerance;
  const TensorId wid = rt.new_vector(n, "w");

  // The per-iteration DAG, planned once per shape.
  ExprBuilder b;
  const Expr V = b.matrix("V");
  const Expr p = b.vector("p");
  b.output("q", ExprBuilder::add(
                    ExprBuilder::spmv_t(V, ExprBuilder::spmv(V, p)),
                    ExprBuilder::scale(config.eps, p)));
  Program prog = b.build();
  prog.bind("V", Xid);
  prog.bind("p", pid);
  prog.prepare(rt, mode);

  // Live CG state: a transient fault that escapes the per-op retry loop
  // rolls the solve back to the last snapshot instead of losing it.
  sysml::SolverCheckpoint ckpt(rt);
  track_tensor(ckpt, rt, wid);
  track_tensor(ckpt, rt, rid);
  track_tensor(ckpt, rt, pid);
  ckpt.track_scalar([&nr2] { return nr2; }, [&nr2](real s) { nr2 = s; });

  int i = 0;
  while (i < config.max_iterations && nr2 > nr2_target) {
    ckpt.save_if_due(i);
    try {
      const TensorId qid = rt.run(prog, "q");
      const real alpha = nr2 / rt.op_dot(pid, qid);
      rt.op_axpy(alpha, pid, wid);
      rt.op_axpy(alpha, qid, rid);
      rt.discard(qid);
      const real old_nr2 = nr2;
      nr2 = rt.op_dot(rid, rid);
      const real beta = nr2 / old_nr2;
      rt.op_scal(beta, pid);
      rt.op_axpy(real{-1}, rid, pid);
      ++i;
    } catch (const Error& e) {
      i = ckpt.rollback(e);
    }
  }

  const auto w_view = rt.read_vector(wid);
  out.weights.assign(w_view.begin(), w_view.end());
  Program* programs[] = {&prog};
  finish(rt, programs, 1, i, out);
  return out;
}

// --- logreg gradient descent: the whole gradient as one Program ------------

template <typename Matrix>
ScriptResult logreg_gd_impl(Runtime& rt, const Matrix& X,
                            std::span<const real> y, PlanMode mode,
                            GdConfig config) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.rows()),
                "labels must have one entry per row");
  ScriptResult out;
  const auto n = static_cast<usize>(X.cols());

  const TensorId Xid = add_matrix(rt, X, "X");
  const TensorId nyid = rt.add_vector({y.begin(), y.end()}, "neg_y");
  rt.op_scal(real{-1}, nyid);
  const TensorId wid = rt.new_vector(n, "w");

  // g = X^T (sigmoid(-y ⊙ (X w)) ⊙ -y) + lambda*w — the elementwise chain
  // and the gradient glue are both planner fusion candidates.
  ExprBuilder b;
  const Expr Xe = b.matrix("X");
  const Expr w = b.vector("w");
  const Expr ny = b.vector("neg_y");
  const Expr margins = ExprBuilder::map(
      ExprBuilder::mul(ny, ExprBuilder::spmv(Xe, w)), stable_sigmoid,
      "sigmoid");
  const Expr resid = ExprBuilder::mul(margins, ny);
  b.output("g", ExprBuilder::add(ExprBuilder::spmv_t(Xe, resid),
                                 ExprBuilder::scale(config.lambda, w)));
  Program prog = b.build();
  prog.bind("X", Xid);
  prog.bind("w", wid);
  prog.bind("neg_y", nyid);
  prog.prepare(rt, mode);

  sysml::SolverCheckpoint ckpt(rt);
  track_tensor(ckpt, rt, wid);

  int it = 0;
  while (it < config.iterations) {
    ckpt.save_if_due(it);
    try {
      const TensorId gid = rt.run(prog, "g");
      rt.op_axpy(-config.step, gid, wid);
      rt.discard(gid);
      ++it;
    } catch (const Error& e) {
      it = ckpt.rollback(e);
    }
  }

  const auto w_view = rt.read_vector(wid);
  out.weights.assign(w_view.begin(), w_view.end());
  Program* programs[] = {&prog};
  finish(rt, programs, 1, it, out);
  return out;
}

// --- GLM / IRLS -------------------------------------------------------------
//
// Four programs: the per-row prep chains (W and the score residual), the
// gradient, the Fisher product (the Table-1 pattern), and the line-search
// eta. The CG recurrences stay on host la:: reductions, which keeps
// planner-mode results on a device-placed runtime bit-identical to the
// frozen IRLS oracle weights.

template <typename Matrix>
ScriptResult glm_impl(Runtime& rt, const Matrix& X, std::span<const real> y,
                      PlanMode mode, GlmConfig config) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.rows()),
                "labels must have one entry per row");
  const auto m = static_cast<usize>(X.rows());
  const auto n = static_cast<usize>(X.cols());
  ScriptResult out;

  real (*const inv_link)(real) = glm_inverse_link(config.family);
  real (*const var_weight)(real) = glm_variance_weight(config.family);

  const TensorId Xid = add_matrix(rt, X, "X");
  const TensorId yid = rt.add_vector({y.begin(), y.end()}, "y");
  TensorId eta_id = rt.new_vector(m, "eta");  // eta = X*w starts at 0
  const TensorId wid = rt.new_vector(n, "w");
  const TensorId pid = rt.new_vector(n, "p");
  const TensorId wtid = rt.new_vector(n, "w_trial");

  // W = var(g^{-1}(eta));  resid = g^{-1}(eta) - y. The two mu maps are
  // deliberately separate nodes: sharing one would make it a multi-consumer
  // intermediate and block both elementwise chains from fusing.
  ExprBuilder pb;
  const Expr eta_e = pb.vector("eta");
  const Expr y_e = pb.vector("y");
  pb.output("wdiag",
            ExprBuilder::map(ExprBuilder::map(eta_e, inv_link, "inv_link"),
                             var_weight, "variance"));
  pb.output("resid",
            ExprBuilder::add(ExprBuilder::map(eta_e, inv_link, "inv_link"),
                             ExprBuilder::scale(real{-1}, y_e)));
  Program prep = pb.build();
  prep.bind("eta", eta_id);
  prep.bind("y", yid);

  // g = X^T resid + ridge*w (the {scale, add} tail is a fusable chain).
  ExprBuilder gb;
  const Expr Xg = gb.matrix("X");
  const Expr r_e = gb.vector("resid");
  const Expr w_e = gb.vector("w");
  gb.output("grad", ExprBuilder::add(ExprBuilder::spmv_t(Xg, r_e),
                                     ExprBuilder::scale(config.ridge, w_e)));
  Program gradp = gb.build();
  gradp.bind("X", Xid);
  gradp.bind("w", wid);

  // Fp = X^T (W ⊙ (X p)) + ridge*p — Equation 1 with v = W, beta = ridge.
  ExprBuilder fb;
  const Expr Xf = fb.matrix("X");
  const Expr wd_e = fb.vector("wdiag");
  const Expr p_e = fb.vector("p");
  fb.output("Fp", ExprBuilder::pattern(real{1}, Xf, wd_e, p_e, config.ridge,
                                       p_e));
  Program fisher = fb.build();
  fisher.bind("X", Xid);

  ExprBuilder eb;
  const Expr Xe = eb.matrix("X");
  const Expr wt_e = eb.vector("w_trial");
  eb.output("eta", ExprBuilder::spmv(Xe, wt_e));
  Program etap = eb.build();
  etap.bind("X", Xid);
  etap.bind("w_trial", wtid);

  std::vector<real> w(n, real{0});
  int iterations = 0;

  // IRLS state: the weight vector lives on the host, the loop-carried eta
  // in whichever tensor eta_id currently names (the set-lambda writes the
  // snapshot back into the live tensor, which prep already binds).
  sysml::SolverCheckpoint ckpt(rt);
  track_host(ckpt, w);
  track_tensor(ckpt, rt, eta_id);

  int it = 0;
  while (it < config.max_irls_iterations) {
    ckpt.save_if_due(it);
    try {
    prep.prepare(rt, mode);
    const TensorId wdiag_id = rt.run(prep, "wdiag");
    const TensorId resid_id = rt.run(prep, "resid");

    rt.write_vector(wid, w);
    gradp.bind("resid", resid_id);
    gradp.prepare(rt, mode);
    const TensorId grad_id = rt.run(gradp, "grad");
    rt.discard(resid_id);
    const auto grad_view = rt.read_vector(grad_id);
    const std::vector<real> grad(grad_view.begin(), grad_view.end());
    rt.discard(grad_id);

    const real gnorm = la::nrm2(grad);
    if (gnorm <= config.gradient_tolerance) {
      rt.discard(wdiag_id);
      break;
    }

    // CG on (X^T W X + ridge I) d = -g; recurrences on the host, the
    // Fisher product through the planned pattern.
    std::vector<real> d(n, real{0});
    std::vector<real> r = grad;
    std::vector<real> p(n);
    for (usize j = 0; j < n; ++j) p[j] = -grad[j];
    real rr = la::dot(r, r);
    fisher.bind("wdiag", wdiag_id);
    fisher.bind("p", pid);
    fisher.prepare(rt, mode);
    for (int cg = 0;
         cg < config.max_cg_iterations && std::sqrt(rr) > real{0.05} * gnorm;
         ++cg) {
      rt.write_vector(pid, p);
      const TensorId fp_id = rt.run(fisher, "Fp");
      const auto fp_view = rt.read_vector(fp_id);
      const std::vector<real> fp(fp_view.begin(), fp_view.end());
      rt.discard(fp_id);
      const real pfp = la::dot(p, fp);
      if (pfp <= 0) break;
      const real alpha = rr / pfp;
      la::axpy(alpha, p, d);
      la::axpy(alpha, fp, r);
      const real rr_new = la::dot(r, r);
      const real beta = rr_new / rr;
      rr = rr_new;
      for (usize j = 0; j < n; ++j) p[j] = -r[j] + beta * p[j];
    }
    rt.discard(wdiag_id);

    // Damped update: halve until eta = X*(w + step*d) stays finite.
    real step = 1.0;
    for (int ls = 0; ls < 6; ++ls) {
      std::vector<real> w_new = w;
      la::axpy(step, d, w_new);
      rt.write_vector(wtid, w_new);
      etap.prepare(rt, mode);
      const TensorId trial_eta = rt.run(etap, "eta");
      const auto eta_view = rt.read_vector(trial_eta);
      bool finite = true;
      for (const real e : eta_view) {
        if (!std::isfinite(e) || std::abs(e) > 50) {
          finite = false;
          break;
        }
      }
      if (finite) {
        w = std::move(w_new);
        // Loop-carried: the next prep reads this eta; the old one is dead.
        rt.discard(std::exchange(eta_id, trial_eta));
        prep.bind("eta", eta_id);
        break;
      }
      rt.discard(trial_eta);
      step *= real{0.5};
    }
    iterations = it + 1;
    ++it;
    } catch (const Error& e) {
      it = ckpt.rollback(e);
    }
  }

  out.weights = std::move(w);
  Program* programs[] = {&prep, &gradp, &fisher, &etap};
  finish(rt, programs, 4, iterations, out);
  return out;
}

// --- SVM (primal, squared hinge, Newton + CG) -------------------------------
//
// The row-restricted matrix X_I changes every Newton step, so the gradient
// and Hessian programs re-bind "Xi" each step; the plan cache keys on the
// leaf shapes, so a recurring support-set size replans nothing.

real svm_objective(real C, std::span<const real> w,
                   std::span<const real> margins, std::span<const real> y) {
  real f = 0;
  for (usize i = 0; i < margins.size(); ++i) {
    const real slack = std::max<real>(0, real{1} - y[i] * margins[i]);
    f += slack * slack;
  }
  real wn = 0;
  for (const real x : w) wn += x * x;
  return real{0.5} * wn + C * f;
}

template <typename Matrix>
ScriptResult svm_impl(Runtime& rt, const Matrix& X, std::span<const real> y,
                      PlanMode mode, SvmConfig config) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.rows()),
                "labels must have one entry per row");
  const auto m = static_cast<usize>(X.rows());
  const auto n = static_cast<usize>(X.cols());
  ScriptResult out;

  const TensorId Xid = add_matrix(rt, X, "X");
  const TensorId wid = rt.new_vector(n, "w");
  const TensorId pid = rt.new_vector(n, "p");
  const TensorId wtid = rt.new_vector(n, "w_trial");

  // g = 2C * X_I^T resid + w, the 2C applied per-term inside the kernel
  // exactly like a transposed_product(alpha) call.
  ExprBuilder gb;
  const Expr Xig = gb.matrix("Xi");
  const Expr r_e = gb.vector("resid");
  const Expr w_e = gb.vector("w");
  gb.output("grad",
            ExprBuilder::add(ExprBuilder::spmv_t(Xig, r_e, 2 * config.C),
                             w_e));
  Program gradp = gb.build();
  gradp.bind("w", wid);

  // Hp = 2C * X_I^T (X_I p) + p — Equation 1 with alpha = 2C, beta = 1.
  ExprBuilder hb;
  const Expr Xih = hb.matrix("Xi");
  const Expr p_e = hb.vector("p");
  hb.output("Hp", ExprBuilder::pattern(2 * config.C, Xih, Expr{}, p_e,
                                       real{1}, p_e));
  Program hess = hb.build();
  hess.bind("p", pid);

  ExprBuilder mb;
  const Expr Xm = mb.matrix("X");
  const Expr wt_e = mb.vector("w_trial");
  mb.output("margins", ExprBuilder::spmv(Xm, wt_e));
  Program marginp = mb.build();
  marginp.bind("X", Xid);
  marginp.bind("w_trial", wtid);

  std::vector<real> w(n, real{0});
  std::vector<real> margins(m, real{0});
  int iterations = 0;

  // Newton state is all host-side: weights and cached margins.
  sysml::SolverCheckpoint ckpt(rt);
  track_host(ckpt, w);
  track_host(ckpt, margins);

  int newton = 0;
  while (newton < config.max_newton_iterations) {
    ckpt.save_if_due(newton);
    try {
    std::vector<index_t> sv;
    for (usize i = 0; i < m; ++i) {
      if (y[i] * margins[i] < real{1}) sv.push_back(static_cast<index_t>(i));
    }
    if (sv.empty()) break;
    const TensorId Xi_id = add_matrix(rt, take_rows(X, sv), "Xi");

    std::vector<real> resid(sv.size());
    for (usize k = 0; k < sv.size(); ++k) {
      const auto i = static_cast<usize>(sv[k]);
      resid[k] = margins[i] - y[i];
    }
    const TensorId resid_id =
        rt.add_vector(std::move(resid), "resid");

    rt.write_vector(wid, w);
    gradp.bind("Xi", Xi_id);
    gradp.bind("resid", resid_id);
    gradp.prepare(rt, mode);
    const TensorId grad_id = rt.run(gradp, "grad");
    rt.discard(resid_id);
    const auto grad_view = rt.read_vector(grad_id);
    const std::vector<real> grad(grad_view.begin(), grad_view.end());
    rt.discard(grad_id);

    const real gnorm = la::nrm2(grad);
    if (gnorm <= config.gradient_tolerance) {
      rt.discard(Xi_id);
      break;
    }

    // CG on (I + 2C X_I^T X_I) d = -g.
    std::vector<real> d(n, real{0});
    std::vector<real> r = grad;
    std::vector<real> p(n);
    for (usize j = 0; j < n; ++j) p[j] = -grad[j];
    real rr = la::dot(r, r);
    hess.bind("Xi", Xi_id);
    hess.prepare(rt, mode);
    for (int cg = 0;
         cg < config.max_cg_iterations && std::sqrt(rr) > real{0.01} * gnorm;
         ++cg) {
      rt.write_vector(pid, p);
      const TensorId hp_id = rt.run(hess, "Hp");
      const auto hp_view = rt.read_vector(hp_id);
      const std::vector<real> hp(hp_view.begin(), hp_view.end());
      rt.discard(hp_id);
      const real php = la::dot(p, hp);
      if (php <= 0) break;
      const real alpha = rr / php;
      la::axpy(alpha, p, d);
      la::axpy(alpha, hp, r);
      const real rr_new = la::dot(r, r);
      const real beta = rr_new / rr;
      rr = rr_new;
      for (usize j = 0; j < n; ++j) p[j] = -r[j] + beta * p[j];
    }
    rt.discard(Xi_id);

    // Backtracking line search on the squared-hinge objective.
    const real f_old = svm_objective(config.C, w, margins, y);
    real step = 1.0;
    bool improved = false;
    for (int ls = 0; ls < 8; ++ls) {
      std::vector<real> w_new = w;
      la::axpy(step, d, w_new);
      rt.write_vector(wtid, w_new);
      marginp.prepare(rt, mode);
      const TensorId margins_id = rt.run(marginp, "margins");
      const auto margins_view = rt.read_vector(margins_id);
      const real f_new = svm_objective(config.C, w_new, margins_view, y);
      if (f_new < f_old) {
        w = std::move(w_new);
        margins.assign(margins_view.begin(), margins_view.end());
        improved = true;
      }
      rt.discard(margins_id);
      if (improved) break;
      step *= real{0.5};
    }
    iterations = newton + 1;
    ++newton;
    if (!improved) break;
    } catch (const Error& e) {
      newton = ckpt.rollback(e);
    }
  }

  out.weights = std::move(w);
  Program* programs[] = {&gradp, &hess, &marginp};
  finish(rt, programs, 3, iterations, out);
  return out;
}

// --- HITS power iteration ---------------------------------------------------
//
// Loop-carried state via re-binding: each refresh reads the previous
// iteration's (normalized) output tensor as the new "a".

template <typename Matrix>
ScriptResult hits_impl(Runtime& rt, const Matrix& X, PlanMode mode,
                       HitsConfig config) {
  FUSEDML_CHECK(X.rows() > 0 && X.cols() > 0, "empty adjacency matrix");
  const auto n = static_cast<usize>(X.cols());
  ScriptResult out;

  const TensorId Xid = add_matrix(rt, X, "X");
  std::vector<real> a(n, real{1} / std::sqrt(static_cast<real>(n)));
  TensorId aid = rt.add_vector(a, "a");

  // a' = X^T (X a) — the Table-1 HITS instantiation of Equation 1.
  ExprBuilder rb;
  const Expr Xr = rb.matrix("X");
  const Expr a_e = rb.vector("a");
  rb.output("a_next", ExprBuilder::spmv_t(Xr, ExprBuilder::spmv(Xr, a_e)));
  Program refresh = rb.build();
  refresh.bind("X", Xid);

  ExprBuilder hbuild;
  const Expr Xh = hbuild.matrix("X");
  const Expr ah = hbuild.vector("a");
  hbuild.output("h", ExprBuilder::spmv(Xh, ah));
  Program hubs = hbuild.build();
  hubs.bind("X", Xid);

  // Power-iteration state: the host copy of a plus whichever tensor aid
  // currently names (restored in place; refresh re-binds aid every pass).
  sysml::SolverCheckpoint ckpt(rt);
  track_host(ckpt, a);
  track_tensor(ckpt, rt, aid);

  int iterations = 0;
  bool converged = false;
  int it = 0;
  while (it < config.max_iterations && !converged) {
    ckpt.save_if_due(it);
    try {
      refresh.bind("a", aid);
      refresh.prepare(rt, mode);
      const TensorId a_new = rt.run(refresh, "a_next");
      const real norm = rt.op_nrm2(a_new);
      if (norm <= 0) {  // no links at all
        rt.discard(a_new);
        break;
      }
      rt.op_scal(real{1} / norm, a_new);

      const auto view = rt.read_vector(a_new);
      real delta = 0;
      for (usize j = 0; j < n; ++j) {
        const real dj = view[j] - a[j];
        delta += dj * dj;
      }
      a.assign(view.begin(), view.end());
      rt.discard(std::exchange(aid, a_new));
      iterations = it + 1;
      converged = std::sqrt(delta) <= config.tolerance;
      ++it;
    } catch (const Error& e) {
      it = ckpt.rollback(e);
    }
  }

  // Hub scores h = X a for the final authorities (kept so the op stream —
  // and with it every modeled number — stays put; the script returns the
  // authorities).
  hubs.bind("a", aid);
  hubs.prepare(rt, mode);
  const TensorId hid = rt.run(hubs, "h");
  const auto h_view = rt.read_vector(hid);
  std::vector<real> h(h_view.begin(), h_view.end());
  rt.discard(hid);
  const real hn = la::nrm2(h);
  if (hn > 0) la::scal(real{1} / hn, h);

  out.weights = std::move(a);
  Program* programs[] = {&refresh, &hubs};
  finish(rt, programs, 2, iterations, out);
  return out;
}

// --- ALS (rank-1, alternating CG) -------------------------------------------
//
// Factorizes the ratings matrix R ≈ u v^T over R's OBSERVED entries only:
// each half-step solves a ridge normal system whose Hessian-vector product
// is the sddmm-shaped masked expression
//     H p = (M ⊙ (p v^T)) v + lambda*p
// built from outer_map + sparse_mask + spmv. Under the planner that whole
// subexpression collapses into the sparsity-exploiting fused kernel, which
// touches only nnz(M) and never materializes the m*n outer map; the unfused
// interpretation materializes it, which is exactly the traffic the plan
// explain shows being saved. CG recurrences stay on the host (la::dot /
// la::axpy), so planner vs unfused is bit-exact.

la::CsrMatrix pattern_mask(const la::CsrMatrix& X) {
  return la::CsrMatrix(
      X.rows(), X.cols(), {X.row_off().begin(), X.row_off().end()},
      {X.col_idx().begin(), X.col_idx().end()},
      std::vector<real>(static_cast<usize>(X.nnz()), real{1}));
}

la::DenseMatrix pattern_mask(const la::DenseMatrix& X) {
  std::vector<real> data(X.data().begin(), X.data().end());
  for (real& x : data) x = x != real{0} ? real{1} : real{0};
  return la::DenseMatrix(X.rows(), X.cols(), std::move(data));
}

template <typename Matrix>
ScriptResult als_impl(Runtime& rt, const Matrix& R, PlanMode mode,
                      AlsConfig config) {
  FUSEDML_CHECK(R.rows() > 0 && R.cols() > 0, "empty ratings matrix");
  const auto m = static_cast<usize>(R.rows());
  const auto n = static_cast<usize>(R.cols());
  ScriptResult out;

  Matrix M = pattern_mask(R);
  Matrix Mt = la::transpose(M);
  const TensorId Rid = add_matrix(rt, R, "R");
  const TensorId Rtid = add_matrix(rt, la::transpose(R), "Rt");
  const TensorId Mid = add_matrix(rt, std::move(M), "M");
  const TensorId Mtid = add_matrix(rt, std::move(Mt), "Mt");

  std::vector<real> u(m, real{1});
  std::vector<real> v(n, real{1});
  const TensorId uid = rt.add_vector(u, "u");
  const TensorId vid = rt.add_vector(v, "v");
  const TensorId pid = rt.new_vector(m, "p");  // CG direction, u half-step
  const TensorId qid = rt.new_vector(n, "q");  // CG direction, v half-step

  // H p = (M ⊙ (p v^T)) v + lambda*p, and the mirrored system over Mt.
  ExprBuilder hu;
  {
    const Expr Mh = hu.matrix("M");
    const Expr vh = hu.vector("v");
    const Expr ph = hu.vector("p");
    const Expr masked = ExprBuilder::spmv(
        ExprBuilder::sparse_mask(
            Mh, ExprBuilder::outer_map(ph, vh, kernels::identity_map, "id")),
        vh);
    hu.output("Hp", ExprBuilder::add(masked,
                                     ExprBuilder::scale(config.lambda, ph)));
  }
  Program hup = hu.build();
  hup.bind("M", Mid);
  hup.bind("v", vid);
  hup.bind("p", pid);

  ExprBuilder hv;
  {
    const Expr Mh = hv.matrix("Mt");
    const Expr uh = hv.vector("u");
    const Expr qh = hv.vector("q");
    const Expr masked = ExprBuilder::spmv(
        ExprBuilder::sparse_mask(
            Mh, ExprBuilder::outer_map(qh, uh, kernels::identity_map, "id")),
        uh);
    hv.output("Hp", ExprBuilder::add(masked,
                                     ExprBuilder::scale(config.lambda, qh)));
  }
  Program hvp = hv.build();
  hvp.bind("Mt", Mtid);
  hvp.bind("u", uid);
  hvp.bind("q", qid);

  // Right-hand sides: b_u = R v, b_v = R^T u (over the pre-transposed leaf).
  ExprBuilder bu;
  bu.output("b", ExprBuilder::spmv(bu.matrix("R"), bu.vector("v")));
  Program bup = bu.build();
  bup.bind("R", Rid);
  bup.bind("v", vid);

  ExprBuilder bv;
  bv.output("b", ExprBuilder::spmv(bv.matrix("Rt"), bv.vector("u")));
  Program bvp = bv.build();
  bvp.bind("Rt", Rtid);
  bvp.bind("u", uid);

  // One ridge half-step from x = 0: CG on H x = b with the product on the
  // device and the recurrences on the host, like the GLM/SVM ports.
  auto half_step = [&](Program& bprog, Program& hprog, TensorId dir_id,
                       std::vector<real>& x) {
    bprog.prepare(rt, mode);
    const TensorId b_id = rt.run(bprog, "b");
    const auto b_view = rt.read_vector(b_id);
    std::vector<real> p(b_view.begin(), b_view.end());
    rt.discard(b_id);
    std::vector<real> r(p.size());
    for (usize j = 0; j < p.size(); ++j) r[j] = -p[j];
    std::vector<real> xv(p.size(), real{0});
    real rr = la::dot(r, r);
    hprog.prepare(rt, mode);
    for (int cg = 0; cg < config.max_cg_iterations && rr > real{0}; ++cg) {
      rt.write_vector(dir_id, p);
      const TensorId hp_id = rt.run(hprog, "Hp");
      const auto hp_view = rt.read_vector(hp_id);
      const std::vector<real> hp(hp_view.begin(), hp_view.end());
      rt.discard(hp_id);
      const real php = la::dot(p, hp);
      if (php <= 0) break;
      const real alpha = rr / php;
      la::axpy(alpha, p, xv);
      la::axpy(alpha, hp, r);
      const real rr_new = la::dot(r, r);
      const real beta = rr_new / rr;
      rr = rr_new;
      for (usize j = 0; j < p.size(); ++j) p[j] = -r[j] + beta * p[j];
    }
    x = std::move(xv);
  };

  sysml::SolverCheckpoint ckpt(rt);
  track_host(ckpt, u);
  track_host(ckpt, v);

  int iterations = 0;
  int it = 0;
  while (it < config.max_outer) {
    ckpt.save_if_due(it);
    try {
      rt.write_vector(vid, v);
      half_step(bup, hup, pid, u);  // u | v fixed
      rt.write_vector(uid, u);
      half_step(bvp, hvp, qid, v);  // v | u fixed
      iterations = it + 1;
      ++it;
    } catch (const Error& e) {
      it = ckpt.rollback(e);
    }
  }

  out.weights = std::move(v);
  Program* programs[] = {&hup, &hvp, &bup, &bvp};
  finish(rt, programs, 4, iterations, out);
  return out;
}

// --- k-means (Lloyd's) ------------------------------------------------------
//
// The device computes the -2 X c cross term of the squared distance through
// one program re-bound per centroid ({spmv, scale} — one fused row-template
// launch under the planner); ||x_i||^2 is assignment-invariant and
// precomputed, assignment and centroid refresh stay on the host.

void add_row_into(const la::CsrMatrix& X, index_t r, std::span<real> dst) {
  for (offset_t k = X.row_begin(r); k < X.row_end(r); ++k) {
    dst[static_cast<usize>(X.col_idx()[static_cast<usize>(k)])] +=
        X.values()[static_cast<usize>(k)];
  }
}

void add_row_into(const la::DenseMatrix& X, index_t r, std::span<real> dst) {
  const auto row = X.row(r);
  for (usize c = 0; c < row.size(); ++c) dst[c] += row[c];
}

real row_norm2(const la::CsrMatrix& X, index_t r) {
  real s = 0;
  for (offset_t k = X.row_begin(r); k < X.row_end(r); ++k) {
    const real x = X.values()[static_cast<usize>(k)];
    s += x * x;
  }
  return s;
}

real row_norm2(const la::DenseMatrix& X, index_t r) {
  real s = 0;
  for (const real x : X.row(r)) s += x * x;
  return s;
}

template <typename Matrix>
ScriptResult kmeans_impl(Runtime& rt, const Matrix& X, PlanMode mode,
                         KmeansConfig config) {
  FUSEDML_CHECK(X.rows() > 0 && X.cols() > 0, "empty data matrix");
  const auto m = static_cast<usize>(X.rows());
  const auto n = static_cast<usize>(X.cols());
  const int k = std::min(config.clusters, static_cast<int>(m));
  FUSEDML_CHECK(k > 0, "k-means needs at least one cluster");
  ScriptResult out;

  const TensorId Xid = add_matrix(rt, X, "X");
  const TensorId cid = rt.new_vector(n, "c");

  ExprBuilder b;
  b.output("cross", ExprBuilder::scale(
                        real{-2}, ExprBuilder::spmv(b.matrix("X"),
                                                    b.vector("c"))));
  Program cross = b.build();
  cross.bind("X", Xid);
  cross.bind("c", cid);

  std::vector<real> xnorm(m);
  for (usize i = 0; i < m; ++i) {
    xnorm[i] = row_norm2(X, static_cast<index_t>(i));
  }

  // Centroids start as the first k rows, flattened row-major.
  std::vector<real> centroids(static_cast<usize>(k) * n, real{0});
  for (int c = 0; c < k; ++c) {
    add_row_into(X, static_cast<index_t>(c),
                 std::span<real>(centroids).subspan(
                     static_cast<usize>(c) * n, n));
  }

  std::vector<int> assign(m, -1);
  sysml::SolverCheckpoint ckpt(rt);
  track_host(ckpt, centroids);
  // The previous assignment feeds the early-break decision, so it must roll
  // back with the centroids or a replayed iteration could break early where
  // the clean run did not.
  ckpt.track_vector(
      [&assign] { return std::vector<real>(assign.begin(), assign.end()); },
      [&assign](const std::vector<real>& saved) {
        assign.assign(saved.begin(), saved.end());
      });

  int iterations = 0;
  int it = 0;
  while (it < config.max_iterations) {
    ckpt.save_if_due(it);
    try {
      std::vector<real> best(m, std::numeric_limits<real>::infinity());
      std::vector<int> next_assign(m, 0);
      for (int c = 0; c < k; ++c) {
        const auto centroid =
            std::span<const real>(centroids).subspan(
                static_cast<usize>(c) * n, n);
        rt.write_vector(cid, centroid);
        cross.prepare(rt, mode);
        const TensorId xc_id = rt.run(cross, "cross");
        const auto xc = rt.read_vector(xc_id);
        real cnorm = 0;
        for (const real x : centroid) cnorm += x * x;
        for (usize i = 0; i < m; ++i) {
          const real d = xnorm[i] + xc[i] + cnorm;
          if (d < best[i]) {
            best[i] = d;
            next_assign[i] = c;
          }
        }
        rt.discard(xc_id);
      }
      const bool changed = next_assign != assign;
      assign = std::move(next_assign);

      std::vector<real> sums(centroids.size(), real{0});
      std::vector<int> counts(static_cast<usize>(k), 0);
      for (usize i = 0; i < m; ++i) {
        const auto c = static_cast<usize>(assign[i]);
        add_row_into(X, static_cast<index_t>(i),
                     std::span<real>(sums).subspan(c * n, n));
        ++counts[c];
      }
      for (int c = 0; c < k; ++c) {
        if (counts[static_cast<usize>(c)] == 0) continue;  // keep the old one
        const real inv = real{1} / static_cast<real>(counts[static_cast<usize>(c)]);
        for (usize j = 0; j < n; ++j) {
          centroids[static_cast<usize>(c) * n + j] =
              sums[static_cast<usize>(c) * n + j] * inv;
        }
      }
      iterations = it + 1;
      ++it;
      if (!changed) break;
    } catch (const Error& e) {
      it = ckpt.rollback(e);
    }
  }

  out.weights = std::move(centroids);
  Program* programs[] = {&cross};
  finish(rt, programs, 1, iterations, out);
  return out;
}

// --- PageRank ---------------------------------------------------------------
//
// r' = d * P^T r + (1-d)/n over the leading square of the input (so the
// uniform library runner can feed any matrix). Pre-transposing the
// row-normalized walk turns the update into the plain-product chain
// add(scale(d, Pt*r), tele) — a row-template candidate the planner fuses
// into ONE launch per iteration.

la::CsrMatrix leading_square(const la::CsrMatrix& X, index_t k) {
  std::vector<offset_t> row_off = {0};
  std::vector<index_t> col_idx;
  std::vector<real> values;
  for (index_t r = 0; r < k; ++r) {
    for (offset_t j = X.row_begin(r); j < X.row_end(r); ++j) {
      const index_t c = X.col_idx()[static_cast<usize>(j)];
      if (c >= k) continue;
      col_idx.push_back(c);
      values.push_back(X.values()[static_cast<usize>(j)]);
    }
    row_off.push_back(static_cast<offset_t>(col_idx.size()));
  }
  return la::CsrMatrix(k, k, std::move(row_off), std::move(col_idx),
                       std::move(values));
}

la::DenseMatrix leading_square(const la::DenseMatrix& X, index_t k) {
  std::vector<real> data;
  data.reserve(static_cast<usize>(k) * static_cast<usize>(k));
  for (index_t r = 0; r < k; ++r) {
    for (index_t c = 0; c < k; ++c) data.push_back(X.at(r, c));
  }
  return la::DenseMatrix(k, k, std::move(data));
}

la::CsrMatrix row_normalized(const la::CsrMatrix& X) {
  std::vector<real> values(X.values().begin(), X.values().end());
  for (index_t r = 0; r < X.rows(); ++r) {
    real s = 0;
    for (offset_t j = X.row_begin(r); j < X.row_end(r); ++j) {
      s += std::abs(values[static_cast<usize>(j)]);
    }
    if (s == real{0}) continue;
    for (offset_t j = X.row_begin(r); j < X.row_end(r); ++j) {
      values[static_cast<usize>(j)] /= s;
    }
  }
  return la::CsrMatrix(X.rows(), X.cols(),
                       {X.row_off().begin(), X.row_off().end()},
                       {X.col_idx().begin(), X.col_idx().end()},
                       std::move(values));
}

la::DenseMatrix row_normalized(const la::DenseMatrix& X) {
  std::vector<real> data(X.data().begin(), X.data().end());
  const auto n = static_cast<usize>(X.cols());
  for (index_t r = 0; r < X.rows(); ++r) {
    real s = 0;
    for (usize c = 0; c < n; ++c) {
      s += std::abs(data[static_cast<usize>(r) * n + c]);
    }
    if (s == real{0}) continue;
    for (usize c = 0; c < n; ++c) data[static_cast<usize>(r) * n + c] /= s;
  }
  return la::DenseMatrix(X.rows(), X.cols(), std::move(data));
}

template <typename Matrix>
ScriptResult pagerank_impl(Runtime& rt, const Matrix& X, PlanMode mode,
                           PagerankConfig config) {
  const index_t k = std::min(X.rows(), X.cols());
  FUSEDML_CHECK(k > 0, "empty adjacency matrix");
  const auto n = static_cast<usize>(k);
  ScriptResult out;

  const TensorId Ptid = add_matrix(
      rt, la::transpose(row_normalized(leading_square(X, k))), "Pt");
  std::vector<real> r(n, real{1} / static_cast<real>(n));
  TensorId rid = rt.add_vector(r, "r");
  const TensorId tid = rt.add_vector(
      std::vector<real>(n, (real{1} - config.damping) / static_cast<real>(n)),
      "tele");

  ExprBuilder b;
  {
    const Expr Pte = b.matrix("Pt");
    const Expr re = b.vector("r");
    const Expr te = b.vector("tele");
    b.output("r_next",
             ExprBuilder::add(
                 ExprBuilder::scale(config.damping,
                                    ExprBuilder::spmv(Pte, re)),
                 te));
  }
  Program step = b.build();
  step.bind("Pt", Ptid);
  step.bind("tele", tid);

  sysml::SolverCheckpoint ckpt(rt);
  track_host(ckpt, r);
  track_tensor(ckpt, rt, rid);

  int iterations = 0;
  bool converged = false;
  int it = 0;
  while (it < config.max_iterations && !converged) {
    ckpt.save_if_due(it);
    try {
      step.bind("r", rid);
      step.prepare(rt, mode);
      const TensorId r_new = rt.run(step, "r_next");
      const auto view = rt.read_vector(r_new);
      real delta = 0;
      for (usize j = 0; j < n; ++j) delta += std::abs(view[j] - r[j]);
      r.assign(view.begin(), view.end());
      rt.discard(std::exchange(rid, r_new));
      iterations = it + 1;
      converged = delta <= config.tolerance;
      ++it;
    } catch (const Error& e) {
      it = ckpt.rollback(e);
    }
  }

  out.weights = std::move(r);
  Program* programs[] = {&step};
  finish(rt, programs, 1, iterations, out);
  return out;
}

// --- Mini-batch logistic regression -----------------------------------------
//
// The full-logreg gradient over a rotating quarter-of-the-rows batch. The
// batch leaves re-bind every step; a recurring batch shape hits the plan
// cache (dense batches always do — CSR batches replan when the slice nnz
// changes). The gradient DAG has no Equation-1 site, so the planner's wins
// here are the row template (product + sigmoid chain) and the ewise tail.

template <typename Matrix>
ScriptResult minibatch_logreg_impl(Runtime& rt, const Matrix& X,
                                   std::span<const real> y, PlanMode mode,
                                   MinibatchConfig config) {
  FUSEDML_CHECK(y.size() == static_cast<usize>(X.rows()),
                "labels must have one entry per row");
  const auto m = static_cast<usize>(X.rows());
  const auto n = static_cast<usize>(X.cols());
  const usize bs = std::max<usize>(1, m / 4);
  ScriptResult out;

  const TensorId wid = rt.new_vector(n, "w");

  ExprBuilder b;
  {
    const Expr Xb = b.matrix("Xb");
    const Expr w = b.vector("w");
    const Expr nyb = b.vector("neg_yb");
    const Expr margins = ExprBuilder::map(
        ExprBuilder::mul(nyb, ExprBuilder::spmv(Xb, w)), stable_sigmoid,
        "sigmoid");
    const Expr resid = ExprBuilder::mul(margins, nyb);
    b.output("g", ExprBuilder::add(ExprBuilder::spmv_t(Xb, resid),
                                   ExprBuilder::scale(config.lambda, w)));
  }
  Program prog = b.build();
  prog.bind("w", wid);

  sysml::SolverCheckpoint ckpt(rt);
  track_tensor(ckpt, rt, wid);

  int it = 0;
  while (it < config.iterations) {
    ckpt.save_if_due(it);
    try {
      // Batch window [start, start + bs) with wraparound; select_rows wants
      // a strictly increasing list, so the wrapped window is sorted (the
      // gradient is a sum over batch rows — order only permutes the slice).
      const usize start = (static_cast<usize>(it) * bs) % m;
      std::vector<index_t> rows(bs);
      for (usize j = 0; j < bs; ++j) {
        rows[j] = static_cast<index_t>((start + j) % m);
      }
      std::sort(rows.begin(), rows.end());
      const TensorId Xbid = add_matrix(rt, take_rows(X, rows), "Xb");
      std::vector<real> nyb(bs);
      for (usize j = 0; j < bs; ++j) {
        nyb[j] = -y[static_cast<usize>(rows[j])];
      }
      const TensorId nybid = rt.add_vector(std::move(nyb), "neg_yb");

      prog.bind("Xb", Xbid);
      prog.bind("neg_yb", nybid);
      prog.prepare(rt, mode);
      const TensorId gid = rt.run(prog, "g");
      rt.discard(Xbid);
      rt.discard(nybid);
      rt.op_axpy(-config.step, gid, wid);
      rt.discard(gid);
      ++it;
    } catch (const Error& e) {
      it = ckpt.rollback(e);
    }
  }

  const auto w_view = rt.read_vector(wid);
  out.weights.assign(w_view.begin(), w_view.end());
  Program* programs[] = {&prog};
  finish(rt, programs, 1, it, out);
  return out;
}

}  // namespace

// --- Public entry points ----------------------------------------------------

ScriptResult run_lr_cg_script(Runtime& rt, const la::CsrMatrix& X,
                              std::span<const real> labels, PlanMode mode,
                              ScriptConfig config) {
  return lr_cg_impl(rt, X, labels, mode, config);
}
ScriptResult run_lr_cg_script(Runtime& rt, const la::DenseMatrix& X,
                              std::span<const real> labels, PlanMode mode,
                              ScriptConfig config) {
  return lr_cg_impl(rt, X, labels, mode, config);
}

ScriptResult run_logreg_gd_script(Runtime& rt, const la::CsrMatrix& X,
                                  std::span<const real> labels, PlanMode mode,
                                  GdConfig config) {
  return logreg_gd_impl(rt, X, labels, mode, config);
}
ScriptResult run_logreg_gd_script(Runtime& rt, const la::DenseMatrix& X,
                                  std::span<const real> labels, PlanMode mode,
                                  GdConfig config) {
  return logreg_gd_impl(rt, X, labels, mode, config);
}

ScriptResult run_glm_script(Runtime& rt, const la::CsrMatrix& X,
                            std::span<const real> labels, PlanMode mode,
                            GlmConfig config) {
  return glm_impl(rt, X, labels, mode, config);
}
ScriptResult run_glm_script(Runtime& rt, const la::DenseMatrix& X,
                            std::span<const real> labels, PlanMode mode,
                            GlmConfig config) {
  return glm_impl(rt, X, labels, mode, config);
}

ScriptResult run_svm_script(Runtime& rt, const la::CsrMatrix& X,
                            std::span<const real> labels, PlanMode mode,
                            SvmConfig config) {
  return svm_impl(rt, X, labels, mode, config);
}
ScriptResult run_svm_script(Runtime& rt, const la::DenseMatrix& X,
                            std::span<const real> labels, PlanMode mode,
                            SvmConfig config) {
  return svm_impl(rt, X, labels, mode, config);
}

ScriptResult run_hits_script(Runtime& rt, const la::CsrMatrix& X,
                             PlanMode mode, HitsConfig config) {
  return hits_impl(rt, X, mode, config);
}
ScriptResult run_hits_script(Runtime& rt, const la::DenseMatrix& X,
                             PlanMode mode, HitsConfig config) {
  return hits_impl(rt, X, mode, config);
}

ScriptResult run_als_script(Runtime& rt, const la::CsrMatrix& X,
                            PlanMode mode, AlsConfig config) {
  return als_impl(rt, X, mode, config);
}
ScriptResult run_als_script(Runtime& rt, const la::DenseMatrix& X,
                            PlanMode mode, AlsConfig config) {
  return als_impl(rt, X, mode, config);
}

ScriptResult run_kmeans_script(Runtime& rt, const la::CsrMatrix& X,
                               PlanMode mode, KmeansConfig config) {
  return kmeans_impl(rt, X, mode, config);
}
ScriptResult run_kmeans_script(Runtime& rt, const la::DenseMatrix& X,
                               PlanMode mode, KmeansConfig config) {
  return kmeans_impl(rt, X, mode, config);
}

ScriptResult run_pagerank_script(Runtime& rt, const la::CsrMatrix& X,
                                 PlanMode mode, PagerankConfig config) {
  return pagerank_impl(rt, X, mode, config);
}
ScriptResult run_pagerank_script(Runtime& rt, const la::DenseMatrix& X,
                                 PlanMode mode, PagerankConfig config) {
  return pagerank_impl(rt, X, mode, config);
}

ScriptResult run_minibatch_logreg_script(Runtime& rt, const la::CsrMatrix& X,
                                         std::span<const real> labels,
                                         PlanMode mode,
                                         MinibatchConfig config) {
  return minibatch_logreg_impl(rt, X, labels, mode, config);
}
ScriptResult run_minibatch_logreg_script(Runtime& rt,
                                         const la::DenseMatrix& X,
                                         std::span<const real> labels,
                                         PlanMode mode,
                                         MinibatchConfig config) {
  return minibatch_logreg_impl(rt, X, labels, mode, config);
}

// --- The generated library --------------------------------------------------

namespace {

/// Uniform runner for one (algorithm, mode): `iterations` caps the outer
/// loop, 0 keeps the algorithm's default.
template <typename Matrix>
ScriptResult run_spec(Algorithm algorithm, PlanMode mode, Runtime& rt,
                      const Matrix& X, std::span<const real> labels,
                      int iterations) {
  switch (algorithm) {
    case Algorithm::kLrCg: {
      ScriptConfig cfg;
      if (iterations > 0) cfg.max_iterations = iterations;
      return run_lr_cg_script(rt, X, labels, mode, cfg);
    }
    case Algorithm::kLogregGd: {
      GdConfig cfg;
      if (iterations > 0) cfg.iterations = iterations;
      return run_logreg_gd_script(rt, X, labels, mode, cfg);
    }
    case Algorithm::kGlm: {
      GlmConfig cfg;
      if (iterations > 0) cfg.max_irls_iterations = iterations;
      return run_glm_script(rt, X, labels, mode, cfg);
    }
    case Algorithm::kSvm: {
      SvmConfig cfg;
      if (iterations > 0) cfg.max_newton_iterations = iterations;
      return run_svm_script(rt, X, labels, mode, cfg);
    }
    case Algorithm::kHits: {
      HitsConfig cfg;
      if (iterations > 0) cfg.max_iterations = iterations;
      return run_hits_script(rt, X, mode, cfg);
    }
    case Algorithm::kAls: {
      AlsConfig cfg;
      if (iterations > 0) cfg.max_outer = iterations;
      return run_als_script(rt, X, mode, cfg);
    }
    case Algorithm::kKmeans: {
      KmeansConfig cfg;
      if (iterations > 0) cfg.max_iterations = iterations;
      return run_kmeans_script(rt, X, mode, cfg);
    }
    case Algorithm::kPagerank: {
      PagerankConfig cfg;
      if (iterations > 0) cfg.max_iterations = iterations;
      return run_pagerank_script(rt, X, mode, cfg);
    }
    case Algorithm::kMinibatchLogreg: {
      MinibatchConfig cfg;
      if (iterations > 0) cfg.iterations = iterations;
      return run_minibatch_logreg_script(rt, X, labels, mode, cfg);
    }
  }
  FUSEDML_CHECK(false, "unknown algorithm");
  return ScriptResult{};
}

std::vector<ScriptSpec> build_library() {
  constexpr Algorithm kAlgorithms[] = {
      Algorithm::kLrCg,     Algorithm::kLogregGd, Algorithm::kGlm,
      Algorithm::kSvm,      Algorithm::kHits,     Algorithm::kAls,
      Algorithm::kKmeans,   Algorithm::kPagerank,
      Algorithm::kMinibatchLogreg};
  constexpr PlanMode kModes[] = {PlanMode::kUnfused, PlanMode::kHardcodedPass,
                                 PlanMode::kPlanner};
  std::vector<ScriptSpec> lib;
  for (const Algorithm algorithm : kAlgorithms) {
    for (const bool dense : {false, true}) {
      for (const PlanMode mode : kModes) {
        ScriptSpec spec;
        spec.algorithm = algorithm;
        spec.dense = dense;
        spec.mode = mode;
        spec.name = std::string(to_string(algorithm)) +
                    (dense ? "/dense/" : "/csr/") + to_string(mode);
        if (dense) {
          spec.run_dense = [algorithm, mode](Runtime& rt,
                                             const la::DenseMatrix& X,
                                             std::span<const real> labels,
                                             int iterations) {
            return run_spec(algorithm, mode, rt, X, labels, iterations);
          };
        } else {
          spec.run_sparse = [algorithm, mode](Runtime& rt,
                                              const la::CsrMatrix& X,
                                              std::span<const real> labels,
                                              int iterations) {
            return run_spec(algorithm, mode, rt, X, labels, iterations);
          };
        }
        lib.push_back(std::move(spec));
      }
    }
  }
  return lib;
}

}  // namespace

const std::vector<ScriptSpec>& script_library() {
  static const std::vector<ScriptSpec> kLibrary = build_library();
  return kLibrary;
}

const ScriptSpec* find_script(const std::string& name) {
  for (const ScriptSpec& spec : script_library()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const ScriptSpec* find_script(Algorithm algorithm, bool dense,
                              PlanMode mode) {
  for (const ScriptSpec& spec : script_library()) {
    if (spec.algorithm == algorithm && spec.dense == dense &&
        spec.mode == mode) {
      return &spec;
    }
  }
  return nullptr;
}

}  // namespace fusedml::ml
