#include "patterns/executor.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace fusedml::patterns {

KernelOutcome PatternExecutor::run(
    const std::function<KernelOutcome(Backend)>& attempt, PatternKind kind,
    std::span<real> inout) {
  obs::TraceSpan span("pattern:" + to_string(kind), "pattern",
                      obs::Track::kOps);
  KernelOutcome o = registry_.execute_resilient(
      backend_, retry_.within_deadline(session_modeled_ms_, deadline_ms_),
      attempt, inout, &resilience_);
  session_modeled_ms_ += o.modeled_ms;
  if (span.active()) span.arg("kernel", o.kernel);
  if (obs::metrics().enabled()) {
    obs::metrics().counter("patterns.calls").add();
  }
  return o;
}

KernelOutcome PatternExecutor::transposed_product(const la::CsrMatrix& X,
                                                  std::span<const real> y,
                                                  real alpha) {
  record(PatternKind::kXty);
  return run(
      [&](Backend b) { return registry_.transposed_product(b, X, y, alpha); },
      PatternKind::kXty);
}

KernelOutcome PatternExecutor::transposed_product(const la::DenseMatrix& X,
                                                  std::span<const real> y,
                                                  real alpha) {
  record(PatternKind::kXty);
  return run(
      [&](Backend b) { return registry_.transposed_product(b, X, y, alpha); },
      PatternKind::kXty);
}

KernelOutcome PatternExecutor::product(const la::CsrMatrix& X,
                                       std::span<const real> y) {
  return run([&](Backend b) { return registry_.product(b, X, y); },
             PatternKind::kXty);
}

KernelOutcome PatternExecutor::product(const la::DenseMatrix& X,
                                       std::span<const real> y) {
  return run([&](Backend b) { return registry_.product(b, X, y); },
             PatternKind::kXty);
}

KernelOutcome PatternExecutor::axpy(real alpha, std::span<const real> x,
                                    std::span<real> y) {
  return run([&](Backend b) { return registry_.axpy(b, alpha, x, y); },
             PatternKind::kXty, y);
}

KernelOutcome PatternExecutor::dot(std::span<const real> x,
                                   std::span<const real> y) {
  return run([&](Backend b) { return registry_.dot(b, x, y); },
             PatternKind::kXty);
}

KernelOutcome PatternExecutor::nrm2(std::span<const real> x) {
  return run([&](Backend b) { return registry_.nrm2(b, x); },
             PatternKind::kXty);
}

KernelOutcome PatternExecutor::scal(real alpha, std::span<real> x) {
  return run([&](Backend b) { return registry_.scal(b, alpha, x); },
             PatternKind::kXty, x);
}

KernelOutcome PatternExecutor::ewise_mul(std::span<const real> x,
                                         std::span<const real> y) {
  return run([&](Backend b) { return registry_.ewise_mul(b, x, y); },
             PatternKind::kXty);
}

KernelOutcome PatternExecutor::pattern(real alpha, const la::CsrMatrix& X,
                                       std::span<const real> v,
                                       std::span<const real> y, real beta,
                                       std::span<const real> z) {
  const bool has_bz = !z.empty() && beta != real{0};
  const PatternKind kind = classify(false, !v.empty(), has_bz);
  record(kind);
  return run(
      [&](Backend b) { return registry_.pattern(b, alpha, X, v, y, beta, z); },
      kind);
}

KernelOutcome PatternExecutor::pattern(real alpha, const la::DenseMatrix& X,
                                       std::span<const real> v,
                                       std::span<const real> y, real beta,
                                       std::span<const real> z) {
  const bool has_bz = !z.empty() && beta != real{0};
  const PatternKind kind = classify(false, !v.empty(), has_bz);
  record(kind);
  return run(
      [&](Backend b) { return registry_.pattern(b, alpha, X, v, y, beta, z); },
      kind);
}

}  // namespace fusedml::patterns
