#include "kernels/op_registry.h"

#include <algorithm>
#include <cmath>
#include <exception>

#include "common/error.h"
#include "kernels/baselines.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "kernels/blas1.h"
#include "kernels/cuda_codegen.h"
#include "kernels/fused_dense.h"
#include "kernels/fused_row.h"
#include "kernels/fused_sparse.h"
#include "kernels/gemv.h"
#include "kernels/spmv.h"

namespace fusedml::kernels {

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::kFused: return "fused";
    case Backend::kCusparse: return "cuBLAS/cuSPARSE-style";
    case Backend::kBidmatGpu: return "BIDMat-GPU-style";
    case Backend::kCpu: return "CPU (MKL-like)";
  }
  return "?";
}

namespace {
/// The library whose kernels a GPU backend's unfused compositions stitch
/// together. The fused backend's unfused paths (dense X^T * y and the wide
/// dense fallback) run BIDMat's padded-tile kernels.
BaselineLibrary library_of(Backend backend) {
  return backend == Backend::kCusparse ? BaselineLibrary::kVendor
                                       : BaselineLibrary::kBidmat;
}
}  // namespace

std::optional<Backend> fallback_backend(Backend backend) {
  switch (backend) {
    case Backend::kFused: return Backend::kCusparse;
    case Backend::kCusparse: return Backend::kCpu;
    case Backend::kBidmatGpu: return Backend::kCpu;
    case Backend::kCpu: return std::nullopt;
  }
  return std::nullopt;
}

namespace {
KernelOutcome from_op(OpResult op, std::string kernel) {
  KernelOutcome out;
  out.value = std::move(op.value);
  out.modeled_ms = op.modeled_ms;
  out.wall_ms = op.wall_ms;
  out.launches = op.launches;
  out.counters = op.counters;
  out.kernel = std::move(kernel);
  return out;
}

KernelOutcome from_cpu(CpuOpResult op, std::string kernel) {
  KernelOutcome out;
  out.value = std::move(op.value);
  out.modeled_ms = op.modeled_ms;
  out.wall_ms = op.wall_ms;
  out.kernel = std::move(kernel);
  return out;
}

/// Runs one ABFT check and folds its cost into the outcome. On mismatch the
/// whole attempt is a loss: rethrow with the doomed op's modeled time added
/// to the check's own cost so the retry loop charges the waste honestly.
template <typename Check>
void run_check(KernelOutcome& out, Check&& check) {
  try {
    const VerifyCharge charge = check();
    out.launches += charge.launches;
    out.modeled_ms += charge.modeled_ms;
    out.counters += charge.counters;
    out.verify_launches += charge.launches;
    out.verify_ms += charge.modeled_ms;
  } catch (const SilentCorruptionError& e) {
    throw SilentCorruptionError(e.what(), e.penalty_ms() + out.modeled_ms);
  }
}
}  // namespace

void OpRegistry::apply_injected_corruption(KernelOutcome& out,
                                           std::span<real> in_place) {
  const std::uint64_t pending = dev_.take_silent_corruptions();
  if (pending == 0 || out.value.empty()) return;
  perturb(out.value, in_place, pending);
}

bool OpRegistry::consume_streamed_corruption(std::vector<real>& value) {
  const std::uint64_t pending = dev_.take_silent_corruptions();
  if (pending == 0 || value.empty()) return false;
  perturb(value, {}, pending);
  return true;
}

void OpRegistry::perturb(std::span<real> value, std::span<real> in_place,
                         std::uint64_t pending) {
  const vgpu::FaultInjector* inj = dev_.fault_injector();
  // Deterministic perturbation: element index and sign depend only on the
  // injector seed and the corruption ordinal, so a replay at the same seed
  // corrupts the same element the same way (splitmix64 finalizer).
  std::uint64_t h = dev_.silent_corruption_seq() ^
                    (inj != nullptr ? inj->config().seed : 0x5eedULL);
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  const usize idx = static_cast<usize>(h % value.size());
  real max_abs = 0;
  for (real v : value) max_abs = std::max(max_abs, std::abs(v));
  // Displacement >= 1 + ||value||_inf: far above every ABFT tolerance at
  // the scales this repo models, so a sampled check always detects it.
  const real delta = (h & 1 ? real{1} : real{-1}) * (real{1} + max_abs);
  value[idx] += delta;
  if (!in_place.empty() && idx < in_place.size()) in_place[idx] += delta;
  if (obs::metrics().enabled()) {
    obs::metrics().counter("vgpu.silent_corruptions_applied").add(pending);
  }
}

template <typename Launch, typename Check>
KernelOutcome OpRegistry::on_device(Launch&& launch, Check&& check) {
  const bool chk = sdc_.arm();
  KernelOutcome out = launch();
  apply_injected_corruption(out, {});
  if (chk) run_check(out, [&] { return check(out.value); });
  return out;
}

KernelOutcome OpRegistry::transposed_product(Backend b, la::MatrixRef X,
                                             std::span<const real> y,
                                             real alpha) {
  if (b == Backend::kCpu) {
    auto op = cpu_.transposed_product(X, y);
    if (alpha != real{1}) {
      for (real& w : op.value) w *= alpha;
    }
    return from_cpu(std::move(op), X.sparse() ? "cpu spmv_t" : "cpu gemv_t");
  }
  return on_device(
      [&] {
        if (b == Backend::kFused && X.sparse()) {
          return from_op(fused_spmv_t(dev_, *X.csr(), y, alpha),
                         "fused_spmv_t (Alg. 1)");
        }
        // The paper does not fuse dense X^T x y ("we do not consider
        // X^T x y, when X is dense" — cuBLAS is already near-optimal), so
        // the fused backend runs the padded-tile gemv_t there. alpha != 1
        // costs these operator-at-a-time kernels a scal launch; the fused
        // sparse kernel applies it per term.
        const BaselineLibrary library = library_of(b);
        OpResult op = baseline_transposed_product(dev_, X, y, library);
        if (alpha != real{1}) {
          auto s = dev_scal(dev_, alpha, op.value);
          op.absorb_timing(s);
        }
        return from_op(std::move(op),
                       !X.sparse() ? "gemv_t"
                       : library == BaselineLibrary::kVendor
                           ? "csr2csc + csrmv"
                           : "atomic-scatter spmv_t");
      },
      [&](std::span<const real> w) {
        return sdc_.check_transposed_product(w, X, y, alpha);
      });
}

KernelOutcome OpRegistry::product(Backend b, la::MatrixRef X,
                                  std::span<const real> y) {
  if (b == Backend::kCpu) {
    return from_cpu(cpu_.product(X, y), X.sparse() ? "cpu spmv" : "cpu gemv");
  }
  return on_device(
      [&] {
        if (const auto* Xs = X.csr()) {
          return from_op(spmv_csr_vector(dev_, *Xs, y), "csrmv");
        }
        return from_op(gemv_n(dev_, *X.dense(), y, BaselineLibrary::kBidmat),
                       "gemv");
      },
      [&](std::span<const real> p) { return sdc_.check_product(p, X, y); });
}

KernelOutcome OpRegistry::pattern(Backend b, real alpha, la::MatrixRef X,
                                  std::span<const real> v,
                                  std::span<const real> y, real beta,
                                  std::span<const real> z) {
  if (b == Backend::kCpu) {
    return from_cpu(cpu_.pattern(alpha, X, v, y, beta, z), "cpu pattern");
  }
  const BaselineLibrary library = library_of(b);
  const auto baseline = [&](const char* kernel) {
    return from_op(baseline_pattern(dev_, alpha, X, v, y, beta, z, library),
                   kernel);
  };
  return on_device(
      [&] {
        if (b != Backend::kFused) {
          const bool vendor = library == BaselineLibrary::kVendor;
          if (X.sparse()) {
            return baseline(vendor ? "csrmv + blas1 + csr2csc + csrmv"
                                   : "csrmv + blas1 + atomic-scatter");
          }
          return baseline(vendor ? "gemv + blas1 + gemv_t (cuBLAS tiles)"
                                 : "gemv + blas1 + gemv_t (padded tiles)");
        }
        if (const auto* Xs = X.csr()) {
          return from_op(fused_pattern_sparse(dev_, alpha, *Xs, v, y, beta, z),
                         "fused_pattern_sparse (Alg. 2)");
        }
        const la::DenseMatrix& Xd = *X.dense();
        if (!dense_fused_feasible(dev_.spec(), Xd.cols())) {
          // §3.2: very wide dense rows exceed the register file — fall back
          // to two separate Level-2 kernels instead of fusing.
          return baseline("gemv + gemv_t (fused infeasible: n too large, §3.2)");
        }
        return from_op(fused_pattern_dense(dev_, alpha, Xd, v, y, beta, z),
                       "fused_pattern_dense (Alg. 3, codegen)");
      },
      [&](std::span<const real> w) {
        return sdc_.check_pattern(w, alpha, X, v, y, beta, z);
      });
}

KernelOutcome OpRegistry::axpy(Backend b, real alpha, std::span<const real> x,
                               std::span<real> y) {
  if (b == Backend::kCpu) return from_cpu(cpu_.axpy(alpha, x, y), "axpy");
  const bool chk = sdc_.arm();
  HostSums sx, sy;
  if (chk) {
    // In-place op: the input checksums must be taken BEFORE the launch.
    sx = AbftVerifier::host_sums(x);
    sy = AbftVerifier::host_sums(y);
  }
  auto out = from_op(dev_axpy(dev_, alpha, x, y), "axpy");
  apply_injected_corruption(out, y);
  if (chk) {
    run_check(out, [&] { return sdc_.check_axpy(y, alpha, sx, sy); });
  }
  return out;
}

KernelOutcome OpRegistry::scal(Backend b, real alpha, std::span<real> x) {
  if (b == Backend::kCpu) return from_cpu(cpu_.scal(alpha, x), "scal");
  const bool chk = sdc_.arm();
  HostSums sx;
  if (chk) sx = AbftVerifier::host_sums(x);
  auto out = from_op(dev_scal(dev_, alpha, x), "scal");
  apply_injected_corruption(out, x);
  if (chk) {
    run_check(out, [&] { return sdc_.check_scal(x, alpha, sx); });
  }
  return out;
}

KernelOutcome OpRegistry::dot(Backend b, std::span<const real> x,
                              std::span<const real> y) {
  if (b == Backend::kCpu) return from_cpu(cpu_.dot(x, y), "dot");
  return on_device(
      [&] { return from_op(dev_dot(dev_, x, y), "dot"); },
      [&](std::span<const real> d) { return sdc_.check_dot(d[0], x, y); });
}

KernelOutcome OpRegistry::nrm2(Backend b, std::span<const real> x) {
  if (b == Backend::kCpu) return from_cpu(cpu_.nrm2(x), "nrm2");
  return on_device(
      [&] { return from_op(dev_nrm2(dev_, x), "nrm2"); },
      [&](std::span<const real> n) { return sdc_.check_nrm2(n[0], x); });
}

KernelOutcome OpRegistry::ewise_mul(Backend b, std::span<const real> x,
                                    std::span<const real> y) {
  if (b == Backend::kCpu) return from_cpu(cpu_.ewise_mul(x, y), "ewise_mul");
  return on_device(
      [&] { return from_op(dev_ewise_mul(dev_, x, y), "ewise_mul"); },
      [&](std::span<const real> o) {
        return sdc_.check_ewise_mul(o, x, y);
      });
}

KernelOutcome OpRegistry::map(Backend b, std::span<const real> x,
                              real (*f)(real), const std::string& name) {
  if (b == Backend::kCpu) return from_cpu(cpu_.map(x, f), "cpu " + name);
  return on_device(
      [&] { return from_op(dev_map(dev_, x, f), name); },
      [&](std::span<const real> o) { return sdc_.check_map(o, x, f); });
}

KernelOutcome OpRegistry::fused_ewise(
    Backend b, const EwiseProgram& program,
    std::span<const std::span<const real>> inputs) {
  if (b == Backend::kCpu) {
    return from_cpu(cpu_.ewise_chain(program, inputs),
                    "cpu ewise chain " + program.signature());
  }
  // Every GPU backend runs the same generated kernel (there is no
  // vendor-library equivalent to fall back to — the unfused plan, not a
  // different kernel, is the alternative).
  return on_device(
      [&] {
        return from_op(dev_ewise_chain(dev_, program, inputs),
                       ewise_kernel_name(program));
      },
      [&](std::span<const real> o) {
        return sdc_.check_ewise_chain(o, program, inputs);
      });
}

KernelOutcome OpRegistry::outer_map(Backend b, std::span<const real> u,
                                    std::span<const real> v, real (*f)(real),
                                    const std::string& name) {
  if (b == Backend::kCpu) {
    return from_cpu(cpu_.outer_map(u, v, f), "cpu outer_map " + name);
  }
  return on_device(
      [&] {
        return from_op(dev_outer_map(dev_, u, v, f), "outer_map " + name);
      },
      [&](std::span<const real> o) {
        return sdc_.check_outer_map(o, u, v, f);
      });
}

KernelOutcome OpRegistry::sparse_mask(Backend b, la::MatrixRef X,
                                      std::span<const real> om) {
  if (b == Backend::kCpu) {
    return from_cpu(cpu_.mask_values(X, om), "cpu mask_values");
  }
  return on_device(
      [&] {
        return X.visit([&](const auto& M) {
          return from_op(dev_mask_values(dev_, M, om), "mask_values");
        });
      },
      [&](std::span<const real> o) {
        return sdc_.check_sparse_mask(o, X, om);
      });
}

KernelOutcome OpRegistry::masked_product(Backend b, la::MatrixRef X,
                                         std::span<const real> vals,
                                         std::span<const real> z) {
  if (b == Backend::kCpu) {
    return from_cpu(cpu_.masked_product(X, vals, z),
                    X.sparse() ? "cpu masked spmv" : "cpu masked gemv");
  }
  return on_device(
      [&] {
        return X.sparse()
                   ? from_op(dev_masked_spmv(dev_, *X.csr(), vals, z),
                             "masked csrmv")
                   : from_op(dev_masked_gemv(dev_, *X.dense(), vals, z),
                             "masked gemv");
      },
      [&](std::span<const real> o) {
        return sdc_.check_masked_product(o, X, vals, z);
      });
}

KernelOutcome OpRegistry::fused_row(
    Backend b, la::MatrixRef X, std::span<const real> y,
    const EwiseProgram& program, std::span<const std::span<const real>> ext) {
  if (b == Backend::kCpu) {
    return from_cpu(cpu_.fused_row(X, y, program, ext),
                    "cpu fused row " + program.signature());
  }
  return on_device(
      [&] {
        return X.visit([&](const auto& M) {
          return from_op(dev_fused_row(dev_, M, y, program, ext),
                         X.sparse() ? "fused_row (csr vector)"
                                    : "fused_row (dense warp)");
        });
      },
      [&](std::span<const real> o) {
        return sdc_.check_fused_row(o, X, y, program, ext);
      });
}

KernelOutcome OpRegistry::fused_sddmm(Backend b, la::MatrixRef X,
                                      std::span<const real> u,
                                      std::span<const real> v,
                                      std::span<const real> z, real (*f)(real),
                                      const std::string& name) {
  if (b == Backend::kCpu) {
    return from_cpu(cpu_.fused_sddmm(X, u, v, z, f), "cpu fused sddmm " + name);
  }
  return on_device(
      [&] {
        return X.visit([&](const auto& M) {
          return from_op(dev_fused_sddmm(dev_, M, u, v, z, f),
                         X.sparse() ? "fused_sddmm (csr vector)"
                                    : "fused_sddmm (dense)");
        });
      },
      [&](std::span<const real> o) {
        return sdc_.check_fused_sddmm(o, X, u, v, z, f);
      });
}

KernelOutcome OpRegistry::execute_resilient(
    Backend preferred, const RetryPolicy& policy,
    const std::function<KernelOutcome(Backend)>& attempt,
    std::span<real> inout, ResilienceStats* session) {
  obs::TraceSpan span("dispatch", "dispatch", obs::Track::kDispatch);

  // Fast path: nothing armed, nothing to absorb, no breaker board to
  // consult — run the attempt directly so fault-free modeled times are
  // untouched by the resilience machinery.
  const vgpu::FaultInjector* injector = dev_.fault_injector();
  if ((injector == nullptr || !injector->armed()) && health_ == nullptr) {
    KernelOutcome r = attempt(preferred);
    r.backend_used = preferred;
    r.resilience.verify_launches += r.verify_launches;
    r.resilience.verify_ms += r.verify_ms;
    if (session != nullptr) {
      session->verify_launches += r.verify_launches;
      session->verify_ms += r.verify_ms;
    }
    if (span.active()) {
      span.set_name("dispatch:" + r.kernel);
      span.arg("backend", to_string(preferred));
      span.cover_modeled_ms(r.modeled_ms);
    }
    if (obs::metrics().enabled()) {
      obs::metrics().counter("dispatch.ops").add();
    }
    return r;
  }

  // In-place operands must be restorable so a retried attempt sees the
  // original inputs (an ECC fault is raised *after* the kernel wrote them).
  std::vector<real> snapshot(inout.begin(), inout.end());

  ResilienceStats rs;
  double extra_ms = 0.0;  // wasted attempt time + modeled backoff
  Backend b = preferred;
  std::exception_ptr last_fault;

  // Anomaly reporting to the request-scoped observer (serving layer). Clean
  // dispatches are deliberately NOT reported — request span trees stay small
  // and only pay for what went wrong.
  const auto notify = [&](DispatchEvent::Kind kind, Backend to, double ms,
                          std::string detail) {
    if (observer_ == nullptr) return;
    DispatchEvent ev;
    ev.kind = kind;
    ev.backend = b;
    ev.to = to;
    ev.modeled_ms = ms;
    ev.detail = std::move(detail);
    observer_->on_dispatch_event(ev);
  };

  // Books this dispatch's spent overhead and fails fast: the total retry
  // budget (or the request deadline it was derived from) is gone, so
  // neither another backoff nor another tier is worth paying for.
  const auto fail_fast_budget = [&](const Error& cause) {
    if (session != nullptr) *session += rs;
    if (obs::metrics().enabled()) {
      obs::metrics().counter("dispatch.budget_exhausted").add();
    }
    notify(DispatchEvent::Kind::kBudgetExhausted, b, rs.overhead_ms(),
           cause.what());
    throw DeadlineError(
        "retry budget exhausted after " + std::to_string(rs.faults_seen) +
            " fault(s) on " + to_string(b) + " (last: " + cause.what() + ")",
        0.0);
  };

  // Skips past backends a breaker currently holds open. Counted as
  // fallbacks so degraded placement is visible in the usual stats.
  const auto skip_open_backends = [&]() {
    while (health_ != nullptr && !health_->allow(b)) {
      const auto next = fallback_backend(b);
      FUSEDML_CHECK(next.has_value(), "terminal backend held open");
      ++rs.breaker_skips;
      ++rs.fallbacks;
      if (*next == Backend::kCpu) {
        ++rs.fallbacks_to_cpu;
      } else {
        ++rs.fallbacks_to_baseline;
      }
      if (obs::metrics().enabled()) {
        obs::metrics().counter("dispatch.breaker_skips").add();
      }
      notify(DispatchEvent::Kind::kBreakerSkip, *next, 0.0,
             "breaker open on " + to_string(b));
      b = *next;
    }
  };

  skip_open_backends();
  for (;;) {
    bool degrade = false;
    for (int a = 1; a <= policy.max_attempts && !degrade; ++a) {
      try {
        KernelOutcome r = attempt(b);
        if (health_ != nullptr) health_->on_success(b);
        if (rs.faults_seen > 0) ++rs.recoveries;
        // Verification of the SUCCESSFUL attempt only — failed attempts'
        // verify cost already landed in wasted_ms via the fault penalty, so
        // this keeps "verification launches reported exactly once".
        rs.verify_launches += r.verify_launches;
        rs.verify_ms += r.verify_ms;
        r.resilience = rs;
        r.modeled_ms += extra_ms;
        r.backend_used = b;
        if (rs.fallbacks > 0) r.kernel += " [after fallback]";
        if (session != nullptr) *session += rs;
        if (span.active()) {
          span.set_name("dispatch:" + r.kernel);
          span.arg("backend", to_string(b));
          if (rs.faults_seen > 0) {
            span.arg("faults_absorbed", static_cast<double>(rs.faults_seen));
          }
          span.cover_modeled_ms(r.modeled_ms);
        }
        if (obs::metrics().enabled()) {
          auto& m = obs::metrics();
          m.counter("dispatch.ops").add();
          m.counter("dispatch.faults_absorbed").add(rs.faults_seen);
          m.counter("dispatch.retries").add(rs.retries);
          m.counter("dispatch.fallbacks").add(rs.fallbacks);
          if (rs.faults_seen > 0) m.counter("dispatch.recoveries").add();
        }
        return r;
      } catch (const Error& e) {
        if (e.code() == ErrorCode::kGeneric ||
            e.code() == ErrorCode::kDeadline ||
            e.code() == ErrorCode::kNonFinite) {
          throw;  // not a fault — retrying cannot help
        }
        last_fault = std::current_exception();
        ++rs.faults_seen;
        if (e.code() == ErrorCode::kSilentCorruption) {
          ++rs.sdc_detected;
          if (obs::metrics().enabled()) {
            obs::metrics().counter("dispatch.sdc_detected").add();
          }
          notify(DispatchEvent::Kind::kSdcDetected, b, e.penalty_ms(),
                 e.what());
        } else {
          notify(DispatchEvent::Kind::kFault, b, e.penalty_ms(), e.what());
        }
        rs.wasted_ms += e.penalty_ms();
        extra_ms += e.penalty_ms();
        if (!inout.empty()) {
          std::copy(snapshot.begin(), snapshot.end(), inout.begin());
        }
        if (policy.budget_exhausted(rs.overhead_ms())) {
          if (health_ != nullptr) health_->on_failure(b);
          fail_fast_budget(e);
        }
        if (e.code() == ErrorCode::kDeviceOom) {
          degrade = true;  // retrying the same allocation cannot help
        } else if (a < policy.max_attempts) {
          const double wait = policy.backoff_ms(a);
          // Don't charge a backoff the budget cannot cover — the request
          // is doomed either way; stop burning modeled time now.
          if (policy.max_total_overhead_ms > 0.0 &&
              rs.overhead_ms() + wait > policy.max_total_overhead_ms) {
            if (health_ != nullptr) health_->on_failure(b);
            fail_fast_budget(e);
          }
          rs.backoff_ms += wait;
          extra_ms += wait;
          ++rs.retries;
          notify(DispatchEvent::Kind::kRetryBackoff, b, wait,
                 "attempt " + std::to_string(a));
          if (obs::recorder().enabled()) {
            obs::TraceEvent ev;
            ev.name = "retry_backoff";
            ev.cat = "dispatch";
            ev.track = obs::Track::kDispatch;
            ev.dur_ms = wait;
            ev.ts_ms = obs::recorder().advance_ms(wait);
            ev.num_args.emplace_back("attempt", static_cast<double>(a));
            obs::recorder().record(std::move(ev));
          }
        }
      }
    }
    // Retries on backend b are exhausted (or it OOMed): tell the breaker
    // board before moving down a tier.
    if (health_ != nullptr) health_->on_failure(b);
    const auto next =
        policy.allow_backend_fallback ? fallback_backend(b) : std::nullopt;
    if (!next.has_value()) {
      if (session != nullptr) *session += rs;
      if (obs::metrics().enabled()) {
        obs::metrics().counter("dispatch.exhausted").add();
      }
      std::rethrow_exception(last_fault);
    }
    if (obs::recorder().enabled()) {
      obs::TraceEvent ev;
      ev.name = "fallback:" + to_string(b) + "->" + to_string(*next);
      ev.cat = "dispatch";
      ev.track = obs::Track::kDispatch;
      ev.ts_ms = obs::recorder().now_ms();
      obs::recorder().record(std::move(ev));
    }
    notify(DispatchEvent::Kind::kFallback, *next, 0.0,
           to_string(b) + "->" + to_string(*next));
    b = *next;
    ++rs.fallbacks;
    if (b == Backend::kCpu) {
      ++rs.fallbacks_to_cpu;
    } else {
      ++rs.fallbacks_to_baseline;
    }
    if (obs::metrics().enabled()) {
      obs::metrics()
          .counter(b == Backend::kCpu ? "dispatch.fallbacks_to_cpu"
                                      : "dispatch.fallbacks_to_baseline")
          .add();
    }
    skip_open_backends();
  }
}

}  // namespace fusedml::kernels
