// Silent-data-corruption defense, layer by layer:
//
//   - the fault injector draws kSilentCorruption at its own rate, on its
//     own deterministic seeded schedule, WITHOUT disturbing the signaled
//     fault schedule (the seed-determinism contract of fault_injector.h);
//   - the device books a silently-corrupted launch as a normal success and
//     only the pending-corruption handshake betrays it;
//   - the op registry perturbs exactly one seeded element, ABFT
//     verification (VerifyPolicy::kFull) turns that into a typed
//     SilentCorruptionError, and execute_resilient recomputes to the
//     bit-exact value;
//   - verification cost is billed exactly once (outcome launches/ms
//     include it; the verify_* sub-buckets break it out);
//   - every verifiable registry op, on CSR and on dense storage, is caught
//     when corrupted and passes when clean; the checksums follow the
//     matrix and the weight vector's contents, not their addresses;
//   - the FALSE-POSITIVE ORACLE: with zero faults, full verification over
//     every ScriptLibrary entry (9 algorithms × {csr, dense} × 3 plan
//     modes) detects nothing and is bit-exact with verification off;
//   - SolverCheckpoint saves on cadence and rolls back transient faults
//     only, within its budget;
//   - the DeviceHealthBoard quarantines at the threshold, never drains the
//     last healthy device, and releases probation on the modeled clock.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "kernels/op_registry.h"
#include "la/convert.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "ml/script_library.h"
#include "serve/device_health.h"
#include "sysml/checkpoint.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"
#include "vgpu/fault_injector.h"

namespace fusedml {
namespace {

using kernels::Backend;
using kernels::OpRegistry;
using kernels::VerifyPolicy;

// --- Injector: silent rate, determinism, schedule isolation -----------------

TEST(SdcInjector, SilentRateIsHonoredAndDeterministic) {
  vgpu::FaultConfig cfg;
  cfg.seed = 99;
  cfg.silent_fault_rate = 0.05;
  vgpu::FaultInjector a(cfg);
  vgpu::FaultInjector b(cfg);

  constexpr int kDraws = 20000;
  int silent = 0;
  for (int i = 0; i < kDraws; ++i) {
    const auto fa = a.next_launch_fault();
    const auto fb = b.next_launch_fault();
    ASSERT_EQ(fa, fb) << "same seed must give the same schedule at draw " << i;
    if (fa == vgpu::FaultKind::kSilentCorruption) ++silent;
  }
  // ~5% of 20k draws, with generous slack for the uniform sampler.
  EXPECT_GT(silent, kDraws / 40);  // > 2.5%
  EXPECT_LT(silent, kDraws / 10);  // < 10%
  EXPECT_EQ(a.log().silent_faults, static_cast<std::uint64_t>(silent));
}

TEST(SdcInjector, SilentRateDoesNotPerturbSignaledSchedule) {
  // The silent band sits AFTER every signaled band in the threshold ladder,
  // so arming it must not move a single signaled fault at a given seed —
  // only convert some previously-clean draws. This is the contract that
  // keeps existing seeded chaos tests reproducible.
  vgpu::FaultConfig signaled;
  signaled.seed = 1234;
  signaled.kernel_fault_rate = 0.10;
  signaled.ecc_fault_rate = 0.05;
  signaled.oom_fault_rate = 0.02;
  vgpu::FaultConfig with_silent = signaled;
  with_silent.silent_fault_rate = 0.10;

  vgpu::FaultInjector base(signaled);
  vgpu::FaultInjector extended(with_silent);
  for (int i = 0; i < 5000; ++i) {
    const auto fb = base.next_launch_fault();
    const auto fe = extended.next_launch_fault();
    if (fb != vgpu::FaultKind::kNone) {
      ASSERT_EQ(fb, fe) << "signaled fault moved at draw " << i;
    } else {
      ASSERT_TRUE(fe == vgpu::FaultKind::kNone ||
                  fe == vgpu::FaultKind::kSilentCorruption)
          << "a clean draw may only become silent, at draw " << i;
    }
  }
}

// --- Device handshake -------------------------------------------------------

TEST(SdcDevice, SilentLaunchSucceedsAndArmsPendingCorruption) {
  vgpu::FaultConfig cfg;
  cfg.silent_fault_rate = 1.0;
  vgpu::FaultInjector injector(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&injector);

  vgpu::LaunchConfig lc;
  lc.grid_size = 4;
  lc.block_size = 32;
  int ran = 0;
  // The launch must return NORMALLY — that is what "silent" means.
  const auto stats = dev.launch(lc, [&](vgpu::BlockCtx&) { ++ran; });
  EXPECT_EQ(ran, 4);
  EXPECT_GT(stats.modeled_ms(), 0.0);
  EXPECT_EQ(dev.pending_silent_corruptions(), 1u);
  EXPECT_EQ(dev.silent_corruption_seq(), 1u);

  dev.launch(lc, [](vgpu::BlockCtx&) {});
  EXPECT_EQ(dev.pending_silent_corruptions(), 2u);
  EXPECT_EQ(dev.take_silent_corruptions(), 2u);
  EXPECT_EQ(dev.pending_silent_corruptions(), 0u);
  // The ordinal keeps counting across take() — it seeds the deterministic
  // element flip, so it must never repeat within a run.
  EXPECT_EQ(dev.silent_corruption_seq(), 2u);
}

// --- ABFT detection + resilient recompute -----------------------------------

TEST(SdcAbft, CorruptionIsSilentWithoutVerification) {
  const auto X = la::uniform_sparse(64, 24, 0.2, 7);
  const auto y = la::random_vector(24, 8);
  vgpu::Device clean_dev;
  OpRegistry clean_reg(clean_dev);
  const auto expect = clean_reg.product(Backend::kFused, X, y);

  vgpu::FaultConfig cfg;
  cfg.silent_fault_rate = 1.0;
  vgpu::FaultInjector injector(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&injector);
  OpRegistry reg(dev);  // policy defaults to kOff
  const auto corrupted = reg.product(Backend::kFused, X, y);

  // No error was raised, but the value is wrong — the defenseless baseline
  // this whole subsystem exists for.
  EXPECT_NE(la::max_abs_diff(expect.value, corrupted.value), 0.0);
  EXPECT_EQ(corrupted.resilience.faults_seen, 0u);
}

TEST(SdcAbft, FullVerificationThrowsTypedErrorWithPenalty) {
  const auto X = la::uniform_sparse(64, 24, 0.2, 7);
  const auto y = la::random_vector(24, 8);
  vgpu::FaultConfig cfg;
  cfg.silent_fault_rate = 1.0;
  vgpu::FaultInjector injector(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&injector);
  OpRegistry reg(dev);
  reg.set_verify_policy(VerifyPolicy::kFull);
  try {
    reg.product(Backend::kFused, X, y);
    FAIL() << "verified dispatch of a corrupted launch must throw";
  } catch (const SilentCorruptionError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSilentCorruption);
    // The corrupted attempt's full modeled time is burned.
    EXPECT_GT(e.penalty_ms(), 0.0);
  }
}

TEST(SdcAbft, ExecuteResilientRecomputesBitExact) {
  const auto X = la::uniform_sparse(96, 40, 0.15, 11);
  const auto y = la::random_vector(40, 12);

  vgpu::FaultConfig cfg;
  cfg.seed = 5;
  cfg.silent_fault_rate = 0.5;
  vgpu::FaultInjector injector(cfg);
  vgpu::Device dev;
  dev.set_fault_injector(&injector);
  OpRegistry reg(dev);
  reg.set_verify_policy(VerifyPolicy::kFull);

  RetryPolicy policy;
  ResilienceStats session;
  const auto out = reg.execute_resilient(
      Backend::kFused, policy,
      [&](Backend b) { return reg.product(b, X, y); }, {}, &session);
  // Retries may have degraded tiers, so the oracle is a clean dispatch on
  // whichever backend finally produced the value (summation order differs
  // across tiers; WITHIN a tier results are bit-exact).
  vgpu::Device ref_dev;
  OpRegistry ref(ref_dev);
  const auto expect = ref.product(out.backend_used, X, y).value;
  ASSERT_EQ(out.value.size(), expect.size());
  for (usize i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(out.value[i], expect[i]) << "element " << i;
  }
  // At a 50% silent rate the first attempts essentially cannot all be
  // clean; the defense must actually have fired.
  EXPECT_GT(session.sdc_detected, 0u);
  EXPECT_GT(session.wasted_ms, 0.0);
}

TEST(SdcAbft, VerificationBilledExactlyOnce) {
  const auto X = la::uniform_sparse(64, 24, 0.2, 7);
  const auto y = la::random_vector(24, 8);

  vgpu::Device dev_off;
  OpRegistry off(dev_off);
  const auto baseline = off.product(Backend::kFused, X, y);

  vgpu::Device dev_full;
  OpRegistry full(dev_full);
  full.set_verify_policy(VerifyPolicy::kFull);
  RetryPolicy policy;
  ResilienceStats session;
  const auto verified = full.execute_resilient(
      Backend::kFused, policy,
      [&](Backend b) { return full.product(b, X, y); }, {}, &session);

  // The declared verify cost is real launches, included in the totals and
  // broken out once — outcome totals minus the sub-bucket reproduce the
  // unverified run exactly.
  EXPECT_GT(verified.verify_launches, 0u);
  EXPECT_GT(verified.verify_ms, 0.0);
  EXPECT_EQ(verified.launches - verified.verify_launches, baseline.launches);
  EXPECT_NEAR(verified.modeled_ms - verified.verify_ms, baseline.modeled_ms,
              1e-12);
  // And the session aggregate saw the same bill exactly once.
  EXPECT_EQ(session.verify_launches, verified.verify_launches);
  EXPECT_EQ(session.verify_ms, verified.verify_ms);
  EXPECT_EQ(session.sdc_detected, 0u);
}

real halve(real x) { return x * real{0.5}; }

// Every op the registry verifies, on both storages of one matrix: under
// kFull a corrupted launch throws, and a clean one passes its check.
TEST(SdcAbft, EveryVerifiedOpDetectsOnBothStoragesAndPassesClean) {
  constexpr index_t kRows = 48;
  constexpr index_t kCols = 20;
  const auto Xs = la::uniform_sparse(kRows, kCols, 0.2, 21);
  const auto Xd = la::csr_to_dense(Xs);
  const auto y = la::random_vector(kCols, 22);
  const auto z = la::random_vector(kCols, 23);
  const auto u = la::random_vector(kRows, 24);
  const auto v = la::random_vector(kRows, 25);
  const auto om = la::random_vector(kRows * kCols, 26);
  kernels::EwiseProgram program;  // out = i0 * i1
  program.num_inputs = 2;
  kernels::EwiseStep mul;
  mul.op = kernels::EwiseOp::kMul;
  mul.a = 0;
  mul.b = 1;
  program.steps.push_back(mul);
  const std::array<std::span<const real>, 2> chain_inputs = {u, v};
  const std::span<const real> ext(v);

  using Call = std::function<kernels::KernelOutcome(OpRegistry&,
                                                    la::MatrixRef)>;
  const Backend b = Backend::kFused;
  const std::vector<std::pair<std::string, Call>> ops = {
      {"product",
       [&](OpRegistry& r, la::MatrixRef X) { return r.product(b, X, y); }},
      {"transposed_product",
       [&](OpRegistry& r, la::MatrixRef X) {
         return r.transposed_product(b, X, u, 1.5);
       }},
      {"pattern",
       [&](OpRegistry& r, la::MatrixRef X) {
         return r.pattern(b, 0.5, X, v, y, 2.0, z);
       }},
      {"sparse_mask",
       [&](OpRegistry& r, la::MatrixRef X) {
         return r.sparse_mask(b, X, om);
       }},
      {"masked_product",
       [&](OpRegistry& r, la::MatrixRef X) {
         const auto vals = la::random_vector(X.entries(), 27);
         return r.masked_product(b, X, vals, y);
       }},
      {"fused_row",
       [&](OpRegistry& r, la::MatrixRef X) {
         return r.fused_row(b, X, y, program, {&ext, 1});
       }},
      {"fused_sddmm",
       [&](OpRegistry& r, la::MatrixRef X) {
         return r.fused_sddmm(b, X, u, y, z, halve, "halve");
       }},
      {"axpy",
       [&](OpRegistry& r, la::MatrixRef) {
         auto w = v;
         return r.axpy(b, 2.0, u, w);
       }},
      {"scal",
       [&](OpRegistry& r, la::MatrixRef) {
         auto w = v;
         return r.scal(b, 3.0, w);
       }},
      {"dot", [&](OpRegistry& r, la::MatrixRef) { return r.dot(b, u, v); }},
      {"nrm2", [&](OpRegistry& r, la::MatrixRef) { return r.nrm2(b, u); }},
      {"ewise_mul",
       [&](OpRegistry& r, la::MatrixRef) { return r.ewise_mul(b, u, v); }},
      {"map",
       [&](OpRegistry& r, la::MatrixRef) {
         return r.map(b, u, halve, "halve");
       }},
      {"fused_ewise",
       [&](OpRegistry& r, la::MatrixRef) {
         return r.fused_ewise(b, program, chain_inputs);
       }},
      {"outer_map",
       [&](OpRegistry& r, la::MatrixRef) {
         return r.outer_map(b, u, y, halve, "halve");
       }},
  };

  for (const la::MatrixRef X : {la::MatrixRef(Xs), la::MatrixRef(Xd)}) {
    for (const auto& [name, call] : ops) {
      SCOPED_TRACE(name + (X.sparse() ? " on csr" : " on dense"));
      vgpu::Device clean_dev;
      OpRegistry clean(clean_dev);
      clean.set_verify_policy(VerifyPolicy::kFull);
      EXPECT_NO_THROW(call(clean, X));
      EXPECT_EQ(clean.verifier().checks(), 1u);
      EXPECT_EQ(clean.verifier().mismatches(), 0u);

      vgpu::FaultConfig cfg;
      cfg.silent_fault_rate = 1.0;
      vgpu::FaultInjector injector(cfg);
      vgpu::Device dev;
      dev.set_fault_injector(&injector);
      OpRegistry reg(dev);
      reg.set_verify_policy(VerifyPolicy::kFull);
      EXPECT_THROW(call(reg, X), SilentCorruptionError);
    }
  }
}

// Values written in place are new data, not corruption: the checksums
// belong to the matrix's values, not to the address they live at.
TEST(SdcAbft, InPlaceValueWritesAreNotCorruption) {
  auto Xs = la::uniform_sparse(64, 24, 0.2, 7);
  auto Xd = la::csr_to_dense(Xs);
  const auto y = la::random_vector(24, 8);
  const auto v = la::random_vector(64, 9);
  vgpu::Device dev;
  OpRegistry reg(dev);
  reg.set_verify_policy(VerifyPolicy::kFull);
  const auto run_matrix_ops = [&](const auto& X) {
    reg.product(Backend::kFused, X, y);
    reg.transposed_product(Backend::kFused, X, v, 1.0);
    reg.pattern(Backend::kFused, 1.0, X, v, y, 0.0, {});
  };
  run_matrix_ops(Xs);
  run_matrix_ops(Xd);
  for (real& x : Xs.values_mut()) x *= -2;
  for (real& x : Xd.data()) x *= -2;
  EXPECT_NO_THROW(run_matrix_ops(Xs));
  EXPECT_NO_THROW(run_matrix_ops(Xd));
  EXPECT_EQ(reg.verifier().mismatches(), 0u);
}

// A weight vector whose entries moved is a new v for the pattern checksum.
TEST(SdcAbft, ReorderedWeightsAreNotCorruption) {
  const auto X = la::uniform_sparse(64, 24, 0.2, 7);
  const auto y = la::random_vector(24, 8);
  // Integer weights sum exactly in any order, so the swap below keeps v's
  // address, size, sum and end points; only its contents change.
  std::vector<real> v(64);
  for (usize i = 0; i < v.size(); ++i) v[i] = static_cast<real>(1 + i % 11);
  vgpu::Device dev;
  OpRegistry reg(dev);
  reg.set_verify_policy(VerifyPolicy::kFull);
  reg.pattern(Backend::kFused, 1.0, X, v, y, 0.0, {});
  std::swap(v[5], v[40]);
  EXPECT_NO_THROW(reg.pattern(Backend::kFused, 1.0, X, v, y, 0.0, {}));
  EXPECT_EQ(reg.verifier().mismatches(), 0u);
}

// --- Non-finite values are the math, not a fault ----------------------------

/// Backend health gate that allows everything and counts strikes; installing
/// one also routes dispatch through the full resilient loop.
struct StrikeCounter : kernels::BackendHealth {
  int failures = 0;
  bool allow(Backend) override { return true; }
  void on_success(Backend) override {}
  void on_failure(Backend) override { ++failures; }
};

TEST(SdcNonFinite, InfInCsrProductThrowsWithoutRetryOrStrike) {
  auto X = la::uniform_sparse(64, 24, 0.2, 7);
  X.values_mut()[3] = std::numeric_limits<real>::infinity();
  const auto y = la::random_vector(24, 8);
  vgpu::Device dev;
  OpRegistry reg(dev);
  reg.set_verify_policy(VerifyPolicy::kFull);
  StrikeCounter health;
  reg.set_health(&health);

  ResilienceStats session;
  try {
    reg.execute_resilient(
        Backend::kFused, RetryPolicy{},
        [&](Backend b) { return reg.product(b, X, y); }, {}, &session);
    FAIL() << "a non-finite product must not pass verification";
  } catch (const NonFiniteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFinite);
  }
  // Not silent corruption: no recompute, no degradation to the CPU, nothing
  // a breaker or the quarantine board would count against the device.
  EXPECT_EQ(session.faults_seen, 0u);
  EXPECT_EQ(session.sdc_detected, 0u);
  EXPECT_EQ(session.retries, 0u);
  EXPECT_EQ(session.fallbacks, 0u);
  EXPECT_EQ(health.failures, 0);
  EXPECT_EQ(reg.verifier().mismatches(), 0u);
}

TEST(SdcNonFinite, OverflowingMapThrowsInsteadOfPassing) {
  // exp(1000) overflows to +Inf on every backend; the elementwise check
  // must say so rather than compare Inf with Inf and pass.
  vgpu::Device dev;
  sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
  rt.set_verify_policy(VerifyPolicy::kFull);
  const auto x = rt.add_vector(std::vector<real>(256, real{1000}), "x");
  EXPECT_THROW(rt.op_map(x, [](real v) { return std::exp(v); }, "exp"),
               NonFiniteError);
  EXPECT_EQ(rt.resilience().faults_seen, 0u);
  EXPECT_EQ(rt.resilience().sdc_detected, 0u);
  EXPECT_EQ(rt.stats().cpu_ops, 0u);
}

TEST(SdcNonFinite, DivergingScriptFailsWithoutRetryOrRollback) {
  // lr-cg on data scaled by 1e80: the first CG iteration's p^T q overflows,
  // so the solve diverges to NaN. The script-level policy is to fail: the
  // NonFiniteError is neither retried by the registry nor absorbed by a
  // checkpoint rollback (recomputing would only diverge again).
  auto X = la::uniform_sparse(200, 20, 0.2, 11);
  const auto y = la::regression_labels(X, 11, 0.0);
  for (real& v : X.values_mut()) v *= 1e80;
  vgpu::Device dev;
  sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
  rt.set_verify_policy(VerifyPolicy::kFull);
  ml::ScriptConfig cfg;
  cfg.max_iterations = 20;
  EXPECT_THROW(
      ml::run_lr_cg_script(rt, X, y, sysml::PlanMode::kPlanner, cfg),
      NonFiniteError);
  EXPECT_GT(rt.trace().size(), 3u) << "diverged inside the CG loop";
  EXPECT_EQ(rt.resilience().retries, 0u);
  EXPECT_EQ(rt.resilience().rollbacks, 0u);
  EXPECT_EQ(rt.resilience().fallbacks, 0u);
  EXPECT_EQ(rt.resilience().sdc_detected, 0u);
}

// --- The false-positive oracle ----------------------------------------------

// Full verification over the ENTIRE script library — every algorithm,
// both storage formats, all three plan modes — on fault-free devices. It
// must detect nothing and change nothing: weights bit-exact with the
// verification-off run. Any divergence means the checksum invariants are
// wrong for some kernel, which would poison every real detection.
TEST(SdcFalsePositiveOracle, FullVerifyIsExactOnCleanDevices) {
  const auto X = la::uniform_sparse(72, 28, 0.15, 31);
  const auto Xd = la::csr_to_dense(X);
  const auto labels = la::regression_labels(X, 9, 0.05);

  int covered = 0;
  for (const auto& spec : ml::script_library()) {
    SCOPED_TRACE(spec.name);
    // HITS needs a square matrix; cover it separately below.
    if (spec.algorithm == ml::Algorithm::kHits) continue;

    const auto run = [&](VerifyPolicy policy) {
      vgpu::Device dev;
      sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
      rt.set_verify_policy(policy);
      sysml::ScriptResult r = spec.dense
                                  ? spec.run_dense(rt, Xd, labels, 2)
                                  : spec.run_sparse(rt, X, labels, 2);
      EXPECT_EQ(rt.resilience().sdc_detected, 0u)
          << "false positive under " << spec.name;
      EXPECT_EQ(rt.resilience().faults_seen, 0u);
      return r;
    };
    const auto off = run(VerifyPolicy::kOff);
    const auto full = run(VerifyPolicy::kFull);
    ASSERT_EQ(off.weights.size(), full.weights.size());
    for (usize i = 0; i < off.weights.size(); ++i) {
      ASSERT_EQ(off.weights[i], full.weights[i]) << "weight " << i;
    }
    EXPECT_EQ(off.iterations, full.iterations);
    // Verification must be visible in the accounting, not a silent no-op
    // (GPU scripts issue verifiable matrix/vector ops in every mode).
    EXPECT_GT(full.runtime_stats.verify_launches +
                  static_cast<std::uint64_t>(full.runtime_stats.verify_ms > 0),
              0u)
        << "kFull billed no verification for " << spec.name;
    ++covered;
  }
  EXPECT_EQ(covered, 8 * 2 * 3);  // 8 non-HITS algorithms × storage × modes

  // HITS: square link matrix, labels ignored.
  const auto L = la::uniform_sparse(48, 48, 0.08, 33);
  const auto Ld = la::csr_to_dense(L);
  for (const auto& spec : ml::script_library()) {
    if (spec.algorithm != ml::Algorithm::kHits) continue;
    SCOPED_TRACE(spec.name);
    const auto run = [&](VerifyPolicy policy) {
      vgpu::Device dev;
      sysml::Runtime rt(dev, {.enable_gpu = true, .gpu_cost_bias = 1e-4});
      rt.set_verify_policy(policy);
      sysml::ScriptResult r = spec.dense ? spec.run_dense(rt, Ld, {}, 2)
                                         : spec.run_sparse(rt, L, {}, 2);
      EXPECT_EQ(rt.resilience().sdc_detected, 0u);
      return r;
    };
    const auto off = run(VerifyPolicy::kOff);
    const auto full = run(VerifyPolicy::kFull);
    ASSERT_EQ(off.weights.size(), full.weights.size());
    for (usize i = 0; i < off.weights.size(); ++i) {
      ASSERT_EQ(off.weights[i], full.weights[i]) << "weight " << i;
    }
    ++covered;
  }
  EXPECT_EQ(covered, 9 * 2 * 3);  // the whole library
}

// --- Solver checkpoint/rollback ---------------------------------------------

TEST(SdcCheckpoint, SavesOnCadenceAndRollsBackTransientFaults) {
  vgpu::Device dev;
  sysml::Runtime rt(dev, {});
  sysml::SolverCheckpoint ckpt(rt, /*interval=*/2, /*max_rollbacks=*/2);

  std::vector<real> w = {1, 2, 3};
  real scalar = 10;
  ckpt.track_vector([&] { return w; },
                    [&](const std::vector<real>& s) { w = s; });
  ckpt.track_scalar([&] { return scalar; }, [&](real s) { scalar = s; });

  ckpt.save_if_due(0);
  EXPECT_EQ(ckpt.saves(), 1);
  ckpt.save_if_due(1);  // off-cadence, snapshot exists → no save
  EXPECT_EQ(ckpt.saves(), 1);

  w = {7, 8, 9};
  scalar = -1;
  int resume = -1;
  try {
    throw SilentCorruptionError("abft check failed", 0.5);
  } catch (const Error& e) {
    resume = ckpt.rollback(e);
  }
  EXPECT_EQ(resume, 0);
  EXPECT_EQ(w, (std::vector<real>{1, 2, 3}));
  EXPECT_EQ(scalar, 10);
  EXPECT_EQ(ckpt.rollbacks(), 1);
  EXPECT_EQ(rt.resilience().rollbacks, 1u);

  // Non-transient faults pass through untouched.
  EXPECT_THROW(
      {
        try {
          throw Error("logic bug");
        } catch (const Error& e) {
          ckpt.rollback(e);
        }
      },
      Error);
  EXPECT_EQ(ckpt.rollbacks(), 1);

  // The budget bounds rollback loops: after max_rollbacks, even transient
  // faults rethrow.
  try {
    throw TransferError("pcie", 0.1);
  } catch (const Error& e) {
    ckpt.rollback(e);
  }
  EXPECT_FALSE(ckpt.can_rollback());
  EXPECT_THROW(
      {
        try {
          throw TransferError("pcie", 0.1);
        } catch (const Error& e) {
          ckpt.rollback(e);
        }
      },
      TransferError);
}

// --- Device health board ----------------------------------------------------

TEST(SdcQuarantine, ThresholdProbationAndLastHealthyGuard) {
  serve::QuarantineConfig cfg;
  cfg.sdc_threshold = 2;
  cfg.probation_ms = 10.0;
  double now = 0.0;
  serve::DeviceHealthBoard board(cfg, /*workers=*/3, [&] { return now; });

  board.report_sdc(0, 1);
  EXPECT_FALSE(board.quarantined(0));
  EXPECT_EQ(board.sdc_count(0), 1u);
  board.report_sdc(0, 1);
  EXPECT_TRUE(board.quarantined(0));
  EXPECT_EQ(board.quarantines(), 1u);

  board.report_sdc(1, 5);
  EXPECT_TRUE(board.quarantined(1));

  // Worker 2 is the LAST healthy device — it must keep serving no matter
  // how many detections it accumulates.
  board.report_sdc(2, 100);
  EXPECT_FALSE(board.quarantined(2));

  // Probation expires on the modeled clock; the device re-enters with a
  // cleared count.
  now = 10.1;
  EXPECT_FALSE(board.quarantined(0));
  EXPECT_FALSE(board.quarantined(1));
  EXPECT_EQ(board.reentries(), 2u);
  EXPECT_EQ(board.sdc_count(0), 0u);

  // Zero-count reports are free; a disabled board never quarantines.
  board.report_sdc(0, 0);
  EXPECT_EQ(board.sdc_count(0), 0u);
  serve::QuarantineConfig off;
  off.enabled = false;
  off.sdc_threshold = 1;
  serve::DeviceHealthBoard disabled(off, 2, [&] { return now; });
  disabled.report_sdc(0, 50);
  EXPECT_FALSE(disabled.quarantined(0));
  EXPECT_EQ(disabled.quarantines(), 0u);
}

}  // namespace
}  // namespace fusedml
