// Algorithm-based fault tolerance (ABFT) for the operator registry — the
// redundant algebraic checks that catch SILENT data corruption, the fault
// class nothing else in the stack can see (vgpu::FaultKind::kSilentCorruption
// perturbs a kernel's output without raising any error).
//
// The matrix ops are verified Huang–Abraham style with precomputed checksum
// vectors, so the per-call check is one cheap reduction:
//   product            p = X*y          : sum(p)  ?=  <colsum(X), y>
//   transposed product w = a*X^T*y      : sum(w)  ?=  a * <rowsum(X), y>
//   pattern (Eq. 1)    w = a*X^T(v⊙Xy)+bz : sum(w) ?= a * <k, y> + b * sum(z)
//                      with k = X^T (v ⊙ rowsum(X))
// The checksums are owned by the matrix (la/checksums.h): built on first
// use, shared by its copies, dropped when its values are reached mutably;
// k is kept for the last v and rebuilt when v's contents change. The
// observed-side sum runs as ONE device reduction launch (dev_dot against a
// cached ones vector), so verification pays real modeled launch cost; the
// fused_row and fused_sddmm checks run the same reduction and then
// screen each output element against a host recomputation. The
// elementwise/BLAS-1, sparse_mask and masked_product checks are host-side
// redundant arithmetic (sum identities or straight recomputation) and
// launch nothing on the device. Every check has one body for both
// storages: it walks X through la::for_each_entry in storage order.
//
// Detection contract. The injected perturbation displaces one element by at
// least (1 + max|value|); checks compare with a relative tolerance of
// kAbftRelTol * (1 + |expected| + Σ|terms|), orders of magnitude above
// double-precision reduction noise and orders of magnitude below the
// perturbation at every scale this repo models — so clean runs never
// false-positive and injected corruptions are always caught (when the
// policy samples the op). A mismatch throws SilentCorruptionError; the
// caller's execute_resilient loop treats it like any transient fault and
// recomputes. A NaN or Inf on either side of a comparison is not
// corruption — recomputing reproduces it — so it throws NonFiniteError,
// which the retry loop rethrows at once.
//
// VerifyPolicy::kSpot samples every 8th GPU dispatch —
// cheap continuous assurance; kFull checks every GPU dispatch — required
// for the bit-exact guarantees of the chaos SDC soak. CPU results are
// never checked (host arithmetic cannot be silently corrupted here).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "kernels/cpu_backend.h"
#include "kernels/ewise_program.h"
#include "la/matrix_ref.h"
#include "vgpu/device.h"
#include "vgpu/mem_counters.h"

namespace fusedml::kernels {

/// How much of the GPU dispatch stream ABFT verification covers.
enum class VerifyPolicy {
  kOff,   ///< no checks (the default — zero overhead)
  kSpot,  ///< every 8th GPU dispatch
  kFull,  ///< every GPU dispatch — bit-exact guarantee under SDC injection
};

const char* to_string(VerifyPolicy policy);

/// Relative tolerance of every checksum comparison.
inline constexpr double kAbftRelTol = 1e-8;

/// What one verification cost the op it checked (folded into the op's
/// KernelOutcome accounting by the registry).
struct VerifyCharge {
  std::uint64_t launches = 0;  ///< device reduction launches issued
  double modeled_ms = 0.0;     ///< modeled device time of those launches
  vgpu::MemCounters counters;
};

/// Sum and absolute-sum of a vector in one pass — the precomputed input
/// checksums the in-place BLAS-1 checks need from before the launch.
struct HostSums {
  real sum = 0;
  real abs_sum = 0;
};

class AbftVerifier {
 public:
  AbftVerifier(vgpu::Device& dev, const CpuBackend& cpu)
      : dev_(dev), cpu_(cpu) {}

  void set_policy(VerifyPolicy policy) { policy_ = policy; }
  VerifyPolicy policy() const { return policy_; }

  /// Called once per GPU dispatch: advances the spot counter and returns
  /// whether THIS dispatch must be verified under the current policy.
  bool arm();

  std::uint64_t checks() const { return checks_; }
  std::uint64_t mismatches() const { return mismatches_; }

  // --- Matrix-op checks (one device reduction each) ----------------------
  // All throw SilentCorruptionError on mismatch (penalty = the check's own
  // modeled cost; the registry adds the doomed attempt's cost on rethrow)
  // and NonFiniteError on a NaN/Inf, like every check below.
  VerifyCharge check_product(std::span<const real> p, la::MatrixRef X,
                             std::span<const real> y);
  VerifyCharge check_transposed_product(std::span<const real> w,
                                        la::MatrixRef X,
                                        std::span<const real> y, real alpha);
  VerifyCharge check_pattern(std::span<const real> w, real alpha,
                             la::MatrixRef X, std::span<const real> v,
                             std::span<const real> y, real beta,
                             std::span<const real> z);

  // --- Elementwise / BLAS-1 checks (host-side, launch-free) --------------
  VerifyCharge check_axpy(std::span<const real> y_after, real alpha,
                          const HostSums& x_before, const HostSums& y_before);
  VerifyCharge check_scal(std::span<const real> x_after, real alpha,
                          const HostSums& x_before);
  VerifyCharge check_dot(real observed, std::span<const real> x,
                         std::span<const real> y);
  VerifyCharge check_nrm2(real observed, std::span<const real> x);
  VerifyCharge check_ewise_mul(std::span<const real> out,
                               std::span<const real> x,
                               std::span<const real> y);
  VerifyCharge check_map(std::span<const real> out, std::span<const real> x,
                         real (*f)(real));
  VerifyCharge check_ewise_chain(std::span<const real> out,
                                 const EwiseProgram& program,
                                 std::span<const std::span<const real>> inputs);

  // --- Sparsity-template checks -------------------------------------------
  // Redundant host arithmetic over the same per-element expressions the
  // kernels evaluate; the reduction-style checks scale their tolerance by
  // the row's absolute term sum so device-vs-host summation order never
  // false-positives. outer_map, sparse_mask and masked_product are
  // launch-free; fused_row and fused_sddmm first read their output back
  // through one device reduction.
  VerifyCharge check_outer_map(std::span<const real> out,
                               std::span<const real> u,
                               std::span<const real> v, real (*f)(real));
  VerifyCharge check_sparse_mask(std::span<const real> out, la::MatrixRef X,
                                 std::span<const real> om);
  VerifyCharge check_masked_product(std::span<const real> out, la::MatrixRef X,
                                    std::span<const real> vals,
                                    std::span<const real> z);
  VerifyCharge check_fused_row(std::span<const real> out, la::MatrixRef X,
                               std::span<const real> y,
                               const EwiseProgram& program,
                               std::span<const std::span<const real>> ext);
  VerifyCharge check_fused_sddmm(std::span<const real> out, la::MatrixRef X,
                                 std::span<const real> u,
                                 std::span<const real> v,
                                 std::span<const real> z, real (*f)(real));

  static HostSums host_sums(std::span<const real> x);

 private:
  /// The observed-side checksum: one dev_dot launch of `w` against a cached
  /// ones vector. Folds the launch into `charge`. If the reduction launch
  /// itself draws a silent-corruption fault, the check cannot be trusted —
  /// it throws SilentCorruptionError immediately (a recompute follows).
  real device_sum(std::span<const real> w, VerifyCharge& charge);

  /// Books one checksum check into the metrics registry, then compare()s
  /// with the check's own modeled cost as the penalty.
  void conclude(const char* what, real observed, real expected, real scale,
                const VerifyCharge& charge);
  /// The one comparison every check makes. A non-finite observed or
  /// expected value throws NonFiniteError (the math overflowed — not a
  /// fault); |observed - expected| beyond kAbftRelTol * (1 + |expected| +
  /// |scale|) throws SilentCorruptionError carrying `penalty_ms`.
  void compare(const char* what, real observed, real expected, real scale,
               double penalty_ms);

  vgpu::Device& dev_;
  const CpuBackend& cpu_;
  VerifyPolicy policy_ = VerifyPolicy::kOff;
  static constexpr int kSpotInterval = 8;
  std::uint64_t spot_counter_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t mismatches_ = 0;
  std::unordered_map<usize, std::vector<real>> ones_;
};

}  // namespace fusedml::kernels
