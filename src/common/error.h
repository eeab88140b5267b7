// Error handling: a typed exception taxonomy plus always-on check macros.
//
// The taxonomy mirrors how real GPU runtimes classify failures (cf. MIOpen's
// miopenStatus_t): every error carries an ErrorCode so resilience layers can
// decide between retrying (transient kernel/transfer/data faults), degrading
// (device OOM -> smaller footprint / streaming / CPU fallback), and giving
// up (logic errors). Transient faults additionally carry the modeled time
// burned by the failed attempt so retry loops can charge it honestly.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace fusedml {

/// Failure classes the resilience policy dispatches on.
enum class ErrorCode {
  kGeneric,      ///< precondition/invariant violation — never retried
  kDeviceOom,    ///< device allocation failed — degrade, don't retry in place
  kTransfer,     ///< host<->device copy failed — transient, retryable
  kKernelFault,  ///< kernel launch/execution failed — transient, retryable
  kData,         ///< corrupted or malformed data (ECC, bad input file)
  kDeadline,     ///< modeled deadline/retry budget exhausted — fail fast
  kSilentCorruption,  ///< output failed an ABFT check — transient, recompute
  kNonFinite,    ///< a checked value is NaN/Inf — the math, not a fault
};

inline const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kGeneric: return "generic";
    case ErrorCode::kDeviceOom: return "device-oom";
    case ErrorCode::kTransfer: return "transfer";
    case ErrorCode::kKernelFault: return "kernel-fault";
    case ErrorCode::kData: return "data";
    case ErrorCode::kDeadline: return "deadline";
    case ErrorCode::kSilentCorruption: return "silent-corruption";
    case ErrorCode::kNonFinite: return "non-finite";
  }
  return "?";
}

/// True for fault classes where retrying the same operation can succeed
/// (the fault is tied to the attempt, not the operation).
inline bool is_transient(ErrorCode code) {
  return code == ErrorCode::kTransfer || code == ErrorCode::kKernelFault ||
         code == ErrorCode::kData || code == ErrorCode::kSilentCorruption;
}

/// Exception thrown on any precondition or invariant violation inside
/// fusedml. Deriving from std::runtime_error keeps call sites idiomatic.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}

  ErrorCode code() const { return code_; }
  /// Modeled milliseconds the failed attempt burned before raising (kernel
  /// time of a corrupted launch, bus time of a failed transfer). Retry
  /// loops add this to the surviving operation's modeled cost.
  double penalty_ms() const { return penalty_ms_; }

 protected:
  Error(const std::string& what, ErrorCode code, double penalty_ms)
      : std::runtime_error(what), code_(code), penalty_ms_(penalty_ms) {}

 private:
  ErrorCode code_ = ErrorCode::kGeneric;
  double penalty_ms_ = 0.0;
};

/// Device memory exhausted (real or injected). Not transient: the resilient
/// layers respond by shrinking the footprint (streaming) or falling back.
class DeviceOomError : public Error {
 public:
  explicit DeviceOomError(const std::string& what, double penalty_ms = 0.0)
      : Error(what, ErrorCode::kDeviceOom, penalty_ms) {}
};

/// Host<->device transfer failed in flight (PCIe fault). Transient.
class TransferError : public Error {
 public:
  explicit TransferError(const std::string& what, double penalty_ms = 0.0)
      : Error(what, ErrorCode::kTransfer, penalty_ms) {}
};

/// A kernel launch or execution failed (sticky context error, launch
/// timeout). Transient: the same launch can be replayed.
class KernelFaultError : public Error {
 public:
  explicit KernelFaultError(const std::string& what, double penalty_ms = 0.0)
      : Error(what, ErrorCode::kKernelFault, penalty_ms) {}
};

/// Data is corrupt or malformed: an uncorrectable ECC event on a buffer, or
/// an input file that fails validation.
class DataError : public Error {
 public:
  explicit DataError(const std::string& what, double penalty_ms = 0.0)
      : Error(what, ErrorCode::kData, penalty_ms) {}
};

/// An ABFT checksum (or other redundant check) caught a result that does not
/// match its algebraic invariant: the kernel "succeeded" but its output is
/// wrong — a silent data corruption. Transient: recomputing the same op is
/// the recovery. penalty_ms carries the modeled time of the corrupted
/// attempt plus its verification, so retry loops charge the waste honestly.
class SilentCorruptionError : public Error {
 public:
  explicit SilentCorruptionError(const std::string& what,
                                 double penalty_ms = 0.0)
      : Error(what, ErrorCode::kSilentCorruption, penalty_ms) {}
};

/// An ABFT check met a non-finite observed or expected value (a diverging
/// solver, an overflowing exp). Recomputing reproduces it, so it is neither
/// silent corruption nor transient: never retried, never degraded, and
/// never counted against the device's health.
class NonFiniteError : public Error {
 public:
  explicit NonFiniteError(const std::string& what)
      : Error(what, ErrorCode::kNonFinite, 0.0) {}
};

/// A modeled deadline (or total retry budget) was exhausted. Never retried:
/// spending more time is exactly what the caller asked to avoid. The serving
/// layer maps this to a DeadlineExceeded outcome.
class DeadlineError : public Error {
 public:
  explicit DeadlineError(const std::string& what, double penalty_ms = 0.0)
      : Error(what, ErrorCode::kDeadline, penalty_ms) {}
};

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr, const char* file,
                                             int line, const std::string& msg) {
  std::ostringstream os;
  os << "FUSEDML_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace fusedml

/// Always-on precondition check (unlike assert, survives release builds).
/// Usage: FUSEDML_CHECK(n > 0, "matrix must be non-empty");
#define FUSEDML_CHECK(expr, ...)                                             \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::fusedml::detail::throw_check_failure(#expr, __FILE__, __LINE__,      \
                                             ::std::string{__VA_ARGS__});    \
    }                                                                        \
  } while (false)
