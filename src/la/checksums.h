// Checksums of a matrix's values, owned by the matrix. The ABFT verifier
// (kernels/abft.h) builds them on first use; this header only keeps them,
// and, under the same ownership rule, any other value derived from the
// matrix's values (a CSR matrix's transpose).
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.h"

namespace fusedml::la {

/// Row and column sums of a matrix's values.
struct MatrixSums {
  std::vector<real> row_sums;  ///< r_i = sum_j X(i,j)
  std::vector<real> col_sums;  ///< c_j = sum_i X(i,j)
};

/// The pattern checksum k = X^T (v ⊙ rowsum(X)) and the weight vector v it
/// was built for (empty: all ones).
struct PatternSums {
  std::vector<real> v;
  std::vector<real> k;
};

/// The checksums one matrix owns. Copies of a matrix share them until one
/// copy's values are reached mutably: that copy calls drop() and starts
/// empty. So a checksum never outlives the values it was computed from,
/// and a later matrix at the same address never finds it. Concurrent
/// readers of one matrix may call sums() and pattern(); drop() needs the
/// exclusive access the write it precedes needs anyway.
class Checksums {
 public:
  /// The row and column sums, made by `build()` on first use.
  template <typename Build>
  std::shared_ptr<const MatrixSums> sums(Build&& build) const {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->sums == nullptr) {
      state_->sums = std::make_shared<const MatrixSums>(build());
    }
    return state_->sums;
  }

  /// The pattern checksum for `v`. The kept one is reused while its v has
  /// the same contents; otherwise `build()` makes k for this v.
  template <typename Build>
  std::shared_ptr<const PatternSums> pattern(std::span<const real> v,
                                             Build&& build) const {
    std::shared_ptr<const PatternSums> kept;
    {
      const std::lock_guard<std::mutex> lock(state_->mutex);
      kept = state_->pattern;
    }
    if (kept != nullptr && std::ranges::equal(kept->v, v)) return kept;
    auto fresh = std::make_shared<const PatternSums>(
        PatternSums{{v.begin(), v.end()}, build()});
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->pattern = fresh;
    return fresh;
  }

  /// Forgets every checksum of this copy. Allocates only when there is
  /// something to forget or another copy shares the state, so a loop of
  /// element writes pays one check per write.
  void drop() {
    if (state_.use_count() != 1 || state_->sums != nullptr ||
        state_->pattern != nullptr) {
      state_ = std::make_shared<State>();
    }
  }

 private:
  struct State {
    std::mutex mutex;
    std::shared_ptr<const MatrixSums> sums;
    std::shared_ptr<const PatternSums> pattern;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// One value derived from a matrix's values, kept under the Checksums rule:
/// copies share it until one copy's values are reached mutably, and that
/// copy's drop() forgets it. It is never keyed by address. Concurrent
/// readers may call get(); the first builds the value under the lock.
template <typename T>
class DerivedSlot {
 public:
  template <typename Build>
  std::shared_ptr<const T> get(Build&& build) const {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    if (state_->value == nullptr) {
      state_->value = std::make_shared<const T>(build());
    }
    return state_->value;
  }

  /// Forgets the value for this copy; allocates only like Checksums::drop.
  void drop() {
    if (state_.use_count() != 1 || state_->value != nullptr) {
      state_ = std::make_shared<State>();
    }
  }

 private:
  struct State {
    std::mutex mutex;
    std::shared_ptr<const T> value;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace fusedml::la
