// GPU memory manager for the mini SystemML runtime — §4.4's component (ii),
// implementing exactly the tasks the paper enumerates:
//   a) allocate device memory if not already allocated,
//   b) evict to make room when the device is full,
//   c) deallocate unneeded buffers and mark them for later reuse,
//   d) keep the CPU and GPU copies consistent (dirty tracking + synchronizing
//      transfers),
//   e) account for data-structure transformations between the host and
//      device representations (handled by the JNI bridge, charged on first
//      upload).
//
// Transfers are charged against the device's PCIe model; the manager is the
// reason Table 6's end-to-end speedups are smaller than Table 5's.
//
// Resilience: transfers retry with modeled backoff on injected PCIe faults;
// injected allocation OOMs degrade gracefully (evict the LRU victim and
// carry on); and tensors larger than device capacity are registered rather
// than rejected — needs_streaming() flags them so the runtime routes the op
// through the out-of-core streaming path instead of dying.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "common/resilience.h"
#include "common/types.h"
#include "vgpu/device.h"

namespace fusedml::sysml {

using TensorId = std::uint64_t;

enum class Residency {
  kHostOnly,    ///< no device copy
  kSynced,      ///< host and device copies agree
  kDeviceDirty, ///< device copy newer (host stale)
  kHostDirty,   ///< host copy newer (device stale)
};

struct MemoryStats {
  std::uint64_t h2d_transfers = 0;
  std::uint64_t d2h_transfers = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t allocation_reuses = 0;  ///< task (c): recycled allocations
  std::uint64_t streaming_fallbacks = 0;  ///< over-capacity ops rerouted
  double transfer_ms = 0.0;
  usize peak_device_bytes = 0;
  ResilienceStats resilience;  ///< transfer retries + absorbed alloc OOMs
};

class MemoryManager {
 public:
  /// `capacity_bytes` defaults to the device's global memory.
  MemoryManager(vgpu::Device& dev, usize capacity_bytes = 0);

  /// Registers a tensor of `bytes` living on the host. No device action.
  /// Tensors larger than the device capacity are accepted — they can never
  /// become resident (needs_streaming() is true; ensure_on_device throws
  /// DeviceOomError), and the runtime streams the op over them instead.
  void register_tensor(TensorId id, usize bytes, std::string name = "");

  /// True when the tensor cannot fit on the device even alone, so any op
  /// touching it must run through the out-of-core streaming path.
  bool needs_streaming(TensorId id) const;
  /// Records that an op was rerouted to streaming because of such a tensor.
  void note_streaming_fallback() { ++stats_.streaming_fallbacks; }

  /// Task (a)+(b)+(d): make the tensor resident and current on the device.
  /// Charges an H2D transfer when the device copy is missing or stale;
  /// evicts least-recently-used tensors if space is needed (writing back
  /// device-dirty victims). Returns the modeled milliseconds spent.
  /// Throws DeviceOomError for tensors flagged needs_streaming().
  double ensure_on_device(TensorId id);

  /// Task (a)+(b) for a kernel *output*: allocate device space (evicting if
  /// necessary) without an upload — the kernel will produce the contents.
  /// Leaves the tensor device-dirty.
  double allocate_on_device(TensorId id);

  /// Task (d): make the host copy current (charges D2H if device-dirty).
  double ensure_on_host(TensorId id);

  /// Marks the device copy as the newest (a kernel wrote it).
  void mark_device_dirty(TensorId id);
  /// Marks the host copy as the newest (host code wrote it).
  void mark_host_dirty(TensorId id);

  /// Task (c): drop the device copy (after ensuring the host is current);
  /// the allocation slot is remembered for reuse accounting.
  double release(TensorId id);

  /// Task (c) for a dead tensor: drops it entirely, with no write-back and
  /// no modeled charge (Runtime::discard).
  void unregister(TensorId id);

  bool on_device(TensorId id) const;
  Residency residency(TensorId id) const;
  usize device_bytes_in_use() const { return used_bytes_; }
  usize capacity() const { return capacity_; }
  const MemoryStats& stats() const { return stats_; }

  /// Fault handling for transfers and injected allocation OOMs.
  RetryPolicy& retry_policy() { return retry_; }
  const RetryPolicy& retry_policy() const { return retry_; }

 private:
  struct Entry {
    usize bytes = 0;
    std::string name;
    Residency state = Residency::kHostOnly;
    bool reusable_slot = false;  ///< released but remembered (task c)
    /// Position in the LRU list when resident.
    std::list<TensorId>::iterator lru_pos;
    bool resident = false;
  };

  vgpu::Device& dev_;
  usize capacity_;
  usize used_bytes_ = 0;
  std::unordered_map<TensorId, Entry> entries_;
  std::list<TensorId> lru_;  ///< front = most recently used
  MemoryStats stats_;
  RetryPolicy retry_;

  Entry& entry(TensorId id);
  const Entry& entry(TensorId id) const;
  void touch(TensorId id);
  double evict_one();
  double evict_for(usize bytes_needed);
  double transfer(usize bytes, bool to_device);
  /// Consults the injector before an allocation; absorbs a spurious OOM by
  /// evicting the LRU victim (throws DeviceOomError only when nothing is
  /// left to evict). Returns the write-back ms of any forced eviction.
  double absorb_injected_oom();
  /// Allocation preamble shared by ensure_on_device/allocate_on_device.
  double make_resident(Entry& e, TensorId id);
};

}  // namespace fusedml::sysml
