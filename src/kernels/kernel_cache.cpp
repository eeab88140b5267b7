#include "kernels/kernel_cache.h"

#include "common/timer.h"
#include "obs/metrics.h"

namespace fusedml::kernels {

namespace {
void note_cache(bool hit) {
  if (!obs::metrics().enabled()) return;
  obs::metrics().counter(hit ? "cache.hits" : "cache.misses").add();
}
}  // namespace

const std::string& KernelCache::dense_kernel(const DenseKernelSpec& spec) {
  const DenseKey key{spec.n, spec.vs, spec.tl, spec.with_v, spec.with_beta};
  const auto it = dense_.find(key);
  if (it != dense_.end()) {
    ++stats_.hits;
    note_cache(true);
    return it->second;
  }
  Timer t;
  auto src = generate_dense_fused_cuda(spec);
  stats_.generation_ms += t.elapsed_ms();
  ++stats_.misses;
  note_cache(false);
  return dense_.emplace(key, std::move(src)).first->second;
}

const std::string& KernelCache::ewise_kernel(const EwiseProgram& program) {
  auto key = program.signature();
  const auto it = ewise_.find(key);
  if (it != ewise_.end()) {
    ++stats_.hits;
    note_cache(true);
    return it->second;
  }
  Timer t;
  auto src = generate_ewise_chain_cuda(program);
  stats_.generation_ms += t.elapsed_ms();
  ++stats_.misses;
  note_cache(false);
  return ewise_.emplace(std::move(key), std::move(src)).first->second;
}

void KernelCache::clear() {
  dense_.clear();
  ewise_.clear();
  stats_ = Stats{};
}

}  // namespace fusedml::kernels
