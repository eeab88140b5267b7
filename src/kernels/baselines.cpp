#include "kernels/baselines.h"

#include "kernels/blas1.h"
#include "kernels/spmv.h"
#include "kernels/spmv_transpose.h"

namespace fusedml::kernels {

namespace {
/// Vendor-library kernels gang a fixed warp per row (no Eq. 4 adaptivity).
SpmvOptions library_spmv_options() {
  SpmvOptions opts;
  opts.adaptive_vs = false;
  return opts;
}

/// p = X * y with the library's product kernel.
OpResult product(vgpu::Device& dev, la::MatrixRef X, std::span<const real> y,
                 BaselineLibrary library) {
  if (const auto* Xd = X.dense()) return gemv_n(dev, *Xd, y, library);
  return spmv_csr_vector(dev, *X.csr(), y, library_spmv_options());
}
}  // namespace

OpResult baseline_transposed_product(vgpu::Device& dev, la::MatrixRef X,
                                     std::span<const real> p,
                                     BaselineLibrary library) {
  if (const auto* Xd = X.dense()) return gemv_t(dev, *Xd, p, library);
  if (library == BaselineLibrary::kVendor) {
    return spmv_t_explicit_transpose(dev, *X.csr(), p, library_spmv_options())
        .combined();
  }
  return spmv_t_atomic_scatter(dev, *X.csr(), p);
}

OpResult baseline_xtxy(vgpu::Device& dev, la::MatrixRef X,
                       std::span<const real> y, BaselineLibrary library) {
  OpResult out;
  auto p = product(dev, X, y, library);  // p = X*y
  auto w = baseline_transposed_product(dev, X, p.value, library);  // X^T*p
  out.value = std::move(w.value);
  out.absorb_timing(p);
  out.absorb_timing(w);
  return out;
}

OpResult baseline_pattern(vgpu::Device& dev, real alpha, la::MatrixRef X,
                          std::span<const real> v, std::span<const real> y,
                          real beta, std::span<const real> z,
                          BaselineLibrary library) {
  OpResult out;
  auto p = product(dev, X, y, library);  // p = X*y
  out.absorb_timing(p);
  std::span<const real> t = p.value;
  OpResult vp;
  if (!v.empty()) {  // t = v ⊙ p  (cuBLAS-side vector-vector kernel)
    vp = dev_ewise_mul(dev, v, p.value);
    out.absorb_timing(vp);
    t = vp.value;
  }
  auto w = baseline_transposed_product(dev, X, t, library);  // w = X^T * t
  out.absorb_timing(w);
  if (alpha != real{1}) {  // w *= alpha (scal)
    auto s = dev_scal(dev, alpha, w.value);
    out.absorb_timing(s);
  }
  if (!z.empty() && beta != real{0}) {  // w += beta * z (axpy)
    auto a = dev_axpy(dev, beta, z, w.value);
    out.absorb_timing(a);
  }
  out.value = std::move(w.value);
  return out;
}

}  // namespace fusedml::kernels
