// Multi-kernel baseline pipelines — what "stitching together cuBLAS /
// cuSPARSE / BIDMat kernels" costs for each pattern instantiation. These
// are the comparison lines of Figures 2-5 and Tables 4-5.
//
// Each evaluation launches one device kernel per primitive operator and
// materializes every intermediate in global memory — precisely the costs
// the fused kernels remove. Each composition has one body for both
// storages; the storage and the library pick only the product kernel
// (csrmv or gemv_n) and the transposed-product kernel(s) (explicit
// transpose, atomic scatter or gemv_t).
#pragma once

#include <span>

#include "kernels/gemv.h"
#include "kernels/op_result.h"
#include "la/matrix_ref.h"
#include "vgpu/device.h"

namespace fusedml::kernels {

/// w = X^T * p with the library's transposed-product kernel(s).
OpResult baseline_transposed_product(vgpu::Device& dev, la::MatrixRef X,
                                     std::span<const real> p,
                                     BaselineLibrary library);

/// w = X^T * (X * y): two chained products, intermediate in global memory.
OpResult baseline_xtxy(vgpu::Device& dev, la::MatrixRef X,
                       std::span<const real> y, BaselineLibrary library);

/// Full pattern w = alpha * X^T * (v ⊙ (X*y)) + beta*z via the product,
/// BLAS-1 kernels (ewise, scale, axpy) and the transposed product.
OpResult baseline_pattern(vgpu::Device& dev, real alpha, la::MatrixRef X,
                          std::span<const real> v, std::span<const real> y,
                          real beta, std::span<const real> z,
                          BaselineLibrary library);

}  // namespace fusedml::kernels
