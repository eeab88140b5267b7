// CUDA source generation — the paper's §3.2 code generator made concrete.
//
// "Since the matrix dimensions and input parameters are known at the time
//  of invoking a ML algorithm, we use a code generator to produce the
//  kernel that uses explicit registers and performs loop-unrolling"
//
// generate_dense_fused_cuda() emits the mtmvm_<n>_<VS>_<TL> kernel of
// Listing 2 for arbitrary (n, VS, TL): y and X elements live in explicitly
// named registers (l_y1.., l_X1.., l_w1..) with every register loop
// unrolled, so no access ever uses a runtime index (the condition that
// would demote the arrays to local memory). The emitted text is what would
// be handed to NVRTC on a real system; here it is validated structurally
// (tests) and used by the simulator's template instantiation as the
// semantic reference.
#pragma once

#include <string>

#include "common/types.h"
#include "kernels/ewise_program.h"

namespace fusedml::kernels {

struct DenseKernelSpec {
  index_t n = 0;     ///< columns of X (must satisfy vs * tl >= n)
  int vs = 0;        ///< threads per vector
  int tl = 0;        ///< elements per thread (the unroll factor)
  bool with_v = true;     ///< include the v ⊙ step
  bool with_beta = true;  ///< include the beta*z initialization
};

/// The generated kernel's name, e.g. "mtmvm_32_16_2" (Listing 2).
std::string cuda_kernel_name(const DenseKernelSpec& spec);

/// Full CUDA C source of the generated dense fused kernel.
std::string generate_dense_fused_cuda(const DenseKernelSpec& spec);

/// Name of the elementwise-chain kernel a trace shows, derived from the
/// program shape, e.g. "ewise2_mul_map_sigmoid_mul".
std::string ewise_kernel_name(const EwiseProgram& program);

}  // namespace fusedml::kernels
