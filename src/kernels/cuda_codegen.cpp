#include "kernels/cuda_codegen.h"

#include <sstream>

#include "common/error.h"

namespace fusedml::kernels {

std::string cuda_kernel_name(const DenseKernelSpec& spec) {
  return "mtmvm_" + std::to_string(spec.n) + "_" + std::to_string(spec.vs) +
         "_" + std::to_string(spec.tl);
}

std::string generate_dense_fused_cuda(const DenseKernelSpec& spec) {
  FUSEDML_CHECK(spec.n > 0 && spec.vs > 0 && spec.tl > 0,
                "codegen: n, VS, TL must be positive");
  FUSEDML_CHECK(static_cast<long long>(spec.vs) * spec.tl >= spec.n,
                "codegen: VS * TL must cover the row");
  std::ostringstream os;
  const int tl = spec.tl;
  const int vs = spec.vs;

  os << "// generated by fusedml (paper Listing 2 shape): "
     << cuda_kernel_name(spec) << "\n";
  os << "__global__ void " << cuda_kernel_name(spec)
     << "(const double *X, const double *y,\n"
     << "    " << (spec.with_v ? "const double *v, " : "")
     << "const double a"
     << (spec.with_beta ? ", const double b, const double *z" : "")
     << ",\n    double *w, unsigned int rowDim, unsigned int rowPerVector) "
        "{\n";
  os << "  const unsigned int colDim = " << spec.n << "u;\n";
  os << "  const unsigned int NV = blockDim.x / " << vs << "u;\n";
  os << "  unsigned int tid = threadIdx.x;\n";
  os << "  unsigned int lid = tid & " << (vs - 1) << "u;\n";
  os << "  unsigned int vid = tid / " << vs << "u;\n";
  if (vs > 32) {
    os << "  __shared__ volatile double sdata[" << (vs / 32) << "];\n";
  } else {
    os << "  __shared__ volatile double sdata[32];\n";
  }

  if (spec.with_beta) {
    os << "  // beta * z initialization (grid-stride)\n"
       << "  for (unsigned int i = blockIdx.x * blockDim.x + tid;"
          " i < colDim; i += gridDim.x * blockDim.x)\n"
       << "    atomicAdd(&w[i], b * z[i]);\n";
  }

  os << "  unsigned int rowStart = blockIdx.x * NV + vid;\n"
     << "  unsigned int rowEnd = rowStart + (gridDim.x * NV) * "
        "rowPerVector;\n"
     << "  if (rowStart >= rowDim) return;\n"
     << "  if (rowEnd > rowDim) rowEnd = rowDim;\n";

  // Register declarations — explicit names, never indexed (the property
  // the generator exists to guarantee).
  os << "  double sum";
  for (int t = 1; t <= tl; ++t) os << ", l_y" << t;
  for (int t = 1; t <= tl; ++t) os << ", l_X" << t;
  for (int t = 1; t <= tl; ++t) os << ", l_w" << t;
  os << ";\n";

  // y into registers, once per vector (unrolled Alg. 3 L4-5).
  for (int t = 1; t <= tl; ++t) {
    os << "  l_y" << t << " = y[lid + " << ((t - 1) * vs) << "u];\n";
  }
  for (int t = 1; t <= tl; ++t) {
    os << "  l_w" << t << " = 0.0;\n";
  }

  os << "  unsigned int r = rowStart * colDim + lid;\n"
     << "  const unsigned int rLast = rowEnd * colDim + lid;\n"
     << "  const unsigned int rStep = (gridDim.x * NV) * colDim;\n"
     << "  for (; r < rLast; r += rStep) {\n";
  // Unrolled dot product (Alg. 3 L11-13 / Listing 2 L19-20).
  os << "    l_X1 = X[r]; sum = l_X1 * l_y1;\n";
  for (int t = 2; t <= tl; ++t) {
    os << "    l_X" << t << " = X[r + " << ((t - 1) * vs) << "u]; sum += l_X"
       << t << " * l_y" << t << ";\n";
  }
  // Intra-vector reduction.
  if (vs <= 32) {
    os << "    for (int off = " << (vs / 2)
       << "; off > 0; off >>= 1) sum += __shfl_down(sum, off, " << vs
       << ");\n";
  } else {
    os << "    for (int off = 16; off > 0; off >>= 1) sum += "
          "__shfl_down(sum, off, 32);\n"
       << "    if ((tid & 31u) == 0) sdata[tid >> 5] = sum;\n"
       << "    __syncthreads();\n"
       << "    if (tid < " << (vs / 32)
       << ") sum = sdata[tid]; else sum = 0.0;\n"
       << "    for (int off = " << (vs / 64)
       << "; off > 0; off >>= 1) sum += __shfl_down(sum, off, 32);\n";
  }
  if (spec.with_v) {
    os << "    if (lid == 0) sdata[vid] = sum * v[r / colDim];\n";
  } else {
    os << "    if (lid == 0) sdata[vid] = sum;\n";
  }
  if (vs > 32) os << "    __syncthreads();\n";
  os << "    sum = sdata[vid];\n";
  // Unrolled scale-accumulate into the register copy of w (L23-24).
  os << "    l_w1 += l_X1 * sum;";
  for (int t = 2; t <= tl; ++t) {
    os << " l_w" << t << " += l_X" << t << " * sum;";
  }
  os << "\n  }\n";

  // Final flush (Alg. 3 L26-27 / Listing 2 L27-29).
  os << "  double *wp = w + lid;\n";
  os << "  atomicAdd(wp, a * l_w1);\n";
  for (int t = 2; t <= tl; ++t) {
    os << "  atomicAdd(wp + " << ((t - 1) * vs) << "u, a * l_w" << t
       << ");\n";
  }
  os << "}\n";
  return os.str();
}

std::string ewise_kernel_name(const EwiseProgram& program) {
  std::string name = "ewise" + std::to_string(program.num_inputs);
  for (const EwiseStep& s : program.steps) {
    name += "_";
    name += to_string(s.op);
    if (s.op == EwiseOp::kMap) name += "_" + s.map_name;
  }
  return name;
}

}  // namespace fusedml::kernels
