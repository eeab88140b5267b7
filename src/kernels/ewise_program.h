// A tiny element-wise "program": the unit of work produced when the fusion
// planner collapses a run of scale/add/mul/map operators into ONE generated
// streaming kernel (the FusionStitching-style generalization of the paper's
// hand-written Equation-1 kernel — see docs/FUSION_PLANNER.md).
//
// The program is a straight-line SSA sequence over element slots: slots
// [0, num_inputs) name the input streams, slot num_inputs + j names the
// result of step j, and the last step is the kernel's output. Evaluation is
// per-element and order-preserving, so a fused chain is bit-exact with the
// operator-at-a-time execution it replaces.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace fusedml::kernels {

enum class EwiseOp {
  kScale,  ///< s = scalar * a
  kAdd,    ///< s = a + b
  kMul,    ///< s = a * b
  kMap,    ///< s = f(a)
};

const char* to_string(EwiseOp op);

struct EwiseStep {
  EwiseOp op{};
  int a = -1;  ///< operand slot (see slot numbering above)
  int b = -1;  ///< second operand slot (kAdd / kMul only)
  real scalar = 1;                 ///< kScale factor
  real (*map_fn)(real) = nullptr;  ///< kMap function
  std::string map_name;            ///< kMap label (codegen + explain)
};

struct EwiseProgram {
  int num_inputs = 0;
  std::vector<EwiseStep> steps;  ///< topological order; last step = output

  bool empty() const { return steps.empty(); }

  /// Canonical text form, e.g. "2in:mul(i0,i1);map[sigmoid](s0);mul(s1,i0)".
  /// Doubles as the kernel-cache key and the explain-plan label.
  std::string signature() const;

  /// Flops the generated kernel performs per output element (maps priced
  /// like the runtime's op_map: 4 flops).
  std::uint64_t flops_per_element() const;

  /// Element-wise evaluation over equal-length input streams — the
  /// functional semantics of the generated kernel and of the CPU path.
  std::vector<real> evaluate(
      std::span<const std::span<const real>> inputs) const;

  /// Structural validity: operand slots in range, topological order.
  bool valid() const;
};

/// The library's one identity map: an outer map u v^T with no function
/// applied (ALS's masked products). with_map recognizes it by address.
real identity_map(real x);

/// Runs `body(map)` once, with `map` an inline identity when `f` is
/// identity_map and `f` itself otherwise. Each outer-map body writes its
/// element term once, as a generic lambda; this instantiates it twice, so
/// the identity costs no call per element and any other map keeps its
/// pointer call. Both callables return f's value bit for bit.
template <typename Body>
decltype(auto) with_map(real (*f)(real), Body&& body) {
  if (f == &identity_map) return body([](real x) { return x; });
  return body(f);
}

/// One element of `program` on the device. Slots [0, num_inputs) hold the
/// element's inputs; each step writes its own slot, and the last step's
/// value is returned. dev_ewise_chain and the fused row epilogues both run
/// this body, so a fused epilogue is bit-exact with the generated chain
/// kernel. EwiseProgram::evaluate stays separate: it is the CPU backend
/// and the ABFT host reference, and an oracle must not share code with
/// what it checks.
inline real eval_device_element(const EwiseProgram& program,
                                std::span<real> slots) {
  real* result = slots.data() + program.num_inputs;
  for (const EwiseStep& s : program.steps) {
    real r = 0;
    switch (s.op) {
      case EwiseOp::kScale: r = s.scalar * slots[s.a]; break;
      case EwiseOp::kAdd: r = slots[s.a] + slots[s.b]; break;
      case EwiseOp::kMul: r = slots[s.a] * slots[s.b]; break;
      case EwiseOp::kMap: r = s.map_fn(slots[s.a]); break;
    }
    *result++ = r;
  }
  return slots.back();
}

}  // namespace fusedml::kernels
