#include "kernels/ewise_program.h"

#include <cstdio>
#include <string>

#include "common/error.h"

namespace fusedml::kernels {

real identity_map(real x) { return x; }

const char* to_string(EwiseOp op) {
  switch (op) {
    case EwiseOp::kScale: return "scale";
    case EwiseOp::kAdd: return "add";
    case EwiseOp::kMul: return "mul";
    case EwiseOp::kMap: return "map";
  }
  return "?";
}

namespace {
void append_slot(std::string& out, int slot, int num_inputs) {
  out += slot < num_inputs ? 'i' : 's';
  out += std::to_string(slot < num_inputs ? slot : slot - num_inputs);
}
}  // namespace

// Built by appends rather than an ostringstream: the CPU ewise and fused-row
// paths put the signature in their kernel label on every call.
std::string EwiseProgram::signature() const {
  std::string out = std::to_string(num_inputs);
  out += "in:";
  for (usize j = 0; j < steps.size(); ++j) {
    const EwiseStep& s = steps[j];
    if (j != 0) out += ';';
    out += to_string(s.op);
    if (s.op == EwiseOp::kMap) {
      out += '[';
      out += s.map_name;
      out += ']';
    }
    if (s.op == EwiseOp::kScale) {
      // "%g" is what a default-formatted ostream prints for a double.
      char buf[32];
      std::snprintf(buf, sizeof(buf), "[%g]", s.scalar);
      out += buf;
    }
    out += '(';
    append_slot(out, s.a, num_inputs);
    if (s.op == EwiseOp::kAdd || s.op == EwiseOp::kMul) {
      out += ',';
      append_slot(out, s.b, num_inputs);
    }
    out += ')';
  }
  return out;
}

std::uint64_t EwiseProgram::flops_per_element() const {
  std::uint64_t flops = 0;
  for (const EwiseStep& s : steps) {
    flops += s.op == EwiseOp::kMap ? 4 : 1;
  }
  return flops;
}

bool EwiseProgram::valid() const {
  if (num_inputs < 1 || steps.empty()) return false;
  for (usize j = 0; j < steps.size(); ++j) {
    const EwiseStep& s = steps[j];
    const int limit = num_inputs + static_cast<int>(j);
    const bool binary = s.op == EwiseOp::kAdd || s.op == EwiseOp::kMul;
    if (s.a < 0 || s.a >= limit) return false;
    if (binary && (s.b < 0 || s.b >= limit)) return false;
    if (s.op == EwiseOp::kMap && s.map_fn == nullptr) return false;
  }
  return true;
}

std::vector<real> EwiseProgram::evaluate(
    std::span<const std::span<const real>> inputs) const {
  FUSEDML_CHECK(valid(), "invalid ewise program");
  FUSEDML_CHECK(inputs.size() == static_cast<usize>(num_inputs),
                "ewise program input-count mismatch");
  const usize n = inputs.empty() ? 0 : inputs[0].size();
  for (const auto& in : inputs) {
    FUSEDML_CHECK(in.size() == n, "ewise program inputs must be same length");
  }

  std::vector<real> out(n);
  std::vector<real> slots(static_cast<usize>(num_inputs) + steps.size());
  for (usize i = 0; i < n; ++i) {
    for (usize k = 0; k < inputs.size(); ++k) slots[k] = inputs[k][i];
    for (usize j = 0; j < steps.size(); ++j) {
      const EwiseStep& s = steps[j];
      real r = 0;
      switch (s.op) {
        case EwiseOp::kScale: r = s.scalar * slots[s.a]; break;
        case EwiseOp::kAdd: r = slots[s.a] + slots[s.b]; break;
        case EwiseOp::kMul: r = slots[s.a] * slots[s.b]; break;
        case EwiseOp::kMap: r = s.map_fn(slots[s.a]); break;
      }
      slots[static_cast<usize>(num_inputs) + j] = r;
    }
    out[i] = slots.back();
  }
  return out;
}

}  // namespace fusedml::kernels
