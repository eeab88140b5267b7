// Golden gate: every library script's observable numbers, frozen.
//
// Each of the 54 script-library entries (9 algorithms × {csr, dense} ×
// {unfused, hardcoded-pass, planner}) runs on seeds {1, 7, 42}, on two
// shapes — a 300×150 KDD-like matrix and a 500×28 HIGGS-like one, each fed
// to the entry in its own storage — and on two runtimes: the default
// scheduler and a forced-GPU one. Every run records a hash of the weight
// bits, device launches, modeled ms (printed with %a, so exact), fused
// groups, iterations, plans built and plan-cache hits. The records must
// match tests/golden/scripts.golden line for line.
//
// A change that means to move a number regenerates the file in the same
// diff and explains the move:
//
//   FUSEDML_GOLDEN_OUT=/tmp/golden.txt ./build/tests/test_golden
//   LC_ALL=C sort /tmp/golden.txt > tests/golden/scripts.golden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "la/convert.h"
#include "la/generate.h"
#include "ml/script_library.h"
#include "sysml/runtime.h"
#include "vgpu/device.h"

namespace fusedml {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 7, 42};
/// Outer-iteration cap handed to every runner (the spec's `iterations`).
constexpr int kIterations = 8;

/// One seeded input: both storages of the same matrix plus its labels.
struct Input {
  std::string shape;
  la::CsrMatrix csr;
  la::DenseMatrix dense;
  std::vector<real> regression;
  std::vector<real> classes;  ///< ±1
  std::vector<real> counts;   ///< {0, 1}: valid Poisson/binomial responses
};

Input make_input(const std::string& shape, std::uint64_t seed) {
  Input in;
  in.shape = shape;
  if (shape == "300x150") {
    in.csr = la::kdd_like(300, 150, 10.0, 1.5, seed);
    in.dense = la::csr_to_dense(in.csr);
  } else {
    in.dense = la::higgs_like(500, 28, seed + 1);
    in.csr = la::dense_to_csr(in.dense);
  }
  in.regression = la::regression_labels(in.csr, seed + 2, 0.1);
  in.classes = la::classification_labels(in.csr, seed + 3, 0.1);
  for (const real c : in.classes) in.counts.push_back(c > 0 ? 1.0 : 0.0);
  return in;
}

std::span<const real> labels_for(ml::Algorithm algorithm, const Input& in) {
  switch (algorithm) {
    case ml::Algorithm::kLogregGd:
    case ml::Algorithm::kSvm:
    case ml::Algorithm::kMinibatchLogreg:
      return in.classes;
    case ml::Algorithm::kGlm:
      return in.counts;
    default:
      return in.regression;
  }
}

/// FNV-1a over the weights' bit patterns.
std::uint64_t hash_bits(std::span<const real> w) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const real x : w) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string record_key(const ml::ScriptSpec& spec, std::uint64_t seed,
                       const std::string& shape, const char* runtime) {
  return spec.name + " seed=" + std::to_string(seed) + " shape=" + shape +
         " runtime=" + runtime;
}

/// Runs one entry and renders its record (the part after the key).
std::string run_record(const ml::ScriptSpec& spec, const Input& in,
                       const sysml::RuntimeOptions& opts) {
  vgpu::Device dev;
  sysml::Runtime rt(dev, opts);
  const auto labels = labels_for(spec.algorithm, in);
  sysml::ScriptResult r;
  try {
    r = spec.dense ? spec.run_dense(rt, in.dense, labels, kIterations)
                   : spec.run_sparse(rt, in.csr, labels, kIterations);
  } catch (const Error& e) {
    return std::string("error=") + to_string(e.code());
  }
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "hash=%016llx launches=%llu modeled_ms=%a fused=%d iters=%d "
                "plans=%d hits=%d",
                static_cast<unsigned long long>(hash_bits(r.weights)),
                static_cast<unsigned long long>(
                    r.runtime_stats.kernel_launches),
                r.end_to_end_ms, r.fused_groups, r.iterations, r.plans_built,
                r.plan_cache_hits);
  return buf;
}

/// key -> record, parsed once from the checked-in file ("key | record").
const std::map<std::string, std::string>& golden() {
  static const std::map<std::string, std::string> records = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(FUSEDML_GOLDEN_DIR "/scripts.golden");
    std::string line;
    while (std::getline(in, line)) {
      const auto bar = line.find(" | ");
      if (bar == std::string::npos) continue;
      out.emplace(line.substr(0, bar), line.substr(bar + 3));
    }
    return out;
  }();
  return records;
}

class GoldenScript : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenScript, MatchesCheckedInRecords) {
  const ml::ScriptSpec* spec = ml::find_script(GetParam());
  ASSERT_NE(spec, nullptr);
  const sysml::RuntimeOptions kRuntimes[] = {
      {}, {.enable_gpu = true, .gpu_cost_bias = 1e-4}};
  const char* kRuntimeNames[] = {"default", "forced-gpu"};
  std::ofstream out;
  if (const char* path = std::getenv("FUSEDML_GOLDEN_OUT")) {
    out.open(path, std::ios::app);
  }
  for (const std::uint64_t seed : kSeeds) {
    for (const char* shape : {"300x150", "500x28"}) {
      const Input in = make_input(shape, seed);
      for (int r = 0; r < 2; ++r) {
        const std::string key =
            record_key(*spec, seed, shape, kRuntimeNames[r]);
        const std::string actual = run_record(*spec, in, kRuntimes[r]);
        if (out.is_open()) out << key << " | " << actual << "\n";
        const auto it = golden().find(key);
        if (it == golden().end()) {
          ADD_FAILURE() << "no golden record for " << key;
        } else {
          EXPECT_EQ(it->second, actual) << key;
        }
      }
    }
  }
}

std::vector<std::string> library_names() {
  std::vector<std::string> names;
  for (const ml::ScriptSpec& spec : ml::script_library()) {
    names.push_back(spec.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Library, GoldenScript, ::testing::ValuesIn(library_names()),
    [](const ::testing::TestParamInfo<std::string>& param) {
      std::string id = param.param;
      for (char& c : id) {
        if (c == '/' || c == '-') c = '_';
      }
      return id;
    });

TEST(Golden, FileCoversExactlyTheLibrary) {
  const auto names = library_names();
  EXPECT_EQ(names.size(), 54u);
  EXPECT_EQ(golden().size(), names.size() * 3 * 2 * 2);
  for (const auto& [key, record] : golden()) {
    const std::string name = key.substr(0, key.find(' '));
    EXPECT_NE(ml::find_script(name), nullptr) << key;
  }
}

}  // namespace
}  // namespace fusedml
