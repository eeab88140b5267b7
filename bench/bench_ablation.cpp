// Ablation bench — isolates each design choice the paper argues for
// (DESIGN.md's ablation index):
//   1. hierarchical aggregation: shared-memory inter-vector staging vs
//      scattering straight to global atomics, across n (the §3.1 crossover);
//   2. temporal locality: second pass over each row served from cache vs
//      charged as cold loads (§3's "decreases the overhead ... by a factor
//      of up to 2");
//   3. texture binding of y (§4.1);
//   4. coarsening: the model's C vs C=1 (every vector one row => maximal
//      inter-block atomic traffic);
//   5. dense code generation: unrolled register kernel vs runtime-indexed
//      arrays that spill to local memory (§3.2);
//   6. explicit-transpose vs atomic-scatter baselines (the two ways a
//      library computes X^T*p).
#include <iostream>

#include "bench_common.h"
#include "common/cli.h"
#include "common/table.h"
#include "kernels/fused_dense.h"
#include "kernels/baselines.h"
#include "kernels/fused_sparse.h"
#include "kernels/spmv_transpose.h"
#include "la/generate.h"
#include "la/vector_ops.h"
#include "tuner/autotune.h"
#include "vgpu/device.h"

using namespace fusedml;

static int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto rows =
      cli.get_positive("rows", 50000, "rows for the sparse ablations");
  const double sparsity = cli.get_double("sparsity", 0.01, "nnz fraction");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, ""));
  obs::apply_standard_flags(cli);
  bench::JsonReport json(cli, "ablation");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header("Ablations", "each §3 design choice toggled in isolation");
  vgpu::Device dev;

  // --- 1. shared vs global aggregation across n ---------------------------
  {
    Table t({"n", "shared agg (ms)", "global agg (ms)", "shared wins by"});
    for (index_t n : {200, 1024, 4096, 6000}) {
      const auto X = la::uniform_sparse(rows, n, sparsity, seed);
      const auto y = la::random_vector(static_cast<usize>(n), seed + 1);
      kernels::FusedSparseOptions shared, global;
      shared.aggregation = tuner::Aggregation::kShared;
      global.aggregation = tuner::Aggregation::kGlobal;
      const auto s =
          kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, shared);
      const auto g =
          kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, global);
      t.row()
          .add(static_cast<long long>(n))
          .add(s.modeled_ms, 3)
          .add(g.modeled_ms, 3)
          .add(format_speedup(g.modeled_ms / s.modeled_ms));
    }
    std::cout << "\n[1] hierarchical aggregation (shared-memory partial w)\n"
              << t;
  }

  // --- 2. temporal locality of the second pass ----------------------------
  {
    Table t({"n", "cached 2nd pass (ms)", "cold 2nd pass (ms)", "benefit"});
    for (index_t n : {512, 2048}) {
      const auto X = la::uniform_sparse(rows, n, sparsity, seed);
      const auto y = la::random_vector(static_cast<usize>(n), seed + 1);
      kernels::FusedSparseOptions hot, cold;
      cold.cache_second_pass = false;
      const auto h =
          kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, hot);
      const auto c =
          kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, cold);
      t.row()
          .add(static_cast<long long>(n))
          .add(h.modeled_ms, 3)
          .add(c.modeled_ms, 3)
          .add(format_speedup(c.modeled_ms / h.modeled_ms));
    }
    std::cout << "\n[2] temporal locality (paper: up to 2x fewer loads)\n" << t;
  }

  // --- 3. texture binding of y ---------------------------------------------
  {
    Table t({"n", "texture y (ms)", "plain y (ms)", "benefit"});
    for (index_t n : {512, 2048}) {
      const auto X = la::uniform_sparse(rows, n, sparsity, seed);
      const auto y = la::random_vector(static_cast<usize>(n), seed + 1);
      kernels::FusedSparseOptions tex, plain;
      plain.texture_y = false;
      const auto a =
          kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, tex);
      const auto b =
          kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, plain);
      t.row()
          .add(static_cast<long long>(n))
          .add(a.modeled_ms, 3)
          .add(b.modeled_ms, 3)
          .add(format_speedup(b.modeled_ms / a.modeled_ms));
    }
    std::cout << "\n[3] binding y to the texture path (§4.1)\n" << t;
  }

  // --- 4. coarsening --------------------------------------------------------
  {
    Table t({"n", "model C (ms)", "C=1 (ms)", "coarsening wins by",
             "atomics model-C", "atomics C=1"});
    for (index_t n : {512, 2048}) {
      const auto X = la::uniform_sparse(rows, n, sparsity, seed);
      const auto y = la::random_vector(static_cast<usize>(n), seed + 1);
      kernels::FusedSparseOptions tuned, fine;
      fine.coarsening = 1;
      // C=1 needs a grid covering all rows with one row per vector.
      const auto params = kernels::fused_sparse_params(dev, X, {});
      const int nv = params.config.num_vectors_per_block();
      fine.grid_size = static_cast<int>((rows + nv - 1) / nv);
      const auto a =
          kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, tuned);
      const auto b =
          kernels::fused_pattern_sparse(dev, 1, X, {}, y, 0, {}, fine);
      t.row()
          .add(static_cast<long long>(n))
          .add(a.modeled_ms, 3)
          .add(b.modeled_ms, 3)
          .add(format_speedup(b.modeled_ms / a.modeled_ms))
          .add(format_count(
              static_cast<double>(a.counters.atomic_global_ops)))
          .add(format_count(
              static_cast<double>(b.counters.atomic_global_ops)));
    }
    std::cout << "\n[4] coarsening (Eq. 5) vs one row per vector\n" << t;
  }

  // --- 5. dense code generation ---------------------------------------------
  {
    Table t({"n", "codegen (ms)", "runtime-indexed (ms)", "codegen wins by",
             "spill bytes"});
    for (index_t n : {128, 512}) {
      const auto X = la::dense_random(rows / 5, n, seed);
      const auto y = la::random_vector(static_cast<usize>(n), seed + 1);
      kernels::FusedDenseOptions gen, dyn;
      dyn.use_codegen = false;
      const auto a = kernels::fused_pattern_dense(dev, 1, X, {}, y, 0, {}, gen);
      const auto b = kernels::fused_pattern_dense(dev, 1, X, {}, y, 0, {}, dyn);
      t.row()
          .add(static_cast<long long>(n))
          .add(a.modeled_ms, 3)
          .add(b.modeled_ms, 3)
          .add(format_speedup(b.modeled_ms / a.modeled_ms))
          .add(format_count(
              static_cast<double>(b.counters.local_spill_bytes)));
    }
    std::cout << "\n[5] dense codegen (unrolled registers) vs register "
                 "spilling (§3.2)\n"
              << t;
  }

  // --- 5b. dense TL sweep vs the model (the §3.3 dense profiling) ------------
  {
    const auto X = la::dense_random(rows / 5, 512, seed);
    const auto y = la::random_vector(512, seed + 1);
    const auto eval = [&](const tuner::DenseSearchPoint& p) -> double {
      kernels::FusedDenseOptions o;
      o.thread_load = p.thread_load;
      o.block_size = p.block_size;
      o.vector_size = p.vector_size;
      return kernels::fused_pattern_dense(dev, 1, X, {}, y, 0, {}, o)
          .modeled_ms;
    };
    const auto r = tuner::dense_exhaustive_search(dev.spec(), rows / 5, 512,
                                                  eval);
    const auto& best = r.points[r.best_index];
    const auto& model = r.points[r.model_index];
    Table t({"quantity", "value"});
    t.row().add("feasible (TL,BS) settings").add(
        static_cast<long long>(r.points.size()));
    t.row().add("best").add("TL=" + std::to_string(best.thread_load) +
                            " BS=" + std::to_string(best.block_size) + " (" +
                            bench::fmt(r.best_ms, 3) + " ms)");
    t.row().add("model pick").add(
        "TL=" + std::to_string(model.thread_load) +
        " BS=" + std::to_string(model.block_size) + " (" +
        bench::fmt(r.model_ms, 3) + " ms)");
    t.row().add("model gap").add(
        bench::fmt(100.0 * r.model_gap_fraction(), 2) + "%");
    t.row().add("worst/best").add(format_speedup(r.worst_ms / r.best_ms));
    std::cout << "\n[5b] dense TL x BS sweep vs the analytical model\n" << t;
  }

  // --- 7. device sensitivity: the same kernels on a smaller GPU --------------
  {
    Table t({"device", "fused (ms)", "cuSPARSE-style (ms)", "speedup",
             "VS/BS/C picked"});
    const auto X = la::uniform_sparse(rows, 1024, sparsity, seed);
    const auto y = la::random_vector(1024, seed + 1);
    for (const auto& spec : {vgpu::gtx_titan(), vgpu::small_kepler()}) {
      vgpu::Device d(spec);
      const auto fused =
          kernels::fused_pattern_sparse(d, 1, X, {}, y, 0, {});
      const auto base = kernels::baseline_xtxy(
          d, X, y, kernels::BaselineLibrary::kVendor);
      const auto params = kernels::fused_sparse_params(d, X, {});
      t.row()
          .add(spec.name)
          .add(fused.modeled_ms, 3)
          .add(base.modeled_ms, 3)
          .add(format_speedup(base.modeled_ms / fused.modeled_ms))
          .add(std::to_string(params.config.vector_size) + "/" +
               std::to_string(params.config.block_size) + "/" +
               std::to_string(params.config.coarsening));
    }
    std::cout << "\n[7] device sensitivity: the tuner re-derives launch "
                 "parameters per device; the fused advantage persists\n"
              << t;
  }

  // --- 6. the two transposed-product baselines -------------------------------
  {
    Table t({"n", "explicit transpose (ms)", "atomic scatter (ms)",
             "scatter wins by"});
    for (index_t n : {512, 2048}) {
      const auto X = la::uniform_sparse(rows, n, sparsity, seed);
      const auto y = la::random_vector(static_cast<usize>(rows), seed + 1);
      const auto e =
          kernels::spmv_t_explicit_transpose(dev, X, y).combined();
      const auto a = kernels::spmv_t_atomic_scatter(dev, X, y);
      t.row()
          .add(static_cast<long long>(n))
          .add(e.modeled_ms, 3)
          .add(a.modeled_ms, 3)
          .add(format_speedup(e.modeled_ms / a.modeled_ms));
    }
    std::cout << "\n[6] baseline strategies for X^T*p (why BIDMat-GPU beats "
                 "cuSPARSE on sparse)\n"
              << t;
    json.add_table("ablation_6_baselines", t);
  }
  json.add("rows", static_cast<double>(rows));
  json.add("sparsity", sparsity);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
