// Serving-layer behavior under load — throughput and modeled latency
// percentiles for the concurrent request scheduler at three load levels:
//
//   light     capacity to spare: every request admitted and completed
//   overload  burst beyond the bounded queue: admission sheds batch work
//             and rejects the overflow instead of queueing unboundedly
//   storm     fault storm + tight deadlines: the retry budget fails doomed
//             requests fast and the circuit breakers gate the fused tier
//
// All latencies are MODELED milliseconds on the pool's modeled clock (queue
// wait + execution, as reported per request), so the distributions are
// reproducible run-to-run. See docs/SERVING.md.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "la/generate.h"
#include "serve/serve_flags.h"
#include "serve/server.h"
#include "vgpu/fault_injector.h"

using namespace fusedml;

namespace {

struct LoadResult {
  serve::ServeStats stats;
  serve::ServerStatus status;  ///< per-class SLO snapshot at drain
  std::vector<double> latency;
  double wall_modeled_ms = 0.0;
};

serve::ServeRequest pattern_request(serve::DatasetId dataset,
                                    const la::CsrMatrix& X, std::uint64_t seed,
                                    serve::Priority priority,
                                    double deadline_ms) {
  serve::PatternEval eval;
  eval.dataset = dataset;
  eval.alpha = 1.0;
  eval.beta = 0.5;
  eval.y = la::random_vector(X.cols(), seed);
  eval.v = la::random_vector(X.rows(), seed + 1);
  eval.z = la::random_vector(X.cols(), seed + 2);
  serve::ServeRequest req;
  req.work = std::move(eval);
  req.priority = priority;
  req.deadline_ms = deadline_ms;
  req.tag = seed;
  return req;
}

serve::Priority mixed_priority(int i) {
  return static_cast<serve::Priority>(i % serve::kNumPriorities);
}

}  // namespace

static int run_bench(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto rows = cli.get_positive("rows", 4000, "dataset rows");
  const auto cols = cli.get_positive("cols", 200, "dataset columns");
  const int requests =
      cli.get_positive("requests", 96, "requests per load level");
  const int workers = cli.get_positive("workers", 4, "pool worker threads");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42, ""));
  obs::apply_standard_flags(cli);
  const serve::ServingFlags serving_flags = serve::apply_serving_flags(cli);
  bench::JsonReport json(cli, "serving");
  if (bench::handle_help(cli)) return 0;
  cli.finish();

  bench::print_header("Serving",
                      "admission control, deadlines, and breakers under load");
  bench::print_note(
      "latency is modeled ms (queue wait + execution) on the pool clock; "
      "'rejected' = queue-full + over-capacity + shed at admission");
  bench::print_note(
      "outcome counts are deterministic run-to-run; wait-time percentiles "
      "and breaker skips vary with host thread interleaving (this bench "
      "measures a genuinely concurrent pool, unlike the single-threaded "
      "paper benches)");

  const auto X = la::uniform_sparse(rows, cols, 0.02, seed);

  const auto run_level = [&](const std::string& name, serve::ServeOptions opts,
                             bool prestart_burst, double deadline_every_other,
                             const vgpu::FaultConfig* storm) {
    opts.workers = workers;
    serving_flags.apply_to(opts);
    serve::Server server(opts);
    const auto dataset = server.add_dataset(X);
    if (!prestart_burst) server.start();
    if (storm != nullptr) server.inject_faults(*storm);

    std::vector<serve::ServeHandle> handles;
    handles.reserve(static_cast<usize>(requests));
    for (int i = 0; i < requests; ++i) {
      // Tight deadlines on every other request when the level asks for
      // them; the rest may take as long as the pool needs.
      const double deadline =
          (deadline_every_other > 0.0 && i % 2 == 0) ? deadline_every_other
                                                     : 0.0;
      handles.push_back(server.submit(pattern_request(
          dataset, X, seed + static_cast<std::uint64_t>(i) * 7,
          mixed_priority(i), deadline)));
    }
    // A pre-start burst exercises admission deterministically: the bounded
    // queue fills, sheds, and rejects before any worker exists.
    if (prestart_burst) server.start();
    for (const auto& h : handles) h.wait();

    LoadResult r;
    r.stats = server.drain();
    r.status = server.status();
    // Modeled latency (queue wait + execution) of every request that
    // reached a worker — completed, deadline-exceeded, or failed.
    for (const auto& h : handles) {
      const serve::ServeOutcome& o = h.wait();
      if (o.worker >= 0) r.latency.push_back(o.queue_wait_ms + o.modeled_ms);
    }
    r.wall_modeled_ms = r.stats.modeled_now_ms;
    std::sort(r.latency.begin(), r.latency.end());
    // Surface whatever --slo-report / --flight-recorder asked for, per
    // load level (the bundle path gets a ".<level>" suffix so the three
    // levels don't clobber one another).
    serve::ServingFlags f = serving_flags;
    if (f.slo_report) std::cout << "--- " << name << " SLO report ---\n";
    if (!f.flight_recorder_path.empty() && f.flight_recorder_path != "-") {
      f.flight_recorder_path += "." + name;
    }
    f.report(server, std::cout);
    return r;
  };

  Table table({"load", "submitted", "completed", "rejected", "deadline",
               "brk opens", "brk skips", "p50 (ms)", "p95 (ms)", "p99 (ms)",
               "req/modeled-s"});
  const auto report = [&](const std::string& name, const LoadResult& r) {
    const std::uint64_t rejected = r.stats.rejected_queue_full +
                                   r.stats.rejected_over_capacity +
                                   r.stats.shed;
    const double throughput =
        r.wall_modeled_ms > 0.0
            ? static_cast<double>(r.stats.completed) / r.wall_modeled_ms * 1e3
            : 0.0;
    table.row()
        .add(name)
        .add(r.stats.submitted)
        .add(r.stats.completed)
        .add(rejected)
        .add(r.stats.deadline_exceeded)
        .add(r.stats.breaker_opens)
        .add(r.stats.breaker_skips)
        .add(percentile(r.latency, 50.0), 4)
        .add(percentile(r.latency, 95.0), 4)
        .add(percentile(r.latency, 99.0), 4)
        .add(throughput, 1);
    json.add(name + "_completed", static_cast<double>(r.stats.completed));
    json.add(name + "_rejected", static_cast<double>(rejected));
    json.add(name + "_deadline_exceeded",
             static_cast<double>(r.stats.deadline_exceeded));
    json.add(name + "_breaker_opens",
             static_cast<double>(r.stats.breaker_opens));
    json.add(name + "_p99_ms", percentile(r.latency, 99.0));
    // Per-priority-class SLO records — what the regression gate consumes.
    for (int c = 0; c < serve::kNumPriorities; ++c) {
      const serve::SloClassSnapshot& s = r.status.classes[c];
      const std::string prefix =
          name + "_" + to_string(static_cast<serve::Priority>(c));
      json.add(prefix + "_completed", static_cast<double>(s.completed));
      json.add(prefix + "_p50_ms", s.p50_ms);
      json.add(prefix + "_p95_ms", s.p95_ms);
      json.add(prefix + "_p99_ms", s.p99_ms);
      json.add(prefix + "_deadline_hit_ratio", s.deadline_hit_ratio());
    }
  };

  // Light: queue sized for the whole batch, clean devices, no deadlines.
  {
    serve::ServeOptions opts;
    opts.queue_capacity = static_cast<usize>(requests);
    report("light", run_level("light", opts, /*prestart_burst=*/false,
                              /*deadline_every_other=*/0.0, nullptr));
  }

  // Overload: the full batch bursts into a queue an eighth its size before
  // any worker runs — admission must shed and reject, never queue unboundedly.
  {
    serve::ServeOptions opts;
    opts.queue_capacity = static_cast<usize>(requests) / 8;
    report("overload", run_level("overload", opts, /*prestart_burst=*/true,
                                 /*deadline_every_other=*/0.0, nullptr));
  }

  // Storm: every fused/cusparse launch faults and half the requests carry a
  // deadline far below the cost of a full retry ladder. The budget clamp
  // fails those fast; the breaker board opens the GPU tiers and skips them.
  {
    serve::ServeOptions opts;
    opts.queue_capacity = static_cast<usize>(requests);
    opts.breaker.failure_threshold = 3;
    opts.breaker.cooldown_ms = 50.0;  // >> storm dispatch time: skips happen
    vgpu::FaultConfig storm;
    storm.seed = seed ^ 0xbad5eedULL;
    storm.kernel_fault_rate = 1.0;
    report("storm", run_level("storm", opts, /*prestart_burst=*/false,
                              /*deadline_every_other=*/0.01, &storm));
  }

  std::cout << table << "\n";
  json.add_table("serving", table);
  json.write();
  return 0;
}

int main(int argc, char** argv) {
  return fusedml::bench::guarded_main([&] { return run_bench(argc, argv); });
}
