/// \file parallel_quickstart.cc
/// Smallest end-to-end use of sharded execution (DESIGN.md "Parallel
/// execution"): run the same query single-threaded and across 4 worker
/// threads, confirm the results are identical, and inspect the per-worker
/// machines and the broadcast PEO trace of a parallel progressive run.

#include <cstdio>

#include "common/prng.h"
#include "core/engine.h"
#include "core/report.h"

int main() {
  using namespace nipo;

  // 1. Build a 400k-row table; predicate selectivities under the query
  //    below are ~0.9 (a), ~0.5 (b) and ~0.02 (c), deliberately ordered
  //    worst-first.
  const size_t kRows = 400'000;
  Prng prng(1);
  std::vector<int32_t> a(kRows), b(kRows), c(kRows);
  std::vector<int64_t> payload(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    b[i] = static_cast<int32_t>(prng.NextBounded(100));
    c[i] = static_cast<int32_t>(prng.NextBounded(100));
    payload[i] = static_cast<int64_t>(prng.NextBounded(1000));
  }
  auto table = std::make_unique<Table>("demo");
  NIPO_CHECK(table->AddColumn("a", std::move(a)).ok());
  NIPO_CHECK(table->AddColumn("b", std::move(b)).ok());
  NIPO_CHECK(table->AddColumn("c", std::move(c)).ok());
  NIPO_CHECK(table->AddColumn("payload", std::move(payload)).ok());

  Engine engine;
  NIPO_CHECK(engine.RegisterTable(std::move(table)).ok());

  QuerySpec query;
  query.table = "demo";
  query.ops = {
      OperatorSpec::Predicate({"a", CompareOp::kLt, 90.0}),
      OperatorSpec::Predicate({"b", CompareOp::kLt, 50.0}),
      OperatorSpec::Predicate({"c", CompareOp::kLt, 2.0}),
  };
  query.payload_columns = {"payload"};

  // 2. Fixed-order baseline: single-threaded vs 4 worker shards. Each
  //    worker owns a private simulated machine; the merge sums results in
  //    morsel-index order, so the numbers must agree exactly.
  const size_t kMorselSize = 16'384;
  ExecOptions solo_options;  // defaults: baseline, solo
  solo_options.progressive.vector_size = kMorselSize;
  auto single = engine.Execute(query, solo_options);
  NIPO_CHECK(single.ok());

  ExecOptions options;
  options.num_threads = 4;  // driver kAuto resolves to sharded
  options.progressive.vector_size = kMorselSize;
  auto sharded = engine.Execute(query, options);
  NIPO_CHECK(sharded.ok());

  const ExecReport& one = single.ValueOrDie();
  const ParallelDriveResult& par =
      sharded.ValueOrDie().sharded_baseline->drive;
  std::printf("single-threaded : sum=%.0f, %llu rows, %.2f simulated ms\n",
              one.aggregate,
              static_cast<unsigned long long>(one.qualifying_tuples),
              one.simulated_msec);
  std::printf("4 worker shards : sum=%.0f, %llu rows, %.2f simulated ms "
              "critical path (%.2f ms wall)\n",
              par.merged.aggregate,
              static_cast<unsigned long long>(par.merged.qualifying_tuples),
              par.merged.simulated_msec, par.wall_msec);
  NIPO_CHECK(par.merged.qualifying_tuples == one.qualifying_tuples);
  NIPO_CHECK(par.merged.aggregate == one.aggregate);
  for (size_t w = 0; w < par.workers.size(); ++w) {
    std::printf("  worker %zu: %llu morsels, %llu steals, %.2f ms machine "
                "time\n",
                w, static_cast<unsigned long long>(par.workers[w].morsels),
                static_cast<unsigned long long>(par.workers[w].steals),
                par.workers[w].simulated_msec);
  }

  // 3. Progressive optimization under sharding: one controller is fed
  //    the workers' per-morsel counter samples, learns the selectivities,
  //    and broadcasts better orders to every worker.
  options.mode = ExecMode::kProgressive;
  options.progressive.reopt_interval = 2;
  auto progressive = engine.Execute(query, options);
  NIPO_CHECK(progressive.ok());
  const ParallelProgressiveReport& report =
      *progressive.ValueOrDie().sharded_progressive;
  NIPO_CHECK(report.drive.merged.qualifying_tuples == one.qualifying_tuples);
  std::printf("progressive (4 shards): %.2f simulated ms critical path, "
              "%zu broadcast reorders, final order:",
              report.drive.merged.simulated_msec, report.changes.size());
  for (size_t idx : report.final_order) std::printf(" %zu", idx);
  std::printf("\n");
  if (!report.last_estimate.empty()) {
    std::printf("learned selectivities:");
    for (double s : report.last_estimate) std::printf(" %.3f", s);
    std::printf("\n");
  }
  return 0;
}
