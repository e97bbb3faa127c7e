/// \file quickstart.cc
/// Smallest end-to-end use of the library: build a table, describe a
/// multi-selection query, execute it with and without progressive
/// optimization, and inspect what the optimizer learned.

#include <cstdio>

#include "core/engine.h"
#include "common/prng.h"

int main() {
  using namespace nipo;

  // 1. Build a 400k-row table with three filterable columns of very
  //    different selectivities under the query below: a (sel ~0.9),
  //    b (sel ~0.5), c (sel ~0.02).
  const size_t kRows = 400'000;
  Prng prng(1);
  std::vector<int32_t> a(kRows), b(kRows), c(kRows);
  std::vector<int64_t> payload(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));  // a < 90: ~90%
    b[i] = static_cast<int32_t>(prng.NextBounded(100));  // b < 50: ~50%
    c[i] = static_cast<int32_t>(prng.NextBounded(100));  // c < 2:  ~2%
    payload[i] = static_cast<int64_t>(prng.NextBounded(1000));
  }
  auto table = std::make_unique<Table>("demo");
  NIPO_CHECK(table->AddColumn("a", std::move(a)).ok());
  NIPO_CHECK(table->AddColumn("b", std::move(b)).ok());
  NIPO_CHECK(table->AddColumn("c", std::move(c)).ok());
  NIPO_CHECK(table->AddColumn("payload", std::move(payload)).ok());

  Engine engine;
  NIPO_CHECK(engine.RegisterTable(std::move(table)).ok());

  // 2. Describe the query: SELECT sum(payload) WHERE a<90 AND b<50 AND c<2,
  //    deliberately ordered worst-first (most selective predicate last).
  QuerySpec query;
  query.table = "demo";
  query.ops = {
      OperatorSpec::Predicate({"a", CompareOp::kLt, 90.0}),
      OperatorSpec::Predicate({"b", CompareOp::kLt, 50.0}),
      OperatorSpec::Predicate({"c", CompareOp::kLt, 2.0}),
  };
  query.payload_columns = {"payload"};

  // 3. Execute the fixed-order baseline and the progressive run through
  //    the unified entry point: one ExecOptions struct selects the mode.
  const size_t kVectorSize = 16'384;
  ExecOptions base_options;  // defaults: baseline, solo
  base_options.progressive.vector_size = kVectorSize;
  auto baseline = engine.Execute(query, base_options);
  NIPO_CHECK(baseline.ok());

  ExecOptions prog_options;
  prog_options.mode = ExecMode::kProgressive;
  prog_options.progressive.vector_size = kVectorSize;
  prog_options.progressive.reopt_interval = 2;
  auto progressive = engine.Execute(query, prog_options);
  NIPO_CHECK(progressive.ok());

  const ExecReport& base = baseline.ValueOrDie();
  const ExecReport& prog = progressive.ValueOrDie();
  std::printf("baseline    : %.2f simulated ms, sum=%.0f, %llu rows\n",
              base.simulated_msec, base.aggregate,
              static_cast<unsigned long long>(base.qualifying_tuples));
  std::printf("progressive : %.2f simulated ms, sum=%.0f, %llu rows\n",
              prog.simulated_msec, prog.aggregate,
              static_cast<unsigned long long>(prog.qualifying_tuples));
  std::printf("speedup     : %.2fx\n",
              base.simulated_msec / prog.simulated_msec);
  const ProgressiveReport& trace = *prog.progressive;
  std::printf("PEO changes : %zu (final order:", trace.changes.size());
  for (size_t idx : prog.final_order) std::printf(" %zu", idx);
  std::printf(")\n");
  if (!trace.last_estimate.empty()) {
    std::printf("learned selectivities:");
    for (double s : trace.last_estimate) std::printf(" %.3f", s);
    std::printf("\n");
  }
  NIPO_CHECK(base.qualifying_tuples == prog.qualifying_tuples);
  return 0;
}
