/// \file custom_workload.cc
/// Shows the lower-level APIs on a user-defined workload with *drifting*
/// selectivities: the data's value distribution changes half way through
/// the table, and the per-vector PEO trace shows progressive optimization
/// switching orders at the transition (the Section 4.5 skew scenario).

#include <cstdio>
#include <iostream>

#include "common/prng.h"
#include "common/table_printer.h"
#include "core/engine.h"
#include "optimizer/estimator.h"

using namespace nipo;

int main() {
  // First half: x is selective (x<10 passes ~10%), y is not (~90%).
  // Second half: the roles flip. A fixed order is wrong on one half.
  const size_t kRows = 600'000;
  Prng prng(7);
  std::vector<int32_t> x(kRows), y(kRows);
  std::vector<int64_t> value(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    const bool first_half = i < kRows / 2;
    if (first_half) {
      x[i] = static_cast<int32_t>(prng.NextBounded(100));   // x<10: ~10%
      y[i] = static_cast<int32_t>(prng.NextBounded(100));   // y<90: ~90%
    } else {
      x[i] = static_cast<int32_t>(prng.NextBounded(11));    // x<10: ~91%
      y[i] = static_cast<int32_t>(prng.NextBounded(1000));  // y<90: ~9%
    }
    value[i] = static_cast<int64_t>(prng.NextBounded(100));
  }
  auto table = std::make_unique<Table>("events");
  NIPO_CHECK(table->AddColumn("x", std::move(x)).ok());
  NIPO_CHECK(table->AddColumn("y", std::move(y)).ok());
  NIPO_CHECK(table->AddColumn("value", std::move(value)).ok());

  Engine engine;
  NIPO_CHECK(engine.RegisterTable(std::move(table)).ok());

  QuerySpec query;
  query.table = "events";
  query.ops = {
      OperatorSpec::Predicate({"x", CompareOp::kLt, 10.0}),   // drifts
      OperatorSpec::Predicate({"y", CompareOp::kLt, 90.0}),   // drifts
  };
  query.payload_columns = {"value"};

  TablePrinter out("drifting workload: fixed orders vs progressive");
  out.SetHeader({"strategy", "simulated ms"});
  for (const auto& [name, order] :
       std::vector<std::pair<std::string, std::vector<size_t>>>{
           {"fixed x-first", {0, 1}}, {"fixed y-first", {1, 0}}}) {
    ExecOptions options;
    options.progressive.vector_size = 8'192;
    options.order = order;
    auto r = engine.Execute(query, options);
    NIPO_CHECK(r.ok());
    out.AddRow({name, FormatDouble(r.ValueOrDie().simulated_msec, 2)});
  }
  ExecOptions prog_options;
  prog_options.mode = ExecMode::kProgressive;
  prog_options.progressive.vector_size = 8'192;
  prog_options.progressive.reopt_interval = 3;
  auto prog = engine.Execute(query, prog_options);
  NIPO_CHECK(prog.ok());
  const ProgressiveReport& trace = *prog.ValueOrDie().progressive;
  out.AddRow({"progressive",
              FormatDouble(prog.ValueOrDie().simulated_msec, 2)});
  out.Print(std::cout);

  std::printf("order changes over %zu vectors:\n", trace.drive.num_vectors);
  for (const PeoChange& change : trace.changes) {
    std::printf("  vector %3zu: ", change.vector_index);
    for (size_t idx : change.old_order) std::printf("%zu", idx);
    std::printf(" -> ");
    for (size_t idx : change.new_order) std::printf("%zu", idx);
    std::printf("%s\n", change.reverted ? " (reverted)" : "");
  }
  std::printf(
      "Expect a switch to y-first early on and a switch back to x-first\n"
      "near the middle of the table, where the distribution flips.\n");
  return 0;
}
