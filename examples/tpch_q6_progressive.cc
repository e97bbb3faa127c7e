/// \file tpch_q6_progressive.cc
/// The paper's headline scenario: TPC-H Q6 over lineitem, comparing the
/// worst, best, and average fixed predicate evaluation orders against
/// progressive optimization, and showing the PEO trace the optimizer
/// followed.

#include <cstdio>

#include "common/table_printer.h"
#include "core/engine.h"
#include "tpch/q6.h"
#include "tpch/tpch_gen.h"

#include <iostream>
#include <limits>

int main() {
  using namespace nipo;

  TpchConfig tpch;
  tpch.scale_factor = 0.05;  // ~300k lineitems
  auto db = GenerateTpch(tpch);
  NIPO_CHECK(db.ok());

  Engine engine(HwConfig::ScaledXeon(16));
  NIPO_CHECK(engine.RegisterTable(std::move(db.ValueOrDie().lineitem)).ok());

  QuerySpec query;
  query.table = "lineitem";
  query.ops = MakeQ6FullPredicates();
  query.payload_columns = Q6PayloadColumns();

  const size_t kVectorSize = 4'096;

  // Sweep all 120 evaluation orders as the fixed-order baseline.
  double best = std::numeric_limits<double>::infinity();
  double worst = 0, sum = 0;
  std::vector<size_t> best_order;
  const auto orders = AllOrders(query.ops.size());
  for (const auto& order : orders) {
    ExecOptions options;
    options.progressive.vector_size = kVectorSize;
    options.order = order;
    auto r = engine.Execute(query, options);
    NIPO_CHECK(r.ok());
    const double ms = r.ValueOrDie().simulated_msec;
    sum += ms;
    if (ms < best) {
      best = ms;
      best_order = order;
    }
    worst = std::max(worst, ms);
  }

  // Progressive run starting from the *worst-case shaped* order
  // (descending selectivity): the spec order reversed is a good stand-in.
  ExecOptions prog_options;
  prog_options.mode = ExecMode::kProgressive;
  prog_options.progressive.vector_size = kVectorSize;
  prog_options.progressive.reopt_interval = 10;
  prog_options.order = std::vector<size_t>{4, 3, 2, 1, 0};
  auto prog = engine.Execute(query, prog_options);
  NIPO_CHECK(prog.ok());
  const ProgressiveReport& report = *prog.ValueOrDie().progressive;

  TablePrinter table("TPC-H Q6, fixed orders vs progressive optimization");
  table.SetHeader({"strategy", "simulated ms"});
  table.AddRow({"best fixed PEO", FormatDouble(best, 2)});
  table.AddRow({"average fixed PEO",
                FormatDouble(sum / static_cast<double>(orders.size()), 2)});
  table.AddRow({"worst fixed PEO", FormatDouble(worst, 2)});
  table.AddRow({"progressive (from bad start)",
                FormatDouble(report.drive.simulated_msec, 2)});
  table.Print(std::cout);

  std::printf("revenue = %.0f (over %llu qualifying lineitems)\n",
              report.drive.aggregate,
              static_cast<unsigned long long>(
                  report.drive.qualifying_tuples));
  std::printf("optimizations: %zu, order changes: %zu\n",
              report.num_optimizations, report.changes.size());
  for (const PeoChange& change : report.changes) {
    std::printf("  vector %4zu: ", change.vector_index);
    for (size_t idx : change.old_order) std::printf("%zu", idx);
    std::printf(" -> ");
    for (size_t idx : change.new_order) std::printf("%zu", idx);
    if (change.reverted) std::printf("  (reverted)");
    std::printf("\n");
  }
  std::printf("best fixed order found by sweep:");
  for (size_t idx : best_order) std::printf(" %zu", idx);
  std::printf("\n");
  return 0;
}
