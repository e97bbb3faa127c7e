/// \file fig15_fk_join_order.cc
/// Figure 15: lineitem joined with orders and part in both orders, with
/// the (dimension-side) filter selectivity sweeping 20..100%. A textbook
/// optimizer joins the ~8x smaller part table first; the measured
/// run-times and L3 misses show orders-first winning at every
/// selectivity because lineitem and orders are co-clustered while probes
/// into part are random.

#include "bench_util.h"

using namespace nipo;
using namespace nipo::bench;

int main() {
  TpchConfig cfg;
  cfg.scale_factor = 0.1;  // 150k orders, 20k parts, ~600k lineitems
  auto db = GenerateTpch(cfg);
  NIPO_CHECK(db.ok());
  // Machine scaled so that even the part payload column exceeds L3:
  // probes into *either* table thrash unless the access pattern is local.
  Engine engine(HwConfig::ScaledXeon(128));
  NIPO_CHECK(engine.RegisterTable(std::move(db.ValueOrDie().lineitem)).ok());
  NIPO_CHECK(engine.RegisterTable(std::move(db.ValueOrDie().orders)).ok());
  NIPO_CHECK(engine.RegisterTable(std::move(db.ValueOrDie().part)).ok());
  const Table* orders = engine.GetTable("orders").ValueOrDie();
  const Table* part = engine.GetTable("part").ValueOrDie();

  TablePrinter table(
      "Figure 15: lineitem x orders x part in both join orders");
  table.SetHeader({"sel%", "orders-first ms", "part-first ms",
                   "orders-first L3 miss", "part-first L3 miss"});

  for (int pct : {20, 40, 60, 80, 100}) {
    // Dial both dimension filters to the same selectivity via quantiles
    // of the filtered columns (int64 price columns, uniform by
    // construction).
    const double frac = pct / 100.0;
    auto quantile64 = [&](const Table& t, const std::string& col) {
      const auto& c = *t.GetTypedColumn<int64_t>(col).ValueOrDie();
      std::vector<int64_t> sorted(c.values().begin(), c.values().end());
      std::sort(sorted.begin(), sorted.end());
      const size_t idx = std::min<size_t>(
          sorted.size() - 1,
          static_cast<size_t>(frac * static_cast<double>(sorted.size())));
      return static_cast<double>(sorted[idx]);
    };
    const double orders_value = quantile64(*orders, "o_totalprice");
    const double part_value = quantile64(*part, "p_retailprice");

    QuerySpec query;
    query.table = "lineitem";
    query.ops = {
        OperatorSpec::FkProbe({"l_orderkey", orders, "o_totalprice",
                               CompareOp::kLe, orders_value}),
        OperatorSpec::FkProbe({"l_partkey", part, "p_retailprice",
                               CompareOp::kLe, part_value}),
    };
    ExecOptions options;
    options.progressive.vector_size = 8'192;
    options.order = std::vector<size_t>{0, 1};
    auto orders_first = engine.Execute(query, options);
    options.order = std::vector<size_t>{1, 0};
    auto part_first = engine.Execute(query, options);
    NIPO_CHECK(orders_first.ok() && part_first.ok());
    const ExecReport& of = orders_first.ValueOrDie();
    const ExecReport& pf = part_first.ValueOrDie();
    NIPO_CHECK(of.qualifying_tuples == pf.qualifying_tuples);
    table.AddRow({std::to_string(pct), FormatDouble(of.simulated_msec, 2),
                  FormatDouble(pf.simulated_msec, 2),
                  std::to_string(of.counters.l3_misses),
                  std::to_string(pf.counters.l3_misses)});
  }
  table.Print(std::cout);
  std::cout
      << "Paper shape: orders-first is faster at every selectivity even\n"
         "though orders is ~8x larger than part, because the co-clustered\n"
         "probe pattern into orders induces far fewer cache misses.\n";
  return 0;
}
