#include "stream.h"

#include <algorithm>
#include <cmath>

#include "common/date.h"
#include "tpch/q1.h"
#include "tpch/q6.h"

namespace perfbench {

using nipo::CompareOp;
using nipo::OperatorSpec;

namespace {

const nipo::Table& GetTable(const nipo::Engine& engine, const char* name) {
  return *engine.GetTable(name).ValueOrDie();
}

template <typename T>
std::vector<T> Sorted(const nipo::Table& table, const char* column) {
  const auto values = table.GetTypedColumn<T>(column).ValueOrDie()->values();
  std::vector<T> v(values.begin(), values.end());
  std::sort(v.begin(), v.end());
  return v;
}

template <typename T>
T Quantile(const std::vector<T>& sorted, double fraction) {
  const auto idx = static_cast<size_t>(fraction *
                                       static_cast<double>(sorted.size()));
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Uniform(nipo::Prng* prng, double lo, double hi) {
  return lo + (hi - lo) * prng->NextDouble();
}

/// Per-row value of a plain column as double, read straight from the
/// column array (independent of the engine's scan path).
class RawColumn {
 public:
  RawColumn(const nipo::Table& table, const std::string& name) {
    const nipo::ColumnBase* col = table.GetColumn(name).ValueOrDie();
    type_ = col->type();
    data_ = col->data();
  }
  double operator[](size_t row) const {
    switch (type_) {
      case nipo::DataType::kInt32:
        return static_cast<const int32_t*>(data_)[row];
      case nipo::DataType::kInt64:
        return static_cast<double>(static_cast<const int64_t*>(data_)[row]);
      case nipo::DataType::kDouble:
        return static_cast<const double*>(data_)[row];
    }
    return 0;
  }

 private:
  nipo::DataType type_ = nipo::DataType::kInt32;
  const void* data_ = nullptr;
};

/// The naive evaluator: every operator on every row in spec order, then
/// the payload product summed over qualifying rows.
Expected NaiveEvaluate(const nipo::Engine& engine,
                       const nipo::QuerySpec& spec) {
  const nipo::Table& fact = GetTable(engine, spec.table.c_str());
  struct Op {
    RawColumn column;
    RawColumn dim;  // FK probes: the dimension's filter column
    bool probe;
    CompareOp op;
    double value;
  };
  std::vector<Op> ops;
  for (const OperatorSpec& o : spec.ops) {
    if (o.kind == OperatorSpec::Kind::kPredicate) {
      ops.push_back({RawColumn(fact, o.predicate.column),
                     RawColumn(fact, o.predicate.column), false,
                     o.predicate.op, o.predicate.value});
    } else {
      ops.push_back({RawColumn(fact, o.probe.fk_column),
                     RawColumn(*o.probe.dimension, o.probe.filter_column),
                     true, o.probe.op, o.probe.value});
    }
  }
  std::vector<RawColumn> payload;
  for (const std::string& c : spec.payload_columns) {
    payload.emplace_back(fact, c);
  }
  Expected e;
  for (size_t row = 0; row < fact.num_rows(); ++row) {
    bool pass = true;
    for (const Op& op : ops) {
      const double v =
          op.probe ? op.dim[static_cast<size_t>(op.column[row])] : op.column[row];
      if (!nipo::EvaluateCompare(v, op.op, op.value)) {
        pass = false;
        break;
      }
    }
    if (!pass) continue;
    ++e.qualifying;
    double product = 1.0;
    for (const RawColumn& p : payload) product *= p[row];
    e.aggregate += product;
  }
  return e;
}

nipo::QuerySpec Q6Full(nipo::Prng* prng) {
  // TPC-H substitution parameters: DATE is Jan 1 of 1993..1997,
  // DISCOUNT 0.02..0.09 (integer percent here), QUANTITY 24..25.
  const int year = static_cast<int>(prng->NextInRange(1993, 1997));
  const int discount = static_cast<int>(prng->NextInRange(2, 9));
  const int quantity = static_cast<int>(prng->NextInRange(24, 25));
  nipo::QuerySpec q;
  q.table = "lineitem";
  q.ops = nipo::MakeQ6FullPredicates(
      nipo::DateToDayNumber(nipo::Date{year, 1, 1}),
      nipo::DateToDayNumber(nipo::Date{year + 1, 1, 1}));
  q.ops[2].predicate.value = discount - 1;
  q.ops[3].predicate.value = discount + 1;
  q.ops[4].predicate.value = quantity;
  q.payload_columns = nipo::Q6PayloadColumns();
  return q;
}

nipo::QuerySpec FkQuery(const nipo::Table& dim, const char* fk_column,
                        const char* first_column, double first_value,
                        const char* second_column, double second_value,
                        double quantity) {
  nipo::QuerySpec q;
  q.table = "lineitem";
  q.ops = {
      OperatorSpec::FkProbe(
          {fk_column, &dim, first_column, CompareOp::kLe, first_value}),
      OperatorSpec::FkProbe(
          {fk_column, &dim, second_column, CompareOp::kLe, second_value}),
      OperatorSpec::Predicate({"l_quantity", CompareOp::kLt, quantity}),
  };
  q.payload_columns = {"l_extendedprice"};
  return q;
}

bool SameGroups(const std::vector<nipo::GroupResult>& a,
                const std::vector<nipo::GroupResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].group != b[i].group || a[i].count != b[i].count ||
        a[i].sums != b[i].sums) {
      return false;
    }
  }
  return true;
}

std::vector<nipo::GroupResult> SortedGroups(
    std::vector<nipo::GroupResult> groups) {
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.group < b.group; });
  return groups;
}

}  // namespace

DataStats ComputeDataStats(const nipo::Engine& engine) {
  DataStats s;
  s.shipdate = Sorted<int32_t>(GetTable(engine, "lineitem"), "l_shipdate");
  s.totalprice = Sorted<int64_t>(GetTable(engine, "orders"), "o_totalprice");
  s.orderdate = Sorted<int32_t>(GetTable(engine, "orders"), "o_orderdate");
  s.retailprice = Sorted<int64_t>(GetTable(engine, "part"), "p_retailprice");
  return s;
}

bool AppendPatterns(const nipo::Engine& engine, const DataStats& stats,
                    size_t patterns, const std::vector<double>& intro_strata,
                    bool with_q1, nipo::Prng* prng, Stream* stream) {
  const nipo::Table& lineitem = GetTable(engine, "lineitem");
  const nipo::Table& orders = GetTable(engine, "orders");
  const nipo::Table& part = GetTable(engine, "part");
  bool agree = true;
  for (size_t p = 0; p < patterns; ++p) {
    std::vector<std::pair<Shape, nipo::QuerySpec>> specs;
    specs.emplace_back(Shape::kQ6Full, Q6Full(prng));
    for (const double sel : intro_strata) {
      const double s = sel * Uniform(prng, 0.9, 1.0);
      nipo::QuerySpec q;
      q.table = "lineitem";
      q.ops = nipo::MakeQ6IntroPredicates(Quantile(stats.shipdate, s));
      q.payload_columns = nipo::Q6PayloadColumns();
      specs.emplace_back(Shape::kQ6Intro, std::move(q));
    }
    specs.emplace_back(
        Shape::kFkOrders,
        FkQuery(orders, "l_orderkey", "o_totalprice",
                static_cast<double>(
                    Quantile(stats.totalprice, Uniform(prng, 0.62, 0.68))),
                "o_orderdate",
                Quantile(stats.orderdate, Uniform(prng, 0.52, 0.58)),
                static_cast<double>(prng->NextInRange(23, 27))));
    specs.emplace_back(
        Shape::kFkPart,
        FkQuery(part, "l_partkey", "p_retailprice",
                static_cast<double>(
                    Quantile(stats.retailprice, Uniform(prng, 0.62, 0.68))),
                "p_size", static_cast<double>(prng->NextInRange(23, 27)),
                static_cast<double>(prng->NextInRange(23, 27))));

    std::vector<StreamQuery> pattern;
    for (auto& [shape, spec] : specs) {
      Expected e = NaiveEvaluate(engine, spec);
      if (shape != Shape::kFkOrders && shape != Shape::kFkPart) {
        const auto ref = nipo::ComputeQ6Reference(lineitem, spec.ops);
        agree = agree && ref.ok() &&
                Matches(e, ref.ValueOrDie().qualifying,
                        ref.ValueOrDie().revenue);
      }
      stream->expected.push_back(std::move(e));
      for (const bool progressive : {false, true}) {
        StreamQuery q;
        q.shape = shape;
        q.progressive = progressive;
        q.spec = spec;
        q.expected = stream->expected.size() - 1;
        pattern.push_back(std::move(q));
      }
    }
    if (with_q1) {
      StreamQuery q;
      q.shape = Shape::kQ1;
      q.q1_delta_days = static_cast<int32_t>(prng->NextInRange(60, 120));
      const auto ref = nipo::ComputeQ1Reference(lineitem, q.q1_delta_days);
      agree = agree && ref.ok();
      Expected e;
      if (ref.ok()) e.groups = SortedGroups(ref.ValueOrDie().groups);
      stream->expected.push_back(std::move(e));
      q.expected = stream->expected.size() - 1;
      pattern.push_back(std::move(q));
    }
    // Fisher-Yates with the stream's own generator.
    for (size_t i = pattern.size(); i > 1; --i) {
      std::swap(pattern[i - 1], pattern[prng->NextBounded(i)]);
    }
    for (StreamQuery& q : pattern) stream->queries.push_back(std::move(q));
  }
  return agree;
}

bool Matches(const Expected& expected, uint64_t qualifying, double aggregate) {
  return expected.qualifying == qualifying && expected.aggregate == aggregate;
}

bool MatchesGroups(const Expected& expected,
                   const nipo::HashAggregateResult& result) {
  return SameGroups(expected.groups, SortedGroups(result.groups));
}

}  // namespace perfbench
