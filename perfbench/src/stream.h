#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/prng.h"
#include "core/engine.h"
#include "exec/hash_aggregate.h"

/// \file stream.h
/// The benchmark's seeded query stream and its result oracle.
///
/// The stream is built from *patterns*. One pattern holds every query
/// shape once with freshly drawn parameters, and each parameterised
/// query appears twice, once as the fixed-order baseline and once under
/// progressive optimization with kSimdAware pricing. A pattern's shape
/// mix is therefore the same for every seed; the seed moves only the
/// parameters (inside narrow fixed strata, so that the cost of a pattern
/// hardly depends on the seed), the data and the order of queries.
///
/// Shapes over lineitem (orders and part are the FK dimensions):
///   q6_full    TPC-H Q6 with substitution parameters drawn per pattern;
///   q6_intro   the paper's intro query, once per l_shipdate selectivity
///              stratum of the workload (each drawn from [0.9, 1.0] times
///              the stratum);
///   q1         TPC-H Q1 through ExecuteHashAggregate (no progressive
///              form; solo driver only);
///   fk_orders  two FK probes into orders (o_totalprice 8 B and
///              o_orderdate 4 B per order: 18 MB at SF 1, above the
///              simulated 15 MB L3) plus an l_quantity predicate;
///   fk_part    two FK probes into part (p_retailprice, p_size: 2.4 MB at
///              SF 1, fits) plus an l_quantity predicate.

namespace perfbench {

enum class Shape { kQ6Full, kQ6Intro, kQ1, kFkOrders, kFkPart };

/// Expected result of one parameterised query, from the oracle.
struct Expected {
  uint64_t qualifying = 0;
  double aggregate = 0;
  std::vector<nipo::GroupResult> groups;  ///< q1 only, sorted by group
};

struct StreamQuery {
  Shape shape = Shape::kQ6Full;
  bool progressive = false;
  nipo::QuerySpec spec;      ///< unused by q1
  int32_t q1_delta_days = 90;
  size_t expected = 0;       ///< index into Stream::expected
};

struct Stream {
  std::vector<StreamQuery> queries;
  std::vector<Expected> expected;
};

/// Sorted copies of the columns the parameter draws take quantiles of.
/// Built from the plain tables, before any encoding.
struct DataStats {
  std::vector<int32_t> shipdate;
  std::vector<int64_t> totalprice;
  std::vector<int32_t> orderdate;
  std::vector<int64_t> retailprice;
};

DataStats ComputeDataStats(const nipo::Engine& engine);

/// Appends `patterns` patterns to `stream` (one q6_intro per entry of
/// `intro_strata`, q1 only if `with_q1`), each shuffled; expectations come
/// from the naive evaluator, cross-checked against the Q6 / Q1 reference
/// implementations. The tables must still be plain. Returns false if the
/// two oracles disagree.
bool AppendPatterns(const nipo::Engine& engine, const DataStats& stats,
                    size_t patterns, const std::vector<double>& intro_strata,
                    bool with_q1, nipo::Prng* prng, Stream* stream);

/// Exact agreement of an execution's qualifying count and aggregate.
bool Matches(const Expected& expected, uint64_t qualifying, double aggregate);

/// Exact agreement of a Q1 hash aggregate with its expectation.
bool MatchesGroups(const Expected& expected,
                   const nipo::HashAggregateResult& result);

}  // namespace perfbench
