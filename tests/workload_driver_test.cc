#include "exec/workload_driver.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/prng.h"
#include "core/engine.h"

// Coverage for multi-query workload execution (DESIGN.md "Workload
// execution"):
//  - deterministic mode: every query's results AND counters are
//    bit-identical to running it alone through Execute(QuerySpec) on the
//    solo driver, for any max_concurrent and worker count;
//  - the whole report (per-query counters, simulated schedule, makespan)
//    is stable across max_concurrent in {1, 2, 8} and across repeated
//    runs under racing worker schedules;
//  - admission control bounds in-flight queries and serializes the
//    simulated schedule at max_concurrent = 1;
//  - SimulateWorkloadSchedule replays the pool policy deterministically;
//  - warm (non-deterministic) mode keeps results schedule-independent.
// ci/check.sh runs this suite with NIPO_TEST_THREADS=1 and =8 and under
// ThreadSanitizer; the env var replaces the default worker-count sweep.

namespace nipo {
namespace {

std::vector<size_t> TestThreadCounts() {
  if (const char* env = std::getenv("NIPO_TEST_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return {static_cast<size_t>(parsed)};
  }
  return {1, 2, 4, 8};
}

constexpr size_t kDimRows = 10'001;

std::unique_ptr<Table> MakeFact(const std::string& name, size_t n,
                                uint64_t seed) {
  Prng prng(seed);
  std::vector<int32_t> a(n), b(n), c(n), fk(n);
  std::vector<int64_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    b[i] = static_cast<int32_t>(prng.NextBounded(100));
    c[i] = static_cast<int32_t>(prng.NextBounded(100));
    fk[i] = static_cast<int32_t>(prng.NextBounded(kDimRows));
    payload[i] = static_cast<int64_t>(prng.NextBounded(1000));
  }
  auto t = std::make_unique<Table>(name);
  EXPECT_TRUE(t->AddColumn("a", std::move(a)).ok());
  EXPECT_TRUE(t->AddColumn("b", std::move(b)).ok());
  EXPECT_TRUE(t->AddColumn("c", std::move(c)).ok());
  EXPECT_TRUE(t->AddColumn("fk", std::move(fk)).ok());
  EXPECT_TRUE(t->AddColumn("payload", std::move(payload)).ok());
  return t;
}

std::unique_ptr<Table> MakeDim(const std::string& name, size_t n,
                               uint64_t seed) {
  Prng prng(seed);
  std::vector<int32_t> attr(n);
  for (auto& v : attr) v = static_cast<int32_t>(prng.NextBounded(100));
  auto t = std::make_unique<Table>(name);
  EXPECT_TRUE(t->AddColumn("attr", std::move(attr)).ok());
  return t;
}

/// Two fact tables (40k / 60k rows) + one 10k-row dimension.
Engine MakeWorkloadEngine() {
  Engine engine(HwConfig::ScaledXeon(16));
  EXPECT_TRUE(engine.RegisterTable(MakeFact("fact_a", 40'000, 1)).ok());
  EXPECT_TRUE(engine.RegisterTable(MakeFact("fact_b", 60'000, 2)).ok());
  EXPECT_TRUE(engine.RegisterTable(MakeDim("dim", kDimRows, 3)).ok());
  return engine;
}

QuerySpec ScanQuery(const std::string& table, double a_lt, double b_lt,
                    double c_lt) {
  QuerySpec q;
  q.table = table;
  q.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, a_lt}),
           OperatorSpec::Predicate({"b", CompareOp::kLt, b_lt}),
           OperatorSpec::Predicate({"c", CompareOp::kLt, c_lt})};
  q.payload_columns = {"payload"};
  return q;
}

QuerySpec JoinQuery(const Engine& engine, const std::string& table) {
  QuerySpec q;
  q.table = table;
  q.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 80.0}),
           OperatorSpec::FkProbe({"fk", engine.GetTable("dim").ValueOrDie(),
                                  "attr", CompareOp::kLt, 40.0})};
  q.payload_columns = {"payload"};
  return q;
}

/// Eight mixed queries: scans + FK-probe joins + SUM aggregates over two
/// shared tables, baseline and progressive, with one explicit initial
/// order — the heterogeneity the bit-equality claims must hold under.
WorkloadSpec MakeMixedWorkload(const Engine& engine) {
  WorkloadSpec spec;
  auto add = [&spec](std::string name, QuerySpec q, bool progressive,
                     size_t vector_size,
                     std::optional<std::vector<size_t>> order =
                         std::nullopt) {
    WorkloadQuery query;
    query.name = std::move(name);
    query.query = std::move(q);
    query.progressive = progressive;
    query.config.vector_size = vector_size;
    query.config.reopt_interval = 2;
    query.initial_order = std::move(order);
    spec.queries.push_back(std::move(query));
  };
  // Worst-first scans (the ~2% predicate evaluated last) in both modes.
  add("scan_a_base", ScanQuery("fact_a", 90, 50, 2), false, 2'048);
  add("scan_a_prog", ScanQuery("fact_a", 90, 50, 2), true, 2'048);
  add("scan_b_base", ScanQuery("fact_b", 90, 50, 2), false, 4'096);
  add("scan_b_prog", ScanQuery("fact_b", 90, 50, 2), true, 4'096);
  add("join_a_base", JoinQuery(engine, "fact_a"), false, 2'048);
  add("join_b_prog", JoinQuery(engine, "fact_b"), true, 2'048);
  add("scan_b_selective", ScanQuery("fact_b", 10, 90, 90), false, 1'024);
  add("scan_a_reordered", ScanQuery("fact_a", 90, 50, 2), false, 2'048,
      std::vector<size_t>{2, 0, 1});
  return spec;
}

/// Solo single-threaded reference for query `q`, in the mode the
/// workload entry asks for.
DriveResult SoloDrive(const Engine& engine, const WorkloadQuery& q,
                      std::vector<size_t>* final_order = nullptr) {
  ExecOptions options;
  options.mode = q.progressive ? ExecMode::kProgressive : ExecMode::kBaseline;
  options.driver = ExecDriver::kSolo;
  options.progressive = q.config;
  options.order = q.initial_order;
  auto r = engine.Execute(q.query, options);
  EXPECT_TRUE(r.ok());
  const ExecReport& report = r.ValueOrDie();
  if (final_order != nullptr) *final_order = report.final_order;
  return q.progressive ? report.progressive->drive : report.baseline->drive;
}

TEST(WorkloadDriverTest, DeterministicModeIsBitIdenticalToSoloRuns) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.max_concurrent = 8;
  for (size_t threads : TestThreadCounts()) {
    spec.options.num_threads = threads;
    auto result = engine.Execute(spec);
    ASSERT_TRUE(result.ok());
    const WorkloadReport& report = result.ValueOrDie();
    ASSERT_EQ(report.queries.size(), spec.queries.size());
    for (size_t i = 0; i < spec.queries.size(); ++i) {
      std::vector<size_t> solo_order;
      const DriveResult solo = SoloDrive(engine, spec.queries[i], &solo_order);
      const WorkloadQueryReport& q = report.queries[i];
      EXPECT_EQ(q.name, spec.queries[i].name);
      EXPECT_EQ(q.drive.total, solo.total)  // every counter, exactly
          << q.name << ", " << threads << " threads";
      EXPECT_EQ(q.drive.qualifying_tuples, solo.qualifying_tuples) << q.name;
      EXPECT_EQ(q.drive.aggregate, solo.aggregate) << q.name;  // bitwise
      EXPECT_EQ(q.drive.simulated_msec, solo.simulated_msec) << q.name;
      EXPECT_EQ(q.drive.num_vectors, solo.num_vectors) << q.name;
      EXPECT_EQ(q.final_order, solo_order) << q.name;
    }
  }
}

TEST(WorkloadDriverTest, RecycledMachinesBoundConstructionAndMatchSolo) {
  Engine engine = MakeWorkloadEngine();
  const WorkloadSpec mixed = MakeMixedWorkload(engine);
  std::vector<DriveResult> solo;
  for (const WorkloadQuery& q : mixed.queries) {
    solo.push_back(SoloDrive(engine, q));
  }
  // Two rounds of the mixed set: 16 queries, so every machine is
  // recycled several times at each admission limit below.
  WorkloadSpec spec = mixed;
  spec.queries.insert(spec.queries.end(), mixed.queries.begin(),
                      mixed.queries.end());
  for (size_t threads : TestThreadCounts()) {
    for (size_t max_concurrent : {size_t{1}, size_t{2}, size_t{4}}) {
      ASSERT_GE(spec.queries.size(), 4 * max_concurrent);
      spec.options.num_threads = threads;
      spec.options.max_concurrent = max_concurrent;
      auto result = engine.Execute(spec);
      ASSERT_TRUE(result.ok());
      const WorkloadReport& report = result.ValueOrDie();
      EXPECT_GE(report.machines_built, 1u);
      EXPECT_LE(report.machines_built, max_concurrent)
          << threads << " threads";
      // A recycled machine is exactly a fresh one: every query still
      // reproduces its solo run bit for bit.
      for (size_t i = 0; i < spec.queries.size(); ++i) {
        const DriveResult& ref = solo[i % solo.size()];
        EXPECT_EQ(report.queries[i].drive.total, ref.total)
            << report.queries[i].name << ", " << threads << " threads, "
            << max_concurrent << " admitted";
        EXPECT_EQ(report.queries[i].drive.aggregate, ref.aggregate);
      }
    }
  }
  // Warm slot machines come from the same pool: one per slot at most.
  spec.options.deterministic = false;
  spec.options.max_concurrent = 2;
  auto warm = engine.Execute(spec);
  ASSERT_TRUE(warm.ok());
  EXPECT_LE(warm.ValueOrDie().machines_built, 2u);
}

TEST(WorkloadDriverTest, ReportIsStableAcrossMaxConcurrentAndRuns) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  // Reference: fully serial (one slot, one worker).
  spec.options.num_threads = 1;
  spec.options.max_concurrent = 1;
  auto serial = engine.Execute(spec);
  ASSERT_TRUE(serial.ok());
  const WorkloadReport& ref = serial.ValueOrDie();
  EXPECT_EQ(ref.peak_in_flight, 1u);
  for (size_t max_concurrent : {size_t{1}, size_t{2}, size_t{8}}) {
    for (size_t threads : TestThreadCounts()) {
      for (int run = 0; run < 2; ++run) {
        spec.options.num_threads = threads;
        spec.options.max_concurrent = max_concurrent;
        auto result = engine.Execute(spec);
        ASSERT_TRUE(result.ok());
        const WorkloadReport& report = result.ValueOrDie();
        EXPECT_LE(report.peak_in_flight, max_concurrent);
        double serial_sum = 0;
        for (size_t i = 0; i < report.queries.size(); ++i) {
          const WorkloadQueryReport& q = report.queries[i];
          EXPECT_EQ(q.drive.total, ref.queries[i].drive.total)
              << q.name << ", mc=" << max_concurrent << ", t=" << threads;
          EXPECT_EQ(q.drive.aggregate, ref.queries[i].drive.aggregate);
          EXPECT_EQ(q.changes.size(), ref.queries[i].changes.size());
          EXPECT_GT(q.quanta, 0u);
          EXPECT_LE(q.sim_start_msec, q.sim_finish_msec);
          EXPECT_LE(q.sim_finish_msec, report.sim_makespan_msec);
          serial_sum += q.drive.simulated_msec;
        }
        // The machine-time sum is schedule-independent, so the serial
        // baseline and the makespan bounds follow from it exactly.
        EXPECT_EQ(report.sim_serial_msec, serial_sum);
        EXPECT_GT(report.sim_makespan_msec, 0.0);
        EXPECT_LE(report.sim_makespan_msec, serial_sum * 1.000001);
        EXPECT_EQ(report.sim_queries_per_sec,
                  static_cast<double>(report.queries.size()) /
                      (report.sim_makespan_msec / 1e3));
      }
    }
  }
}

TEST(WorkloadDriverTest, SimulatedScheduleIsConcurrentOnlyWhenAdmitted) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 4;
  // max_concurrent = 1: admission serializes the simulated schedule FIFO
  // regardless of the pool width.
  spec.options.max_concurrent = 1;
  auto serialized = engine.Execute(spec);
  ASSERT_TRUE(serialized.ok());
  const WorkloadReport& one = serialized.ValueOrDie();
  EXPECT_EQ(one.peak_in_flight, 1u);
  for (size_t i = 1; i < one.queries.size(); ++i) {
    EXPECT_GE(one.queries[i].sim_start_msec,
              one.queries[i - 1].sim_finish_msec);
  }
  EXPECT_EQ(one.sim_makespan_msec, one.queries.back().sim_finish_msec);
  // Widening admission (same pool) can only shrink the makespan, and with
  // every slot open all queries are dispatched at t = 0-plus-queueing on
  // the 4 simulated cores.
  spec.options.max_concurrent = 8;
  auto open = engine.Execute(spec);
  ASSERT_TRUE(open.ok());
  const WorkloadReport& eight = open.ValueOrDie();
  EXPECT_EQ(eight.peak_in_flight, 8u);
  EXPECT_LE(eight.sim_makespan_msec, one.sim_makespan_msec);
  EXPECT_GT(eight.sim_queries_per_sec, one.sim_queries_per_sec);
}

TEST(WorkloadDriverTest, SimulateWorkloadScheduleReplaysPoolPolicy) {
  // Two single-quantum queries on two workers: concurrent with two
  // admission slots, serialized with one.
  const std::vector<std::vector<double>> quanta = {{10.0}, {10.0}};
  SimSchedule two = SimulateWorkloadSchedule(quanta, 2, 2);
  EXPECT_EQ(two.start_msec, (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(two.finish_msec, (std::vector<double>{10.0, 10.0}));
  EXPECT_EQ(two.makespan_msec, 10.0);
  SimSchedule one = SimulateWorkloadSchedule(quanta, 2, 1);
  EXPECT_EQ(one.start_msec, (std::vector<double>{0.0, 10.0}));
  EXPECT_EQ(one.finish_msec, (std::vector<double>{10.0, 20.0}));
  EXPECT_EQ(one.makespan_msec, 20.0);
  // Round-robin on one worker: quanta of the two admitted queries
  // interleave a-b-a-b.
  SimSchedule rr = SimulateWorkloadSchedule({{1.0, 1.0}, {1.0, 1.0}}, 1, 2);
  EXPECT_EQ(rr.finish_msec, (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(rr.makespan_msec, 4.0);
  // A freed admission slot admits the next query FIFO.
  SimSchedule fifo = SimulateWorkloadSchedule({{5.0}, {1.0}, {1.0}}, 2, 2);
  EXPECT_EQ(fifo.start_msec, (std::vector<double>{0.0, 0.0, 1.0}));
  EXPECT_EQ(fifo.finish_msec, (std::vector<double>{5.0, 1.0, 2.0}));
  EXPECT_EQ(fifo.makespan_msec, 5.0);
}

TEST(WorkloadDriverTest, WarmModeKeepsResultsScheduleIndependent) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.deterministic = false;
  spec.options.num_threads = TestThreadCounts().back();
  spec.options.max_concurrent = 2;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    const DriveResult solo = SoloDrive(engine, spec.queries[i]);
    // Query results are machine-state independent; counters may differ
    // (slot machines carry warm caches from earlier queries — the point
    // of the mode).
    EXPECT_EQ(report.queries[i].drive.qualifying_tuples,
              solo.qualifying_tuples)
        << report.queries[i].name;
    EXPECT_EQ(report.queries[i].drive.aggregate, solo.aggregate)
        << report.queries[i].name;
  }
}

TEST(WorkloadDriverTest, ProgressiveQueriesReoptimizeIndependently) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 8;
  auto result = engine.Execute(spec);
  ASSERT_TRUE(result.ok());
  const WorkloadReport& report = result.ValueOrDie();
  // The worst-first progressive scans must each discover the selective
  // predicate (index 2) from their own private counter windows.
  for (const char* name : {"scan_a_prog", "scan_b_prog"}) {
    const auto it = std::find_if(
        report.queries.begin(), report.queries.end(),
        [&](const WorkloadQueryReport& q) { return q.name == name; });
    ASSERT_NE(it, report.queries.end());
    EXPECT_TRUE(it->progressive);
    ASSERT_FALSE(it->changes.empty()) << name;
    ASSERT_EQ(it->final_order.size(), 3u);
    EXPECT_EQ(it->final_order.front(), 2u) << name;
  }
  // Baseline queries carry no PEO trace.
  for (const WorkloadQueryReport& q : report.queries) {
    if (!q.progressive) {
      EXPECT_TRUE(q.changes.empty()) << q.name;
    }
  }
}

TEST(WorkloadDriverTest, ErrorsPropagate) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec;
  EXPECT_EQ(engine.Execute(spec).status().code(),
            StatusCode::kInvalidArgument);  // empty workload
  spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 0;
  EXPECT_EQ(engine.Execute(spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 0;
  EXPECT_EQ(engine.Execute(spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.options.max_concurrent = 2;
  spec.options.burst_vectors = 0;
  EXPECT_EQ(engine.Execute(spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.options.burst_vectors = 1;
  // A bad query anywhere in the queue fails the whole workload up front.
  spec.queries[3].query.table = "missing";
  EXPECT_EQ(engine.Execute(spec).status().code(),
            StatusCode::kNotFound);
  spec = MakeMixedWorkload(engine);
  spec.queries[5].initial_order = std::vector<size_t>{0, 0};
  EXPECT_FALSE(engine.Execute(spec).ok());
}

TEST(WorkloadDriverTest, BurstVectorsDoNotChangeCountersOrSchedulePolicy) {
  Engine engine = MakeWorkloadEngine();
  WorkloadSpec spec = MakeMixedWorkload(engine);
  spec.options.num_threads = 2;
  spec.options.max_concurrent = 4;
  auto fine = engine.Execute(spec);
  ASSERT_TRUE(fine.ok());
  spec.options.burst_vectors = 8;  // coarser quanta, fewer yields
  auto coarse = engine.Execute(spec);
  ASSERT_TRUE(coarse.ok());
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    EXPECT_EQ(fine.ValueOrDie().queries[i].drive.total,
              coarse.ValueOrDie().queries[i].drive.total);
    EXPECT_GE(fine.ValueOrDie().queries[i].quanta,
              coarse.ValueOrDie().queries[i].quanta);
  }
}

}  // namespace
}  // namespace nipo
