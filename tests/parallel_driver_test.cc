#include "exec/parallel_driver.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/prng.h"
#include "core/engine.h"

// Determinism and equivalence coverage for sharded execution (DESIGN.md
// "Parallel execution"):
//  - num_threads = 1 reproduces VectorDriver and the solo Execute drive
//    bit-identically (counters, aggregate, simulated_msec), in baseline
//    and -- under every CostPricing -- progressive mode, PEO trace
//    included;
//  - num_threads in {2, 4, 8} agree with the single-threaded result on
//    qualifying_tuples and the (bitwise) aggregate, run after run, under
//    work-stealing schedules;
//  - the merge interleaves per-morsel samples deterministically by index;
//  - the MorselHook sees only morsels of the current plan, and kSimdAware
//    form switches reach every worker.
// ci/check.sh runs this suite twice, with NIPO_TEST_THREADS=1 and =8; the
// env var *replaces* the default sweep below, so the two CI passes
// exercise genuinely different configurations (single-shard only, then
// 8-shard only).

namespace nipo {
namespace {

std::vector<size_t> TestThreadCounts() {
  if (const char* env = std::getenv("NIPO_TEST_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return {static_cast<size_t>(parsed)};
  }
  return {1, 2, 4, 8};
}

std::unique_ptr<Table> MakeTable(const std::string& name, size_t n,
                                 uint64_t seed = 1) {
  Prng prng(seed);
  std::vector<int32_t> a(n), b(n), c(n);
  std::vector<int64_t> payload(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(prng.NextBounded(100));
    b[i] = static_cast<int32_t>(prng.NextBounded(100));
    c[i] = static_cast<int32_t>(prng.NextBounded(100));
    payload[i] = static_cast<int64_t>(prng.NextBounded(1000));
  }
  auto t = std::make_unique<Table>(name);
  EXPECT_TRUE(t->AddColumn("a", std::move(a)).ok());
  EXPECT_TRUE(t->AddColumn("b", std::move(b)).ok());
  EXPECT_TRUE(t->AddColumn("c", std::move(c)).ok());
  EXPECT_TRUE(t->AddColumn("payload", std::move(payload)).ok());
  return t;
}

// Worst-first order: the most selective predicate (c < 2) runs last.
QuerySpec MakeQuery() {
  QuerySpec q;
  q.table = "t";
  q.ops = {OperatorSpec::Predicate({"a", CompareOp::kLt, 90.0}),
           OperatorSpec::Predicate({"b", CompareOp::kLt, 50.0}),
           OperatorSpec::Predicate({"c", CompareOp::kLt, 2.0})};
  q.payload_columns = {"payload"};
  return q;
}

Engine MakeEngine(size_t rows) {
  Engine engine(HwConfig::ScaledXeon(8));
  EXPECT_TRUE(engine.RegisterTable(MakeTable("t", rows)).ok());
  return engine;
}

ExecOptions Options(ExecMode mode, ExecDriver driver, size_t vector_size,
                    size_t threads = 1) {
  ExecOptions options;
  options.mode = mode;
  options.driver = driver;
  options.num_threads = threads;
  options.progressive.vector_size = vector_size;
  return options;
}

ExecReport Execute(const Engine& engine, const ExecOptions& options) {
  auto report = engine.Execute(MakeQuery(), options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? std::move(report).ValueOrDie() : ExecReport{};
}

TEST(ParallelDriverTest, SingleThreadIsBitIdenticalToVectorDriver) {
  Table table("t");
  Prng prng(3);
  std::vector<int32_t> a(50'000);
  for (auto& v : a) v = static_cast<int32_t>(prng.NextBounded(100));
  ASSERT_TRUE(table.AddColumn("a", std::move(a)).ok());
  const std::vector<OperatorSpec> ops = {
      OperatorSpec::Predicate({"a", CompareOp::kLt, 30.0})};

  Pmu reference_pmu(HwConfig::ScaledXeon(8));
  auto reference =
      PipelineExecutor::Compile(table, ops, {}, &reference_pmu);
  ASSERT_TRUE(reference.ok());
  VectorDriver vector_driver(reference.ValueOrDie().get(), 4'096);
  const DriveResult expected = vector_driver.Run();

  ParallelConfig config;
  config.num_threads = 1;
  config.morsel_size = 4'096;
  ParallelDriver driver(
      Pmu(HwConfig::ScaledXeon(8)),
      [&](Pmu* pmu) { return PipelineExecutor::Compile(table, ops, {}, pmu); },
      config);
  auto result = driver.Run();
  ASSERT_TRUE(result.ok());
  const ParallelDriveResult& par = result.ValueOrDie();

  EXPECT_EQ(par.merged.total, expected.total);  // every counter, exactly
  EXPECT_EQ(par.merged.input_tuples, expected.input_tuples);
  EXPECT_EQ(par.merged.qualifying_tuples, expected.qualifying_tuples);
  EXPECT_EQ(par.merged.aggregate, expected.aggregate);  // bitwise
  EXPECT_EQ(par.merged.simulated_msec, expected.simulated_msec);
  EXPECT_EQ(par.merged.num_vectors, expected.num_vectors);
  EXPECT_EQ(par.num_morsels, expected.num_vectors);
  ASSERT_EQ(par.workers.size(), 1u);
  EXPECT_EQ(par.workers[0].morsels, expected.num_vectors);
  EXPECT_EQ(par.workers[0].steals, 0u);
}

TEST(ParallelDriverTest, EngineSingleThreadMatchesSoloBaseline) {
  Engine engine = MakeEngine(60'000);
  const ExecReport base =
      Execute(engine, Options(ExecMode::kBaseline, ExecDriver::kSolo, 2'048));
  const ExecReport par = Execute(
      engine, Options(ExecMode::kBaseline, ExecDriver::kSharded, 2'048));
  EXPECT_EQ(par.counters, base.counters);
  EXPECT_EQ(par.aggregate, base.aggregate);
  EXPECT_EQ(par.simulated_msec, base.simulated_msec);
  EXPECT_EQ(par.final_order, base.final_order);
}

TEST(ParallelDriverTest, ThreadCountsAgreeOnResultsAcrossRuns) {
  Engine engine = MakeEngine(60'000);
  const ExecReport base =
      Execute(engine, Options(ExecMode::kBaseline, ExecDriver::kSolo, 2'048));
  for (size_t threads : TestThreadCounts()) {
    for (int run = 0; run < 2; ++run) {
      const ExecReport par = Execute(engine, Options(ExecMode::kBaseline,
                                                 ExecDriver::kSharded, 2'048,
                                                 threads));
      ASSERT_TRUE(par.sharded_baseline.has_value());
      const ParallelDriveResult& drive = par.sharded_baseline->drive;
      EXPECT_EQ(drive.merged.qualifying_tuples, base.qualifying_tuples)
          << threads << " threads, run " << run;
      // The morsel-index-ordered merge makes the floating-point sum
      // bit-stable across schedules and thread counts.
      EXPECT_EQ(drive.merged.aggregate, base.aggregate)
          << threads << " threads, run " << run;
      EXPECT_EQ(drive.merged.input_tuples, 60'000u);
      // Work conservation: every morsel executed exactly once.
      uint64_t morsels = 0;
      for (const WorkerStats& w : drive.workers) morsels += w.morsels;
      EXPECT_EQ(morsels, drive.num_morsels);
    }
  }
}

TEST(ParallelDriverTest, SamplesInterleaveDeterministicallyByMorselIndex) {
  Engine engine = MakeEngine(30'000);
  auto table = engine.GetTable("t");
  ASSERT_TRUE(table.ok());
  const QuerySpec query = MakeQuery();
  ParallelConfig config;
  config.num_threads = 4;
  config.morsel_size = 1'024;
  config.sample_counters = true;
  ParallelDriver driver(
      engine.NewMachine(),
      [&](Pmu* pmu) {
        return PipelineExecutor::Compile(*table.ValueOrDie(), query.ops,
                                         query.payload_columns, pmu);
      },
      config);
  auto result = driver.Run();
  ASSERT_TRUE(result.ok());
  const ParallelDriveResult& par = result.ValueOrDie();
  ASSERT_EQ(par.samples.size(), par.num_morsels);
  PmuCounters event_sum;
  uint64_t tuple_sum = 0;
  for (size_t m = 0; m < par.samples.size(); ++m) {
    EXPECT_EQ(par.samples[m].sample.vector_index, m);
    EXPECT_LT(par.samples[m].worker_id, config.num_threads);
    EXPECT_EQ(par.samples[m].order_version, 0u);  // no hook, no broadcasts
    event_sum += par.samples[m].sample.counters;
    tuple_sum += par.samples[m].sample.result.input_tuples;
  }
  EXPECT_EQ(tuple_sum, 30'000u);
  // Event counters (not cycles: the read-pair charges land partly outside
  // the per-morsel windows) sum exactly to the merged totals.
  EXPECT_EQ(event_sum.branches, par.merged.total.branches);
  EXPECT_EQ(event_sum.branches_not_taken,
            par.merged.total.branches_not_taken);
  EXPECT_EQ(event_sum.l3_accesses, par.merged.total.l3_accesses);
  EXPECT_EQ(event_sum.instructions, par.merged.total.instructions);
}

TEST(ParallelDriverTest, HookBroadcastReachesAllWorkers) {
  Engine engine = MakeEngine(40'000);
  auto table = engine.GetTable("t");
  ASSERT_TRUE(table.ok());
  const QuerySpec query = MakeQuery();
  ParallelConfig config;
  config.num_threads = 4;
  config.morsel_size = 1'024;
  bool broadcast_sent = false;
  ParallelDriver driver(
      engine.NewMachine(),
      [&](Pmu* pmu) {
        return PipelineExecutor::Compile(*table.ValueOrDie(), query.ops,
                                         query.payload_columns, pmu);
      },
      config);
  auto result = driver.Run(
      std::nullopt,
      [&](const MorselRecord& record) -> std::optional<PlanUpdate> {
        if (!broadcast_sent && record.sample.vector_index >= 3) {
          broadcast_sent = true;
          return PlanUpdate{{2, 1, 0},
                            {PredicateForm::kBranching,
                             PredicateForm::kBranchFree,
                             PredicateForm::kBranching}};
        }
        return std::nullopt;
      });
  ASSERT_TRUE(result.ok());
  const ParallelDriveResult& par = result.ValueOrDie();
  EXPECT_TRUE(broadcast_sent);
  // Late morsels ran under the broadcast plan; results are unaffected.
  uint64_t new_plan_morsels = 0;
  for (const MorselRecord& record : par.samples) {
    if (record.order_version == 1) ++new_plan_morsels;
  }
  EXPECT_GT(new_plan_morsels, 0u);
  const ExecReport base =
      Execute(engine, Options(ExecMode::kBaseline, ExecDriver::kSolo, 1'024));
  EXPECT_EQ(par.merged.qualifying_tuples, base.qualifying_tuples);
  EXPECT_EQ(par.merged.aggregate, base.aggregate);
}

TEST(ParallelDriverTest, HookSeesOnlyMorselsOfTheCurrentPlan) {
  Engine engine = MakeEngine(60'000);
  auto table = engine.GetTable("t");
  ASSERT_TRUE(table.ok());
  const QuerySpec query = MakeQuery();
  for (size_t threads : TestThreadCounts()) {
    ParallelConfig config;
    config.num_threads = threads;
    config.morsel_size = 1'024;
    ParallelDriver driver(
        engine.NewMachine(),
        [&](Pmu* pmu) {
          return PipelineExecutor::Compile(*table.ValueOrDie(), query.ops,
                                           query.payload_columns, pmu);
        },
        config);
    // Broadcast on every fifth morsel the hook sees, alternating plans.
    uint64_t broadcasts = 0;
    size_t seen = 0;
    auto result = driver.Run(
        std::nullopt,
        [&](const MorselRecord& record) -> std::optional<PlanUpdate> {
          EXPECT_EQ(record.order_version, broadcasts);
          if (++seen % 5 != 0) return std::nullopt;
          ++broadcasts;
          std::vector<size_t> order = {0, 1, 2};
          if (broadcasts % 2 == 1) order = {2, 1, 0};
          return PlanUpdate{order, std::vector<PredicateForm>(
                                       3, PredicateForm::kBranching)};
        });
    ASSERT_TRUE(result.ok());
    const ParallelDriveResult& par = result.ValueOrDie();
    // Every morsel either reached the hook or was filtered as stale.
    EXPECT_EQ(seen + par.stale_morsels, par.num_morsels)
        << threads << " threads";
    if (threads == 1) {
      EXPECT_EQ(par.stale_morsels, 0u);
    }
  }
}

TEST(ParallelDriverTest, MalformedHookPlanFailsTheRun) {
  Engine engine = MakeEngine(20'000);
  auto table = engine.GetTable("t");
  ASSERT_TRUE(table.ok());
  const QuerySpec query = MakeQuery();
  for (size_t threads : TestThreadCounts()) {
    ParallelConfig config;
    config.num_threads = threads;
    config.morsel_size = 1'024;
    ParallelDriver driver(
        engine.NewMachine(),
        [&](Pmu* pmu) {
          return PipelineExecutor::Compile(*table.ValueOrDie(), query.ops,
                                           query.payload_columns, pmu);
        },
        config);
    // A valid order without its forms: the executors reject the plan.
    auto result = driver.Run(
        std::nullopt,
        [](const MorselRecord&) -> std::optional<PlanUpdate> {
          return PlanUpdate{{2, 1, 0}, {}};
        });
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << threads << " threads";
  }
}

TEST(ParallelDriverTest, ProgressiveParallelMatchesBaselineResults) {
  Engine engine = MakeEngine(120'000);
  const ExecReport base =
      Execute(engine, Options(ExecMode::kBaseline, ExecDriver::kSolo, 2'048));
  for (size_t threads : TestThreadCounts()) {
    ExecOptions options = Options(ExecMode::kProgressive,
                                  ExecDriver::kSharded, 2'048, threads);
    options.progressive.reopt_interval = 2;
    const ExecReport prog = Execute(engine, options);
    EXPECT_EQ(prog.qualifying_tuples, base.qualifying_tuples)
        << threads << " threads";
    EXPECT_EQ(prog.aggregate, base.aggregate) << threads << " threads";
  }
}

TEST(ParallelDriverTest, ProgressiveParallelReordersWorstFirstOrder) {
  Engine engine = MakeEngine(120'000);
  ExecOptions options =
      Options(ExecMode::kProgressive, ExecDriver::kSharded, 2'048);
  options.progressive.reopt_interval = 2;
  const ExecReport prog = Execute(engine, options);
  ASSERT_TRUE(prog.sharded_progressive.has_value());
  const ParallelProgressiveReport& report = *prog.sharded_progressive;
  // The query is worst-first (c, the ~2% predicate, evaluated last); the
  // controller must discover and broadcast a better order.
  ASSERT_FALSE(report.changes.empty());
  ASSERT_EQ(report.final_order.size(), 3u);
  EXPECT_EQ(report.final_order.front(), 2u);  // most selective first
  // Progressive beats the worst-first fixed order on machine time.
  const ExecReport base =
      Execute(engine, Options(ExecMode::kBaseline, ExecDriver::kSolo, 2'048));
  EXPECT_LT(report.drive.merged.simulated_msec, base.simulated_msec);
}

TEST(ParallelDriverTest, ProgressiveSingleThreadIsDeterministic) {
  Engine engine = MakeEngine(80'000);
  ExecOptions options =
      Options(ExecMode::kProgressive, ExecDriver::kSharded, 2'048);
  options.progressive.reopt_interval = 2;
  const ExecReport a = Execute(engine, options);
  const ExecReport b = Execute(engine, options);
  ASSERT_TRUE(a.sharded_progressive && b.sharded_progressive);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.final_order, b.final_order);
  EXPECT_EQ(a.sharded_progressive->changes.size(),
            b.sharded_progressive->changes.size());
}

void ExpectSameTrace(const std::vector<PeoChange>& actual,
                     const std::vector<PeoChange>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].vector_index, expected[i].vector_index) << i;
    EXPECT_EQ(actual[i].old_order, expected[i].old_order) << i;
    EXPECT_EQ(actual[i].new_order, expected[i].new_order) << i;
    EXPECT_EQ(actual[i].old_forms, expected[i].old_forms) << i;
    EXPECT_EQ(actual[i].new_forms, expected[i].new_forms) << i;
    EXPECT_EQ(actual[i].reverted, expected[i].reverted) << i;
    EXPECT_EQ(actual[i].exploration, expected[i].exploration) << i;
  }
}

TEST(ParallelDriverTest, ProgressiveSingleThreadIsBitIdenticalToSolo) {
  // One shard feeds the controller every morsel in scan order, and the
  // broadcast reaches the lone worker before its next morsel: exactly the
  // solo drive, decision for decision, under every pricing rule.
  Engine engine = MakeEngine(120'000);
  for (const CostPricing pricing :
       {CostPricing::kUnit, CostPricing::kBranchCycles,
        CostPricing::kSimdAware}) {
    ExecOptions options =
        Options(ExecMode::kProgressive, ExecDriver::kSolo, 2'048);
    options.progressive.reopt_interval = 2;
    options.progressive.pricing = pricing;
    const ExecReport solo = Execute(engine, options);
    options.driver = ExecDriver::kSharded;
    const ExecReport sharded = Execute(engine, options);
    ASSERT_TRUE(solo.progressive && sharded.sharded_progressive);
    const int p = static_cast<int>(pricing);
    EXPECT_EQ(sharded.counters, solo.counters) << "pricing " << p;
    EXPECT_EQ(sharded.simulated_msec, solo.simulated_msec) << "pricing " << p;
    EXPECT_EQ(sharded.qualifying_tuples, solo.qualifying_tuples);
    EXPECT_EQ(sharded.aggregate, solo.aggregate) << "pricing " << p;
    EXPECT_EQ(sharded.final_order, solo.final_order) << "pricing " << p;
    EXPECT_EQ(sharded.sharded_progressive->num_optimizations,
              solo.progressive->num_optimizations);
    EXPECT_FALSE(solo.progressive->changes.empty()) << "pricing " << p;
    ExpectSameTrace(sharded.sharded_progressive->changes,
                    solo.progressive->changes);
  }
}

TEST(ParallelDriverTest, SimdAwareFormSwitchReachesWorkers) {
  // b < 50 passes half the rows: its branch is the one a branch-free
  // kernel makes cheap, so kSimdAware must switch it on the sharded drive
  // too, and the switch must not change a single result bit.
  Engine engine = MakeEngine(120'000);
  QuerySpec query = MakeQuery();
  query.ops = {OperatorSpec::Predicate({"b", CompareOp::kLt, 50.0})};
  ExecOptions options =
      Options(ExecMode::kBaseline, ExecDriver::kSolo, 2'048);
  auto base = engine.Execute(query, options);
  ASSERT_TRUE(base.ok());
  options.mode = ExecMode::kProgressive;
  options.driver = ExecDriver::kSharded;
  options.progressive.reopt_interval = 2;
  options.progressive.pricing = CostPricing::kSimdAware;
  for (size_t threads : TestThreadCounts()) {
    options.num_threads = threads;
    auto run = engine.Execute(query, options);
    ASSERT_TRUE(run.ok());
    const ParallelProgressiveReport& prog =
        *run.ValueOrDie().sharded_progressive;
    bool branch_free = false;
    for (const PeoChange& change : prog.changes) {
      for (const PredicateForm form : change.new_forms) {
        branch_free |= form == PredicateForm::kBranchFree;
      }
    }
    EXPECT_TRUE(branch_free) << threads << " threads";
    // The workers really ran the broadcast form: a branch-free predicate
    // books no branch events, leaving only the always-taken loop branch.
    size_t branch_free_morsels = 0;
    for (const MorselRecord& record : prog.drive.samples) {
      if (record.sample.counters.branches_not_taken == 0) {
        ++branch_free_morsels;
      }
    }
    EXPECT_GT(branch_free_morsels, 0u) << threads << " threads";
    EXPECT_EQ(run.ValueOrDie().qualifying_tuples,
              base.ValueOrDie().qualifying_tuples)
        << threads << " threads";
    EXPECT_EQ(run.ValueOrDie().aggregate, base.ValueOrDie().aggregate)
        << threads << " threads";
  }
}

TEST(ParallelDriverTest, ErrorsPropagate) {
  Engine engine = MakeEngine(1'000);
  ExecOptions options =
      Options(ExecMode::kBaseline, ExecDriver::kSharded, 1'024, 0);
  EXPECT_EQ(engine.Execute(MakeQuery(), options).status().code(),
            StatusCode::kInvalidArgument);
  options.num_threads = 2;
  options.progressive.vector_size = 0;
  EXPECT_EQ(engine.Execute(MakeQuery(), options).status().code(),
            StatusCode::kInvalidArgument);
  options.progressive.vector_size = 1'024;
  QuerySpec bad = MakeQuery();
  bad.table = "missing";
  EXPECT_EQ(engine.Execute(bad, options).status().code(),
            StatusCode::kNotFound);
  options.order = std::vector<size_t>{0, 0, 0};
  EXPECT_FALSE(engine.Execute(MakeQuery(), options).ok());
  options.order.reset();
  options.mode = ExecMode::kProgressive;
  options.progressive.vector_size = 0;
  EXPECT_EQ(engine.Execute(MakeQuery(), options).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace nipo
