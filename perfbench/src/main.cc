// The repository benchmark: one process runs one workload of
// perfbench/workloads.json over a seeded TPC-H data set and query stream,
// checks every result against the oracle (stream.h), and prints one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1). perfbench/run.py builds this program and passes it the
// workload's parameters; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "cost/counter_model.h"
#include "exec/hash_aggregate.h"
#include "exec/parallel_driver.h"
#include "exec/pipeline.h"
#include "exec/simd.h"
#include "json.h"
#include "optimizer/progressive.h"
#include "stats.h"
#include "storage/encoding.h"
#include "stream.h"
#include "trace.h"
#include "tpch/q1.h"
#include "tpch/tpch_gen.h"

namespace perfbench {
namespace {

using nipo::Engine;
using nipo::ExecDriver;
using nipo::ExecMode;
using nipo::ExecOptions;
using nipo::ExecReport;
using nipo::WorkloadReport;
using nipo::WorkloadSpec;

// ---------------------------------------------------------------------------
// Parameters and output
// ---------------------------------------------------------------------------

class Params {
 public:
  bool Parse(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0) return false;
      kv_[key.substr(2)] = argv[i + 1];
    }
    return argc % 2 == 1;
  }
  std::string Str(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) {
      std::cerr << "missing parameter --" << key << "\n";
      std::exit(2);
    }
    return it->second;
  }
  double Num(const std::string& key) const { return std::stod(Str(key)); }
  size_t Size(const std::string& key) const {
    return static_cast<size_t>(std::stoull(Str(key)));
  }
  std::vector<double> List(const std::string& key) const {
    std::vector<double> out;
    std::stringstream ss(Str(key));
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// One executed stream query
// ---------------------------------------------------------------------------

struct QueryRun {
  double host_ms = 0;
  double sim_ms = 0;
  uint64_t input_tuples = 0;
  uint64_t zone_skipped = 0;
  nipo::PmuCounters counters;
  std::vector<nipo::PeoChange> changes;
  std::vector<nipo::WorkerStats> workers;
  bool correct = false;
};

/// Aggregates of one closed-loop pass that the per-layer ledger reads.
struct PassLedger {
  nipo::PmuCounters counters;
  uint64_t input_tuples = 0;
  uint64_t zone_skipped = 0;
  size_t peo_changes = 0;
  size_t reverted = 0;
  size_t forms_switched = 0;
  uint64_t steals = 0;
  double critical_sum = 0;
  double worker_mean_sum = 0;
  // Baseline / progressive twins of the same parameterised query.
  double base_host_ms = 0, prog_host_ms = 0;
  double base_sim_ms = 0, prog_sim_ms = 0;
  double host_s = 0;

  void Add(const StreamQuery& q, const QueryRun& r) {
    counters += r.counters;
    input_tuples += r.input_tuples;
    zone_skipped += r.zone_skipped;
    peo_changes += r.changes.size();
    for (const nipo::PeoChange& c : r.changes) {
      if (c.reverted) ++reverted;
      if (c.new_forms != c.old_forms) ++forms_switched;
    }
    if (!r.workers.empty()) {
      double max_ms = 0, sum_ms = 0;
      for (const nipo::WorkerStats& w : r.workers) {
        steals += w.steals;
        max_ms = std::max(max_ms, w.simulated_msec);
        sum_ms += w.simulated_msec;
      }
      critical_sum += max_ms;
      worker_mean_sum += sum_ms / static_cast<double>(r.workers.size());
    }
    if (q.shape == Shape::kQ1) return;
    (q.progressive ? prog_host_ms : base_host_ms) += r.host_ms;
    (q.progressive ? prog_sim_ms : base_sim_ms) += r.sim_ms;
  }
};

// ---------------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------------

class Bench {
 public:
  explicit Bench(const Params& p)
      : p_(p),
        driver_(p.Str("driver")),
        trace_(p.Num("trace") != 0),
        tracer_(trace_),
        seed_(static_cast<uint64_t>(p.Num("seed"))) {}

  int Run();

 private:
  bool with_q1() const { return driver_ == "solo"; }
  bool closed_scan() const { return driver_ == "solo" || driver_ == "sharded"; }
  Tracer* tracer() { return trace_ ? &tracer_ : nullptr; }
  double seconds() const { return p_.Num("seconds"); }

  std::unique_ptr<Engine> SetupOnce(bool build_stream);
  void Setup();
  // One more set-up, timed and discarded, between two measured runs: the
  // set-up samples then spread over the whole measuring time rather than
  // the fraction of a second a cheap set-up takes back to back.
  void InterleaveSetup();
  QueryRun RunQuery(const StreamQuery& q, int64_t qid, size_t threads,
                    Tracer* tracer);
  PassLedger RunPass(size_t threads, Tracer* tracer,
                     std::vector<QueryRun>* runs);
  void RunClosedScan();
  WorkloadSpec PoolSpec() const;
  size_t CheckWorkload(const WorkloadSpec& spec, const WorkloadReport& r);
  WorkloadReport ExecuteWorkload(const WorkloadSpec& spec, Tracer* tracer);
  void RunPool();
  WorkloadSpec ServiceSpec(size_t rate_index, size_t trial) const;
  void RunService();
  void RunLedger();

  void End(const std::string& name, double value, const std::string& unit) {
    e2e_.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_.push_back({name, value, unit});
  }
  void Info(const std::string& key, double value) { info_[key] = value; }
  void Count(bool correct) {
    ++attempted_;
    if (!correct) ++failed_;
  }
  void PrintResult() const;

  const Params& p_;
  const std::string driver_;
  const bool trace_;
  Tracer tracer_;
  const uint64_t seed_;

  std::unique_ptr<Engine> engine_;
  Stream stream_;
  bool oracle_agrees_ = true;
  std::vector<double> gen_s_, encode_s_, setup_s_;
  nipo::TableEncodingStats encoding_;

  // Closed-scan measurements kept for the ledger.
  PassLedger pass_;
  std::vector<WorkloadReport> sched_reports_;  // pool batch / service rates

  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<Metric> e2e_, layer_;
  std::map<std::string, double> info_;
};

std::unique_ptr<Engine> Bench::SetupOnce(bool build_stream) {
  // Like TPC-H's dbgen, the data of a scale factor is fixed (the
  // generator's default seed); the benchmark seed drives the query
  // stream, the arrivals and the faults.
  nipo::TpchConfig cfg;
  cfg.scale_factor = p_.Num("sf");
  const auto t0 = Clock::now();
  auto db = [&] {
    ScopedSpan span(tracer(), "tpch", "GenerateTpch");
    return nipo::GenerateTpch(cfg);
  }();
  if (!db.ok()) {
    std::cerr << db.status().ToString() << "\n";
    std::exit(1);
  }
  nipo::TpchDatabase tables = std::move(db).ValueOrDie();
  if (with_q1()) {
    ScopedSpan span(tracer(), "tpch", "AddQ1GroupColumn");
    if (!nipo::AddQ1GroupColumn(tables.lineitem.get()).ok()) std::exit(1);
  }
  auto engine = std::make_unique<Engine>();
  {
    ScopedSpan span(tracer(), "core", "RegisterTable");
    for (auto* t : {&tables.lineitem, &tables.orders, &tables.part}) {
      if (!engine->RegisterTable(std::move(*t)).ok()) std::exit(1);
    }
  }
  const double gen_s = SecondsSince(t0);

  // The stream and its expectations come from the plain tables, before
  // encoding; every set-up builds identical data, so one build suffices.
  // Not part of the set-up time.
  if (build_stream) {
    ScopedSpan span(tracer(), "bench", "BuildStreamAndOracle");
    const DataStats stats = ComputeDataStats(*engine);
    nipo::Prng prng(seed_ * 0x9E3779B97F4A7C15ull + 1);
    oracle_agrees_ =
        AppendPatterns(*engine, stats, p_.Size("patterns"),
                       p_.List("intro_strata"), with_q1(), &prng, &stream_);
  }

  double encode_s = 0;
  if (p_.Num("encode") != 0) {
    const auto t1 = Clock::now();
    ScopedSpan span(tracer(), "core", "EncodeTable");
    auto stats = engine->EncodeTable("lineitem");
    if (!stats.ok()) std::exit(1);
    encoding_ = stats.ValueOrDie();
    encode_s = SecondsSince(t1);
  }
  gen_s_.push_back(gen_s);
  encode_s_.push_back(encode_s);
  setup_s_.push_back(gen_s + encode_s);
  return engine;
}

void Bench::Setup() {
  const size_t reps = p_.Size("setup_reps");
  for (size_t rep = 0; rep < reps; ++rep) {
    engine_.reset();  // bound peak memory to one copy of the data
    engine_ = SetupOnce(rep + 1 == reps);
  }
}

void Bench::InterleaveSetup() {
  if (p_.Num("setup_interleave") != 0) SetupOnce(false);
}

QueryRun Bench::RunQuery(const StreamQuery& q, int64_t qid, size_t threads,
                         Tracer* tracer) {
  QueryRun run;
  const Expected& expected = stream_.expected[q.expected];
  if (q.shape == Shape::kQ1) {
    const nipo::Table& lineitem = *engine_->GetTable("lineitem").ValueOrDie();
    const nipo::HashAggregateSpec spec =
        nipo::MakeQ1Spec(lineitem, q.q1_delta_days);
    const auto t0 = Clock::now();
    nipo::Pmu pmu = engine_->NewMachine();
    auto result = [&] {
      ScopedSpan span(tracer, "hash", "ExecuteHashAggregate", qid);
      return nipo::ExecuteHashAggregate(spec, &pmu);
    }();
    run.host_ms = 1e3 * SecondsSince(t0);
    run.counters = pmu.Read();
    run.sim_ms = pmu.ToMilliseconds(run.counters);
    run.correct = result.ok() && MatchesGroups(expected, result.ValueOrDie());
    if (result.ok()) run.input_tuples = result.ValueOrDie().input_rows;
    return run;
  }
  ExecOptions options;
  options.mode = q.progressive ? ExecMode::kProgressive : ExecMode::kBaseline;
  options.progressive.pricing = nipo::CostPricing::kSimdAware;
  options.driver = driver_ == "sharded" ? ExecDriver::kSharded : ExecDriver::kSolo;
  options.num_threads = threads;
  const auto t0 = Clock::now();
  auto result = [&] {
    ScopedSpan span(tracer, "core", "Engine::Execute(QuerySpec)", qid);
    return engine_->Execute(q.spec, options);
  }();
  run.host_ms = 1e3 * SecondsSince(t0);
  if (!result.ok()) return run;
  const ExecReport& r = result.ValueOrDie();
  run.correct = Matches(expected, r.qualifying_tuples, r.aggregate);
  run.sim_ms = r.simulated_msec;
  run.input_tuples = r.input_tuples;
  run.zone_skipped = r.zone_skipped_tuples;
  run.counters = r.counters;
  if (r.progressive) run.changes = r.progressive->changes;
  if (r.sharded_progressive) {
    run.changes = r.sharded_progressive->changes;
    run.workers = r.sharded_progressive->drive.workers;
  }
  if (r.sharded_baseline) run.workers = r.sharded_baseline->drive.workers;
  return run;
}

PassLedger Bench::RunPass(size_t threads, Tracer* tracer,
                          std::vector<QueryRun>* runs) {
  PassLedger pass;
  const auto t0 = Clock::now();
  for (size_t i = 0; i < stream_.queries.size(); ++i) {
    const StreamQuery& q = stream_.queries[i];
    QueryRun r = RunQuery(q, static_cast<int64_t>(i), threads, tracer);
    pass.Add(q, r);
    if (runs != nullptr) runs->push_back(std::move(r));
  }
  pass.host_s = SecondsSince(t0);
  return pass;
}

// Closed loop, one client.
void Bench::RunClosedScan() {
  const size_t threads = p_.Size("threads");
  // Warm-up: the first `warmup` stream queries, checked but not timed.
  for (size_t i = 0; i < std::min(p_.Size("warmup"), stream_.queries.size());
       ++i) {
    Count(RunQuery(stream_.queries[i], -1, threads, nullptr).correct);
  }

  // One whole pass, then the stream keeps cycling until the measuring
  // time is used up. Host figures use each query's median time over its
  // repetitions, which filters bursts of host noise; simulated figures
  // come from the first pass.
  const size_t n = stream_.queries.size();
  std::vector<std::vector<double>> samples(n);
  std::vector<QueryRun> first_pass;
  size_t ok = 0, executed = 0;
  const auto t0 = Clock::now();
  pass_ = RunPass(threads, tracer(), &first_pass);
  for (size_t i = 0; i < n; ++i) samples[i].push_back(first_pass[i].host_ms);
  for (size_t i = 0; SecondsSince(t0) < seconds(); i = (i + 1) % n) {
    QueryRun r = RunQuery(stream_.queries[i], static_cast<int64_t>(i), threads,
                          tracer());
    samples[i].push_back(r.host_ms);
    Count(r.correct);
    ok += r.correct ? 1 : 0;
    ++executed;
  }

  std::vector<double> host_ms, sim_ms;
  double sim_total = 0, host_total_ms = 0;
  size_t ok_first = 0;
  for (size_t i = 0; i < n; ++i) {
    const QueryRun& r = first_pass[i];
    Count(r.correct);
    ok_first += r.correct ? 1 : 0;
    host_ms.push_back(Median(samples[i]));
    host_total_ms += host_ms.back();
    sim_ms.push_back(r.sim_ms);
    sim_total += r.sim_ms;
  }
  ok += ok_first;
  executed += n;
  const Tail host_tail = TailOf(host_ms);
  const Tail sim_tail = TailOf(sim_ms);
  const double n_first = static_cast<double>(n);

  End("host_queries_per_s", 1e3 * n_first / host_total_ms, "1/s");
  End("host_query_ms_p50", Median(host_ms), "ms");
  End("host_query_ms_tail", host_tail.value, "ms");
  End("sim_query_ms_total", sim_total, "ms");
  End("sim_makespan_ms", sim_total, "ms");  // one client: queries run back to back
  End("sim_latency_ms_p50", Median(sim_ms), "ms");
  End("sim_latency_ms_tail", sim_tail.value, "ms");
  End("sim_max_rate_qps", 1e3 * n_first / sim_total, "1/s");
  End("sim_goodput_qps", 1e3 * static_cast<double>(ok_first) / sim_total,
      "1/s");
  End("ok_frac", static_cast<double>(ok) / static_cast<double>(executed),
      "frac");
  Info("executed", static_cast<double>(executed));
  Info("host_tail_percentile", host_tail.percentile);
  Info("host_tail_samples", static_cast<double>(host_tail.samples));
  Info("sim_tail_percentile", sim_tail.percentile);
  Info("sim_tail_samples", static_cast<double>(sim_tail.samples));

  if (!trace_) return;
  // Tracing overhead: one untraced pass against one traced pass.
  const PassLedger untraced = RunPass(threads, nullptr, nullptr);
  const PassLedger traced = RunPass(threads, tracer(), nullptr);
  Layer("trace.overhead_frac", traced.host_s / untraced.host_s - 1, "frac");
  if (driver_ == "sharded") {
    const PassLedger single = RunPass(1, tracer(), nullptr);
    Layer("parallel.host_speedup", single.host_s / untraced.host_s, "x");
  }
}

WorkloadSpec Bench::PoolSpec() const {
  WorkloadSpec spec;
  for (const StreamQuery& q : stream_.queries) {
    nipo::WorkloadQuery wq;
    wq.name = std::to_string(q.expected);
    wq.query = q.spec;
    wq.progressive = q.progressive;
    wq.config.pricing = nipo::CostPricing::kSimdAware;
    wq.config.vector_size = p_.Size("vector_size");
    spec.queries.push_back(std::move(wq));
  }
  spec.options.num_threads = p_.Size("threads");
  spec.options.max_concurrent = p_.Size("max_concurrent");
  spec.options.burst_vectors = 1;
  return spec;
}

WorkloadReport Bench::ExecuteWorkload(const WorkloadSpec& spec,
                                      Tracer* tracer) {
  auto result = [&] {
    ScopedSpan span(tracer, "core", "Engine::Execute(WorkloadSpec)");
    return engine_->Execute(spec);
  }();
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(result).ValueOrDie();
}

// Counts every query of a workload run; returns how many completed OK
// with the oracle's result.
size_t Bench::CheckWorkload(const WorkloadSpec& spec, const WorkloadReport& r) {
  size_t ok = 0;
  for (size_t i = 0; i < r.queries.size(); ++i) {
    const nipo::WorkloadQueryReport& q = r.queries[i];
    if (q.outcome != nipo::QueryOutcome::kOk) {
      ++attempted_;  // an injected or scheduled outcome, not a wrong result
      continue;
    }
    // Workload queries are named by their expectation's index.
    const bool correct = Matches(stream_.expected[std::stoul(q.name)],
                                 q.drive.qualifying_tuples, q.drive.aggregate);
    Count(correct);
    ok += correct ? 1 : 0;
  }
  if (r.queries.size() != spec.queries.size()) failed_ += 1;
  return ok;
}

// Closed queue through the threaded pool: whole batches until the
// measuring time is used up; simulated metrics from the first batch.
void Bench::RunPool() {
  const WorkloadSpec spec = PoolSpec();
  for (size_t i = 0; i < p_.Size("warmup"); ++i) {
    CheckWorkload(spec, ExecuteWorkload(spec, nullptr));
  }
  const size_t n = spec.queries.size();
  std::vector<double> host_ms;
  size_t ok = 0, attempted_before = attempted_;
  WorkloadReport first;
  const auto t0 = Clock::now();
  do {
    const auto t1 = Clock::now();
    WorkloadReport r = ExecuteWorkload(spec, tracer());
    const double wall = SecondsSince(t1);
    host_ms.push_back(1e3 * wall / static_cast<double>(n));
    ok += CheckWorkload(spec, r);
    if (host_ms.size() == 1) first = std::move(r);
    InterleaveSetup();
  } while (SecondsSince(t0) < seconds());

  // Host figures are medians over the batches, which filters bursts of
  // host noise.
  std::vector<double> latency;
  for (const auto& q : first.queries) latency.push_back(q.sim_latency_msec);
  const Tail host_tail = TailOf(host_ms);
  const Tail sim_tail = TailOf(latency);
  End("host_queries_per_s", 1e3 / Median(host_ms), "1/s");
  End("host_query_ms_p50", Median(host_ms), "ms");
  End("host_query_ms_tail", host_tail.value, "ms");
  End("sim_query_ms_total", first.sim_serial_msec, "ms");
  End("sim_makespan_ms", first.sim_makespan_msec, "ms");
  End("sim_latency_ms_p50", Median(latency), "ms");
  End("sim_latency_ms_tail", sim_tail.value, "ms");
  End("sim_max_rate_qps", first.sim_queries_per_sec, "1/s");
  End("sim_goodput_qps", first.sim_goodput_qps, "1/s");
  End("ok_frac",
      static_cast<double>(ok) / static_cast<double>(attempted_ - attempted_before),
      "frac");
  Info("batches", static_cast<double>(host_ms.size()));
  Info("host_tail_percentile", host_tail.percentile);
  Info("host_tail_samples", static_cast<double>(host_tail.samples));
  Info("sim_tail_percentile", sim_tail.percentile);
  Info("sim_tail_samples", static_cast<double>(sim_tail.samples));
  sched_reports_ = {std::move(first)};

  if (!trace_) return;
  const auto t2 = Clock::now();
  ExecuteWorkload(spec, nullptr);
  const double untraced = SecondsSince(t2);
  const auto t3 = Clock::now();
  ExecuteWorkload(spec, tracer());
  Layer("trace.overhead_frac", SecondsSince(t3) / untraced - 1, "frac");
}

WorkloadSpec Bench::ServiceSpec(size_t rate_index, size_t trial) const {
  WorkloadSpec spec = PoolSpec();
  // Every trial draws its own arrival order of the stream.
  nipo::Prng prng(seed_ * 0x2545F4914F6CDD1Dull + trial);
  for (size_t i = spec.queries.size(); i > 1; --i) {
    std::swap(spec.queries[i - 1], spec.queries[prng.NextBounded(i)]);
  }
  for (nipo::WorkloadQuery& q : spec.queries) {
    q.sim_deadline_msec = p_.Num("deadline_ms");
  }
  nipo::WorkloadOptions& o = spec.options;
  o.contention = true;
  o.adaptive_admission = true;
  o.arrival.kind = nipo::ArrivalKind::kPoisson;
  o.arrival.rate_qps = p_.List("rates_qps")[rate_index];
  o.arrival.seed = seed_ * 1'000'003 + rate_index * 101 + trial;
  o.faults.seed = seed_ * 7'919 + trial;
  o.faults.transient_fault_rate = p_.Num("fault_rate_per_quantum");
  o.retry.max_attempts = p_.Size("retry_attempts");
  o.retry.backoff_base_msec = p_.Num("backoff_base_ms");
  o.retry.backoff_cap_msec = p_.Num("backoff_cap_ms");
  o.shed_deadline = true;
  return spec;
}

// Open loop in simulated time: the same query stream arrives as a Poisson
// process at each fixed rate, `trials` times with different arrival and
// fault seeds. Latency counts from each query's arrival instant (its due
// time), so generator lateness is zero by construction. Simulated
// metrics pool the trials of the first sweep; sweeps repeat until the
// measuring time is used up, for the host metrics.
void Bench::RunService() {
  const std::vector<double> rates = p_.List("rates_qps");
  const size_t trials = p_.Size("trials");
  const size_t mid = rates.size() / 2;
  const double limit = p_.Num("latency_limit_ms");
  std::vector<std::vector<WorkloadSpec>> specs(rates.size());
  for (size_t i = 0; i < rates.size(); ++i) {
    for (size_t k = 0; k < trials; ++k) specs[i].push_back(ServiceSpec(i, k));
  }
  for (size_t i = 0; i < p_.Size("warmup"); ++i) {
    CheckWorkload(specs[mid][0], ExecuteWorkload(specs[mid][0], nullptr));
  }

  // One whole sweep over every (trial, rate), then the runs keep cycling
  // until the measuring time is used up. The sweep goes trial by trial,
  // every rate within a trial, so each rate's runs spread over the whole
  // measuring time and a slow stretch of the host does not fall on one
  // rate alone. Host throughput uses each run's median wall over its
  // repetitions.
  const size_t n = stream_.queries.size();
  struct ServiceRun {
    size_t rate;
    const WorkloadSpec* spec;
  };
  std::vector<ServiceRun> runs;
  for (size_t k = 0; k < trials; ++k) {
    for (size_t i = 0; i < rates.size(); ++i) runs.push_back({i, &specs[i][k]});
  }
  std::vector<std::vector<double>> walls(runs.size());
  std::vector<double> host_ms;
  std::vector<std::vector<WorkloadReport>> first(rates.size());
  size_t ok_first = 0, attempted_first = 0, executed = 0;
  const auto t0 = Clock::now();
  for (size_t k = 0; k < runs.size() || SecondsSince(t0) < seconds(); ++k) {
    const ServiceRun& run = runs[k % runs.size()];
    const auto t1 = Clock::now();
    WorkloadReport r = ExecuteWorkload(*run.spec, tracer());
    const double wall = SecondsSince(t1);
    walls[k % runs.size()].push_back(wall);
    // Per-query host time at the middle rate, like the latency figures:
    // runs at the top rate shed most queries and cost far less.
    if (run.rate == mid) host_ms.push_back(1e3 * wall / static_cast<double>(n));
    ++executed;
    const size_t before = attempted_;
    const size_t ok = CheckWorkload(*run.spec, r);
    InterleaveSetup();
    if (k >= runs.size()) continue;
    ok_first += ok;
    attempted_first += attempted_ - before;
    first[run.rate].push_back(std::move(r));
  }
  double sweep_s = 0;
  for (const auto& w : walls) sweep_s += Median(w);

  // Per rate: the share of queries that completed OK within the latency
  // limit (failed, shed and killed queries miss it), and whether the
  // backlog grew (in some trial the last quarter of arrivals waited far
  // longer than the first).
  const double target = 1.0 - 10.0 / static_cast<double>(n);
  std::vector<double> attain(rates.size());
  for (size_t i = 0; i < rates.size(); ++i) {
    size_t met = 0, total = 0;
    bool growing = false;
    for (const WorkloadReport& r : first[i]) {
      std::vector<const nipo::WorkloadQueryReport*> by_arrival;
      for (const auto& q : r.queries) {
        by_arrival.push_back(&q);
        met += q.outcome == nipo::QueryOutcome::kOk &&
               q.sim_latency_msec <= limit;
      }
      total += r.queries.size();
      std::sort(by_arrival.begin(), by_arrival.end(), [](auto* a, auto* b) {
        return a->sim_arrival_msec < b->sim_arrival_msec;
      });
      const size_t quarter = by_arrival.size() / 4;
      double early = 0, late = 0;
      for (size_t k = 0; k < quarter; ++k) {
        early += by_arrival[k]->sim_queue_wait_msec;
        late += by_arrival[by_arrival.size() - 1 - k]->sim_queue_wait_msec;
      }
      growing = growing ||
                late > 2 * early + static_cast<double>(quarter) * limit / 2;
    }
    attain[i] = static_cast<double>(met) / static_cast<double>(total);
    if (growing) attain[i] = std::min(attain[i], target - 1e-9);
    Info("attain_rate" + std::to_string(i), attain[i]);
    Info("backlog_growing_rate" + std::to_string(i), growing ? 1 : 0);
  }
  // Highest rate meeting the target, interpolated toward the first rate
  // that misses it so the figure moves continuously with the engine.
  double max_rate = rates[0] * attain[0] / target;
  for (size_t i = 0; i < rates.size(); ++i) {
    if (attain[i] < target) break;
    max_rate = rates[i];
    if (i + 1 < rates.size() && attain[i + 1] < target) {
      max_rate += (rates[i + 1] - rates[i]) * (attain[i] - target) /
                  (attain[i] - attain[i + 1]);
    }
  }

  // Middle rate: p50 over the pooled trials; the tail is taken per trial
  // (each trial alone has ten samples beyond it) and its median reported.
  std::vector<double> latency, trial_tails;
  double serial_ms = 0, makespan_ms = 0, goodput = 0;
  size_t tail_samples = 0;
  double tail_percentile = 0;
  for (const WorkloadReport& r : first[mid]) {
    std::vector<double> trial;
    for (const auto& q : r.queries) {
      if (q.outcome == nipo::QueryOutcome::kOk) trial.push_back(q.sim_latency_msec);
    }
    latency.insert(latency.end(), trial.begin(), trial.end());
    const Tail tail = TailOf(trial);
    trial_tails.push_back(tail.value);
    tail_samples = tail.samples;
    tail_percentile = tail.percentile;
    serial_ms += r.sim_serial_msec / static_cast<double>(trials);
    makespan_ms += r.sim_makespan_msec / static_cast<double>(trials);
  }
  for (const WorkloadReport& r : first.back()) {
    goodput += r.sim_goodput_qps / static_cast<double>(trials);
  }
  const Tail host_tail = TailOf(host_ms);
  End("host_queries_per_s",
      static_cast<double>(n * runs.size()) / sweep_s, "1/s");
  End("host_query_ms_p50", Median(host_ms), "ms");
  End("host_query_ms_tail", host_tail.value, "ms");
  End("sim_query_ms_total", serial_ms, "ms");
  End("sim_makespan_ms", makespan_ms, "ms");
  End("sim_latency_ms_p50", Median(latency), "ms");
  End("sim_latency_ms_tail", Median(trial_tails), "ms");
  End("sim_max_rate_qps", max_rate, "1/s");
  End("sim_goodput_qps", goodput, "1/s");
  End("ok_frac",
      static_cast<double>(ok_first) / static_cast<double>(attempted_first),
      "frac");
  Info("executed_runs", static_cast<double>(executed));
  Info("host_tail_percentile", host_tail.percentile);
  Info("host_tail_samples", static_cast<double>(host_tail.samples));
  Info("sim_tail_percentile", tail_percentile);
  Info("sim_tail_samples_per_trial", static_cast<double>(tail_samples));
  Info("attain_target", target);
  for (auto& reports : first) sched_reports_.push_back(std::move(reports[0]));

  if (!trace_) return;
  const auto t2 = Clock::now();
  ExecuteWorkload(specs[mid][0], nullptr);
  const double untraced = SecondsSince(t2);
  const auto t3 = Clock::now();
  ExecuteWorkload(specs[mid][0], tracer());
  Layer("trace.overhead_frac", SecondsSince(t3) / untraced - 1, "frac");
}

// ---------------------------------------------------------------------------
// Per-layer ledger (traced run only)
// ---------------------------------------------------------------------------

/// Repeats `body` (which returns the work units it did) until at least
/// `min_s` seconds have passed; returns units per second.
template <typename Fn>
double Throughput(double min_s, Fn&& body) {
  double units = 0;
  const auto t0 = Clock::now();
  do {
    units += body();
  } while (SecondsSince(t0) < min_s);
  return units / SecondsSince(t0);
}

/// Column values as int64, decoded through the storage view API whether
/// the column is plain or encoded.
std::vector<int64_t> ColumnValues(const nipo::Table& table,
                                  const std::string& name) {
  const nipo::ColumnView view =
      nipo::ColumnView::Bind(table.GetColumn(name).ValueOrDie()).ValueOrDie();
  std::vector<int64_t> out(view.size());
  for (size_t row = 0; row < out.size(); ++row) out[row] = view.ValueAsInt64(row);
  return out;
}

void Bench::RunLedger() {
  Tracer* t = tracer();
  const double kMinS = 0.2;
  constexpr size_t kBlock = 1024;
  const nipo::Table& lineitem = *engine_->GetTable("lineitem").ValueOrDie();
  const nipo::Table& part = *engine_->GetTable("part").ValueOrDie();
  const size_t rows = lineitem.num_rows();

  // Pool and service runs report no per-query host time; their stream is
  // replayed solo so both kinds of workload fill the same ledger.
  PassLedger pass = pass_;
  if (!closed_scan()) pass = RunPass(1, t, nullptr);

  // --- tpch / storage ---
  Layer("tpch.gen_s", Median(gen_s_), "s");
  Layer("storage.encode_s", Median(encode_s_), "s");
  Layer("storage.bytes_ratio",
        encoding_.plain_bytes == 0
            ? 1.0
            : static_cast<double>(encoding_.encoded_bytes) /
                  static_cast<double>(encoding_.plain_bytes),
        "x");
  std::vector<const nipo::EncodedColumn*> encoded;
  for (size_t c = 0; c < lineitem.num_columns(); ++c) {
    if (auto* e = dynamic_cast<const nipo::EncodedColumn*>(lineitem.column(c))) {
      encoded.push_back(e);
    }
  }
  double decode_rate = 0;
  if (!encoded.empty()) {
    std::vector<uint8_t> buf(65'536 * 8);
    ScopedSpan span(t, "storage", "EncodedColumn::DecodeRange");
    decode_rate = Throughput(kMinS, [&] {
      for (const nipo::EncodedColumn* e : encoded) {
        for (size_t row = 0; row < e->size(); row += 65'536) {
          e->DecodeRange(row, std::min<size_t>(65'536, e->size() - row),
                         buf.data());
        }
      }
      return static_cast<double>(encoded.size() * rows);
    });
  }
  Layer("storage.decode_values_per_s", decode_rate, "1/s");
  Layer("storage.zone_skipped_frac",
        static_cast<double>(pass.zone_skipped) /
            static_cast<double>(pass.input_tuples),
        "frac");

  // --- simd ---
  std::vector<int32_t> ship;
  for (int64_t v : ColumnValues(lineitem, "l_shipdate")) {
    ship.push_back(static_cast<int32_t>(v));
  }
  std::vector<int32_t> sorted_ship = ship;
  std::nth_element(sorted_ship.begin(),
                   sorted_ship.begin() + static_cast<long>(rows / 2),
                   sorted_ship.end());
  const double ship_median = sorted_ship[rows / 2];
  std::vector<uint8_t> pass_flags(rows);
  std::vector<uint32_t> sel(kBlock);
  {
    ScopedSpan span(t, "simd", "simd::CompareSelect");
    const auto* data = reinterpret_cast<const uint8_t*>(ship.data());
    Layer("simd.select_tuples_per_s", Throughput(kMinS, [&] {
            for (size_t row = 0; row < rows; row += kBlock) {
              nipo::simd::CompareSelect(
                  nipo::DataType::kInt32, data, row, nipo::CompareOp::kLe,
                  ship_median, nullptr, nullptr, std::min(kBlock, rows - row),
                  pass_flags.data() + row, sel.data());
            }
            return static_cast<double>(rows);
          }),
          "1/s");
  }
  const std::vector<int64_t> orderkey = ColumnValues(lineitem, "l_orderkey");
  {
    std::vector<uint64_t> hashes(kBlock);
    ScopedSpan span(t, "simd", "simd::HashKeys");
    Layer("simd.hash_keys_per_s", Throughput(kMinS, [&] {
            for (size_t row = 0; row < rows; row += kBlock) {
              nipo::simd::HashKeys(orderkey.data() + row,
                                   std::min(kBlock, rows - row), hashes.data());
            }
            return static_cast<double>(rows);
          }),
          "1/s");
  }

  // --- pipeline ---
  const StreamQuery* q6 = nullptr;
  std::vector<double> compile_ms;
  for (const StreamQuery& q : stream_.queries) {
    if (q.shape == Shape::kQ1) continue;
    if (q6 == nullptr && q.shape == Shape::kQ6Full) q6 = &q;
    nipo::Pmu pmu = engine_->NewMachine();
    const auto t0 = Clock::now();
    ScopedSpan span(t, "pipeline", "PipelineExecutor::Compile");
    auto exec = nipo::PipelineExecutor::Compile(lineitem, q.spec.ops,
                                                q.spec.payload_columns, &pmu);
    compile_ms.push_back(1e3 * SecondsSince(t0));
    if (!exec.ok()) ++failed_;
  }
  Layer("pipeline.compile_ms", Median(compile_ms), "ms");
  {
    // Rows per second of ExecuteAll alone on a fresh machine (compile
    // excluded).
    ScopedSpan span(t, "pipeline", "PipelineExecutor::ExecuteAll");
    size_t reps = 0;
    double tuples_busy = 0;
    do {
      nipo::Pmu pmu = engine_->NewMachine();
      auto exec = nipo::PipelineExecutor::Compile(
          lineitem, q6->spec.ops, q6->spec.payload_columns, &pmu);
      const auto t0 = Clock::now();
      exec.ValueOrDie()->ExecuteAll();
      tuples_busy += SecondsSince(t0);
      ++reps;
    } while (tuples_busy < kMinS && reps < 100);
    Layer("pipeline.tuples_per_s",
          static_cast<double>(reps * rows) / tuples_busy, "1/s");
  }

  // --- hw ---
  {
    const nipo::Pmu proto = engine_->NewMachine();
    std::vector<double> clone_ms;
    ScopedSpan span(t, "hw", "Pmu::CloneFresh");
    for (int i = 0; i < 21; ++i) {
      const auto t0 = Clock::now();
      nipo::Pmu fresh = proto.CloneFresh();
      clone_ms.push_back(1e3 * SecondsSince(t0));
    }
    Layer("hw.clone_fresh_ms", Median(clone_ms), "ms");
  }
  {
    nipo::Pmu pmu = engine_->NewMachine();
    ScopedSpan span(t, "hw", "Pmu::OnSequentialLoads");
    Layer("hw.seq_lines_per_s", Throughput(kMinS, [&] {
            for (size_t row = 0; row < rows; row += kBlock) {
              pmu.OnSequentialLoads(ship.data() + row, 4,
                                    std::min(kBlock, rows - row));
            }
            return static_cast<double>(rows) * 4 / 64;
          }),
          "1/s");
  }
  {
    const std::vector<int64_t> partkey = ColumnValues(lineitem, "l_partkey");
    const std::vector<uint32_t> idx(partkey.begin(), partkey.end());
    const void* base = part.GetColumn("p_size").ValueOrDie()->data();
    nipo::Pmu pmu = engine_->NewMachine();
    ScopedSpan span(t, "hw", "Pmu::OnGatherLoads");
    Layer("hw.gather_loads_per_s", Throughput(kMinS, [&] {
            for (size_t row = 0; row < rows; row += kBlock) {
              pmu.OnGatherLoads(base, 4, idx.data() + row,
                                std::min(kBlock, rows - row));
            }
            return static_cast<double>(rows);
          }),
          "1/s");
  }
  {
    size_t runs = 1;
    for (size_t row = 1; row < rows; ++row) {
      runs += pass_flags[row] != pass_flags[row - 1] || row % kBlock == 0;
    }
    nipo::Pmu pmu = engine_->NewMachine();
    pmu.EnsureBranchSites(1);
    ScopedSpan span(t, "hw", "Pmu::OnPredicateBranches");
    Layer("hw.branch_runs_per_s", Throughput(kMinS, [&] {
            for (size_t row = 0; row < rows; row += kBlock) {
              pmu.OnPredicateBranches(0, pass_flags.data() + row,
                                      std::min(kBlock, rows - row));
            }
            return static_cast<double>(runs);
          }),
          "1/s");
  }
  const double tuples = static_cast<double>(pass.input_tuples);
  Layer("hw.cycles_per_tuple", static_cast<double>(pass.counters.cycles) / tuples,
        "cycles");
  Layer("hw.l1d_miss_per_tuple",
        static_cast<double>(pass.counters.l1_misses) / tuples, "count");
  Layer("hw.l3_miss_per_tuple",
        static_cast<double>(pass.counters.l3_misses) / tuples, "count");
  Layer("hw.mispredict_per_tuple",
        static_cast<double>(pass.counters.mispredictions) / tuples, "count");

  // --- optimizer / cost ---
  {
    nipo::Pmu pmu = engine_->NewMachine();
    auto exec = nipo::PipelineExecutor::Compile(lineitem, q6->spec.ops,
                                                q6->spec.payload_columns, &pmu)
                    .ValueOrDie();
    nipo::ProgressiveConfig config;
    config.pricing = nipo::CostPricing::kSimdAware;
    // The first vector whose estimate succeeds: on encoded storage whole
    // vectors can be zone-skipped and leave nothing to learn from.
    nipo::VectorSample sample;
    std::vector<double> selectivities;
    for (size_t begin = 0; begin < rows && selectivities.empty();
         begin += config.vector_size) {
      const nipo::PmuCounters before = pmu.Read();
      sample.result =
          exec->ExecuteRange(begin, std::min(begin + config.vector_size, rows));
      sample.counters = pmu.Read() - before;
      auto est = nipo::EstimateOrderSelectivities(*exec, config, sample);
      if (est.ok()) selectivities = est.ValueOrDie().selectivities;
    }
    std::vector<double> est_us, rank_us, predict_us;
    for (int i = 0; i < 9 && !selectivities.empty(); ++i) {
      auto t0 = Clock::now();
      {
        ScopedSpan span(t, "optimizer", "EstimateOrderSelectivities");
        nipo::EstimateOrderSelectivities(*exec, config, sample);
      }
      est_us.push_back(1e6 * SecondsSince(t0));
      t0 = Clock::now();
      {
        ScopedSpan span(t, "optimizer", "RankOrderOperators");
        nipo::RankOrderOperators(*exec, config, sample, selectivities);
      }
      rank_us.push_back(1e6 * SecondsSince(t0));
    }
    nipo::ScanShape shape;
    shape.num_tuples = static_cast<double>(sample.result.input_tuples);
    shape.predicate_widths.assign(selectivities.size(), 4);
    shape.payload_widths = {8, 4};
    {
      ScopedSpan span(t, "cost", "PredictCounters");
      const auto t0 = Clock::now();
      double sink = 0;
      for (int i = 0; i < 1000; ++i) {
        sink += nipo::PredictCounters(shape, selectivities).l3_accesses;
      }
      predict_us.push_back(1e6 * SecondsSince(t0) / 1000);
      Info("cost_sink", sink);
    }
    Layer("optimizer.estimate_us", Median(est_us), "us");
    Layer("optimizer.rank_us", Median(rank_us), "us");
    Layer("cost.predict_us", Median(predict_us), "us");
  }
  Layer("optimizer.host_overhead_frac", pass.prog_host_ms / pass.base_host_ms - 1,
        "frac");
  Layer("optimizer.peo_changes", static_cast<double>(pass.peo_changes), "count");
  Layer("optimizer.revert_frac",
        pass.peo_changes == 0 ? 0.0
                              : static_cast<double>(pass.reverted) /
                                    static_cast<double>(pass.peo_changes),
        "frac");
  Layer("optimizer.forms_switched", static_cast<double>(pass.forms_switched),
        "count");
  Layer("optimizer.sim_speedup_vs_baseline", pass.base_sim_ms / pass.prog_sim_ms,
        "x");
  {
    // Regret against the best fixed order of every Q6 shape of the first
    // pattern, at SF <= 0.1 so the 120-order sweep stays cheap.
    std::unique_ptr<Engine> small;
    const Engine* regret_engine = engine_.get();
    if (p_.Num("sf") > 0.1 || p_.Num("encode") != 0) {
      nipo::TpchConfig cfg;
      cfg.scale_factor = std::min(0.1, p_.Num("sf"));
      small = std::make_unique<Engine>();
      auto db = nipo::GenerateTpch(cfg).ValueOrDie();
      for (auto* tbl : {&db.lineitem, &db.orders, &db.part}) {
        if (!small->RegisterTable(std::move(*tbl)).ok()) ++failed_;
      }
      regret_engine = small.get();
    }
    ScopedSpan span(t, "core", "AllOrders sweep");
    double prog_ms = 0, best_ms = 0;
    size_t seen = 0;
    for (const StreamQuery& q : stream_.queries) {
      if (q.progressive || (q.shape != Shape::kQ6Full && q.shape != Shape::kQ6Intro)) {
        continue;
      }
      if (++seen > 6) break;
      ExecOptions options;
      double best = 1e300;
      for (const auto& order : nipo::AllOrders(q.spec.ops.size())) {
        options.order = order;
        auto r = regret_engine->Execute(q.spec, options);
        if (r.ok()) best = std::min(best, r.ValueOrDie().simulated_msec);
      }
      options.order.reset();
      options.mode = ExecMode::kProgressive;
      options.progressive.pricing = nipo::CostPricing::kSimdAware;
      auto r = regret_engine->Execute(q.spec, options);
      if (!r.ok()) continue;
      prog_ms += r.ValueOrDie().simulated_msec;
      best_ms += best;
    }
    Layer("optimizer.sim_regret_vs_best_order", prog_ms / best_ms - 1, "frac");
  }

  // --- parallel ---
  if (driver_ == "sharded") {
    ScopedSpan span(t, "parallel", "ParallelDriver::Run");
    nipo::ParallelConfig config;
    config.num_threads = p_.Size("threads");
    nipo::ParallelDriver driver(
        engine_->NewMachine(),
        [&](nipo::Pmu* pmu) {
          return nipo::PipelineExecutor::Compile(lineitem, q6->spec.ops,
                                                 q6->spec.payload_columns, pmu);
        },
        config);
    if (!driver.Run().ok()) ++failed_;
  } else {
    Layer("parallel.host_speedup", 0, "x");
  }
  Layer("parallel.steals", static_cast<double>(pass.steals), "count");
  Layer("parallel.critical_over_mean",
        pass.worker_mean_sum == 0 ? 0 : pass.critical_sum / pass.worker_mean_sum,
        "x");

  // --- sched / admission / shared L3 / faults ---
  double overhead_ms = 0, pool_speedup = 0;
  std::vector<double> waits;
  double peak = 1, final_limit = 0, decreases = 0, displaced = 0;
  double retries = 0, shed = 0, deadline = 0, ok = 0, total = 0;
  if (!sched_reports_.empty()) {
    const WorkloadReport& m = sched_reports_[sched_reports_.size() / 2];
    for (const auto& q : m.queries) waits.push_back(q.sim_queue_wait_msec);
    peak = static_cast<double>(m.peak_in_flight);
    final_limit = static_cast<double>(m.admission_final_limit);
    decreases = static_cast<double>(m.admission_decreases);
    displaced = static_cast<double>(m.shared_l3_lines_displaced);
    for (const WorkloadReport& r : sched_reports_) {
      retries += static_cast<double>(r.total_retries);
      shed += static_cast<double>(r.queries_shed);
      deadline += static_cast<double>(r.queries_deadline_exceeded);
      ok += static_cast<double>(r.queries_ok);
      total += static_cast<double>(r.queries.size());
    }
    {
      std::vector<std::vector<double>> quanta;
      for (const auto& q : m.queries) quanta.push_back(q.quantum_msec);
      ScopedSpan span(t, "sched", "SimulateWorkloadSchedule");
      nipo::SimulateWorkloadSchedule(quanta, m.num_threads, m.max_concurrent);
    }
    {
      ScopedSpan span(t, "sched", "GenerateArrivalTimes");
      nipo::ArrivalSpec arrival;
      arrival.kind = nipo::ArrivalKind::kPoisson;
      arrival.rate_qps = 1000;
      nipo::GenerateArrivalTimes(arrival, m.queries.size());
    }
    WorkloadSpec spec = driver_ == "service"
                            ? ServiceSpec(sched_reports_.size() / 2, 0)
                            : PoolSpec();
    const auto t0 = Clock::now();
    ExecuteWorkload(spec, t);
    const double wide = SecondsSince(t0);
    spec.options.num_threads = 1;
    spec.options.max_concurrent = 1;
    const auto t1 = Clock::now();
    ExecuteWorkload(spec, t);
    const double narrow = SecondsSince(t1);
    pool_speedup = narrow / wide;
    // Scheduling cost per query: the one-worker pool against the same
    // queries run solo through Execute(QuerySpec).
    overhead_ms = 1e3 * (narrow - pass.host_s) /
                  static_cast<double>(spec.queries.size());
  } else {
    ok = total = 1;
  }
  const Tail wait_tail = TailOf(waits);
  Layer("sched.overhead_ms_per_query", overhead_ms, "ms");
  Layer("sched.pool_host_speedup", pool_speedup, "x");
  Layer("sched.queue_wait_ms_p50", Median(waits), "ms");
  Layer("sched.queue_wait_ms_tail", wait_tail.value, "ms");
  Layer("sched.peak_in_flight", peak, "count");
  Layer("admission.final_limit", final_limit, "count");
  Layer("admission.decreases", decreases, "count");
  Layer("shared_l3.lines_displaced", displaced, "count");
  Layer("faults.retries", retries, "count");
  Layer("faults.shed", shed, "count");
  Layer("faults.deadline_exceeded", deadline, "count");
  Layer("faults.ok_frac", ok / total, "frac");

  // --- hash ---
  {
    nipo::Table* mutable_lineitem =
        engine_->GetMutableTable("lineitem").ValueOrDie();
    if (!nipo::AddQ1GroupColumn(mutable_lineitem).ok()) ++failed_;
    const nipo::HashAggregateSpec spec = nipo::MakeQ1Spec(*mutable_lineitem);
    ScopedSpan span(t, "hash", "ExecuteHashAggregate");
    Layer("hash.agg_rows_per_s", Throughput(kMinS, [&] {
            nipo::Pmu pmu = engine_->NewMachine();
            if (!nipo::ExecuteHashAggregate(spec, &pmu).ok()) ++failed_;
            return static_cast<double>(rows);
          }),
          "1/s");
  }

  // --- layer self times ---
  const std::map<std::string, double> self = tracer_.SelfSeconds();
  for (const char* layer : {"tpch", "storage", "simd", "pipeline", "hash",
                            "parallel", "sched", "hw", "optimizer", "cost",
                            "core", "bench"}) {
    const auto it = self.find(layer);
    Layer(std::string("self_s.") + layer, it == self.end() ? 0 : it->second,
          "s");
  }
  Layer("trace.spans", static_cast<double>(tracer_.size()), "count");
}

// ---------------------------------------------------------------------------
// Entry
// ---------------------------------------------------------------------------

int Bench::Run() {
  Setup();
  if (closed_scan()) {
    RunClosedScan();
  } else if (driver_ == "pool") {
    RunPool();
  } else if (driver_ == "service") {
    RunService();
  } else {
    std::cerr << "unknown driver " << driver_ << "\n";
    return 2;
  }
  End("setup_s", Median(setup_s_), "s");
  End("peak_rss_mb", PeakRssMb(), "MB");
  Info("setup_reps", static_cast<double>(setup_s_.size()));
  Info("stream_queries", static_cast<double>(stream_.queries.size()));
  if (trace_) {
    RunLedger();
    if (!tracer_.WriteJson(p_.Str("trace_out"))) {
      std::cerr << "cannot write " << p_.Str("trace_out") << "\n";
      return 1;
    }
  }
  PrintResult();
  return 0;
}

void Bench::PrintResult() const {
  std::ostringstream out;
  out << "{\"correct\": "
      << (oracle_agrees_ && failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  const std::vector<Metric>& metrics = trace_ ? layer_ : e2e_;
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << JsonString(metrics[i].name)
        << ": {\"value\": " << JsonNumber(metrics[i].value)
        << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  out << "}, \"info\": {";
  size_t i = 0;
  for (const auto& [key, value] : info_) {
    out << (i++ ? ", " : "") << JsonString(key) << ": " << JsonNumber(value);
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Params params;
  if (!params.Parse(argc, argv)) {
    std::cerr << "usage: nipo_perfbench --key value ...\n";
    return 2;
  }
  return perfbench::Bench(params).Run();
}
