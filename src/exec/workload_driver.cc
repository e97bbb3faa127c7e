#include "exec/workload_driver.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <numeric>
#include <queue>
#include <thread>

#include "common/logging.h"
#include "hw/shared_cache.h"

/// \file workload_driver.cc
/// Multi-query workload scheduling (DESIGN.md "Workload execution",
/// Section 6 "Shared-cache contention", Section 7 "Open-loop service
/// mode"): policy-driven admission control over a slot table, a
/// vector-granular round-robin ready queue, per-query private machines
/// and optimizers stepping the exact single-query driver sequence, and
/// one event-driven schedule core that serves every schedule-shaped
/// role — the deterministic simulated-schedule replay, the policy-aware
/// variant of it, open-loop arrival release, the adaptive admission
/// limit, and the contention-mode executor that runs quanta *inside*
/// the event loop against a shared L3 domain.

namespace nipo {

std::string_view SchedulePolicyToString(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kFifo:
      return "fifo";
    case SchedulePolicy::kSrwf:
      return "srwf";
    case SchedulePolicy::kPriority:
      return "priority";
    case SchedulePolicy::kFootprintAware:
      return "footprint";
  }
  return "unknown";
}

namespace {

/// Mutable execution state of one admitted query. A QueryRun is touched
/// by exactly one worker at a time: ownership passes through the
/// scheduler's ready queue (mutex-protected), which is also what makes
/// the hand-off race-free. (In contention mode everything runs on one
/// host thread and the question does not arise.)
struct QueryRun {
  const WorkloadTask* task = nullptr;
  size_t slot = 0;  ///< admission slot (machine owner in warm mode)

  /// The query's machine: taken from the run's MachinePool in
  /// deterministic mode (and returned to it, reset, once the query is
  /// done), the admission slot's long-lived machine in warm mode. Null
  /// once the query no longer runs.
  std::unique_ptr<Pmu> owned_pmu;
  Pmu* pmu = nullptr;
  std::unique_ptr<PipelineExecutor> exec;
  std::unique_ptr<ProgressiveOptimizer> optimizer;

  /// Full-run counter window, opened at admission (the solo drivers read
  /// their machine once at Run() entry; admission is that point here).
  PmuCounters run_begin;
  size_t next_row = 0;
  size_t vector_index = 0;
  DriveResult drive;

  /// Per-quantum simulated durations, input of the schedule replay.
  std::vector<double> quantum_msec;
  /// Per-quantum shared-L3 evictions suffered (parallel to quantum_msec;
  /// zero when contention=off) — with quantum_msec and
  /// quantum_occupancy, the QuantumTrace replay input of adaptive runs.
  std::vector<uint64_t> quantum_evictions;
  /// Per-quantum live shared-L3 occupancy after the quantum (lines owned
  /// by in-flight queries; zero when contention=off).
  std::vector<uint64_t> quantum_occupancy;
  /// touched_workers[w] != 0 iff host worker w ran a quantum of this
  /// query (sized num_threads at admission).
  std::vector<uint8_t> touched_workers;
  size_t quanta = 0;
  /// Contention mode: occupancy gauges sampled at the last quantum.
  uint64_t peak_occupancy_lines = 0;
  uint64_t final_occupancy_lines = 0;

  /// Fault-mode state (DESIGN.md Section 9). Defaults describe the
  /// fault-free run: one attempt, no backoff, outcome kOk.
  QueryOutcome outcome = QueryOutcome::kOk;
  size_t attempts = 1;
  double backoff_msec = 0;
  Status error;
  /// Per-quantum fates, parallel to quantum_msec.
  std::vector<QuantumFate> quantum_fate;
};

/// Executes one vector of `run`, replaying VectorDriver::Run exactly:
/// baseline tasks execute the range bare; progressive tasks take the
/// charged counter-read pair around it and feed the sample to the query's
/// private optimizer, which may Reorder() for subsequent vectors.
void ExecuteOneVector(QueryRun* run) {
  const size_t rows = run->exec->num_rows();
  const size_t begin = run->next_row;
  const size_t end = std::min(begin + run->task->config.vector_size, rows);
  if (run->optimizer != nullptr) {
    run->pmu->ChargeCycles(kCounterReadCycles);
    CounterWindow window(run->pmu);
    const VectorResult r = run->exec->ExecuteRange(begin, end);
    run->drive.input_tuples += r.input_tuples;
    run->drive.qualifying_tuples += r.qualifying_tuples;
    run->drive.zone_skipped_tuples += r.zone_skipped;
    run->drive.aggregate += r.aggregate;
    run->pmu->ChargeCycles(kCounterReadCycles);
    VectorSample sample;
    sample.vector_index = run->vector_index;
    sample.result = r;
    sample.counters = window.Delta();
    run->optimizer->OnVector(sample);
  } else {
    const VectorResult r = run->exec->ExecuteRange(begin, end);
    run->drive.input_tuples += r.input_tuples;
    run->drive.qualifying_tuples += r.qualifying_tuples;
    run->drive.zone_skipped_tuples += r.zone_skipped;
    run->drive.aggregate += r.aggregate;
  }
  ++run->vector_index;
  run->next_row = end;
}

constexpr size_t kNoPick = static_cast<size_t>(-1);

double TaskWork(const SchedulePolicyConfig& cfg, size_t q) {
  return cfg.tasks.empty() ? 0.0 : cfg.tasks[q].work;
}

int TaskPriority(const SchedulePolicyConfig& cfg, size_t q) {
  return cfg.tasks.empty() ? 0 : cfg.tasks[q].priority;
}

/// A query's footprint claim against the L3 budget, capped at capacity:
/// a query streaming more than the whole L3 can at most occupy the whole
/// L3, and capping is what lets such a query ever be admitted at all.
uint64_t CappedFootprint(const SchedulePolicyConfig& cfg, size_t q) {
  if (cfg.tasks.empty()) return 0;
  return std::min(cfg.tasks[q].footprint_bytes, cfg.l3_capacity_bytes);
}

/// Picks the next query to admit: a position into `pending` (spec-order
/// subsequence of not-yet-admitted queries), or kNoPick to leave the
/// admission slot empty until the next completion. Pure function of the
/// pending/in-flight sets and the policy inputs — which is what makes
/// admission order identical between a live run and its replay.
size_t PickNextAdmission(
    const std::vector<size_t>& pending, const SchedulePolicyConfig& cfg,
    const std::vector<size_t>& in_flight,
    const std::function<uint64_t(size_t)>& live_footprint) {
  if (pending.empty()) return kNoPick;
  switch (cfg.policy) {
    case SchedulePolicy::kFifo:
      return 0;
    case SchedulePolicy::kSrwf: {
      size_t best = 0;
      for (size_t i = 1; i < pending.size(); ++i) {
        if (TaskWork(cfg, pending[i]) < TaskWork(cfg, pending[best])) {
          best = i;
        }
      }
      return best;
    }
    case SchedulePolicy::kPriority: {
      size_t best = 0;
      for (size_t i = 1; i < pending.size(); ++i) {
        if (TaskPriority(cfg, pending[i]) > TaskPriority(cfg, pending[best])) {
          best = i;
        }
      }
      return best;
    }
    case SchedulePolicy::kFootprintAware: {
      if (cfg.l3_capacity_bytes == 0) return 0;
      uint64_t used = 0;
      for (const size_t q : in_flight) {
        uint64_t f = CappedFootprint(cfg, q);
        if (live_footprint != nullptr) {
          // Live occupancy feedback: a query that grew past its estimate
          // claims what it actually holds.
          f = std::max(f,
                       std::min(live_footprint(q), cfg.l3_capacity_bytes));
        }
        used += f;
      }
      const uint64_t budget =
          cfg.l3_capacity_bytes > used ? cfg.l3_capacity_bytes - used : 0;
      for (size_t i = 0; i < pending.size(); ++i) {
        if (CappedFootprint(cfg, pending[i]) <= budget) return i;
      }
      // Nothing fits. Defer if someone is running (a completion will free
      // budget); admit the front regardless if the machine is idle, so
      // the workload always makes progress.
      return in_flight.empty() ? 0 : kNoPick;
    }
  }
  return 0;
}

/// What one dispatched quantum produced: its simulated duration, the
/// shared-L3 evictions suffered inside it and the live shared-L3
/// occupancy after it (adaptive-controller feedback; zero without
/// contention), and whether it completed the query.
struct QuantumOutcome {
  double duration_msec = 0;
  uint64_t evictions_suffered = 0;
  uint64_t occupancy_lines = 0;
  bool done = false;
  /// How the quantum ended; anything but kNormal ends the attempt (the
  /// loop decides whether a retry follows). `done` is only meaningful
  /// for kNormal fates.
  QuantumFate fate = QuantumFate::kNormal;
};

/// Optional side-effect hooks of the event loop (used by the contention
/// executor; the pure replay passes none).
struct EventLoopHooks {
  std::function<void(size_t)> on_admit;
  std::function<void(size_t)> on_complete;
  /// A transient fault is being retried: reset the query's execution
  /// state (machine reset to the fresh state, recompiled pipeline, fresh
  /// optimizer) so the next dispatch restarts the query from row zero.
  std::function<void(size_t)> on_retry;
  std::function<uint64_t(size_t)> live_footprint;
};

/// The event-driven schedule core shared by the replay and the
/// event-driven executor: admission picked by `cfg.policy` into at most
/// `max_concurrent` slots (lowered live by `controller` when adaptive),
/// a round-robin ready queue, dispatch of the front query to the
/// earliest-free of `num_threads` simulated workers. `run_quantum(q)` is
/// called at q's dispatch points *in dispatch order* — for a replay it
/// returns recorded durations; for contended execution it actually runs
/// the quantum, which is exactly what serializes the shared-L3
/// interleaving into event order.
///
/// Open-loop mode: `arrival_msec` (empty = closed queue; otherwise
/// non-decreasing, one instant per query) gates when each query joins
/// the pending set. The loop advances the clock to the next arrival when
/// idle, and at equal times releases arrivals *before* processing the
/// completion event — so the rate -> infinity limit (all arrivals at
/// t = 0) reproduces the closed queue exactly.
///
/// Adaptive mode: a non-null `controller` is fed every quantum
/// completion in event order (duration, evictions, occupancy) and its
/// limit() caps admissions from then on. Both the live run and the
/// trace replay feed it the same sequence, so the decisions — and hence
/// the schedule — are bit-identical.
///
/// Ties in completion time break by dispatch sequence, making the loop
/// fully deterministic.
///
/// Fault mode (non-null `faults`): run_quantum reports each quantum's
/// fate. kTransientFault attempts retry after a reconstructed capped-
/// exponential backoff (re-entering the ready queue at fail time +
/// backoff, keeping the admission slot) until the retry budget is spent;
/// kill fates and exhausted retries complete the query with the matching
/// outcome. With shedding on, admission picks whose predicted completion
/// misses their deadline are rejected (kShed) without ever dispatching —
/// the DeadlineShedder calibrates from completed-OK queries' scheduled
/// time, so live runs and trace replays shed identically.
SimSchedule RunEventSchedule(
    size_t n, size_t num_threads, size_t max_concurrent,
    const SchedulePolicyConfig& cfg, const std::vector<double>& arrival_msec,
    AdmissionController* controller, const ServiceFaultSpec* faults,
    const std::function<QuantumOutcome(size_t, double)>& run_quantum,
    const EventLoopHooks& hooks, size_t* peak_in_flight_out) {
  SimSchedule schedule;
  schedule.arrival_msec.assign(n, 0.0);
  schedule.start_msec.assign(n, 0.0);
  schedule.finish_msec.assign(n, 0.0);
  schedule.queue_wait_msec.assign(n, 0.0);
  schedule.latency_msec.assign(n, 0.0);
  schedule.outcome.assign(n, QueryOutcome::kOk);
  schedule.attempts.assign(n, 1);
  schedule.backoff_msec.assign(n, 0.0);
  if (n == 0) return schedule;
  NIPO_CHECK(num_threads > 0);
  NIPO_CHECK(max_concurrent > 0);
  if (!arrival_msec.empty()) {
    NIPO_CHECK(arrival_msec.size() == n);
    for (size_t i = 0; i + 1 < n; ++i) {
      NIPO_CHECK(arrival_msec[i] <= arrival_msec[i + 1]);
    }
    schedule.arrival_msec = arrival_msec;
  }

  struct Event {
    double time = 0;
    uint64_t seq = 0;
    size_t query = 0;
    bool done = false;
    QuantumFate fate = QuantumFate::kNormal;
    /// The completed quantum, for the controller's feedback.
    double duration_msec = 0;
    uint64_t evictions_suffered = 0;
    uint64_t occupancy_lines = 0;
    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> running;
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      free_workers;
  for (size_t w = 0; w < num_threads; ++w) free_workers.push(0.0);

  struct ReadyEntry {
    size_t query = 0;
    double since = 0;  ///< when the query (re-)entered the ready queue
  };
  std::deque<ReadyEntry> ready;
  std::vector<size_t> pending;
  pending.reserve(n);
  size_t next_arrival = 0;  ///< queries [next_arrival, n) not yet arrived
  std::vector<size_t> in_flight;
  std::vector<bool> started(n, false);
  size_t peak_in_flight = 0;
  uint64_t seq = 0;

  // Fault-mode state: retry budget, per-query scheduled service time
  // (the shedder's calibration basis — identical between a live run and
  // its replay, unlike machine time, which stalls inflate away from the
  // schedule), and the admission shedder.
  const size_t max_attempts =
      faults != nullptr ? std::max<size_t>(1, faults->retry.max_attempts) : 1;
  auto deadline_of = [&](size_t q) {
    return faults != nullptr && q < faults->deadline_msec.size()
               ? faults->deadline_msec[q]
               : 0.0;
  };
  std::vector<double> service_msec(n, 0.0);
  DeadlineShedder shedder;
  const bool shedding = faults != nullptr && faults->shed_deadline;

  // Arrival schedules are non-decreasing in query index, so releasing in
  // index order keeps `pending` in spec order — the same order the
  // closed queue starts from.
  auto release = [&](double now) {
    while (next_arrival < n && schedule.arrival_msec[next_arrival] <= now) {
      pending.push_back(next_arrival++);
    }
  };
  auto effective_limit = [&] {
    return controller != nullptr ? std::min(max_concurrent, controller->limit())
                                 : max_concurrent;
  };
  auto admit = [&](double now) {
    while (in_flight.size() < effective_limit()) {
      const size_t pos =
          PickNextAdmission(pending, cfg, in_flight, hooks.live_footprint);
      if (pos == kNoPick) break;
      const size_t query = pending[pos];
      // Deadline-aware shedding: a pick predicted to miss its deadline
      // is rejected here — early, before it claims a machine — instead
      // of being admitted only to die at a vector boundary later.
      if (shedding &&
          shedder.ShouldShed(now, schedule.arrival_msec[query],
                             deadline_of(query), TaskWork(cfg, query),
                             in_flight.size(), num_threads)) {
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pos));
        started[query] = true;
        schedule.start_msec[query] = now;
        schedule.finish_msec[query] = now;
        schedule.queue_wait_msec[query] =
            now - schedule.arrival_msec[query];
        schedule.latency_msec[query] = schedule.queue_wait_msec[query];
        schedule.makespan_msec = std::max(schedule.makespan_msec, now);
        schedule.outcome[query] = QueryOutcome::kShed;
        schedule.attempts[query] = 0;
        continue;
      }
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pos));
      if (hooks.on_admit != nullptr) hooks.on_admit(query);
      in_flight.push_back(query);
      peak_in_flight = std::max(peak_in_flight, in_flight.size());
      ready.push_back({query, now});
    }
  };
  auto dispatch = [&] {
    while (!ready.empty() && !free_workers.empty()) {
      const ReadyEntry entry = ready.front();
      ready.pop_front();
      const double worker_free = free_workers.top();
      free_workers.pop();
      const double start = std::max(entry.since, worker_free);
      if (!started[entry.query]) {
        started[entry.query] = true;
        schedule.start_msec[entry.query] = start;
      }
      const QuantumOutcome out = run_quantum(entry.query, start);
      running.push({start + out.duration_msec, seq++, entry.query, out.done,
                    out.fate, out.duration_msec, out.evictions_suffered,
                    out.occupancy_lines});
    }
  };

  release(0.0);
  admit(0.0);
  dispatch();
  while (!running.empty() || next_arrival < n) {
    if (running.empty() ||
        (next_arrival < n &&
         schedule.arrival_msec[next_arrival] <= running.top().time)) {
      // Next happening is an arrival (or the machine is idle waiting for
      // one): advance the clock to it and release/admit/dispatch there.
      const double now = schedule.arrival_msec[next_arrival];
      release(now);
      admit(now);
      dispatch();
      continue;
    }
    const Event event = running.top();
    running.pop();
    free_workers.push(event.time);
    service_msec[event.query] += event.duration_msec;
    // Resolve the quantum's fate: completion (with which outcome), a
    // retry after backoff, or a plain yield back to the ready queue.
    bool complete = false;
    QueryOutcome outcome = QueryOutcome::kOk;
    switch (event.fate) {
      case QuantumFate::kNormal:
        complete = event.done;
        break;
      case QuantumFate::kTransientFault:
        if (schedule.attempts[event.query] < max_attempts) {
          // Capped exponential backoff in simulated time: the query
          // keeps its admission slot but re-enters the ready queue only
          // at fail time + backoff, restarting from scratch.
          const double backoff = RetryBackoffMsec(
              faults->retry, schedule.attempts[event.query]);
          ++schedule.attempts[event.query];
          schedule.backoff_msec[event.query] += backoff;
          if (hooks.on_retry != nullptr) hooks.on_retry(event.query);
          ready.push_back({event.query, event.time + backoff});
        } else {
          complete = true;
          outcome = QueryOutcome::kFailed;
        }
        break;
      case QuantumFate::kHardFault:
        complete = true;
        outcome = QueryOutcome::kFailed;
        break;
      case QuantumFate::kDeadline:
        complete = true;
        outcome = QueryOutcome::kDeadlineExceeded;
        break;
      case QuantumFate::kCancel:
        complete = true;
        outcome = QueryOutcome::kCancelled;
        break;
    }
    if (complete) {
      schedule.finish_msec[event.query] = event.time;
      // The latency decomposition, exact by construction: queue wait
      // (arrival -> first dispatch) plus in-service span (which in turn
      // splits into backoff_msec of waiting and execution).
      schedule.queue_wait_msec[event.query] =
          schedule.start_msec[event.query] -
          schedule.arrival_msec[event.query];
      schedule.latency_msec[event.query] =
          schedule.queue_wait_msec[event.query] +
          (event.time - schedule.start_msec[event.query]);
      schedule.makespan_msec = std::max(schedule.makespan_msec, event.time);
      schedule.outcome[event.query] = outcome;
      in_flight.erase(
          std::find(in_flight.begin(), in_flight.end(), event.query));
      if (shedding && outcome == QueryOutcome::kOk) {
        shedder.OnQueryDone(service_msec[event.query],
                            TaskWork(cfg, event.query));
      }
      if (hooks.on_complete != nullptr) hooks.on_complete(event.query);
    } else if (event.fate == QuantumFate::kNormal) {
      ready.push_back({event.query, event.time});
    }
    if (controller != nullptr) {
      controller->OnQuantum(event.query, event.duration_msec,
                            event.evictions_suffered, event.occupancy_lines,
                            in_flight.size(), pending.size());
    }
    // Completions always free an admission slot — including kills and
    // failures, whose final quantum has done == false; with a
    // controller, a non-done quantum can also raise the limit, so
    // re-check admission after every event.
    if (complete || event.done || controller != nullptr) admit(event.time);
    dispatch();
  }
  if (peak_in_flight_out != nullptr) *peak_in_flight_out = peak_in_flight;
  return schedule;
}

/// Assembles the per-query reports and serial baseline out of finished
/// runs (shared by the threaded and contended paths); the caller fills
/// the schedule-derived fields afterwards.
WorkloadReport AssembleReport(const std::vector<WorkloadTask>& tasks,
                              std::vector<QueryRun>* runs,
                              const WorkloadOptions& options, double wall_msec,
                              size_t peak_in_flight) {
  const size_t n = tasks.size();
  WorkloadReport report;
  report.num_threads = options.num_threads;
  report.max_concurrent = options.max_concurrent;
  report.policy = options.policy;
  report.contention = options.contention;
  report.arrival_kind = options.arrival.kind;
  report.arrival_rate_qps = options.arrival.kind == ArrivalKind::kClosed
                                ? 0.0
                                : options.arrival.rate_qps;
  report.adaptive_admission = options.adaptive_admission;
  report.peak_in_flight = peak_in_flight;
  report.wall_msec = wall_msec;
  report.wall_queries_per_sec =
      wall_msec > 0 ? static_cast<double>(n) / (wall_msec / 1e3) : 0.0;
  report.queries.resize(n);
  for (size_t i = 0; i < n; ++i) {
    QueryRun& run = (*runs)[i];
    WorkloadQueryReport& q = report.queries[i];
    q.name = tasks[i].name.empty() ? "q" + std::to_string(i) : tasks[i].name;
    q.progressive = tasks[i].progressive;
    q.quanta = run.quanta;
    for (const uint8_t touched : run.touched_workers) {
      q.workers_touched += touched;
    }
    q.shared_l3_peak_occupancy_lines = run.peak_occupancy_lines;
    q.shared_l3_final_occupancy_lines = run.final_occupancy_lines;
    q.outcome = run.outcome;
    q.attempts = run.attempts;
    q.sim_backoff_msec = run.backoff_msec;
    q.error = run.error;
    q.quantum_fate = std::move(run.quantum_fate);
    if (run.exec == nullptr) {
      // Shed at admission: never dispatched, no machine, no execution
      // state — the row carries the outcome and nothing else.
      continue;
    }
    if (run.optimizer != nullptr) {
      ProgressiveReport prog = run.optimizer->Finish(std::move(run.drive));
      q.drive = std::move(prog.drive);
      q.changes = std::move(prog.changes);
      q.num_optimizations = prog.num_optimizations;
      q.last_estimate = std::move(prog.last_estimate);
      q.final_order = std::move(prog.final_order);
    } else {
      q.drive = std::move(run.drive);
      q.final_order = run.exec->current_order();
    }
    report.sim_serial_msec += q.drive.simulated_msec;
    q.quantum_msec = std::move(run.quantum_msec);
    q.quantum_evictions = std::move(run.quantum_evictions);
    q.quantum_occupancy = std::move(run.quantum_occupancy);
  }
  return report;
}

/// Copies the schedule into the report's per-query and headline fields,
/// including the latency/queue-wait tail summaries.
void ApplySchedule(const SimSchedule& schedule, WorkloadReport* report) {
  const size_t n = report->queries.size();
  LatencyDistribution latency;
  LatencyDistribution queue_wait;
  for (size_t i = 0; i < n; ++i) {
    WorkloadQueryReport& q = report->queries[i];
    q.sim_arrival_msec = schedule.arrival_msec[i];
    q.sim_start_msec = schedule.start_msec[i];
    q.sim_finish_msec = schedule.finish_msec[i];
    q.sim_queue_wait_msec = schedule.queue_wait_msec[i];
    q.sim_latency_msec = schedule.latency_msec[i];
    latency.Add(q.sim_latency_msec);
    queue_wait.Add(q.sim_queue_wait_msec);
  }
  report->sim_makespan_msec = schedule.makespan_msec;
  report->sim_queries_per_sec =
      schedule.makespan_msec > 0
          ? static_cast<double>(n) / (schedule.makespan_msec / 1e3)
          : 0.0;
  report->latency = latency.Summary();
  report->queue_wait = queue_wait.Summary();
  // Outcome census and the goodput headline (completed-OK queries per
  // simulated second). Fault-free runs count everything as kOk, making
  // goodput == sim_queries_per_sec.
  for (const WorkloadQueryReport& q : report->queries) {
    switch (q.outcome) {
      case QueryOutcome::kOk:
        ++report->queries_ok;
        break;
      case QueryOutcome::kDeadlineExceeded:
        ++report->queries_deadline_exceeded;
        break;
      case QueryOutcome::kCancelled:
        ++report->queries_cancelled;
        break;
      case QueryOutcome::kFailed:
        ++report->queries_failed;
        break;
      case QueryOutcome::kShed:
        ++report->queries_shed;
        break;
    }
    if (q.attempts > 1) report->total_retries += q.attempts - 1;
    report->total_backoff_msec += q.sim_backoff_msec;
  }
  report->sim_goodput_qps =
      report->sim_makespan_msec > 0
          ? static_cast<double>(report->queries_ok) /
                (report->sim_makespan_msec / 1e3)
          : 0.0;
}

/// True iff the run needs the fault-tolerant event-driven path: any
/// enabled fault plan, retry budget, shedding, or per-task deadline /
/// cancellation point. False keeps fault-free runs on their existing
/// paths, byte-for-byte.
bool FaultModeRequested(const WorkloadOptions& options,
                        const std::vector<WorkloadTask>& tasks) {
  if (options.faults.enabled() || options.retry.max_attempts > 1 ||
      options.shed_deadline) {
    return true;
  }
  for (const WorkloadTask& task : tasks) {
    if (task.sim_deadline_msec > 0 || task.sim_cancel_msec > 0) return true;
  }
  return false;
}

}  // namespace

SimSchedule SimulateWorkloadSchedule(
    const std::vector<std::vector<double>>& quantum_msec, size_t num_threads,
    size_t max_concurrent) {
  return SimulateWorkloadSchedule(quantum_msec, num_threads, max_concurrent,
                                  SchedulePolicyConfig{});
}

SimSchedule SimulateWorkloadSchedule(
    const std::vector<std::vector<double>>& quantum_msec, size_t num_threads,
    size_t max_concurrent, const SchedulePolicyConfig& config) {
  const size_t n = quantum_msec.size();
  if (n == 0) return SimSchedule{};
  NIPO_CHECK(config.tasks.empty() || config.tasks.size() == n);
  std::vector<size_t> next_quantum(n, 0);
  auto run_quantum = [&](size_t q, double /*start_msec*/) {
    QuantumOutcome out;
    out.duration_msec = next_quantum[q] < quantum_msec[q].size()
                            ? quantum_msec[q][next_quantum[q]]
                            : 0.0;
    ++next_quantum[q];
    out.done = next_quantum[q] >= quantum_msec[q].size();
    return out;
  };
  return RunEventSchedule(n, num_threads, max_concurrent, config,
                          /*arrival_msec=*/{}, /*controller=*/nullptr,
                          /*faults=*/nullptr, run_quantum, EventLoopHooks{},
                          nullptr);
}

SimSchedule SimulateWorkloadSchedule(
    const std::vector<std::vector<QuantumTrace>>& quanta,
    const std::vector<double>& arrival_msec, size_t num_threads,
    size_t max_concurrent, const SchedulePolicyConfig& config,
    const AdaptiveAdmissionSpec* adaptive, const ServiceFaultSpec* faults) {
  const size_t n = quanta.size();
  if (n == 0) return SimSchedule{};
  NIPO_CHECK(config.tasks.empty() || config.tasks.size() == n);
  std::unique_ptr<AdmissionController> controller;
  if (adaptive != nullptr) {
    controller = std::make_unique<AdmissionController>(
        n, max_concurrent, adaptive->l3_capacity_lines, adaptive->config);
  }
  std::vector<size_t> next_quantum(n, 0);
  auto run_quantum = [&](size_t q, double /*start_msec*/) {
    QuantumOutcome out;
    if (next_quantum[q] < quanta[q].size()) {
      out.duration_msec = quanta[q][next_quantum[q]].duration_msec;
      out.evictions_suffered = quanta[q][next_quantum[q]].evictions_suffered;
      out.occupancy_lines = quanta[q][next_quantum[q]].occupancy_lines;
      // The recorded fate replays where the attempt ended; the event loop
      // reconstructs the backoff from the RetryPolicy alone.
      out.fate = quanta[q][next_quantum[q]].fate;
    }
    ++next_quantum[q];
    out.done = next_quantum[q] >= quanta[q].size();
    return out;
  };
  return RunEventSchedule(n, num_threads, max_concurrent, config, arrival_msec,
                          controller.get(), faults, run_quantum,
                          EventLoopHooks{}, nullptr);
}

/// The per-run free list of query machines. Take() hands out a machine in
/// exactly the Pmu(recipe) state: a recycled one when the list has one,
/// otherwise a newly built one. Put() takes back a machine its releaser
/// has already reset with Pmu::ResetMachine, which the releasing worker
/// does outside any lock. A run therefore builds only as many machines as
/// it holds at once, at most max_concurrent. Not synchronized: the
/// threaded pool calls it under its scheduler mutex.
class WorkloadDriver::MachinePool {
 public:
  explicit MachinePool(const MachineRecipe& recipe) : recipe_(recipe) {}

  std::unique_ptr<Pmu> Take() {
    if (free_.empty()) {
      ++built_;
      return std::make_unique<Pmu>(recipe_);
    }
    std::unique_ptr<Pmu> pmu = std::move(free_.back());
    free_.pop_back();
    return pmu;
  }

  void Put(std::unique_ptr<Pmu> pmu) { free_.push_back(std::move(pmu)); }

  /// Machines constructed so far (the report's machines_built).
  size_t built() const { return built_; }

 private:
  MachineRecipe recipe_;
  std::vector<std::unique_ptr<Pmu>> free_;
  size_t built_ = 0;
};

WorkloadDriver::WorkloadDriver(MachineRecipe recipe, ExecutorFactory factory,
                               WorkloadOptions options)
    : recipe_(recipe),
      factory_(std::move(factory)),
      options_(options) {
  NIPO_CHECK(factory_ != nullptr);
}

SchedulePolicyConfig WorkloadDriver::PolicyConfig(
    const std::vector<WorkloadTask>& tasks) const {
  SchedulePolicyConfig cfg;
  cfg.policy = options_.policy;
  cfg.l3_capacity_bytes = recipe_.hw.l3.capacity_bytes;
  cfg.tasks.reserve(tasks.size());
  for (const WorkloadTask& task : tasks) {
    cfg.tasks.push_back(
        {task.priority, task.estimated_work, task.footprint_bytes});
  }
  return cfg;
}

Result<WorkloadReport> WorkloadDriver::Run(
    const std::vector<WorkloadTask>& tasks) {
  if (tasks.empty()) {
    return Status::InvalidArgument("workload has no queries");
  }
  if (options_.num_threads == 0) {
    return Status::InvalidArgument("num_threads must be positive");
  }
  if (options_.max_concurrent == 0) {
    return Status::InvalidArgument("max_concurrent must be positive");
  }
  if (options_.burst_vectors == 0) {
    return Status::InvalidArgument("burst_vectors must be positive");
  }
  for (const WorkloadTask& task : tasks) {
    if (task.config.vector_size == 0) {
      return Status::InvalidArgument("vector_size must be positive");
    }
    if (task.config.reopt_interval == 0) {
      return Status::InvalidArgument("reopt_interval must be positive");
    }
  }
  if (options_.arrival.kind != ArrivalKind::kClosed) {
    if (!(options_.arrival.rate_qps > 0)) {
      return Status::InvalidArgument("arrival rate_qps must be positive");
    }
    if (options_.arrival.kind == ArrivalKind::kBursty) {
      if (options_.arrival.burst_len == 0) {
        return Status::InvalidArgument("burst_len must be positive");
      }
      const double burst_rate = options_.arrival.burst_rate_qps > 0
                                    ? options_.arrival.burst_rate_qps
                                    : 4.0 * options_.arrival.rate_qps;
      if (!(burst_rate > options_.arrival.rate_qps)) {
        return Status::InvalidArgument(
            "burst_rate_qps must exceed rate_qps");
      }
    }
  }
  if (options_.adaptive_admission) {
    if (options_.admission.min_limit == 0) {
      return Status::InvalidArgument("admission min_limit must be positive");
    }
    if (options_.admission.epoch_quanta == 0) {
      return Status::InvalidArgument("admission epoch_quanta must be positive");
    }
  }
  if (options_.faults.transient_fault_rate < 0 ||
      options_.faults.transient_fault_rate > 1) {
    return Status::InvalidArgument("transient_fault_rate must be in [0, 1]");
  }
  if (options_.faults.stall_rate < 0 || options_.faults.stall_rate > 1) {
    return Status::InvalidArgument("stall_rate must be in [0, 1]");
  }
  if (options_.faults.stall_rate > 0 && !(options_.faults.stall_factor >= 1)) {
    return Status::InvalidArgument("stall_factor must be >= 1");
  }
  if (options_.retry.max_attempts == 0) {
    return Status::InvalidArgument("retry max_attempts must be positive");
  }
  if (options_.retry.max_attempts > 1) {
    if (options_.retry.backoff_base_msec < 0) {
      return Status::InvalidArgument("backoff_base_msec must be >= 0");
    }
    if (options_.retry.backoff_cap_msec < options_.retry.backoff_base_msec) {
      return Status::InvalidArgument(
          "backoff_cap_msec must be >= backoff_base_msec");
    }
  }
  for (const WorkloadTask& task : tasks) {
    if (task.sim_deadline_msec < 0) {
      return Status::InvalidArgument("sim_deadline_msec must be >= 0");
    }
    if (task.sim_cancel_msec < 0) {
      return Status::InvalidArgument("sim_cancel_msec must be >= 0");
    }
  }

  const size_t n = tasks.size();
  MachinePool machines(recipe_);
  // Validation pass: compile every task against a scratch machine and
  // apply its initial order, so unknown tables / bad orders surface
  // before any thread starts. Admission-time compiles repeat the same
  // inputs and therefore cannot fail. The scratch machine is the pool's
  // first, reset and recycled for the first admission.
  {
    std::unique_ptr<Pmu> scratch = machines.Take();
    for (size_t i = 0; i < n; ++i) {
      NIPO_ASSIGN_OR_RETURN(std::unique_ptr<PipelineExecutor> exec,
                            factory_(i, scratch.get()));
      if (tasks[i].initial_order.has_value()) {
        NIPO_RETURN_NOT_OK(exec->Reorder(*tasks[i].initial_order));
      }
    }
    scratch->ResetMachine();
    machines.Put(std::move(scratch));
  }

  // Anything that shapes execution or feedback through the schedule —
  // shared-L3 contention, open-loop arrivals, the adaptive limit, fault
  // injection / deadlines / retry — runs inside the deterministic event
  // loop. The plain closed queue keeps the PR-4 threaded pool below,
  // byte-for-byte.
  if (options_.contention || options_.adaptive_admission ||
      options_.arrival.kind != ArrivalKind::kClosed ||
      FaultModeRequested(options_, tasks)) {
    return RunEventDriven(tasks, &machines);
  }

  const size_t num_slots = options_.max_concurrent;
  std::vector<QueryRun> runs(n);
  // Warm mode: one long-lived machine per admission slot, created fresh
  // on first use and carrying cache/predictor state to later queries.
  std::vector<std::unique_ptr<Pmu>> slot_machines(num_slots);
  const SchedulePolicyConfig policy_cfg = PolicyConfig(tasks);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<QueryRun*> ready;
  std::vector<size_t> free_slots;
  for (size_t s = 0; s < num_slots; ++s) free_slots.push_back(s);
  std::vector<size_t> pending(n);
  std::iota(pending.begin(), pending.end(), size_t{0});
  std::vector<size_t> in_flight_set;
  size_t finished = 0;
  size_t peak_in_flight = 0;

  // Admission (lock held): pick the next query per policy, bind it to a
  // machine, compile its executor, open its full-run counter window, and
  // enqueue it. Policy picks use static estimates only (there is no
  // shared cache here), so the admission sequence is a pure function of
  // the policy inputs — identical to the replay's, whatever the host
  // timing of completions.
  auto admit_locked = [&] {
    while (!free_slots.empty()) {
      const size_t pos =
          PickNextAdmission(pending, policy_cfg, in_flight_set, nullptr);
      if (pos == kNoPick) break;
      const size_t index = pending[pos];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pos));
      QueryRun& run = runs[index];
      run.task = &tasks[index];
      run.slot = free_slots.back();
      free_slots.pop_back();
      if (options_.deterministic) {
        run.owned_pmu = machines.Take();
        run.pmu = run.owned_pmu.get();
      } else {
        std::unique_ptr<Pmu>& slot = slot_machines[run.slot];
        if (slot == nullptr) {
          slot = machines.Take();
        } else {
          slot->ResetCounters();  // keep warm caches and predictor state
        }
        run.pmu = slot.get();
      }
      auto exec = factory_(index, run.pmu);
      NIPO_CHECK(exec.ok());  // the validation pass proved this compiles
      run.exec = std::move(exec.ValueOrDie());
      if (run.task->initial_order.has_value()) {
        NIPO_CHECK(run.exec->Reorder(*run.task->initial_order).ok());
      }
      if (run.task->progressive) {
        run.optimizer = std::make_unique<ProgressiveOptimizer>(
            run.exec.get(), run.task->config);
        run.optimizer->Begin();
      }
      run.run_begin = run.pmu->Read();
      run.touched_workers.assign(options_.num_threads, 0);
      ready.push_back(&run);
      in_flight_set.push_back(index);
      peak_in_flight = std::max(peak_in_flight, in_flight_set.size());
    }
  };

  auto worker_main = [&](size_t worker_id) {
    for (;;) {
      QueryRun* run = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !ready.empty() || finished == n; });
        if (ready.empty()) return;  // all queries finished
        run = ready.front();
        ready.pop_front();
      }
      // One scheduling quantum, outside the lock: this worker is the
      // sole owner of `run` (and its machine) until the yield below.
      const CounterWindow quantum(run->pmu);
      const size_t rows = run->exec->num_rows();
      for (size_t b = 0; b < options_.burst_vectors && run->next_row < rows;
           ++b) {
        ExecuteOneVector(run);
      }
      run->quantum_msec.push_back(run->pmu->ToMilliseconds(quantum.Delta()));
      run->touched_workers[worker_id] = 1;
      ++run->quanta;
      // Runtime data errors latch on the executor (exec/pipeline.h)
      // instead of aborting; a latched query stops here and reports
      // kFailed with its partial progress.
      const bool failed = !run->exec->error().ok();
      if (failed) {
        run->outcome = QueryOutcome::kFailed;
        run->error = run->exec->error();
      }
      run->quantum_fate.push_back(failed ? QuantumFate::kHardFault
                                         : QuantumFate::kNormal);
      const bool done = failed || run->next_row >= rows;
      if (done) {
        // Close the full-run window, exactly like the solo drivers.
        run->drive.num_vectors = run->vector_index;
        run->drive.total = run->pmu->Read() - run->run_begin;
        run->drive.simulated_msec = run->pmu->ToMilliseconds(run->drive.total);
        // Recycle the machine: reset it here, on the releasing worker and
        // outside the lock, so the admission below takes a machine in
        // exactly the freshly built state.
        if (run->owned_pmu != nullptr) run->owned_pmu->ResetMachine();
        run->pmu = nullptr;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (done) {
          ++finished;
          const size_t index = static_cast<size_t>(run - runs.data());
          in_flight_set.erase(std::find(in_flight_set.begin(),
                                        in_flight_set.end(), index));
          free_slots.push_back(run->slot);
          if (run->owned_pmu != nullptr) {
            machines.Put(std::move(run->owned_pmu));
          }
          admit_locked();
          cv.notify_all();
        } else {
          ready.push_back(run);
          cv.notify_one();
        }
      }
    }
  };

  {
    std::lock_guard<std::mutex> lock(mu);
    admit_locked();
  }
  const auto wall_start = std::chrono::steady_clock::now();
  if (options_.num_threads == 1) {
    // Run inline, like ParallelDriver: no thread-spawn noise in the wall
    // clock, and the single-worker path stays trivially serial.
    worker_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(options_.num_threads);
    for (size_t w = 0; w < options_.num_threads; ++w) {
      threads.emplace_back(worker_main, w);
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_msec = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();

  std::vector<std::vector<double>> quanta(n);
  for (size_t i = 0; i < n; ++i) quanta[i] = runs[i].quantum_msec;
  WorkloadReport report =
      AssembleReport(tasks, &runs, options_, wall_msec, peak_in_flight);
  report.machines_built = machines.built();
  const SimSchedule schedule = SimulateWorkloadSchedule(
      quanta, options_.num_threads, options_.max_concurrent, policy_cfg);
  ApplySchedule(schedule, &report);
  return report;
}

Result<WorkloadReport> WorkloadDriver::RunEventDriven(
    const std::vector<WorkloadTask>& tasks, MachinePool* machines) {
  const size_t n = tasks.size();
  // Contention mode: one shared L3, sized like the recipe's, with one
  // owner id per query (the query index). Machines keep their private
  // L1/L2. Null when contention=off — queries then run interference-free
  // (the event loop only shapes *when* quanta run, not what they cost).
  std::unique_ptr<SharedCacheDomain> domain;
  if (options_.contention) {
    domain = std::make_unique<SharedCacheDomain>(recipe_.hw.l3);
    for (size_t i = 0; i < n; ++i) {
      domain->RegisterOwner(tasks[i].name.empty() ? "q" + std::to_string(i)
                                                  : tasks[i].name);
    }
  }
  // Open-loop arrival schedule (empty = closed queue: everything
  // admissible at t = 0, exactly the PR-4/5 event-loop behaviour).
  std::vector<double> arrivals;
  if (options_.arrival.kind != ArrivalKind::kClosed) {
    arrivals = GenerateArrivalTimes(options_.arrival, n);
  }
  // Adaptive admission: the live controller, fed by the event loop at
  // every quantum completion. Its replay twin is rebuilt from the
  // recorded QuantumTraces in SimulateWorkloadSchedule.
  std::unique_ptr<AdmissionController> controller;
  if (options_.adaptive_admission) {
    controller = std::make_unique<AdmissionController>(
        n, options_.max_concurrent,
        domain != nullptr ? domain->capacity_lines() : 0, options_.admission);
  }
  // Fault mode (DESIGN.md Section 9): the spec handed to the event loop
  // (retry budget, deadlines, shedding switch) plus the live fault-draw
  // coordinates. Null/absent when no fault feature is requested, keeping
  // the fault-free event paths byte-identical to PR 5-7.
  const bool fault_mode = FaultModeRequested(options_, tasks);
  ServiceFaultSpec fault_spec;
  if (fault_mode) {
    fault_spec.retry = options_.retry;
    fault_spec.shed_deadline = options_.shed_deadline;
    fault_spec.deadline_msec.resize(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      fault_spec.deadline_msec[i] = tasks[i].sim_deadline_msec;
    }
  }
  const size_t max_attempts =
      fault_mode ? std::max<size_t>(1, options_.retry.max_attempts) : 1;
  std::vector<size_t> attempt_no(n, 0);
  std::vector<size_t> quantum_in_attempt(n, 0);
  constexpr double kNoKill = std::numeric_limits<double>::infinity();

  const size_t num_slots = options_.max_concurrent;
  std::vector<QueryRun> runs(n);
  std::vector<std::unique_ptr<Pmu>> slot_machines(num_slots);
  std::vector<size_t> free_slots;
  for (size_t s = 0; s < num_slots; ++s) free_slots.push_back(s);
  const SchedulePolicyConfig policy_cfg = PolicyConfig(tasks);

  EventLoopHooks hooks;
  hooks.on_admit = [&](size_t index) {
    QueryRun& run = runs[index];
    run.task = &tasks[index];
    run.slot = free_slots.back();
    free_slots.pop_back();
    if (options_.deterministic) {
      run.owned_pmu = machines->Take();
      run.pmu = run.owned_pmu.get();
    } else {
      std::unique_ptr<Pmu>& slot = slot_machines[run.slot];
      if (slot == nullptr) {
        slot = machines->Take();
      } else {
        slot->ResetCounters();  // keep warm private caches and predictor
      }
      run.pmu = slot.get();
    }
    if (domain != nullptr) {
      run.pmu->AttachSharedL3(domain.get(), static_cast<uint32_t>(index));
    }
    auto exec = factory_(index, run.pmu);
    NIPO_CHECK(exec.ok());  // the validation pass proved this compiles
    run.exec = std::move(exec.ValueOrDie());
    if (run.task->initial_order.has_value()) {
      NIPO_CHECK(run.exec->Reorder(*run.task->initial_order).ok());
    }
    if (run.task->progressive) {
      run.optimizer = std::make_unique<ProgressiveOptimizer>(run.exec.get(),
                                                             run.task->config);
      run.optimizer->Begin();
    }
    run.run_begin = run.pmu->Read();
    run.touched_workers.assign(1, 0);  // one host thread runs everything
  };
  hooks.on_complete = [&](size_t index) {
    free_slots.push_back(runs[index].slot);
  };
  hooks.on_retry = [&](size_t index) {
    // A transient fault is being retried: the query restarts from
    // scratch. The failed attempt's machine state is discarded (in
    // deterministic mode the machine is recycled in place, reset to the
    // freshly built state; the warm slot machine only resets counters),
    // the pipeline recompiles, and a progressive query gets a fresh
    // optimizer — exactly the admission sequence, minus the slot
    // bookkeeping (the query keeps its slot and its machine through the
    // backoff).
    QueryRun& run = runs[index];
    ++attempt_no[index];
    quantum_in_attempt[index] = 0;
    run.error = Status::OK();
    if (options_.deterministic) {
      run.pmu->ResetMachine();  // also detaches the shared L3
    } else {
      if (domain != nullptr) run.pmu->AttachSharedL3(nullptr, 0);
      run.pmu->ResetCounters();
    }
    if (domain != nullptr) {
      run.pmu->AttachSharedL3(domain.get(), static_cast<uint32_t>(index));
    }
    auto exec = factory_(index, run.pmu);
    NIPO_CHECK(exec.ok());  // the validation pass proved this compiles
    run.exec = std::move(exec.ValueOrDie());
    if (run.task->initial_order.has_value()) {
      NIPO_CHECK(run.exec->Reorder(*run.task->initial_order).ok());
    }
    if (run.task->progressive) {
      run.optimizer = std::make_unique<ProgressiveOptimizer>(run.exec.get(),
                                                             run.task->config);
      run.optimizer->Begin();
    } else {
      run.optimizer.reset();
    }
    run.run_begin = run.pmu->Read();
    run.next_row = 0;
    run.vector_index = 0;
    run.drive = DriveResult{};
  };
  if (domain != nullptr) {
    hooks.live_footprint = [&domain](size_t index) -> uint64_t {
      return domain->stats(static_cast<uint32_t>(index)).occupancy_lines *
             domain->line_size();
    };
  }

  // Completed queries whose shared-L3 residue must be excluded from the
  // live occupancy fed to the adaptive controller: a dead owner's lines
  // are reusable capacity, not a crowding signal.
  std::vector<uint32_t> finished_owners;

  auto run_quantum = [&](size_t index, double start) -> QuantumOutcome {
    QueryRun& run = runs[index];
    QuantumOutcome out;
    const size_t rows = run.exec->num_rows();
    // Fault draws are pure functions of (seed, query, attempt, quantum)
    // — schedule-independent, so every admission limit, worker count and
    // rerun sees the identical per-query fault sequence.
    FaultDraw draw;
    if (fault_mode && options_.faults.enabled()) {
      draw = DrawFault(options_.faults, index, attempt_no[index],
                       quantum_in_attempt[index]);
    }
    const double arrival = arrivals.empty() ? 0.0 : arrivals[index];
    const double deadline_at = tasks[index].sim_deadline_msec > 0
                                   ? arrival + tasks[index].sim_deadline_msec
                                   : kNoKill;
    const double cancel_at =
        tasks[index].sim_cancel_msec > 0 ? tasks[index].sim_cancel_msec
                                         : kNoKill;
    const CounterWindow quantum(run.pmu);
    if (deadline_at < kNoKill || cancel_at < kNoKill) {
      // Cooperative kill checks at every vector boundary, against
      // *scheduled* time: the quantum's dispatch instant plus the
      // (stall-scaled) simulated time of the vectors run so far. The
      // per-vector windows only read counters, so the whole-quantum
      // window below still yields the exact duration it always did.
      double elapsed = 0;
      for (size_t b = 0; b < options_.burst_vectors && run.next_row < rows;
           ++b) {
        const double now = start + elapsed;
        if (now >= cancel_at) {
          out.fate = QuantumFate::kCancel;
          break;
        }
        if (now >= deadline_at) {
          out.fate = QuantumFate::kDeadline;
          break;
        }
        const CounterWindow vec(run.pmu);
        ExecuteOneVector(&run);
        if (!run.exec->error().ok()) break;  // latched; resolved below
        double vec_msec = run.pmu->ToMilliseconds(vec.Delta());
        if (draw.stall) vec_msec *= options_.faults.stall_factor;
        elapsed += vec_msec;
      }
    } else {
      for (size_t b = 0; b < options_.burst_vectors && run.next_row < rows;
           ++b) {
        ExecuteOneVector(&run);
        if (!run.exec->error().ok()) break;  // latched; resolved below
      }
    }
    // Resolve the quantum's fate, in precedence order: a kill check
    // above, else a latched runtime error, else the injected faults
    // (poison over transient).
    if (out.fate == QuantumFate::kNormal) {
      if (!run.exec->error().ok()) {
        out.fate = QuantumFate::kHardFault;
        run.error = run.exec->error();
      } else if (draw.poison) {
        out.fate = QuantumFate::kHardFault;
        run.error = Status::Internal("fault injection: poison query");
      } else if (draw.transient) {
        out.fate = QuantumFate::kTransientFault;
        if (attempt_no[index] + 1 >= max_attempts) {
          run.error =
              Status::Internal("fault injection: retry budget exhausted");
        }
      }
    }
    // One side-effect-free window per quantum (CounterWindow reads, never
    // resets): the duration feeds the schedule, the evictions feed the
    // adaptive controller, and both are recorded as the quantum's replay
    // trace. The full-run window (run_begin -> done) spans exactly the
    // union of the quantum windows — nothing executes between quanta —
    // so per-query counters cannot double-count across admission or
    // quantum boundaries (asserted in tests/service_mode_test.cc).
    const PmuCounters delta = quantum.Delta();
    out.duration_msec = run.pmu->ToMilliseconds(delta);
    // A stalled quantum occupies its worker stall_factor times longer in
    // the schedule; the machine counters are untouched (the work did not
    // change — the worker was slow), so the inflation lives purely in
    // the recorded duration, which is also what the replay consumes.
    if (draw.stall) out.duration_msec *= options_.faults.stall_factor;
    out.evictions_suffered = delta.l3_evictions_suffered;
    run.quantum_msec.push_back(out.duration_msec);
    run.quantum_evictions.push_back(out.evictions_suffered);
    run.quantum_fate.push_back(out.fate);
    run.touched_workers[0] = 1;
    ++run.quanta;
    ++quantum_in_attempt[index];
    out.done = run.next_row >= rows;
    // The full-run counter window closes when the query leaves the
    // machine for good: normal completion, any kill or hard fault, or a
    // transient fault with no retry budget left. (A retried attempt
    // instead resets the whole execution state in hooks.on_retry.)
    const bool terminal =
        (out.fate == QuantumFate::kNormal && out.done) ||
        out.fate == QuantumFate::kHardFault ||
        out.fate == QuantumFate::kDeadline ||
        out.fate == QuantumFate::kCancel ||
        (out.fate == QuantumFate::kTransientFault &&
         attempt_no[index] + 1 >= max_attempts);
    if (terminal) {
      run.drive.num_vectors = run.vector_index;
      run.drive.total = run.pmu->Read() - run.run_begin;
      run.drive.simulated_msec = run.pmu->ToMilliseconds(run.drive.total);
      if (domain != nullptr) {
        run.peak_occupancy_lines = run.pmu->SharedL3PeakOccupancyLines();
        run.final_occupancy_lines = run.pmu->SharedL3OccupancyLines();
        // Detach so the machine outlives the (function-local) domain
        // safely; all shared-L3 reads happened above.
        run.pmu->AttachSharedL3(nullptr, 0);
        finished_owners.push_back(static_cast<uint32_t>(index));
      }
      if (run.owned_pmu != nullptr) {
        run.owned_pmu->ResetMachine();
        machines->Put(std::move(run.owned_pmu));
      }
      run.pmu = nullptr;
    }
    if (domain != nullptr) {
      // Live occupancy: resident lines minus finished owners' residue
      // (summed at current value — live queries may displace residue
      // later, so a snapshot at completion time would drift).
      uint64_t dead_lines = 0;
      for (const uint32_t o : finished_owners) {
        dead_lines += domain->stats(o).occupancy_lines;
      }
      out.occupancy_lines = domain->total_occupancy_lines() - dead_lines;
    }
    run.quantum_occupancy.push_back(out.occupancy_lines);
    if (domain != nullptr && options_.audit_contention) {
      // Accounting invariants: every resident line is owned by exactly
      // one query, and every displaced line was charged to exactly one.
      NIPO_CHECK(domain->total_occupancy_lines() ==
                 domain->level().occupied_lines());
      uint64_t charged = 0;
      for (uint32_t o = 0; o < domain->num_owners(); ++o) {
        charged += domain->stats(o).evictions_suffered +
                   domain->stats(o).self_evictions;
      }
      NIPO_CHECK(charged == domain->lines_displaced());
    }
    return out;
  };

  size_t peak_in_flight = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  const SimSchedule schedule = RunEventSchedule(
      n, options_.num_threads, options_.max_concurrent, policy_cfg, arrivals,
      controller.get(), fault_mode ? &fault_spec : nullptr, run_quantum, hooks,
      &peak_in_flight);
  const double wall_msec = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();

  // The loop owns the terminal outcomes (it decides retries, kills and
  // shedding); fold them into the runs before report assembly.
  for (size_t i = 0; i < n; ++i) {
    runs[i].outcome = schedule.outcome[i];
    runs[i].attempts = schedule.attempts[i];
    runs[i].backoff_msec = schedule.backoff_msec[i];
  }
  WorkloadReport report =
      AssembleReport(tasks, &runs, options_, wall_msec, peak_in_flight);
  report.machines_built = machines->built();
  ApplySchedule(schedule, &report);
  if (domain != nullptr) {
    report.shared_l3_capacity_lines = domain->capacity_lines();
    report.shared_l3_lines_displaced = domain->lines_displaced();
  }
  if (controller != nullptr) {
    report.admission_final_limit = controller->limit();
    report.admission_min_limit = controller->min_limit_seen();
    report.admission_increases = controller->increases();
    report.admission_decreases = controller->decreases();
  }
  return report;
}

}  // namespace nipo
