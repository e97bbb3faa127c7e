#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/parallel_driver.h"
#include "exec/vector_driver.h"
#include "optimizer/estimator.h"
#include "optimizer/sortedness.h"

/// \file progressive.h
/// The progressive optimization controller (paper Section 4.4, Figure 10).
///
/// Execution proceeds vector by vector. Every `reopt_interval` samples the
/// controller takes the latest counter sample, runs the Section 4.2
/// learning algorithm to estimate the selectivity of every operator in the
/// current evaluation order, ranks the operators (ascending selectivity for
/// plain predicates; cost-weighted rank when expensive predicates or join
/// probes participate, with probe cost informed by the Section 5.5-5.6
/// sortedness detector), and -- if the ranking disagrees with the current
/// order or predicate forms -- switches them for subsequent vectors (the
/// JIT-recompile / primitive-rechain step). The next sample *validates*
/// the switch: if its cycles-per-tuple deteriorate, the old plan is
/// re-established (Section 4.4's "if they deteriorate, the old order is
/// reestablished").
///
/// One controller serves every driver. The solo drive feeds it each vector
/// of its own executor. The sharded drive (DESIGN.md "Parallel execution")
/// runs it on a non-executing control executor and feeds it each morsel
/// that ran under the current plan, in completion order; ParallelDriver
/// filters out morsels still in flight under an older plan and broadcasts
/// the control executor's (order, forms) to every worker whenever the
/// controller changes them. With one worker the two drives are
/// bit-identical.

namespace nipo {

/// \brief How RankOrderOperators prices an operator when ranking
/// (DESIGN.md Section 8, "SIMD-aware pricing").
enum class CostPricing : int {
  /// The original unit-cost rule: plain predicates cost 1, expensive
  /// predicates add their extra instructions, probes their miss-informed
  /// term. Exactly the pre-SIMD behaviour.
  kUnit = 0,
  /// Predicates priced in simulated cycles of their *branching* form
  /// (compare + branch + Markov misprediction penalty); probes keep the
  /// unit-rule term, converted to the same cycle scale.
  kBranchCycles = 1,
  /// min(branching, branch-free) cycles per predicate; the optimizer also
  /// switches each predicate to its cheaper form (PipelineExecutor::
  /// SetForms), so low-selectivity predicates run branch-free.
  kSimdAware = 2,
};

/// \brief Driver configuration.
struct ProgressiveConfig {
  size_t vector_size = 65'536;
  /// Vectors between optimization attempts (the paper's ReopInt; its
  /// evaluation uses 10, 75 and 200).
  size_t reopt_interval = 10;
  EstimatorConfig estimator;
  /// Validate the vector after a reorder and revert on regression.
  bool validate_and_revert = true;
  /// Regression factor on cycles-per-input-tuple that triggers a revert.
  /// Per-vector costs drift naturally as the scan moves through the data
  /// (especially on clustered layouts), so the threshold leaves room for
  /// that drift; genuinely bad orders regress far beyond it.
  double revert_threshold = 1.15;
  /// Probe co-clusteredness threshold (Section 5.6).
  double co_cluster_threshold = 0.5;
  /// Relative instruction cost assumed per probe evaluation when ranking
  /// (base; the miss-informed component is added from samples).
  double probe_base_cost = 2.0;
  /// Every k-th optimization additionally explores a perturbed order to
  /// surface correlation effects (Section 4.5); 0 disables exploration.
  size_t explore_period = 0;
  /// Operator pricing rule (kUnit reproduces the pre-SIMD behaviour). It
  /// applies on every driver: sharded runs broadcast the forms kSimdAware
  /// picks together with the order.
  CostPricing pricing = CostPricing::kUnit;
};

/// \brief One evaluation-order (and/or predicate-form) change performed
/// during execution.
struct PeoChange {
  size_t vector_index = 0;
  std::vector<size_t> old_order;
  std::vector<size_t> new_order;
  /// Predicate forms by original operator index before/after the change
  /// (equal to each other unless pricing is kSimdAware; a change may be
  /// forms-only, with old_order == new_order).
  std::vector<PredicateForm> old_forms;
  std::vector<PredicateForm> new_forms;
  bool reverted = false;      ///< validation rolled it back
  bool exploration = false;   ///< came from the correlation explorer
};

/// \brief Outcome of a progressively optimized execution.
struct ProgressiveReport {
  DriveResult drive;
  std::vector<PeoChange> changes;
  size_t num_optimizations = 0;
  /// Last selectivity estimate, in the operator order current at that
  /// time (empty if never optimized).
  std::vector<double> last_estimate;
  std::vector<size_t> final_order;
};

// ---------------------------------------------------------------------------
// Decision core of ProgressiveOptimizer, exposed for tests and benches.
// ---------------------------------------------------------------------------

/// \brief Runs the Section 4.2 learning algorithm on `sample` (one vector
/// or morsel) against the current evaluation order of `exec`. Errors for
/// inconsistent samples.
Result<SelectivityEstimate> EstimateOrderSelectivities(
    const PipelineExecutor& exec, const ProgressiveConfig& config,
    const VectorSample& sample);

/// \brief Ranks the operators of `exec`'s current order by cost-weighted
/// selectivity (ascending (s-1)/c; for unit costs this is the paper's
/// ascending-selectivity PEO rule; probe cost is informed by the Section
/// 5.5-5.6 sortedness detector on the sampled L3 misses). Under
/// kBranchCycles / kSimdAware pricing, predicate costs come from
/// PricePredicateForms on the simulated machine's CycleModel. Returns the
/// proposed order in original operator indices; when `forms_out` is
/// non-null it receives the per-operator form choice *by original
/// operator index* (cheapest form under kSimdAware, branching otherwise),
/// ready for PipelineExecutor::SetForms.
std::vector<size_t> RankOrderOperators(
    const PipelineExecutor& exec, const ProgressiveConfig& config,
    const VectorSample& sample, const std::vector<double>& selectivities,
    std::vector<PredicateForm>* forms_out = nullptr);

/// \brief The progressive controller: consumes per-vector (or per-morsel)
/// samples and re-plans its executor's evaluation order and predicate
/// forms between them.
class ProgressiveOptimizer {
 public:
  ProgressiveOptimizer(PipelineExecutor* executor, ProgressiveConfig config);

  /// Solo drive: executes the whole table vector by vector on the
  /// executor, re-optimizing on the configured cadence.
  ProgressiveReport Run();

  // Stepping interface, used by the sharded drive (core/engine.cc) and the
  // workload driver (exec/workload_driver.h) while replaying exactly the
  // Run() decision sequence: Begin() resets the controller, OnVector()
  // consumes one sample (identical to the hook Run() installs), and
  // Finish() returns the report with the caller-accumulated drive result
  // filled in. Run() itself is built on these three calls, so the paths
  // cannot drift apart.

  /// Resets all controller state for a new execution.
  void Begin();

  /// Consumes the sample of a vector that ran under the executor's current
  /// plan. Every `reopt_interval`-th sample fed since Begin() triggers an
  /// optimization, unless it validates a pending change instead. Returns
  /// true when the executor's order or forms changed for subsequent
  /// vectors (a switch or a validation revert).
  bool OnVector(const VectorSample& sample);

  /// Finalizes the report. `drive` is the caller's accumulated result of
  /// the driven execution.
  ProgressiveReport Finish(DriveResult drive);

 private:
  struct PendingValidation {
    std::vector<size_t> old_order;
    std::vector<PredicateForm> old_forms;
    double old_cycles_per_tuple = 0;
  };

  bool Optimize(const VectorSample& sample);

  PipelineExecutor* executor_;
  ProgressiveConfig config_;
  ProgressiveReport report_;
  std::optional<PendingValidation> pending_;
  size_t samples_ = 0;  ///< samples fed since Begin(): the ReopInt clock
  double last_cycles_per_tuple_ = 0;
  /// Hysteresis: a plan (order + forms) that validation just rolled back
  /// is not re-proposed for `hysteresis_ttl_` optimization cycles,
  /// preventing estimate-noise oscillation (propose -> revert -> propose
  /// -> ...) while still allowing it back once conditions change.
  std::vector<size_t> recently_reverted_;
  std::vector<PredicateForm> recently_reverted_forms_;
  int hysteresis_ttl_ = 0;
};

/// \brief Outcome of a sharded progressively optimized execution.
struct ParallelProgressiveReport {
  ParallelDriveResult drive;
  /// PEO trace; vector_index holds the index of the morsel whose sample
  /// triggered the change.
  std::vector<PeoChange> changes;
  size_t num_optimizations = 0;
  std::vector<double> last_estimate;
  std::vector<size_t> final_order;
};

/// \brief Convenience: run `executor` without any optimization (the
/// paper's "common execution pattern" base line), with the same vector
/// size so run-times are comparable.
DriveResult RunBaseline(PipelineExecutor* executor, size_t vector_size);

}  // namespace nipo
