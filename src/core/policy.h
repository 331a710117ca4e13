#ifndef JOINOPT_CORE_POLICY_H_
#define JOINOPT_CORE_POLICY_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/optimizer.h"

namespace joinopt {

/// When a policy step applies (attribute `when=`). A step whose gate does
/// not hold for the query is skipped silently: it is not a fallback, so
/// it adds nothing to stats.fallback_from and fires no OnFallback.
enum class StepGate {
  /// Always runs (no `when=` attribute).
  kAlways,
  /// `when=dense`: the cost model is Cout, the query has between
  /// kDenseGateMinRelations and kDenseGateMaxRelations relations, and
  /// its edge density is at least 1/4 (8·E >= n(n-1)) — where DPconv's
  /// subset convolution beats DPccp's csg-cmp-pair sweep (measured
  /// crossover table: DESIGN.md §12).
  kDense,
};

/// The `when=dense` window (crossover table: DESIGN.md §12, reproduced by
/// `bench/micro_optimizers --dense-gate-crossover`). At density 1/4 and
/// above DPconv runs 1.1-10x faster than DPccp for n in [10, 16]; below
/// 1/4 it mostly loses. Below 10 relations both finish in under 0.6 ms,
/// so the gate leaves the small queries that make up most serving
/// traffic on DPccp. Above 16 the zeta transforms of a dense query
/// allocate (n-2)·2^n doubles (15 MiB at n = 17), more than a default
/// should take unasked. Fixed on purpose: the gate is part of the
/// default policy's meaning, not a tuning knob.
inline constexpr int kDenseGateMinRelations = 10;
inline constexpr int kDenseGateMaxRelations = 16;

/// Whether `gate` holds for `graph` under `cost_model`: a pure function of
/// the two, so a query's route through a policy is deterministic.
bool StepGateHolds(StepGate gate, const QueryGraph& graph,
                   const CostModel& cost_model);

/// One rung of a degradation policy: which algorithm to run and how much
/// of the caller's resource envelope to give it. Scales apply to the base
/// OptimizeOptions the policy runs under; zero ("unlimited") limits stay
/// zero regardless of scale.
struct PolicyStep {
  /// Registry name of the orderer ("DPccp", "IDP1", "GOO", ...).
  std::string algorithm;
  /// Fraction of the base memo_entry_budget this step may use (attribute
  /// `budget=`). Scaled budgets are clamped to at least one entry so a
  /// small fraction can never round down to 0 = unlimited.
  double budget_scale = 1.0;
  /// Fraction of the base deadline_seconds this step may use (`deadline=`).
  double deadline_slice = 1.0;
  /// Extra attempts after a resource-limit or injected-fault failure
  /// (`retries=`), each with the step's limits doubled (exponential
  /// backoff in budget space).
  int retries = 0;
  /// IDP1 block-size override (`k=`); 0 keeps the registry default. Only
  /// meaningful for the IDP1 step.
  int k = 0;
  /// Anytime mode for this step (`-> salvage` in the grammar): an
  /// interrupted run completes a best-effort plan from the partial memo
  /// instead of falling through to the next step.
  bool salvage = false;
  /// Gate (`when=`); see StepGate.
  StepGate when = StepGate::kAlways;
};

/// An ordered list of PolicySteps — the declarative replacement for
/// AdaptiveOptimizer's historical hard-coded ladder. The textual grammar
/// (JOINOPT_POLICY, CLI):
///
///   policy  := step (" -> " step)*
///   step    := NAME attrs? | "salvage"
///   attrs   := "[" attr ("," attr)* "]"
///   attr    := "when=dense" | "budget=" FLOAT | "deadline=" FLOAT
///            | "retries=" INT | "k=" INT
///
/// "salvage" is a pseudo-step that arms anytime salvage on the step
/// before it. The final step may not carry a `when=` gate, so every query
/// has a step that runs. Example (the library default):
///
///   DPconv[when=dense] -> salvage -> DPccp -> salvage -> IDP1[k=5] -> GOO
///
/// reads: for a dense Cout query of 10-16 relations, run exact DPconv;
/// for any other query skip it and run exact DPccp. If a limit trips,
/// salvage a best-effort plan from the memo; if even salvage cannot
/// complete a plan, fall through to the next step that applies — DPccp,
/// then IDP1 (block size 5), then GOO (the final step runs
/// limits-stripped after a failure so the caller always gets SOME plan).
class DegradationPolicy {
 public:
  /// The documented default:
  /// `DPconv[when=dense] -> salvage -> DPccp -> salvage -> IDP1[k=5] -> GOO`.
  static DegradationPolicy Default();

  /// Parses the grammar above. Fails with InvalidArgument on syntax
  /// errors, unknown algorithm names (checked against the registry),
  /// out-of-range attributes, an unknown `when=` value, a gated final
  /// step, or a leading "salvage".
  static Result<DegradationPolicy> Parse(std::string_view text);

  /// Parse(JOINOPT_POLICY) when the variable is set and non-empty,
  /// Default() otherwise.
  static Result<DegradationPolicy> FromEnv();

  void Append(PolicyStep step) { steps_.push_back(std::move(step)); }

  const std::vector<PolicyStep>& steps() const { return steps_; }
  bool empty() const { return steps_.empty(); }

  /// Round-trips through Parse (modulo whitespace).
  std::string ToString() const;

 private:
  std::vector<PolicyStep> steps_;
};

/// Executes `policy` for ctx's query: steps whose gate does not hold are
/// skipped; each other step runs in a sub-context
/// re-armed via ResetForRerun with the step's scaled limits, retrying
/// with doubled limits up to `retries` times on kBudgetExceeded /
/// kInternal, and falling through to the next step on kBudgetExceeded.
/// The final step, when reached after a failure, runs limits-stripped.
/// Abandoned steps are appended to stats.fallback_from and reported via
/// TraceSink::OnFallback, exactly like the historical Adaptive ladder;
/// best-effort results get the policy string stamped into their
/// DegradationReport. ctx.stats() mirrors the returned stats.
Result<OptimizationResult> RunDegradationPolicy(const DegradationPolicy& policy,
                                                OptimizerContext& ctx);

/// Whole-policy retry envelope for the serving layer, layered ON TOP of
/// RunDegradationPolicy's per-step retries: when the entire policy fails
/// with a retryable code (kBudgetExceeded / kInternal — resource trips
/// and contained faults), the policy is re-run from the top with the
/// context's base limits multiplied by `limit_growth` per attempt, after
/// an optional backoff sleep that doubles per attempt. Non-retryable
/// failures (bad input, degenerate statistics) return immediately.
struct RetryOptions {
  /// Extra whole-policy attempts after the first failure.
  int max_retries = 0;
  /// Sleep before the first retry; doubles each further attempt. 0 = no
  /// sleep (tests and non-latency-sensitive batch callers).
  double backoff_seconds = 0.0;
  /// Base-limit multiplier per retry (memo budget and deadline; zero
  /// "unlimited" limits stay zero).
  double limit_growth = 2.0;
};

/// Runs `policy` under `ctx` with the retry envelope above. Each retry
/// re-arms `ctx` via ResetForRerun with the grown limits, exercising the
/// documented re-entrancy contract. ctx.stats() mirrors the returned
/// stats, exactly like RunDegradationPolicy.
Result<OptimizationResult> RunPolicyWithRetry(const DegradationPolicy& policy,
                                              OptimizerContext& ctx,
                                              const RetryOptions& retry);

}  // namespace joinopt

#endif  // JOINOPT_CORE_POLICY_H_
