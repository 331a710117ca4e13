#include "core/policy.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "core/idp.h"
#include "core/registry.h"

namespace joinopt {

namespace {

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Bounds keeping a mistyped policy from disabling limits outright: a
/// scale must be a positive fraction (<= 1: steps subdivide the caller's
/// envelope, they never enlarge it), retries stay small because each one
/// doubles the limits, and k is IDP1's documented block-size range.
constexpr int kMaxRetries = 8;

Status ParseAttribute(std::string_view attr, PolicyStep* step) {
  const size_t eq = attr.find('=');
  if (eq == std::string_view::npos) {
    return Status::InvalidArgument("policy attribute '" + std::string(attr) +
                                   "' is not key=value");
  }
  const std::string_view key = Trim(attr.substr(0, eq));
  const std::string value(Trim(attr.substr(eq + 1)));
  if (value.empty()) {
    return Status::InvalidArgument("policy attribute '" + std::string(key) +
                                   "' has an empty value");
  }
  if (key == "when") {
    if (value != "dense") {
      return Status::InvalidArgument("policy attribute 'when=" + value +
                                     "' is unknown; expected when=dense");
    }
    step->when = StepGate::kDense;
    return Status::OK();
  }
  char* end = nullptr;
  if (key == "budget" || key == "deadline") {
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == nullptr || *end != '\0' || !(parsed > 0.0) || parsed > 1.0) {
      return Status::InvalidArgument(
          "policy attribute '" + std::string(key) + "=" + value +
          "' must be a fraction in (0, 1]");
    }
    (key == "budget" ? step->budget_scale : step->deadline_slice) = parsed;
    return Status::OK();
  }
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return Status::InvalidArgument("policy attribute '" + std::string(key) +
                                   "=" + value + "' is not an integer");
  }
  if (key == "retries") {
    if (parsed < 0 || parsed > kMaxRetries) {
      return Status::InvalidArgument(
          "policy attribute 'retries=" + value + "' must be in [0, " +
          std::to_string(kMaxRetries) + "]");
    }
    step->retries = static_cast<int>(parsed);
    return Status::OK();
  }
  if (key == "k") {
    if (parsed < 2 || parsed > kMaxRelations) {
      return Status::InvalidArgument("policy attribute 'k=" + value +
                                     "' must be in [2, " +
                                     std::to_string(kMaxRelations) + "]");
    }
    step->k = static_cast<int>(parsed);
    return Status::OK();
  }
  return Status::InvalidArgument(
      "unknown policy attribute '" + std::string(key) +
      "'; expected when=, budget=, deadline=, retries=, or k=");
}

Status ParseStep(std::string_view token, DegradationPolicy* policy) {
  if (token == "salvage") {
    if (policy->empty()) {
      return Status::InvalidArgument(
          "'salvage' must follow an algorithm step; it arms anytime salvage "
          "on the step before it");
    }
    // Appending through the public API only; mutate via a rebuild.
    PolicyStep step = policy->steps().back();
    step.salvage = true;
    DegradationPolicy rebuilt;
    for (size_t i = 0; i + 1 < policy->steps().size(); ++i) {
      rebuilt.Append(policy->steps()[i]);
    }
    rebuilt.Append(std::move(step));
    *policy = std::move(rebuilt);
    return Status::OK();
  }

  PolicyStep step;
  const size_t bracket = token.find('[');
  std::string_view name = token;
  if (bracket != std::string_view::npos) {
    if (token.back() != ']') {
      return Status::InvalidArgument("policy step '" + std::string(token) +
                                     "' has an unterminated attribute list");
    }
    name = Trim(token.substr(0, bracket));
    std::string_view attrs =
        token.substr(bracket + 1, token.size() - bracket - 2);
    while (!attrs.empty()) {
      const size_t comma = attrs.find(',');
      const std::string_view attr = Trim(attrs.substr(0, comma));
      if (attr.empty()) {
        return Status::InvalidArgument("policy step '" + std::string(token) +
                                       "' has an empty attribute");
      }
      JOINOPT_RETURN_IF_ERROR(ParseAttribute(attr, &step));
      if (comma == std::string_view::npos) {
        break;
      }
      attrs = attrs.substr(comma + 1);
    }
  }
  if (name.empty()) {
    return Status::InvalidArgument("policy has an empty step name");
  }
  if (OptimizerRegistry::Get(name) == nullptr) {
    std::string names;
    for (const std::string& known : OptimizerRegistry::Names()) {
      if (!names.empty()) {
        names += ", ";
      }
      names += known;
    }
    return Status::InvalidArgument("unknown algorithm '" + std::string(name) +
                                   "' in policy; registered: " + names);
  }
  step.algorithm = std::string(name);
  policy->Append(std::move(step));
  return Status::OK();
}

/// The final step runs for every query, so the caller always gets a plan
/// (or that step's own error).
Status RequireUngatedFinalStep(const DegradationPolicy& policy) {
  if (policy.steps().back().when != StepGate::kAlways) {
    return Status::InvalidArgument(
        "degradation policy '" + policy.ToString() +
        "' ends in a gated step; the final step must run for every query");
  }
  return Status::OK();
}

}  // namespace

bool StepGateHolds(StepGate gate, const QueryGraph& graph,
                   const CostModel& cost_model) {
  if (gate == StepGate::kAlways) {
    return true;
  }
  const int n = graph.relation_count();
  return cost_model.name() == "Cout" && n >= kDenseGateMinRelations &&
         n <= kDenseGateMaxRelations &&
         8 * graph.edge_count() >= n * (n - 1);
}

DegradationPolicy DegradationPolicy::Default() {
  DegradationPolicy policy;
  policy.Append(PolicyStep{
      .algorithm = "DPconv", .salvage = true, .when = StepGate::kDense});
  policy.Append(PolicyStep{.algorithm = "DPccp", .salvage = true});
  policy.Append(PolicyStep{.algorithm = "IDP1", .k = 5});
  policy.Append(PolicyStep{.algorithm = "GOO"});
  return policy;
}

Result<DegradationPolicy> DegradationPolicy::Parse(std::string_view text) {
  DegradationPolicy policy;
  std::string_view rest = text;
  while (true) {
    const size_t arrow = rest.find("->");
    const std::string_view token = Trim(rest.substr(0, arrow));
    if (token.empty()) {
      return Status::InvalidArgument("degradation policy '" +
                                     std::string(text) +
                                     "' has an empty step");
    }
    JOINOPT_RETURN_IF_ERROR(ParseStep(token, &policy));
    if (arrow == std::string_view::npos) {
      break;
    }
    rest = rest.substr(arrow + 2);
  }
  JOINOPT_RETURN_IF_ERROR(RequireUngatedFinalStep(policy));
  return policy;
}

Result<DegradationPolicy> DegradationPolicy::FromEnv() {
  const char* env = std::getenv("JOINOPT_POLICY");
  if (env == nullptr || *env == '\0') {
    return Default();
  }
  return Parse(env);
}

std::string DegradationPolicy::ToString() const {
  std::string out;
  char buffer[64];
  for (const PolicyStep& step : steps_) {
    if (!out.empty()) {
      out += " -> ";
    }
    out += step.algorithm;
    std::string attrs;
    const auto append_attr = [&attrs](const std::string& attr) {
      if (!attrs.empty()) {
        attrs += ",";
      }
      attrs += attr;
    };
    if (step.when == StepGate::kDense) {
      append_attr("when=dense");
    }
    if (step.budget_scale != 1.0) {
      std::snprintf(buffer, sizeof(buffer), "budget=%g", step.budget_scale);
      append_attr(buffer);
    }
    if (step.deadline_slice != 1.0) {
      std::snprintf(buffer, sizeof(buffer), "deadline=%g",
                    step.deadline_slice);
      append_attr(buffer);
    }
    if (step.retries != 0) {
      append_attr("retries=" + std::to_string(step.retries));
    }
    if (step.k != 0) {
      append_attr("k=" + std::to_string(step.k));
    }
    if (!attrs.empty()) {
      out += "[" + attrs + "]";
    }
    if (step.salvage) {
      out += " -> salvage";
    }
  }
  return out;
}

Result<OptimizationResult> RunDegradationPolicy(const DegradationPolicy& policy,
                                                OptimizerContext& ctx) {
  if (policy.empty()) {
    return Status::InvalidArgument("degradation policy has no steps");
  }
  JOINOPT_RETURN_IF_ERROR(RequireUngatedFinalStep(policy));
  const QueryGraph& graph = ctx.graph();
  const CostModel& cost_model = ctx.cost_model();
  const OptimizeOptions& base = ctx.options();
  const std::vector<PolicyStep>& steps = policy.steps();
  const auto applies = [&](const PolicyStep& step) {
    return StepGateHolds(step.when, graph, cost_model);
  };

  std::string fallback_from;
  Result<OptimizationResult> result = Status::Internal("policy ran no step");
  // ONE sub-context serves every attempt, re-armed through ResetForRerun:
  // the governor's limit state is sticky, so each attempt needs a reset,
  // and reusing the context exercises the documented re-entrancy contract
  // instead of sidestepping it with fresh contexts.
  std::unique_ptr<OptimizerContext> sub;

  for (size_t si = 0; si < steps.size(); ++si) {
    const PolicyStep& step = steps[si];
    // A step whose gate does not hold is skipped before it starts. It is
    // not a fallback, so it leaves no mark in fallback_from (the serving
    // layer's cacheability check) and fires no OnFallback.
    if (!applies(step)) {
      continue;
    }
    // The final step is ungated, so it is the last one to run.
    const bool last = si + 1 == steps.size();

    // Resolve the orderer; an explicit k overrides the registry's
    // default-configured IDP1.
    const IDP1 idp_override(step.k >= 2 ? step.k : 2);
    const JoinOrderer* orderer;
    if (step.algorithm == "IDP1" && step.k >= 2) {
      orderer = &idp_override;
    } else {
      Result<const JoinOrderer*> lookup =
          OptimizerRegistry::GetOrError(step.algorithm);
      JOINOPT_RETURN_IF_ERROR(lookup.status());
      orderer = *lookup;
    }

    for (int attempt = 0; attempt <= step.retries; ++attempt) {
      OptimizeOptions options = base;
      const double boost = static_cast<double>(uint64_t{1} << attempt);
      if (base.memo_entry_budget != 0) {
        const double scaled =
            static_cast<double>(base.memo_entry_budget) * step.budget_scale *
            boost;
        // Clamp up: rounding to 0 would mean "unlimited".
        options.memo_entry_budget =
            scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
      }
      if (base.deadline_seconds != 0.0) {
        options.deadline_seconds =
            base.deadline_seconds * step.deadline_slice * boost;
      }
      options.salvage_on_interrupt = step.salvage;
      if (last && !fallback_from.empty()) {
        // Final step reached after a failure: strip the limits (tracing
        // and counter reporting stay) — another kBudgetExceeded would
        // leave the caller with no plan at all.
        options.memo_entry_budget = 0;
        options.deadline_seconds = 0.0;
      }
      if (sub == nullptr) {
        sub = std::make_unique<OptimizerContext>(graph, cost_model, options);
      } else {
        sub->ResetForRerun(options);
      }
      result = orderer->Optimize(*sub);
      if (result.ok()) {
        break;
      }
      const StatusCode code = result.status().code();
      // Retry the SAME step (with doubled limits) on resource trips and
      // contained faults; anything else is a hard error for this step.
      if (code != StatusCode::kBudgetExceeded &&
          code != StatusCode::kInternal) {
        break;
      }
    }
    if (result.ok() || last) {
      break;
    }
    // Step-to-step fallback is reserved for resource trips; a kInternal
    // that survived its retries is a real failure and propagates (the
    // historical ladder contract).
    if (result.status().code() != StatusCode::kBudgetExceeded) {
      break;
    }
    if (!fallback_from.empty()) {
      fallback_from += ",";
    }
    fallback_from += step.algorithm;
    if (JOINOPT_UNLIKELY(base.trace != nullptr)) {
      size_t next = si + 1;
      while (!applies(steps[next])) {
        ++next;
      }
      ctx.governor().GuardedTrace([&] {
        base.trace->OnFallback(step.algorithm, steps[next].algorithm,
                               result.status());
      });
      if (JOINOPT_UNLIKELY(ctx.exhausted())) {
        return ctx.limit_status();
      }
    }
  }
  JOINOPT_RETURN_IF_ERROR(result.status());

  // A composite step (e.g. Adaptive's internal ladder) may have recorded
  // its own fallbacks in the result's stats. Preserve them — the serving
  // layer's cacheability check relies on fallback_from to tell an exact
  // plan from one shaped by this request's budget, and clobbering the
  // nested marker would let a budget-degraded plan be cached as exact.
  if (!result->stats.fallback_from.empty()) {
    fallback_from = fallback_from.empty()
                        ? result->stats.fallback_from
                        : fallback_from + "," + result->stats.fallback_from;
  }
  result->stats.fallback_from = fallback_from;
  // Charge the gate and every abandoned attempt to the reported time.
  result->stats.elapsed_seconds = ctx.ElapsedSeconds();
  if (result->stats.best_effort) {
    result->degradation.policy = policy.ToString();
  }
  ctx.stats() = result->stats;
  return result;
}

Result<OptimizationResult> RunPolicyWithRetry(const DegradationPolicy& policy,
                                              OptimizerContext& ctx,
                                              const RetryOptions& retry) {
  const OptimizeOptions base = ctx.options();
  const double growth = retry.limit_growth > 1.0 ? retry.limit_growth : 2.0;
  Result<OptimizationResult> result = Status::Internal("policy never ran");
  for (int attempt = 0; attempt <= retry.max_retries; ++attempt) {
    if (attempt > 0) {
      if (retry.backoff_seconds > 0.0) {
        const double sleep_s =
            retry.backoff_seconds * static_cast<double>(1 << (attempt - 1));
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      }
      OptimizeOptions grown = base;
      const double scale = std::pow(growth, static_cast<double>(attempt));
      if (base.memo_entry_budget != 0) {
        const double scaled =
            static_cast<double>(base.memo_entry_budget) * scale;
        grown.memo_entry_budget =
            scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
      }
      if (base.deadline_seconds != 0.0) {
        grown.deadline_seconds = base.deadline_seconds * scale;
      }
      ctx.ResetForRerun(grown);
    }
    result = RunDegradationPolicy(policy, ctx);
    if (result.ok()) {
      return result;
    }
    const StatusCode code = result.status().code();
    if (code != StatusCode::kBudgetExceeded && code != StatusCode::kInternal) {
      return result;  // Not a resource trip or contained fault.
    }
  }
  return result;
}

}  // namespace joinopt
