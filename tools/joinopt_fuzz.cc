/// joinopt_fuzz — the crash-safety differential fuzzer.
///
///   joinopt_fuzz [--iters N] [--seed S] [--verbose]
///               [--repro-dir DIR] [--max-repros N]
///
/// Each iteration draws a random connected query graph (chain, cycle,
/// star, clique, snowflake, grid, or random-connected; 2..10 relations)
/// and puts it through one of six rounds, cycling deterministically:
///
///   plain        legal statistics. DPsize, DPsub, DPccp, DPhyp, the
///                parallel variants, and (under Cout) DPconv must all
///                succeed, agree on the optimal cost, and produce
///                PlanValidator-clean trees. DPconv's cost must equal
///                DPccp's BIT FOR BIT below the saturation regime; under
///                non-Cout models DPconv must instead refuse with a typed
///                kInvalidArgument. The library's default degradation
///                policy joins the pool: it must name the orderer its
///                `when=dense` gate picks (DPconv or DPccp), record no
///                fallback, and return DPccp's cost bit for bit (below
///                saturation when it routed to DPconv). Plain rounds are
///                Cout rounds, and each also draws its own dense query
///                (a clique or random connected graph, 10..12 relations,
///                edge density >= 1/4) from a separate stream, so the
///                gate's DPconv route is exercised every time: the
///                summary line "policy fuzz: N default-policy runs, M
///                routed to DPconv" is grep-guarded in CI (M >= 1).
///   extreme      legal-but-extreme statistics (cardinalities up to
///                1e305, selectivities down to 1e-305) that overflow
///                naive arithmetic immediately. Same oracle as `plain`,
///                except exact cross-algorithm cost equality is relaxed
///                once costs saturate at the ceiling (different join
///                orders reach a set first with different clamped
///                cardinalities, so tie-breaking legitimately diverges);
///                what remains asserted is: finite, validator-clean,
///                never inf/NaN.
///   degenerate   one illegal statistic (NaN/inf/0/negative cardinality,
///                out-of-range selectivity) planted behind the builders'
///                backs. Every algorithm must refuse with
///                kDegenerateStatistics — no crash, no garbage plan.
///   fault-alloc  kArenaAlloc scheduled: populating some memo entry
///                fails. The run must end in success (fault scheduled
///                past the run's length) or a structured
///                kInternal/kBudgetExceeded — and the same context must
///                produce the correct optimal plan on a subsequent
///                un-faulted ResetForRerun.
///   fault-clock  kDeadline scheduled at an exact governor tick; same
///                oracle as fault-alloc.
///   fault-trace  a TraceSink that throws on a scheduled callback; the
///                library must contain the exception as kInternal, and
///                the context must again be reusable.
///
/// Every 7th iteration additionally round-trips the graph through the
/// DSL (WriteQuerySpec -> ParseQuerySpec -> BuildQueryGraph) with the
/// kAdversarialStats fault armed: the catalog validates clean, then
/// hands the optimizer a corrupted graph, which the optimizer prologue
/// must reject as kDegenerateStatistics.
///
/// Every 11th iteration runs a snapshot-mutation round against the
/// plan-cache persistence layer (serve/snapshot.h): a pristine snapshot
/// is built once, then each round loads a randomly mutated variant
/// (truncation, single-bit flip, duplicated record region, hostile
/// length field). The loader must return a TYPED outcome — never a
/// Status error, never a crash — and any record that survives into the
/// cache must carry its original bit-exact OutcomeSignature. The final
/// summary reports "snapshot fuzz: N mutations, M corrupt records
/// skipped"; CI requires M >= 1 (the skip path actually ran).
///
/// Every 13th iteration runs a wire-frame mutation round against the
/// serving layer's wire codec (serve/wire.h): a pristine encoded request
/// frame is built once, then each round decodes a mutated variant
/// (truncation, single-bit flip, hostile length inflation). The decoder
/// must return a TYPED outcome — kCorrupt with a detail, kIncomplete,
/// or a whole frame — never a crash, and any frame that survives must
/// be bit-identical to the pristine one through a full decode +
/// re-encode cycle. The summary line "wire fuzz: N mutations, R
/// rejected, ..." is grep-guarded in CI (R >= 1: the reject path ran).
///
/// With --repro-dir, the fuzzer doubles as a flight recorder: every
/// fault-mode run whose optimization failed, and every violated oracle,
/// is captured as a self-contained repro-NNN.joinopt bundle (capped by
/// --max-repros, default 20) that `joinopt_cli replay` re-executes
/// bit-for-bit and `joinopt_cli minimize` shrinks. The fuzzer never arms
/// wall-clock deadlines — all its interruptions are fault-point driven —
/// so its bundles replay deterministically.
///
/// Exit code 0 when all iterations pass; 1 on the first violated oracle
/// (with a reproducer line: seed + iteration). Runs under ASan/UBSan in
/// tools/ci.sh.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/outcome.h"
#include "core/policy.h"
#include "cost/saturation.h"
#include "joinopt.h"
#include "serve/fingerprint.h"
#include "serve/plan_cache.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "testing/adversarial.h"
#include "testing/fault_injection.h"
#include "testing/repro.h"
#include "testing/workloads.h"

namespace joinopt {
namespace {

const char* const kAlgorithms[] = {"DPsize",    "DPsub",     "DPccp",
                                   "DPhyp",     "DPsizePar", "DPsubPar",
                                   "DPconv"};
constexpr int kAlgorithmCount = 7;
/// Index of DPccp / DPconv in kAlgorithms, for the bit-identity oracle.
constexpr int kDPccpIndex = 2;
constexpr int kDPconvIndex = 6;

/// Costs at or beyond this magnitude are treated as "saturated": the
/// ceiling clamp makes the optimum depend on enumeration order, so the
/// differential oracle downgrades from equality to finiteness.
constexpr double kSaturationRegime = 1e250;

/// How often the default policy ran in the differential, and how often
/// its `when=dense` gate routed the query to DPconv.
struct PolicyFuzz {
  uint64_t runs = 0;
  uint64_t routed = 0;
};
PolicyFuzz g_policy_fuzz;

struct FuzzFailure {
  bool failed = false;
  std::string detail;
};

/// Flight-recorder state (--repro-dir / --max-repros).
std::string g_repro_dir;
int g_max_repros = 20;
int g_repros_written = 0;

/// Writes `bundle` as the next repro-NNN.joinopt artifact. A bundle that
/// arrives without an expectation gets one from a single replay here, so
/// every emitted artifact replays clean unless the library itself is
/// non-deterministic — which is exactly what CI's replay stage detects.
void EmitRepro(testing::ReproBundle bundle) {
  if (g_repro_dir.empty() || g_repros_written >= g_max_repros) {
    return;
  }
  if (!bundle.has_expected) {
    const Result<OutcomeSignature> observed = testing::ReplayBundle(bundle);
    if (observed.ok()) {
      bundle.expected = *observed;
      bundle.has_expected = true;
    }
  }
  char path[4096];
  std::snprintf(path, sizeof(path), "%s/repro-%03d.joinopt",
                g_repro_dir.c_str(), g_repros_written);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "joinopt_fuzz: cannot write %s\n", path);
    return;
  }
  out << testing::WriteReproBundle(bundle);
  ++g_repros_written;
  std::fprintf(stderr, "joinopt_fuzz: captured %s\n", path);
}

#define FUZZ_CHECK(cond, ...)                                  \
  do {                                                         \
    if (!(cond)) {                                             \
      char fuzz_msg_[512];                                     \
      std::snprintf(fuzz_msg_, sizeof(fuzz_msg_), __VA_ARGS__); \
      failure->failed = true;                                  \
      failure->detail = fuzz_msg_;                             \
      return;                                                  \
    }                                                          \
  } while (false)

/// The default policy's differential: it runs the step its `when=dense`
/// gate picks, never falls back on an unlimited run, produces a valid
/// plan, and lands on DPccp's cost bit for bit — for a DPconv-routed
/// query only below saturation (`min_cost` is the smallest cost any exact
/// DP found), as for DPconv itself.
void CheckDefaultPolicy(const QueryGraph& graph, const CostModel& cost_model,
                        double dpccp_cost, double min_cost,
                        FuzzFailure* failure) {
  OptimizerContext ctx(graph, cost_model);
  Result<OptimizationResult> result =
      RunDegradationPolicy(DegradationPolicy::Default(), ctx);
  FUZZ_CHECK(result.ok(), "default policy failed: %s",
             result.status().ToString().c_str());
  const bool routed = StepGateHolds(StepGate::kDense, graph, cost_model);
  ++g_policy_fuzz.runs;
  g_policy_fuzz.routed += routed ? 1 : 0;
  FUZZ_CHECK(result->stats.algorithm == (routed ? "DPconv" : "DPccp"),
             "default policy ran %s, want %s",
             result->stats.algorithm.c_str(), routed ? "DPconv" : "DPccp");
  FUZZ_CHECK(result->stats.fallback_from.empty(),
             "default policy fell back from %s on an unlimited run",
             result->stats.fallback_from.c_str());
  PlanValidationOptions validation;
  validation.relative_tolerance = 1e-6;
  const Status valid =
      ValidatePlan(result->plan, graph, cost_model, validation);
  FUZZ_CHECK(valid.ok(), "default policy plan failed validation: %s",
             valid.ToString().c_str());
  if (!routed || min_cost < kSaturationRegime) {
    FUZZ_CHECK(result->cost == dpccp_cost,
               "default policy cost %.17g != DPccp cost %.17g "
               "(bit-identity contract)",
               result->cost, dpccp_cost);
  }
}

/// Draws a query the default policy's `when=dense` gate routes to DPconv
/// under Cout: a clique or a random connected graph on 10-12 relations
/// with edge density at least 1/4. The shared workload draw (2-10
/// relations, mostly sparse) almost never reaches that route.
Result<QueryGraph> DrawDenseGraph(Random& rng, std::string* family) {
  WorkloadConfig config;
  config.seed = rng.NextUint64();
  const int n = 10 + static_cast<int>(rng.Uniform(3));
  if (rng.Uniform(2) == 0) {
    *family = "dense-clique";
    return MakeCliqueQuery(n, config);
  }
  *family = "dense-random";
  // 8·E >= n(n-1), with E = (n - 1) tree edges + `extra`.
  const int min_extra = (n * (n - 1) + 7) / 8 - (n - 1);
  const int max_extra = n * (n - 1) / 2 - (n - 1);
  const int extra =
      min_extra + static_cast<int>(rng.Uniform(max_extra - min_extra + 1));
  return MakeRandomConnectedQuery(n, extra, config);
}

/// The default policy's differential on a dense Cout draw (see
/// DrawDenseGraph): the gate must hold, and the DPconv route must match
/// DPccp's cost.
void CheckDenseDefaultPolicy(const QueryGraph& graph,
                             const CostModel& cost_model,
                             FuzzFailure* failure) {
  FUZZ_CHECK(StepGateHolds(StepGate::kDense, graph, cost_model),
             "dense draw (n=%d, %d edges) misses the when=dense gate",
             graph.relation_count(), graph.edge_count());
  Result<OptimizationResult> dpccp =
      OptimizerRegistry::Get("DPccp")->Optimize(graph, cost_model);
  FUZZ_CHECK(dpccp.ok(), "DPccp failed on a dense draw: %s",
             dpccp.status().ToString().c_str());
  CheckDefaultPolicy(graph, cost_model, dpccp->cost, dpccp->cost, failure);
}

/// The differential oracle: all four algorithms succeed, their plans
/// validate, and their costs agree (up to saturation).
void CheckAgreement(const QueryGraph& graph, const CostModel& cost_model,
                    FuzzFailure* failure) {
  const bool cout_model = cost_model.name() == "Cout";
  double costs[kAlgorithmCount];
  bool ran[kAlgorithmCount] = {};
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const JoinOrderer* orderer = OptimizerRegistry::Get(kAlgorithms[a]);
    FUZZ_CHECK(orderer != nullptr, "%s missing from registry", kAlgorithms[a]);
    Result<OptimizationResult> result = orderer->Optimize(graph, cost_model);
    if (a == kDPconvIndex && !cout_model) {
      // DPconv's contract: any cost model other than Cout is refused
      // typed at entry — never a silently suboptimal plan.
      FUZZ_CHECK(!result.ok() &&
                     result.status().code() == StatusCode::kInvalidArgument,
                 "DPconv under %s: want typed InvalidArgument, got %s",
                 std::string(cost_model.name()).c_str(),
                 result.ok() ? "a plan" : result.status().ToString().c_str());
      continue;
    }
    FUZZ_CHECK(result.ok(), "%s failed: %s", kAlgorithms[a],
               result.status().ToString().c_str());
    FUZZ_CHECK(std::isfinite(result->cost) && result->cost <= kCostCeiling,
               "%s produced non-finite or above-ceiling cost %g",
               kAlgorithms[a], result->cost);
    FUZZ_CHECK(std::isfinite(result->cardinality),
               "%s produced non-finite cardinality %g", kAlgorithms[a],
               result->cardinality);
    PlanValidationOptions validation;
    validation.relative_tolerance = 1e-6;
    const Status valid =
        ValidatePlan(result->plan, graph, cost_model, validation);
    FUZZ_CHECK(valid.ok(), "%s plan failed validation: %s", kAlgorithms[a],
               valid.ToString().c_str());
    costs[a] = result->cost;
    ran[a] = true;
  }
  double min_cost = costs[0];
  double max_cost = costs[0];
  for (int a = 1; a < kAlgorithmCount; ++a) {
    if (!ran[a]) {
      continue;
    }
    min_cost = std::min(min_cost, costs[a]);
    max_cost = std::max(max_cost, costs[a]);
  }
  CheckDefaultPolicy(graph, cost_model, costs[kDPccpIndex], min_cost, failure);
  if (failure->failed) {
    return;
  }
  if (cout_model && ran[kDPconvIndex] && min_cost < kSaturationRegime) {
    // Below saturation the subset convolution and the csg-cmp sweep must
    // land on the same double, bit for bit: per-set estimates are
    // canonical (numbering-invariant) and both price the same partition
    // space through the same saturated arithmetic.
    FUZZ_CHECK(costs[kDPconvIndex] == costs[kDPccpIndex],
               "DPconv cost %.17g != DPccp cost %.17g (bit-identity "
               "contract)",
               costs[kDPconvIndex], costs[kDPccpIndex]);
  }
  if (min_cost < kSaturationRegime) {
    // Exact regime: all enumerations explore the same bushy
    // cross-product-free space, so their optima must coincide.
    const double rel = (max_cost - min_cost) / std::max(min_cost, 1e-300);
    if (rel > 1e-6) {
      std::string breakdown;
      for (int a = 0; a < kAlgorithmCount; ++a) {
        if (!ran[a]) {
          continue;
        }
        char cell[96];
        std::snprintf(cell, sizeof(cell), "%s%s %.17g",
                      breakdown.empty() ? "" : " ", kAlgorithms[a], costs[a]);
        breakdown += cell;
      }
      FUZZ_CHECK(false,
                 "cost disagreement: min %.17g max %.17g (rel %.3g) [%s]",
                 min_cost, max_cost, rel, breakdown.c_str());
    }
  }
}

/// Degenerate oracle: every algorithm refuses with kDegenerateStatistics.
void CheckAllReject(const QueryGraph& graph, const CostModel& cost_model,
                    FuzzFailure* failure) {
  for (int a = 0; a < kAlgorithmCount; ++a) {
    const JoinOrderer* orderer = OptimizerRegistry::Get(kAlgorithms[a]);
    Result<OptimizationResult> result = orderer->Optimize(graph, cost_model);
    FUZZ_CHECK(!result.ok(),
               "%s accepted a graph with a corrupted statistic",
               kAlgorithms[a]);
    FUZZ_CHECK(result.status().code() == StatusCode::kDegenerateStatistics,
               "%s rejected corrupted stats with %s, want "
               "DegenerateStatistics",
               kAlgorithms[a], result.status().ToString().c_str());
  }
}

/// Fault-injection oracle: the faulted run either completes or fails
/// with the structured status for its fault point, and the SAME context
/// then produces the correct plan on an un-faulted rerun.
void CheckFaultedRun(const QueryGraph& graph, const CostModel& cost_model,
                     const char* cost_model_name, testing::FaultPoint point,
                     Random& rng, uint64_t seed, uint64_t iteration,
                     FuzzFailure* failure) {
  int pick = static_cast<int>(rng.Uniform(kAlgorithmCount));
  if (pick == kDPconvIndex && std::strcmp(cost_model_name, "cout") != 0) {
    // DPconv refuses non-Cout models at entry, before any fault point can
    // fire; fault coverage would be vacuous. Deterministic substitution
    // keeps the draw sequence (and thus every later iteration) stable.
    pick = kDPccpIndex;
  }
  const JoinOrderer* orderer = OptimizerRegistry::Get(kAlgorithms[pick]);
  testing::FaultConfig fault;
  fault.at(point) = 1 + rng.Uniform(256);

  testing::ThrowingTraceSink sink;
  OptimizeOptions options;
  if (point == testing::FaultPoint::kTraceSink) {
    options.trace = &sink;
  }

  std::unique_ptr<OptimizerContext> ctx;
  Result<OptimizationResult> faulted = Status::Internal("never ran");
  {
    testing::ScopedFaultInjection scoped(fault);
    // Construct inside the scope: the governor caches the injector's
    // armed state at construction.
    ctx = std::make_unique<OptimizerContext>(graph, cost_model, options);
    faulted = orderer->Optimize(*ctx);
  }
  if (!faulted.ok()) {
    // A fault actually interrupted this run: capture it with the observed
    // signature stamped from the run itself, so the artifact's replay
    // must reproduce these exact partial counters.
    testing::ReproBundle bundle = testing::MakeReproBundle(
        graph, orderer->name(), cost_model_name, options, fault,
        point == testing::FaultPoint::kTraceSink, seed,
        "joinopt_fuzz fault-mode capture, iteration " +
            std::to_string(iteration));
    bundle.expected = ExtractOutcomeSignature(faulted, ctx->stats());
    bundle.has_expected = true;
    EmitRepro(std::move(bundle));
    const StatusCode code = faulted.status().code();
    FUZZ_CHECK(code == StatusCode::kInternal ||
                   code == StatusCode::kBudgetExceeded,
               "%s under %s fault failed with %s, want Internal or "
               "BudgetExceeded",
               std::string(orderer->name()).c_str(),
               std::string(testing::FaultPointName(point)).c_str(),
               faulted.status().ToString().c_str());
  }

  // Re-entrancy: the interrupted context, reset, must match a fresh one.
  ctx->ResetForRerun();
  Result<OptimizationResult> rerun = orderer->Optimize(*ctx);
  FUZZ_CHECK(rerun.ok(), "%s rerun after %s fault failed: %s",
             std::string(orderer->name()).c_str(),
             std::string(testing::FaultPointName(point)).c_str(),
             rerun.status().ToString().c_str());
  Result<OptimizationResult> baseline =
      orderer->Optimize(graph, cost_model);
  FUZZ_CHECK(baseline.ok(), "%s baseline failed: %s",
             std::string(orderer->name()).c_str(),
             baseline.status().ToString().c_str());
  FUZZ_CHECK(rerun->cost == baseline->cost,
             "%s rerun cost %.17g != fresh-context cost %.17g after %s fault",
             std::string(orderer->name()).c_str(), rerun->cost,
             baseline->cost,
             std::string(testing::FaultPointName(point)).c_str());
}

/// Snapshot-mutation fuzz state: the pristine snapshot bytes (built
/// once), the original signatures for the poisoning check, and the
/// global tallies the summary line reports.
struct SnapshotFuzz {
  bool ready = false;
  std::string path;
  std::string pristine;
  std::vector<std::pair<std::string, OutcomeSignature>> originals;
  uint64_t mutations = 0;
  uint64_t corrupt_skipped = 0;
};
SnapshotFuzz g_snapshot_fuzz;

/// Builds the pristine snapshot: three clean DPccp plans over fixed
/// seeds, inserted into a bare cache and saved to a temp file.
void InitSnapshotFuzz(uint64_t seed, FuzzFailure* failure) {
  SnapshotFuzz& fuzz = g_snapshot_fuzz;
  serve::PlanCache cache{serve::PlanCacheConfig{}};
  const CoutCostModel cost_model;
  for (uint64_t draw = 0; draw < 3; ++draw) {
    Random rng(seed * 40503 + draw);
    std::string family;
    Result<QueryGraph> graph = testing::DrawWorkloadGraph(rng, &family);
    FUZZ_CHECK(graph.ok(), "snapshot fuzz: generator failed: %s",
               graph.status().ToString().c_str());
    Result<serve::CanonicalQuery> canonical =
        serve::CanonicalizeQuery(*graph, "DPccp", "cout");
    FUZZ_CHECK(canonical.ok(), "snapshot fuzz: canonicalization failed: %s",
               canonical.status().ToString().c_str());
    OptimizerContext ctx(canonical->graph, cost_model);
    Result<DegradationPolicy> policy = DegradationPolicy::Parse("DPccp");
    FUZZ_CHECK(policy.ok(), "snapshot fuzz: policy parse failed: %s",
               policy.status().ToString().c_str());
    Result<OptimizationResult> result = RunDegradationPolicy(*policy, ctx);
    FUZZ_CHECK(result.ok(), "snapshot fuzz: optimization failed: %s",
               result.status().ToString().c_str());
    serve::CachedPlan entry;
    entry.key = canonical->key;
    entry.hash = canonical->hash;
    entry.generation = cache.generation();
    entry.signature = ExtractOutcomeSignature(result, ctx.stats());
    entry.cost = result->cost;
    entry.cardinality = result->cardinality;
    entry.algorithm = result->stats.algorithm;
    entry.recompute_seconds = result->stats.elapsed_seconds;
    entry.plan = result->plan;
    fuzz.originals.emplace_back(canonical->key, entry.signature);
    FUZZ_CHECK(cache.Insert(std::move(entry)) == serve::CacheInsert::kInserted,
               "snapshot fuzz: pristine insert refused");
  }
  fuzz.path = (std::filesystem::temp_directory_path() /
               ("joinopt_fuzz_" + std::to_string(seed) + ".snap"))
                  .string();
  Result<serve::SnapshotSaveStats> saved =
      serve::SaveSnapshot(cache, fuzz.path);
  FUZZ_CHECK(saved.ok(), "snapshot fuzz: save failed: %s",
             saved.status().ToString().c_str());
  std::ifstream in(fuzz.path, std::ios::binary);
  fuzz.pristine.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  FUZZ_CHECK(fuzz.pristine.size() > 36,
             "snapshot fuzz: pristine snapshot too small (%zu bytes)",
             fuzz.pristine.size());
  fuzz.ready = true;
}

/// One snapshot-mutation round: corrupt the pristine bytes one way,
/// load, and hold the corruption-tolerance contract — typed outcome
/// only, and whatever survives replays its original signature.
void CheckSnapshotMutation(Random& rng, FuzzFailure* failure) {
  SnapshotFuzz& fuzz = g_snapshot_fuzz;
  std::string mutant = fuzz.pristine;
  const char* what = "";
  switch (rng.Uniform(4)) {
    case 0:
      mutant.resize(rng.Uniform(mutant.size() + 1));
      what = "truncation";
      break;
    case 1: {
      const size_t offset = static_cast<size_t>(rng.Uniform(mutant.size()));
      mutant[offset] = static_cast<char>(
          mutant[offset] ^ (1 << rng.Uniform(8)));
      what = "bit flip";
      break;
    }
    case 2:
      mutant += mutant.substr(36);
      what = "duplicated records";
      break;
    default:
      mutant = mutant.substr(0, 36) + std::string("\xff\xff\xff\xff", 4) +
               std::string(32, 'A');
      what = "hostile length";
      break;
  }
  {
    std::ofstream out(fuzz.path, std::ios::trunc | std::ios::binary);
    out.write(mutant.data(),
              static_cast<std::streamsize>(mutant.size()));
  }
  serve::PlanCache cache{serve::PlanCacheConfig{}};
  Result<serve::SnapshotLoadStats> loaded =
      serve::LoadSnapshot(cache, fuzz.path);
  ++fuzz.mutations;
  FUZZ_CHECK(loaded.ok(), "snapshot %s: untyped load error: %s", what,
             loaded.status().ToString().c_str());
  fuzz.corrupt_skipped += loaded->skipped_corrupt;
  for (const auto& [key, signature] : fuzz.originals) {
    const serve::PlanCache::LookupResult found =
        cache.Lookup(serve::FingerprintHash(key), key);
    if (found.outcome == serve::CacheLookup::kHit) {
      FUZZ_CHECK(found.entry->signature == signature,
                 "snapshot %s: POISONED survivor for key %s", what,
                 key.c_str());
    }
  }
}

/// Wire-frame mutation fuzz state (serve/wire.h): the pristine encoded
/// request (built once) and the outcome tallies the summary reports.
struct WireFuzz {
  bool ready = false;
  std::string payload;   ///< canonical request payload
  std::string pristine;  ///< the full encoded frame
  uint64_t mutations = 0;
  uint64_t rejected = 0;    ///< typed kCorrupt outcomes
  uint64_t incomplete = 0;  ///< typed kIncomplete (streaming "need more")
  uint64_t survivors = 0;   ///< frames that decoded whole
};
WireFuzz g_wire_fuzz;

/// Builds the pristine wire frame and proves the codec's bit-identity
/// contract on it: decode(encode(x)) == x at both the frame and the
/// payload grammar layer.
void InitWireFuzz(uint64_t seed, FuzzFailure* failure) {
  WireFuzz& fuzz = g_wire_fuzz;
  Random rng(seed * 52859 + 1);
  std::string family;
  Result<QueryGraph> graph = testing::DrawWorkloadGraph(rng, &family);
  FUZZ_CHECK(graph.ok(), "wire fuzz: generator failed: %s",
             graph.status().ToString().c_str());
  serve::ServeRequest request;
  request.graph = std::move(*graph);
  request.orderer = "DPccp";
  request.cost_model = "cout";
  request.memo_entry_budget = 12345;
  request.deadline_seconds = 0.25;
  request.threads = 2;
  fuzz.payload = serve::EncodeRequestPayload(request);
  fuzz.pristine = serve::EncodeFrame(serve::FrameType::kRequest, fuzz.payload);
  const serve::FrameDecodeResult decoded = serve::DecodeFrame(fuzz.pristine);
  FUZZ_CHECK(decoded.outcome == serve::FrameDecode::kFrame &&
                 decoded.frame.payload == fuzz.payload &&
                 decoded.consumed == fuzz.pristine.size(),
             "wire fuzz: pristine frame does not round-trip");
  Result<serve::ServeRequest> round =
      serve::DecodeRequestPayload(fuzz.payload);
  FUZZ_CHECK(round.ok(), "wire fuzz: pristine payload decode failed: %s",
             round.status().ToString().c_str());
  FUZZ_CHECK(serve::EncodeRequestPayload(*round) == fuzz.payload,
             "wire fuzz: canonical re-encode diverged from the pristine "
             "payload");
  fuzz.ready = true;
}

/// One wire-mutation round: corrupt the pristine frame one way and hold
/// the decode contract — a typed outcome (kCorrupt with a detail,
/// kIncomplete, or a whole frame), never a crash, and any surviving
/// frame is bit-identical to the pristine one through a full
/// decode + re-encode cycle.
void CheckWireMutation(Random& rng, FuzzFailure* failure) {
  WireFuzz& fuzz = g_wire_fuzz;
  std::string mutant = fuzz.pristine;
  const char* what = "";
  switch (rng.Uniform(3)) {
    case 0:
      mutant.resize(rng.Uniform(mutant.size() + 1));
      what = "truncation";
      break;
    case 1: {
      const size_t offset = static_cast<size_t>(rng.Uniform(mutant.size()));
      mutant[offset] =
          static_cast<char>(mutant[offset] ^ (1 << rng.Uniform(8)));
      what = "bit flip";
      break;
    }
    default:
      // Hostile length: a header that promises 4 GiB must be rejected
      // at the ceiling, never allocated or waited for.
      for (int i = 6; i <= 9; ++i) {
        mutant[static_cast<size_t>(i)] = static_cast<char>(0xff);
      }
      what = "length inflation";
      break;
  }
  ++fuzz.mutations;
  const serve::FrameDecodeResult decoded = serve::DecodeFrame(mutant);
  switch (decoded.outcome) {
    case serve::FrameDecode::kCorrupt:
      ++fuzz.rejected;
      FUZZ_CHECK(!decoded.detail.empty(),
                 "wire %s: kCorrupt without a detail string", what);
      break;
    case serve::FrameDecode::kIncomplete:
      // Truncations land here by design: a prefix of a valid frame is
      // indistinguishable from a slow writer mid-frame.
      ++fuzz.incomplete;
      break;
    case serve::FrameDecode::kFrame: {
      ++fuzz.survivors;
      FUZZ_CHECK(decoded.frame.payload == fuzz.payload,
                 "wire %s: surviving frame's payload is not bit-identical "
                 "to the pristine one",
                 what);
      Result<serve::ServeRequest> round =
          serve::DecodeRequestPayload(decoded.frame.payload);
      FUZZ_CHECK(round.ok() &&
                     serve::EncodeRequestPayload(*round) == fuzz.payload,
                 "wire %s: survivor re-encode diverged", what);
      break;
    }
  }
}

/// Catalog round trip with the kAdversarialStats point armed: validation
/// passes, the handed-out graph is corrupted, the optimizer prologue
/// must catch it.
void CheckCatalogStatsFault(const QueryGraph& graph,
                            const CostModel& cost_model,
                            FuzzFailure* failure) {
  Result<Catalog> catalog = ParseQuerySpec(WriteQuerySpec(graph));
  FUZZ_CHECK(catalog.ok(), "spec round trip failed: %s",
             catalog.status().ToString().c_str());
  testing::FaultConfig fault;
  fault.at(testing::FaultPoint::kAdversarialStats) = 1;
  testing::ScopedFaultInjection scoped(fault);
  Result<QueryGraph> corrupted = catalog->BuildQueryGraph();
  FUZZ_CHECK(corrupted.ok(),
             "BuildQueryGraph failed under stats fault (validation runs "
             "before corruption): %s",
             corrupted.status().ToString().c_str());
  CheckAllReject(*corrupted, cost_model, failure);
}

int Run(uint64_t seed, uint64_t iterations, bool verbose) {
  const CoutCostModel cout_model;
  const BestOfCostModel bestof_model = BestOfCostModel::Standard();
  uint64_t mode_counts[6] = {0, 0, 0, 0, 0, 0};
  static const char* const kModeNames[6] = {
      "plain",       "extreme",     "degenerate",
      "fault-alloc", "fault-clock", "fault-trace"};

  for (uint64_t i = 0; i < iterations; ++i) {
    Random rng(seed * 1000003 + i);
    std::string family;
    Result<QueryGraph> drawn = testing::DrawWorkloadGraph(rng, &family);
    if (!drawn.ok()) {
      std::fprintf(stderr,
                   "iteration %" PRIu64 " (seed %" PRIu64
                   "): generator failed: %s\n",
                   i, seed, drawn.status().ToString().c_str());
      return 1;
    }
    QueryGraph graph = std::move(*drawn);
    // Alternate cost models so both linear (Cout) and operator-min
    // (BestOf) accumulation go through the saturation path.
    const char* const cost_model_name = (i % 2 == 0) ? "cout" : "bestof";
    const CostModel& cost_model =
        (i % 2 == 0) ? static_cast<const CostModel&>(cout_model)
                     : static_cast<const CostModel&>(bestof_model);

    const int mode = static_cast<int>(i % 6);
    ++mode_counts[mode];
    FuzzFailure failure;
    switch (mode) {
      case 0:
        CheckAgreement(graph, cost_model, &failure);
        break;
      case 1:
        testing::ApplyExtremeStatistics(graph, rng);
        CheckAgreement(graph, cost_model, &failure);
        break;
      case 2:
        testing::CorruptOneStatistic(graph, rng);
        CheckAllReject(graph, cost_model, &failure);
        break;
      case 3:
        CheckFaultedRun(graph, cost_model, cost_model_name,
                        testing::FaultPoint::kArenaAlloc, rng, seed, i,
                        &failure);
        break;
      case 4:
        CheckFaultedRun(graph, cost_model, cost_model_name,
                        testing::FaultPoint::kDeadline, rng, seed, i,
                        &failure);
        break;
      default:
        CheckFaultedRun(graph, cost_model, cost_model_name,
                        testing::FaultPoint::kTraceSink, rng, seed, i,
                        &failure);
        break;
    }
    if (!failure.failed && mode != 2 && i % 7 == 0) {
      CheckCatalogStatsFault(graph, cost_model, &failure);
    }
    if (!failure.failed && i % 11 == 3) {
      if (!g_snapshot_fuzz.ready) {
        InitSnapshotFuzz(seed, &failure);
      }
      if (!failure.failed) {
        CheckSnapshotMutation(rng, &failure);
      }
    }
    if (!failure.failed && i % 13 == 5) {
      if (!g_wire_fuzz.ready) {
        InitWireFuzz(seed, &failure);
      }
      if (!failure.failed) {
        CheckWireMutation(rng, &failure);
      }
    }
    if (!failure.failed && mode == 0) {
      // Plain rounds are Cout rounds. The dense draw has its own stream so
      // the rest of the iteration's draws stay as they were; from here on
      // `graph` and `family` name the dense query, so a failure reports
      // and captures it.
      Random dense_rng(~(seed * 1000003 + i));
      Result<QueryGraph> dense = DrawDenseGraph(dense_rng, &family);
      if (dense.ok()) {
        graph = std::move(*dense);
        CheckDenseDefaultPolicy(graph, cout_model, &failure);
      } else {
        failure.failed = true;
        failure.detail = "dense generator failed: " + dense.status().ToString();
      }
    }
    if (failure.failed) {
      std::fprintf(stderr,
                   "FAIL iteration %" PRIu64 " mode=%s family=%s n=%d "
                   "(reproduce: joinopt_fuzz --seed %" PRIu64
                   " --iters %" PRIu64 ")\n  %s\n",
                   i, kModeNames[mode], family.c_str(),
                   graph.relation_count(), seed, i + 1,
                   failure.detail.c_str());
      // Oracle violation: capture the iteration's query (mutations and
      // all) so the failure ships as a bundle, not just a seed. The
      // expectation is filled by one replay at emit time.
      EmitRepro(testing::MakeReproBundle(
          graph, "DPccp", cost_model_name, OptimizeOptions(),
          testing::FaultConfig(), /*throwing_trace=*/false, seed,
          "joinopt_fuzz oracle failure, iteration " + std::to_string(i) +
              ", mode " + kModeNames[mode] + ": " + failure.detail));
      return 1;
    }
    if (verbose && (i + 1) % 100 == 0) {
      std::fprintf(stderr, "... %" PRIu64 "/%" PRIu64 " iterations\n", i + 1,
                   iterations);
    }
  }
  if (!g_snapshot_fuzz.path.empty()) {
    std::error_code ec;
    std::filesystem::remove(g_snapshot_fuzz.path, ec);
  }
  std::printf("joinopt_fuzz: %" PRIu64
              " iterations clean (seed %" PRIu64
              "; plain %" PRIu64 ", extreme %" PRIu64 ", degenerate %" PRIu64
              ", fault-alloc %" PRIu64 ", fault-clock %" PRIu64
              ", fault-trace %" PRIu64 ")\n",
              iterations, seed, mode_counts[0], mode_counts[1],
              mode_counts[2], mode_counts[3], mode_counts[4],
              mode_counts[5]);
  std::printf("snapshot fuzz: %" PRIu64 " mutations, %" PRIu64
              " corrupt records skipped\n",
              g_snapshot_fuzz.mutations, g_snapshot_fuzz.corrupt_skipped);
  std::printf("wire fuzz: %" PRIu64 " mutations, %" PRIu64 " rejected, %"
              PRIu64 " incomplete, %" PRIu64 " survivors\n",
              g_wire_fuzz.mutations, g_wire_fuzz.rejected,
              g_wire_fuzz.incomplete, g_wire_fuzz.survivors);
  std::printf("policy fuzz: %" PRIu64 " default-policy runs, %" PRIu64
              " routed to DPconv\n",
              g_policy_fuzz.runs, g_policy_fuzz.routed);
  return 0;
}

}  // namespace
}  // namespace joinopt

int main(int argc, char** argv) {
  uint64_t iterations = 500;
  uint64_t seed = 20060912;  // VLDB 2006 session date; arbitrary but fixed.
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iterations = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--repro-dir") == 0 && i + 1 < argc) {
      joinopt::g_repro_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--max-repros") == 0 && i + 1 < argc) {
      joinopt::g_max_repros =
          static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--iters N] [--seed S] [--verbose]\n"
                   "          [--repro-dir DIR] [--max-repros N]\n",
                   argv[0]);
      return 2;
    }
  }
  // A typo'd JOINOPT_FAULT_* or limit knob must abort the harness, not
  // silently fuzz without faults (or with a limit parsed as zero).
  const joinopt::Result<joinopt::testing::FaultConfig> env_fault =
      joinopt::testing::FaultConfigFromEnv();
  if (!env_fault.ok()) {
    std::fprintf(stderr, "joinopt_fuzz: %s\n",
                 env_fault.status().ToString().c_str());
    return 2;
  }
  const joinopt::Status env_limits = joinopt::ValidateLimitEnv();
  if (!env_limits.ok()) {
    std::fprintf(stderr, "joinopt_fuzz: %s\n", env_limits.ToString().c_str());
    return 2;
  }
  if (!joinopt::g_repro_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(joinopt::g_repro_dir, ec);
    if (ec) {
      std::fprintf(stderr, "joinopt_fuzz: cannot create --repro-dir %s: %s\n",
                   joinopt::g_repro_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }
  return joinopt::Run(seed, iterations, verbose);
}
