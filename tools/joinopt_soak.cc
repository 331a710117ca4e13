/// joinopt_soak — the concurrent anytime-optimization soak harness.
///
///   joinopt_soak [--threads N] [--queries N] [--seed S] [--verbose]
///                [--repro-dir DIR] [--service]
///                [--crash-recovery] [--cycles N] [--snapshot PATH]
///
/// N worker threads pull queries off a shared seeded stream (all seven
/// graph families via testing::DrawWorkloadGraph) and optimize each with
/// a randomly drawn algorithm (the four exact DPs plus the Adaptive
/// facade) under randomly drawn pressure: tight per-query deadlines,
/// small memo budgets, and randomized fault-injection schedules
/// (allocation, clock, trace-sink), all with anytime salvage armed.
/// The per-query RNG depends only on (seed, query index), never on the
/// thread that happens to run it, so any failure reproduces
/// single-threaded with the printed seed.
///
/// Oracles, checked for every query:
///
///   * no crash, ever — any escaped exception or signal fails CI;
///   * every successful result is either exact (cost equals a clean
///     DPccp baseline computed on the same thread) or a validator-clean
///     best-effort plan with a populated DegradationReport whose cost is
///     >= the baseline optimum;
///   * failures are confined to the typed degradation codes
///     (kBudgetExceeded / kInternal);
///   * no cross-query state leakage: every worker re-runs a fixed
///     sentinel query at intervals and must reproduce the exact cost the
///     main thread computed before the workers started (the fault
///     injector, governor, and memo are all per-run/per-thread state —
///     any bleed shows up here);
///   * liveness: a watchdog thread aborts the process with diagnostics
///     when no worker makes progress for JOINOPT_WATCHDOG_S seconds
///     (default 30, automatically quadrupled under ASan/TSan builds).
///
/// With --service the soak instead drives the serving layer
/// (serve::OptimizerService) through its chaos battery: a pool of
/// recurring queries (so the plan cache actually gets hits) is streamed
/// through the service while the harness injects per-request fault
/// schedules, bumps the catalog generation mid-stream, and fires
/// overload bursts several times the queue depth. Service-mode oracles:
///
///   * cache poisoning: EVERY cache hit is re-checked against a fresh
///     clean DP on the same canonical graph — the hit's cost and full
///     OutcomeSignature must match bit-for-bit (the hit==miss contract);
///   * typed degradation only: responses are kOk or one of
///     kBudgetExceeded / kInternal / kOverloaded; sheds carry
///     kOverloaded and the shed flag, never a hang or a silent drop;
///   * overload bursts shed rather than stall: each burst must complete
///     (every future resolves) with at least one typed shed — half the
///     burst carries an unmeetable 1ns deadline so that bar holds even
///     on hardware fast enough to drain the burst outright;
///   * generation bumps never let a pre-bump plan surface afterwards
///     (subsumed by the poisoning oracle, since the oracle re-runs
///     against current statistics);
///   * submissions after Shutdown are shed with kOverloaded;
///   * liveness: the same watchdog, over harvested responses.
///
/// With --crash-recovery (POSIX only) the soak becomes a process-kill
/// chaos harness for snapshot persistence (serve/snapshot.h). A
/// single-threaded supervisor forks a service worker that loads the
/// snapshot at --snapshot (a temp file by default), replays the
/// recurring pool against it, snapshots on a tight period, and then
/// streams chaos traffic until the supervisor SIGKILLs it after a
/// randomized 5-250 ms delay — deliberately landing kills mid-traffic
/// and, with a ~20 ms snapshot period, frequently mid-snapshot-write.
/// --cycles N kill/restart cycles (default 3) are followed by one final
/// clean cycle that must exit 0. Crash-recovery oracles:
///
///   * warm restart: every cycle after the first must load the snapshot
///     (typed kLoaded, all pool entries restored) and replay the ENTIRE
///     pool as cache hits, each re-checked by the poisoning oracle — a
///     recovered hit must match a fresh DP bit-for-bit;
///   * torn-rename: between cycles the supervisor loads the surviving
///     file in-process; a kill mid-write must leave the PREVIOUS
///     complete snapshot, never a torn one;
///   * kill discipline: a worker that exits on its own before the kill
///     failed an oracle; the supervisor requires WIFSIGNALED(SIGKILL);
///   * corruption drill: after the last cycle one record byte is
///     flipped on disk and the load must skip exactly that record with
///     a typed count — never crash, never serve it.
///
/// With --wire (POSIX only) the soak attacks the network front end
/// (serve/server.h + serve/wire.h). Phase 1 forks a real wire server per
/// cycle and drives it over TCP: kill cycles SIGKILL it mid-stream
/// (client retry must come back with a typed kUnavailable; the snapshot
/// must survive untorn; the next cycle must warm-restart into all-hit
/// wire traffic, poisoning-oracle-checked), and the final cycle must
/// drain to exit 0 on SIGTERM. Phase 2 runs an in-process protocol
/// battery: loopback responses bit-identical to SubmitAndWait, hostile
/// frames (garbage/bitflip/unknown-type/hostile-length/response-typed)
/// each earning a typed error then a clean close, malformed payloads
/// answered without dropping the connection, one-byte-at-a-time slow
/// writers served, stalled writers deadline-closed, mid-frame
/// disconnects shrugged off, and connection-table overflow shedding
/// typed kOverloaded frames. The wire oracle everywhere: the server
/// never crashes, and every outcome is a typed response or a clean
/// close.
///
/// With --repro-dir, the soak doubles as a flight recorder. Each worker
/// flushes a PARTIAL bundle (inputs, no expectation) to
/// inflight-<worker>.joinopt BEFORE dispatching every query, so even the
/// watchdog's hard abort leaves a usable artifact naming the query that
/// was running; the file is rewritten per query and removed on clean
/// worker exit. An oracle failure additionally captures the query as
/// repro-<q>.joinopt with the expectation filled by one replay. Soak
/// bundles that armed a wall-clock deadline (deadline_s) are recorded
/// truthfully but replay only approximately — the fault-point and budget
/// interruptions replay bit-for-bit.
///
/// Exit code 0 when the whole stream completes clean; 1 on the first
/// violated oracle (with the query index + seed reproducer); 2 on usage
/// errors; 3 on a watchdog stall. Runs under ThreadSanitizer in
/// tools/ci.sh (JOINOPT_SANITIZE=thread).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <future>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <csignal>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "joinopt.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "testing/adversarial.h"
#include "testing/fault_injection.h"
#include "testing/repro.h"
#include "testing/workloads.h"
#include "util/net.h"

namespace joinopt {
namespace {

const char* const kAlgorithms[] = {"DPsize",    "DPsub",    "DPccp",
                                   "DPhyp",     "DPsizePar", "DPsubPar",
                                   "Adaptive",  "DPconv"};
constexpr int kAlgorithmCount = 8;

/// Relative tolerance for cost comparisons: the baseline and the checked
/// run price identical trees through identical arithmetic, so this only
/// absorbs the validator-style reassociation noise.
constexpr double kCostTolerance = 1e-6;

/// The sentinel query for leak detection: fixed family, size, and seed.
constexpr uint64_t kSentinelSeed = 4242;

struct SoakConfig {
  int threads = 8;
  uint64_t queries = 500;
  uint64_t seed = 20060912;
  bool verbose = false;
  /// Drive serve::OptimizerService instead of bare orderers.
  bool service = false;
  /// Fork/SIGKILL chaos harness for snapshot persistence (POSIX only).
  bool crash_recovery = false;
  /// Wire-protocol chaos harness (POSIX only; see RunWireMode).
  bool wire = false;
  /// SIGKILL cycles before the final clean cycle.
  uint64_t crash_cycles = 3;
  /// Snapshot file for --crash-recovery; empty = per-run temp file.
  std::string snapshot_path;
  /// Watchdog stall limit (env-resolved in main; see util/env.h).
  double watchdog_seconds = 30.0;
  /// Flight-recorder directory; empty = capture disabled.
  std::string repro_dir;
};

struct SharedState {
  std::atomic<uint64_t> next_query{0};
  /// Monotone progress counter the watchdog watches.
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::mutex failure_mutex;
  std::string failure_detail;

  void Fail(std::string detail) {
    const std::lock_guard<std::mutex> lock(failure_mutex);
    if (!failed.exchange(true)) {
      failure_detail = std::move(detail);
    }
  }
};

Result<QueryGraph> MakeSentinelQuery() {
  WorkloadConfig config;
  config.seed = kSentinelSeed;
  return MakeChainQuery(6, config);
}

/// One worker's view of the run: its RNG is re-seeded per query from the
/// query index, so the stream is thread-assignment independent.
class Worker {
 public:
  Worker(int id, const SoakConfig& config, SharedState& shared,
         double sentinel_cost)
      : id_(id),
        config_(config),
        shared_(shared),
        sentinel_cost_(sentinel_cost) {}

  void Run() {
    const Result<QueryGraph> sentinel = MakeSentinelQuery();
    if (!sentinel.ok()) {
      shared_.Fail("sentinel generator failed: " +
                   sentinel.status().ToString());
      return;
    }
    while (!shared_.failed.load(std::memory_order_relaxed)) {
      const uint64_t q =
          shared_.next_query.fetch_add(1, std::memory_order_relaxed);
      if (q >= config_.queries) {
        break;
      }
      RunQuery(q);
      shared_.completed.fetch_add(1, std::memory_order_relaxed);
      if (q % 50 == 17) {
        CheckSentinel(*sentinel, q);
      }
    }
    // Clean exit: this worker is not stuck in anything, so its in-flight
    // marker would only mislead whoever reads the artifacts.
    if (!config_.repro_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove(InflightPath(), ec);
    }
  }

 private:
  void RunQuery(uint64_t q) {
    Random rng(config_.seed * 1000003 + q);
    std::string family;
    Result<QueryGraph> drawn = testing::DrawWorkloadGraph(rng, &family);
    if (!drawn.ok()) {
      FailQuery(q, family, "generator failed: " + drawn.status().ToString());
      return;
    }
    const QueryGraph& graph = *drawn;
    const CoutCostModel cost_model;
    const JoinOrderer* orderer =
        OptimizerRegistry::Get(kAlgorithms[rng.Uniform(kAlgorithmCount)]);
    if (orderer == nullptr) {
      FailQuery(q, family, "algorithm missing from registry");
      return;
    }

    // Draw this query's pressure: deadlines and budgets tight enough to
    // trip mid-run on the larger graphs, plus at most one fault point.
    OptimizeOptions options;
    options.salvage_on_interrupt = true;
    if (rng.Bernoulli(0.5)) {
      options.memo_entry_budget = 4 + rng.Uniform(60);
    }
    if (rng.Bernoulli(0.3)) {
      options.deadline_seconds = rng.UniformDouble(1e-7, 2e-3);
    }
    // An explicit small thread count for the parallel orderers (serial
    // orderers ignore it): auto-detection would tie the recorded bundle
    // to this machine's core count, and nested auto-sized pools under
    // config_.threads soak workers would oversubscribe badly.
    options.threads = 1 + static_cast<int>(rng.Uniform(4));
    testing::FaultConfig fault;
    switch (rng.Uniform(4)) {
      case 0:
        fault.at(testing::FaultPoint::kArenaAlloc) = 1 + rng.Uniform(512);
        break;
      case 1:
        fault.at(testing::FaultPoint::kDeadline) = 1 + rng.Uniform(512);
        break;
      case 2:
        fault.at(testing::FaultPoint::kTraceSink) = 1 + rng.Uniform(64);
        break;
      default:
        break;  // One in four queries runs fault-free.
    }
    testing::ThrowingTraceSink sink;
    if (fault.at(testing::FaultPoint::kTraceSink) != 0) {
      options.trace = &sink;
    }

    // Flight recorder: flush this query's inputs as a PARTIAL bundle
    // BEFORE dispatching, so a hang (and the watchdog's _Exit) still
    // leaves a machine-readable record of what was running.
    testing::ReproBundle bundle = testing::MakeReproBundle(
        graph, orderer->name(), "cout", options, fault,
        options.trace != nullptr, config_.seed,
        "joinopt_soak query " + std::to_string(q) + ", family " + family +
            ", worker " + std::to_string(id_));
    if (!config_.repro_dir.empty()) {
      std::ofstream out(InflightPath(), std::ios::trunc);
      if (out) {
        out << testing::WriteReproBundle(bundle);
        out.flush();
      }
    }

    Result<OptimizationResult> result = Status::Internal("never ran");
    {
      // The injector is thread_local, so this schedule is invisible to
      // every other worker. Construct the context inside the scope: the
      // governor caches the armed flag at construction.
      testing::ScopedFaultInjection scoped(fault);
      OptimizerContext ctx(graph, cost_model, options);
      result = orderer->Optimize(ctx);
    }

    // Clean exact baseline on this thread (fault scope already restored).
    const JoinOrderer* baseline_orderer = OptimizerRegistry::Get("DPccp");
    Result<OptimizationResult> baseline =
        baseline_orderer->Optimize(graph, cost_model);
    if (!baseline.ok()) {
      FailQuery(q, family,
                "clean DPccp baseline failed: " + baseline.status().ToString(),
                &bundle);
      return;
    }

    if (!result.ok()) {
      const StatusCode code = result.status().code();
      if (code != StatusCode::kBudgetExceeded &&
          code != StatusCode::kInternal) {
        FailQuery(q, family,
                  std::string(orderer->name()) +
                      " failed outside the degradation codes: " +
                      result.status().ToString(),
                  &bundle);
      }
      return;
    }

    const Status valid = ValidatePlan(result->plan, graph, cost_model);
    if (!valid.ok()) {
      FailQuery(q, family,
                std::string(orderer->name()) +
                    " plan failed validation: " + valid.ToString(),
                &bundle);
      return;
    }
    const double floor = baseline->cost * (1.0 - kCostTolerance);
    if (result->cost < floor) {
      FailQuery(q, family,
                std::string(orderer->name()) + " cost " +
                    std::to_string(result->cost) +
                    " beat the exact optimum " +
                    std::to_string(baseline->cost),
                &bundle);
      return;
    }
    if (result->stats.best_effort) {
      if (!result->degradation.best_effort ||
          result->degradation.trigger == StatusCode::kOk) {
        FailQuery(q, family,
                  "best-effort result with an empty DegradationReport",
                  &bundle);
        return;
      }
    } else if (result->stats.fallback_from.empty() &&
               std::string(orderer->name()) != "GOO" &&
               result->stats.algorithm != "IDP1" &&
               result->stats.algorithm != "GOO") {
      // Exact completion by an exact DP: must match the baseline optimum.
      const double ceiling = baseline->cost * (1.0 + kCostTolerance);
      if (result->cost > ceiling) {
        FailQuery(q, family,
                  result->stats.algorithm + " completed exactly with cost " +
                      std::to_string(result->cost) + " but the optimum is " +
                      std::to_string(baseline->cost),
                  &bundle);
        return;
      }
    }
  }

  /// Re-runs the fixed sentinel with clean options; any deviation from
  /// the pre-computed cost means one query's state leaked into another.
  void CheckSentinel(const QueryGraph& sentinel, uint64_t after_query) {
    const CoutCostModel cost_model;
    const JoinOrderer* orderer = OptimizerRegistry::Get("DPccp");
    Result<OptimizationResult> result =
        orderer->Optimize(sentinel, cost_model);
    if (!result.ok()) {
      shared_.Fail("sentinel query failed after query " +
                   std::to_string(after_query) + ": " +
                   result.status().ToString());
      return;
    }
    if (result->cost != sentinel_cost_ || result->stats.best_effort) {
      char buffer[192];
      std::snprintf(buffer, sizeof(buffer),
                    "cross-query state leak: sentinel cost %.17g != %.17g "
                    "after query %" PRIu64,
                    result->cost, sentinel_cost_, after_query);
      shared_.Fail(buffer);
    }
  }

  void FailQuery(uint64_t q, const std::string& family, std::string detail,
                 const testing::ReproBundle* bundle = nullptr) {
    shared_.Fail("query " + std::to_string(q) + " (family " + family +
                 ", reproduce: joinopt_soak --threads 1 --seed " +
                 std::to_string(config_.seed) + " --queries " +
                 std::to_string(q + 1) + "): " + std::move(detail));
    if (bundle != nullptr && !config_.repro_dir.empty()) {
      CaptureRepro(*bundle, q);
    }
  }

  std::string InflightPath() const {
    return config_.repro_dir + "/inflight-" + std::to_string(id_) +
           ".joinopt";
  }

  /// Persists a failed query as repro-<q>.joinopt. One replay (on this
  /// thread; the injector is thread_local) fills the expectation so the
  /// artifact replays clean when the interruption was deterministic.
  void CaptureRepro(testing::ReproBundle bundle, uint64_t q) const {
    const Result<OutcomeSignature> observed = testing::ReplayBundle(bundle);
    if (observed.ok()) {
      bundle.expected = *observed;
      bundle.has_expected = true;
    }
    const std::string path =
        config_.repro_dir + "/repro-" + std::to_string(q) + ".joinopt";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "joinopt_soak: cannot write %s\n", path.c_str());
      return;
    }
    out << testing::WriteReproBundle(bundle);
    std::fprintf(stderr, "joinopt_soak: captured %s\n", path.c_str());
  }

  const int id_;
  const SoakConfig& config_;
  SharedState& shared_;
  double sentinel_cost_;
};

/// Aborts the process when the workers stop making progress: a deadlock
/// or livelock under TSan/faults must fail loudly, not hang CI. The
/// stall limit comes from JOINOPT_WATCHDOG_S (auto-scaled for sanitizer
/// builds; see util/env.h), resolved once in main.
void Watchdog(SharedState& shared, double stall_seconds,
              const std::string& repro_dir) {
  const auto stall_limit =
      std::chrono::duration<double>(stall_seconds);
  uint64_t last_completed = shared.completed.load();
  auto last_change = std::chrono::steady_clock::now();
  while (!shared.done.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const uint64_t now_completed = shared.completed.load();
    const auto now = std::chrono::steady_clock::now();
    if (now_completed != last_completed) {
      last_completed = now_completed;
      last_change = now;
    } else if (now - last_change > stall_limit) {
      std::fprintf(stderr,
                   "joinopt_soak: WATCHDOG: no progress for %.0fs at %" PRIu64
                   " completed queries; aborting\n",
                   stall_seconds, now_completed);
      if (!repro_dir.empty()) {
        std::fprintf(stderr,
                     "joinopt_soak: the stuck queries' inputs are the "
                     "inflight-*.joinopt bundles in %s (each worker flushed "
                     "its bundle before dispatching)\n",
                     repro_dir.c_str());
      }
      std::_Exit(3);
    }
  }
}

/// ---------------------------------------------------------------------
/// Service chaos mode (--service).
/// ---------------------------------------------------------------------

/// One recurring query of the service-mode pool. The pool is small
/// relative to the stream length so the same fingerprint recurs and the
/// plan cache sees real hit traffic.
struct PoolQuery {
  QueryGraph graph;
  std::string family;
  std::string orderer;
};

/// One in-flight service request the harvester still owes a verdict.
struct InFlight {
  std::future<serve::ServeResponse> future;
  uint64_t q = 0;
  int pool_index = 0;
  bool faulted = false;
};

/// The request graph with every statistic replaced by its fingerprint
/// bucket representative, in the ORIGINAL numbering. This is the world
/// the service actually prices plans in (see serve/fingerprint.h), so it
/// is the graph a returned plan must validate against.
Result<QueryGraph> QuantizedCopy(const QueryGraph& graph) {
  QueryGraph quantized;
  for (int i = 0; i < graph.relation_count(); ++i) {
    Result<int> added = quantized.AddRelation(
        serve::DequantizeStat(serve::QuantizeStat(graph.cardinality(i))));
    if (!added.ok()) {
      return added.status();
    }
  }
  for (const JoinEdge& edge : graph.edges()) {
    const Status added = quantized.AddEdge(
        edge.left, edge.right,
        serve::DequantizeStat(serve::QuantizeStat(edge.selectivity)));
    if (!added.ok()) {
      return added;
    }
  }
  return quantized;
}

/// The poisoning oracle: a fresh, clean, unlimited run of the hit's
/// orderer on the SAME canonical graph the service optimizes. The cached
/// signature must match this bit-for-bit — anything else means the cache
/// served a plan a fresh optimization would not have produced.
bool CheckHitAgainstFreshRun(const PoolQuery& pool_query,
                             const serve::ServeResponse& response,
                             uint64_t q, SharedState& shared) {
  auto canonical = serve::CanonicalizeQuery(pool_query.graph,
                                            pool_query.orderer, "cout");
  if (!canonical.ok()) {
    shared.Fail("service query " + std::to_string(q) +
                ": oracle canonicalization failed: " +
                canonical.status().ToString());
    return false;
  }
  const CoutCostModel cost_model;
  const JoinOrderer* orderer = OptimizerRegistry::Get(pool_query.orderer);
  OptimizerContext ctx(canonical->graph, cost_model);
  const Result<OptimizationResult> fresh = orderer->Optimize(ctx);
  const OutcomeSignature fresh_signature =
      ExtractOutcomeSignature(fresh, ctx.stats());
  if (response.signature != fresh_signature) {
    shared.Fail("CACHE POISONING at service query " + std::to_string(q) +
                " (family " + pool_query.family + ", orderer " +
                pool_query.orderer +
                "): cached hit diverges from a fresh DP re-run:\n" +
                response.signature.DiffAgainst(fresh_signature));
    return false;
  }
  return true;
}

/// Validates one harvested response against the service-mode oracles.
void CheckServiceResponse(const PoolQuery& pool_query, const InFlight& flight,
                          serve::ServeResponse response,
                          SharedState& shared) {
  const StatusCode code = response.status.code();
  if (response.shed) {
    if (code != StatusCode::kOverloaded) {
      shared.Fail("service query " + std::to_string(flight.q) +
                  ": shed without kOverloaded: " +
                  response.status.ToString());
    }
    return;
  }
  if (!response.status.ok()) {
    if (code != StatusCode::kBudgetExceeded &&
        code != StatusCode::kInternal && code != StatusCode::kOverloaded) {
      shared.Fail("service query " + std::to_string(flight.q) +
                  " failed outside the degradation codes: " +
                  response.status.ToString());
    }
    return;
  }
  if (!response.plan.has_value()) {
    shared.Fail("service query " + std::to_string(flight.q) +
                ": kOk response without a plan");
    return;
  }
  // The response plan is in the REQUEST numbering but was priced in the
  // quantized-statistics world: validate it against the quantized copy of
  // the request graph (same numbering, bucket-representative stats).
  const Result<QueryGraph> quantized = QuantizedCopy(pool_query.graph);
  if (!quantized.ok()) {
    shared.Fail("service query " + std::to_string(flight.q) +
                ": quantized copy failed: " + quantized.status().ToString());
    return;
  }
  const CoutCostModel cost_model;
  const Status valid =
      ValidatePlan(*response.plan, *quantized, cost_model);
  if (!valid.ok()) {
    shared.Fail("service query " + std::to_string(flight.q) +
                ": plan failed validation: " + valid.ToString());
    return;
  }
  if (response.cache_hit &&
      !CheckHitAgainstFreshRun(pool_query, response, flight.q, shared)) {
    return;
  }
}

/// Builds the recurring service-mode pool: every family appears, sizes
/// small enough that the poisoning oracle's fresh re-runs stay cheap.
/// Deterministic in the seed, so a crash-recovery restart rebuilds the
/// exact fingerprints the previous process snapshotted.
constexpr int kPoolSize = 24;

Result<std::vector<PoolQuery>> BuildServicePool(uint64_t seed) {
  std::vector<PoolQuery> pool;
  pool.reserve(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    Random rng(seed * 7919 + static_cast<uint64_t>(i));
    PoolQuery entry;
    Result<QueryGraph> drawn = testing::DrawWorkloadGraph(rng, &entry.family);
    if (!drawn.ok()) {
      return drawn.status();
    }
    entry.graph = std::move(*drawn);
    entry.orderer = kAlgorithms[rng.Uniform(kAlgorithmCount)];
    pool.push_back(std::move(entry));
  }
  return pool;
}

int RunServiceMode(const SoakConfig& config) {
  Result<std::vector<PoolQuery>> pool_result = BuildServicePool(config.seed);
  if (!pool_result.ok()) {
    std::fprintf(stderr, "joinopt_soak: pool generator failed: %s\n",
                 pool_result.status().ToString().c_str());
    return 1;
  }
  std::vector<PoolQuery>& pool = *pool_result;

  serve::ServiceConfig service_config;
  service_config.workers = std::max(1, config.threads / 2);
  service_config.queue_depth = 16;
  service_config.max_retries = 2;
  service_config.cache.capacity = 16;  // Small: force real evictions.
  service_config.cache.shards = 4;
  auto service = serve::OptimizerService::Create(service_config);
  if (!service.ok()) {
    std::fprintf(stderr, "joinopt_soak: service creation failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  SharedState shared;
  std::thread watchdog(Watchdog, std::ref(shared), config.watchdog_seconds,
                       std::cref(config.repro_dir));
  uint64_t bursts = 0;
  uint64_t burst_sheds = 0;
  uint64_t generation_bumps = 0;

  constexpr uint64_t kWindow = 32;
  for (uint64_t base = 0;
       base < config.queries && !shared.failed.load(); base += kWindow) {
    const uint64_t end = std::min(base + kWindow, config.queries);
    std::vector<InFlight> window;
    window.reserve(static_cast<size_t>(end - base));
    for (uint64_t q = base; q < end; ++q) {
      Random rng(config.seed * 1000003 + q);
      InFlight flight;
      flight.q = q;
      flight.pool_index = static_cast<int>(rng.Uniform(kPoolSize));
      const PoolQuery& pool_query =
          pool[static_cast<size_t>(flight.pool_index)];
      serve::ServeRequest request;
      request.graph = pool_query.graph;
      request.orderer = pool_query.orderer;
      if (rng.Bernoulli(0.15)) {
        // Transient chaos: a one-shot fault the retry envelope should
        // absorb (the schedule fires once, the retry runs clean).
        testing::FaultConfig fault;
        if (rng.Bernoulli(0.5)) {
          fault.at(testing::FaultPoint::kArenaAlloc) = 1 + rng.Uniform(64);
        } else {
          fault.at(testing::FaultPoint::kDeadline) = 1 + rng.Uniform(256);
        }
        request.faults = fault;
        flight.faulted = true;
      }
      if (rng.Bernoulli(0.1)) {
        request.memo_entry_budget = 8 + rng.Uniform(40);
      }
      request.threads = 1 + static_cast<int>(rng.Uniform(2));
      flight.future = (*service)->Submit(std::move(request));
      window.push_back(std::move(flight));
      if (q % 64 == 63) {
        // Catalog chaos: statistics "changed" mid-stream while requests
        // are queued and optimizing. Stale entries must die, in-flight
        // inserts stamped with the old generation must be refused.
        (*service)->BumpCatalogGeneration();
        ++generation_bumps;
      }
    }
    for (InFlight& flight : window) {
      serve::ServeResponse response = flight.future.get();
      CheckServiceResponse(pool[static_cast<size_t>(flight.pool_index)],
                           flight, std::move(response), shared);
      shared.completed.fetch_add(1, std::memory_order_relaxed);
    }

    // Overload burst every fourth window: slam several times the queue
    // depth at once. The service must resolve EVERY future (drain or
    // shed), and under this pressure at least one shed must be typed.
    if ((base / kWindow) % 4 == 3 && !shared.failed.load()) {
      ++bursts;
      std::vector<InFlight> burst;
      const int burst_size = service_config.queue_depth * 4;
      for (int b = 0; b < burst_size; ++b) {
        Random rng(config.seed * 777767 + base + static_cast<uint64_t>(b));
        InFlight flight;
        flight.q = base + static_cast<uint64_t>(b);
        flight.pool_index = static_cast<int>(rng.Uniform(kPoolSize));
        serve::ServeRequest request;
        request.graph = pool[static_cast<size_t>(flight.pool_index)].graph;
        request.orderer =
            pool[static_cast<size_t>(flight.pool_index)].orderer;
        // Alternate an unmeetable deadline with deadline-free requests.
        // The 1ns deadline sheds deterministically on any hardware — the
        // predictor refuses it at admission once the EMA is warm, and one
        // that slips into the queue expires on dequeue — while the
        // deadline-free half must drain (or hit queue-full) under the
        // same pressure. A fixed 100us deadline here silently stopped
        // shedding on machines fast enough to drain the burst.
        request.deadline_seconds = (b % 2 == 0) ? 1e-9 : 0.0;
        flight.future = (*service)->Submit(std::move(request));
        burst.push_back(std::move(flight));
      }
      for (InFlight& flight : burst) {
        serve::ServeResponse response = flight.future.get();
        if (response.shed) {
          ++burst_sheds;
          if (response.status.code() != StatusCode::kOverloaded) {
            shared.Fail("burst shed without kOverloaded: " +
                        response.status.ToString());
          }
        }
        shared.completed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // Graceful drain, then the post-shutdown contract: a late Submit is
  // answered immediately with a typed shed, never queued into the void.
  (*service)->Shutdown(/*drain=*/true);
  {
    serve::ServeRequest late;
    late.graph = pool[0].graph;
    late.orderer = pool[0].orderer;
    serve::ServeResponse response = (*service)->SubmitAndWait(std::move(late));
    if (!response.shed ||
        response.status.code() != StatusCode::kOverloaded) {
      shared.Fail("post-shutdown submit was not shed with kOverloaded: " +
                  response.status.ToString());
    }
  }

  shared.done.store(true);
  watchdog.join();

  const serve::PlanCache::Stats cache = (*service)->CacheSnapshot();
  const serve::ServiceStats stats = (*service)->Snapshot();
  if (shared.failed.load()) {
    std::fprintf(stderr, "joinopt_soak: FAIL %s\n",
                 shared.failure_detail.c_str());
    return 1;
  }
  if (cache.hits == 0 && config.queries >= 2 * kPoolSize) {
    // A pool this small under a stream this long MUST hit; zero hits
    // means the fingerprint or the cache broke silently.
    std::fprintf(stderr,
                 "joinopt_soak: FAIL service mode saw zero cache hits over %"
                 PRIu64 " queries (pool %d)\n",
                 config.queries, kPoolSize);
    return 1;
  }
  if (bursts > 0 && burst_sheds == 0) {
    std::fprintf(stderr,
                 "joinopt_soak: FAIL %" PRIu64 " overload bursts produced "
                 "zero typed sheds — admission control is not shedding\n",
                 bursts);
    return 1;
  }
  std::printf(
      "joinopt_soak: service mode clean: %" PRIu64 " queries, %" PRIu64
      " hits / %" PRIu64 " misses / %" PRIu64 " stale, %" PRIu64
      " evictions, %" PRIu64 " generation bumps, %" PRIu64
      " bursts with %" PRIu64 " sheds (total shed %" PRIu64 "), seed %"
      PRIu64 "\n",
      config.queries, cache.hits, cache.misses, cache.stale,
      cache.evicted_probation + cache.evicted_protected, generation_bumps,
      bursts, burst_sheds,
      stats.shed_queue_full + stats.shed_predicted_deadline +
          stats.shed_queue_expired + stats.shed_shutdown,
      config.seed);
  return 0;
}

/// ---------------------------------------------------------------------
/// Crash-recovery chaos mode (--crash-recovery).
/// ---------------------------------------------------------------------

#ifndef _WIN32

/// Prints what each thread of `pid` is blocked in (the kernel's wait
/// channel and current syscall line from /proc/<pid>/task/<tid>/), so a
/// watchdog kill leaves a record of where the child hung. Best effort:
/// prints nothing where /proc is unavailable.
void DumpThreadStates(pid_t pid, const char* what) {
  const std::filesystem::path tasks =
      std::filesystem::path("/proc") / std::to_string(pid) / "task";
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::string fields[3];
    const char* const names[3] = {"comm", "wchan", "syscall"};
    for (int i = 0; i < 3; ++i) {
      std::ifstream in(task.path() / names[i]);
      std::getline(in, fields[i]);
    }
    std::fprintf(stderr,
                 "joinopt_soak: %s: thread %s (%s) wchan=%s syscall=%s\n",
                 what, task.path().filename().c_str(), fields[0].c_str(),
                 fields[1].c_str(), fields[2].c_str());
  }
}

/// waitpid(pid) bounded by `seconds`: true once the child has exited
/// (its status in *status). On timeout, dumps the child's thread states,
/// SIGKILLs and reaps it, and returns false.
bool WaitBounded(pid_t pid, double seconds, const char* what, int* status) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  for (;;) {
    const pid_t reaped = ::waitpid(pid, status, WNOHANG);
    if (reaped == pid) {
      return true;
    }
    if (reaped < 0) {
      std::perror("joinopt_soak: waitpid");
      return false;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::fprintf(stderr, "joinopt_soak: WATCHDOG: %s did not exit in %.0fs\n",
               what, seconds);
  DumpThreadStates(pid, what);
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return false;
}

/// Snapshot cadence inside the worker: tight enough that a randomized
/// 5-250 ms kill frequently lands mid-snapshot-write, exercising the
/// temp-file + atomic-rename protocol, not just happy-path persistence.
constexpr double kCrashSnapshotPeriodSeconds = 0.02;

/// The forked service worker for one crash-recovery cycle. Loads the
/// snapshot, replays the pool against it (poisoning-oracle-checked),
/// writes a fresh snapshot, drops the readiness marker for the
/// supervisor, then streams chaos traffic until SIGKILLed (or, on the
/// final cycle, exits cleanly after a bounded stream). Any oracle
/// failure exits 1 — the supervisor treats a self-exiting kill-cycle
/// worker as a failure.
int RunCrashWorker(const SoakConfig& config, const std::string& snapshot_path,
                   const std::string& marker_path, uint64_t cycle,
                   bool final_cycle) {
  Result<std::vector<PoolQuery>> pool_result = BuildServicePool(config.seed);
  if (!pool_result.ok()) {
    std::fprintf(stderr, "joinopt_soak: pool generator failed: %s\n",
                 pool_result.status().ToString().c_str());
    return 1;
  }
  std::vector<PoolQuery>& pool = *pool_result;

  serve::ServiceConfig service_config;
  service_config.workers = 2;
  service_config.queue_depth = 64;
  service_config.max_retries = 2;
  service_config.cache.capacity = 256;  // Holds the whole pool: no
                                        // eviction noise in the
                                        // hit-rate-retained oracle.
  service_config.cache.shards = 2;
  service_config.snapshot_path = snapshot_path;
  service_config.snapshot_period_seconds = kCrashSnapshotPeriodSeconds;
  auto service = serve::OptimizerService::Create(service_config);
  if (!service.ok()) {
    std::fprintf(stderr, "joinopt_soak: service creation failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  const serve::SnapshotLoadStats load = (*service)->LoadStats();
  if (cycle == 0) {
    if (load.outcome != serve::SnapshotLoad::kNoSnapshot) {
      std::fprintf(stderr,
                   "joinopt_soak: cycle 0 expected a cold start, got %s\n",
                   load.ToString().c_str());
      return 1;
    }
  } else if (load.outcome != serve::SnapshotLoad::kLoaded ||
             load.restored < pool.size()) {
    std::fprintf(stderr,
                 "joinopt_soak: cycle %" PRIu64
                 " recovery lost entries (want >= %zu restored): %s\n",
                 cycle, pool.size(), load.ToString().c_str());
    return 1;
  }

  // Warm phase: the whole pool, one clean request each. After a restart
  // EVERY one must be a cache hit (hit-rate retained), and every hit is
  // re-checked against a fresh DP by the poisoning oracle.
  SharedState shared;
  uint64_t hits = 0;
  for (int i = 0; i < static_cast<int>(pool.size()); ++i) {
    serve::ServeRequest request;
    request.graph = pool[static_cast<size_t>(i)].graph;
    request.orderer = pool[static_cast<size_t>(i)].orderer;
    serve::ServeResponse response =
        (*service)->SubmitAndWait(std::move(request));
    if (response.cache_hit) {
      ++hits;
    }
    InFlight flight;
    flight.q = static_cast<uint64_t>(i);
    flight.pool_index = i;
    CheckServiceResponse(pool[static_cast<size_t>(i)], flight,
                         std::move(response), shared);
    if (shared.failed.load()) {
      std::fprintf(stderr, "joinopt_soak: cycle %" PRIu64 " FAIL %s\n",
                   cycle, shared.failure_detail.c_str());
      return 1;
    }
  }
  if (cycle > 0 && hits < pool.size()) {
    std::fprintf(stderr,
                 "joinopt_soak: cycle %" PRIu64 " retained only %" PRIu64
                 "/%zu warm hits after recovery\n",
                 cycle, hits, pool.size());
    return 1;
  }

  // Guarantee a complete snapshot with the full pool exists before the
  // supervisor is told it may kill us.
  auto saved = (*service)->SaveSnapshotNow();
  if (!saved.ok()) {
    std::fprintf(stderr, "joinopt_soak: cycle %" PRIu64 " save failed: %s\n",
                 cycle, saved.status().ToString().c_str());
    return 1;
  }
  {
    std::ofstream marker(marker_path, std::ios::trunc);
    marker << "ready\n";
  }

  // Chaos phase: stream pool traffic (some requests fault-injected) with
  // the periodic snapshot thread racing underneath. Kill cycles run
  // until the SIGKILL lands; the final cycle is bounded and must drain
  // and exit clean.
  const uint64_t limit =
      final_cycle ? 4 * pool.size() : std::numeric_limits<uint64_t>::max();
  constexpr uint64_t kChaosWindow = 8;
  for (uint64_t base = 0; base < limit && !shared.failed.load();
       base += kChaosWindow) {
    std::vector<InFlight> window;
    for (uint64_t q = base; q < std::min(base + kChaosWindow, limit); ++q) {
      Random rng(config.seed * 1000003 + cycle * 0x9e3779b9 + q);
      InFlight flight;
      flight.q = q;
      flight.pool_index = static_cast<int>(rng.Uniform(kPoolSize));
      serve::ServeRequest request;
      request.graph = pool[static_cast<size_t>(flight.pool_index)].graph;
      request.orderer = pool[static_cast<size_t>(flight.pool_index)].orderer;
      if (rng.Bernoulli(0.15)) {
        testing::FaultConfig fault;
        if (rng.Bernoulli(0.5)) {
          fault.at(testing::FaultPoint::kArenaAlloc) = 1 + rng.Uniform(64);
        } else {
          fault.at(testing::FaultPoint::kDeadline) = 1 + rng.Uniform(256);
        }
        request.faults = fault;
        flight.faulted = true;
      }
      flight.future = (*service)->Submit(std::move(request));
      window.push_back(std::move(flight));
    }
    for (InFlight& flight : window) {
      serve::ServeResponse response = flight.future.get();
      CheckServiceResponse(pool[static_cast<size_t>(flight.pool_index)],
                           flight, std::move(response), shared);
    }
  }
  if (shared.failed.load()) {
    std::fprintf(stderr, "joinopt_soak: cycle %" PRIu64 " FAIL %s\n", cycle,
                 shared.failure_detail.c_str());
    return 1;
  }
  (*service)->Shutdown(/*drain=*/true);
  return 0;
}

/// Loads the surviving snapshot in-process — the supervisor's
/// torn-rename oracle. A SIGKILL mid-write must leave either the fresh
/// snapshot or the previous complete one; a torn header or lost pool
/// entry here means the atomic-rename protocol broke.
bool SnapshotSurvivedKill(const std::string& snapshot_path, uint64_t cycle) {
  serve::PlanCache cache{serve::PlanCacheConfig{}};
  auto loaded = serve::LoadSnapshot(cache, snapshot_path);
  if (!loaded.ok()) {
    std::fprintf(stderr,
                 "joinopt_soak: cycle %" PRIu64
                 " post-kill load errored: %s\n",
                 cycle, loaded.status().ToString().c_str());
    return false;
  }
  if (loaded->outcome != serve::SnapshotLoad::kLoaded ||
      loaded->restored < static_cast<uint64_t>(kPoolSize) ||
      loaded->skipped_corrupt != 0) {
    std::fprintf(stderr,
                 "joinopt_soak: cycle %" PRIu64
                 " kill tore the snapshot: %s\n",
                 cycle, loaded->ToString().c_str());
    return false;
  }
  return true;
}

int RunCrashRecovery(const SoakConfig& config) {
  std::string snapshot_path = config.snapshot_path;
  if (snapshot_path.empty()) {
    snapshot_path = (std::filesystem::temp_directory_path() /
                     ("joinopt_crash_" + std::to_string(::getpid()) + ".snap"))
                        .string();
  }
  const std::string marker_path = snapshot_path + ".ready";
  std::error_code ec;
  std::filesystem::remove(snapshot_path, ec);
  std::filesystem::remove(snapshot_path + ".tmp", ec);
  std::filesystem::remove(marker_path, ec);

  // The supervisor stays single-threaded (no watchdog thread): fork()
  // from a multithreaded parent is where the dragons live. Liveness is
  // enforced with bounded polls instead.
  const auto deadline_for = [&] {
    return std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(config.watchdog_seconds));
  };
  const uint64_t total_cycles = config.crash_cycles + 1;
  for (uint64_t cycle = 0; cycle < total_cycles; ++cycle) {
    const bool final_cycle = cycle == total_cycles - 1;
    std::filesystem::remove(marker_path, ec);
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("joinopt_soak: fork");
      return 1;
    }
    if (pid == 0) {
      std::exit(RunCrashWorker(config, snapshot_path, marker_path, cycle,
                               final_cycle));
    }
    if (final_cycle) {
      // Clean cycle: no kill. The worker must recover, replay the pool
      // as hits, run a bounded chaos stream, drain, and exit 0 — within
      // the watchdog budget.
      int status = 0;
      if (!WaitBounded(pid, config.watchdog_seconds, "final clean cycle",
                       &status)) {
        return 3;
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr,
                     "joinopt_soak: final clean cycle did not exit 0 "
                     "(status 0x%x)\n",
                     static_cast<unsigned>(status));
        return 1;
      }
      break;
    }
    // Wait for the worker's readiness marker (snapshot with the full
    // pool on disk), bounded by the watchdog budget.
    const auto marker_deadline = deadline_for();
    bool ready = false;
    while (std::chrono::steady_clock::now() < marker_deadline) {
      if (std::filesystem::exists(marker_path, ec)) {
        ready = true;
        break;
      }
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        std::fprintf(stderr,
                     "joinopt_soak: cycle %" PRIu64
                     " worker died before readiness (status 0x%x)\n",
                     cycle, static_cast<unsigned>(status));
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!ready) {
      std::fprintf(stderr,
                   "joinopt_soak: WATCHDOG: cycle %" PRIu64
                   " worker never became ready in %.0fs\n",
                   cycle, config.watchdog_seconds);
      DumpThreadStates(pid, "unready worker");
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return 3;
    }
    // The kill point is the chaos: anywhere from "barely into the chaos
    // stream" to "deep in it", regularly mid-snapshot-write given the
    // 20 ms snapshot period.
    Random rng(config.seed * 9176 + cycle);
    const uint64_t delay_ms = 5 + rng.Uniform(246);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    ::kill(pid, SIGKILL);
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0) {
      std::perror("joinopt_soak: waitpid");
      return 1;
    }
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      // A worker that exited on its own hit an oracle failure (the chaos
      // stream is unbounded on kill cycles).
      std::fprintf(stderr,
                   "joinopt_soak: cycle %" PRIu64
                   " worker exited before the kill (status 0x%x)\n",
                   cycle, static_cast<unsigned>(status));
      return 1;
    }
    if (!SnapshotSurvivedKill(snapshot_path, cycle)) {
      return 1;
    }
    std::printf("joinopt_soak: cycle %" PRIu64 " killed after %" PRIu64
                "ms; snapshot intact\n",
                cycle, delay_ms);
  }

  // Corruption drill: flip one byte in the first record's payload. The
  // loader must skip exactly that record with a typed count — no crash,
  // no poisoned entry, everything else restored.
  {
    std::fstream file(snapshot_path,
                      std::ios::in | std::ios::out | std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "joinopt_soak: cannot reopen %s for the drill\n",
                   snapshot_path.c_str());
      return 1;
    }
    file.seekg(50);
    char byte = 0;
    file.get(byte);
    file.seekp(50);
    file.put(static_cast<char>(byte ^ 0x40));
    file.flush();
  }
  serve::PlanCache cache{serve::PlanCacheConfig{}};
  auto drilled = serve::LoadSnapshot(cache, snapshot_path);
  if (!drilled.ok() || drilled->outcome != serve::SnapshotLoad::kLoaded ||
      drilled->skipped_corrupt < 1 || drilled->restored < 1) {
    std::fprintf(stderr, "joinopt_soak: corruption drill failed: %s\n",
                 drilled.ok() ? drilled->ToString().c_str()
                              : drilled.status().ToString().c_str());
    return 1;
  }

  std::filesystem::remove(snapshot_path, ec);
  std::filesystem::remove(snapshot_path + ".tmp", ec);
  std::filesystem::remove(marker_path, ec);
  std::printf("joinopt_soak: crash recovery clean: %" PRIu64
              " kill cycles + 1 clean cycle, pool %d, drill skipped %" PRIu64
              " corrupt record(s), seed %" PRIu64 "\n",
              config.crash_cycles, kPoolSize, drilled->skipped_corrupt,
              config.seed);
  return 0;
}

#else  // _WIN32

int RunCrashRecovery(const SoakConfig&) {
  std::fprintf(stderr,
               "joinopt_soak: --crash-recovery requires fork(); not "
               "supported on this platform\n");
  return 2;
}

#endif  // _WIN32

/// ---------------------------------------------------------------------
/// Wire chaos mode (--wire).
///
/// Two phases, in this order because fork() from a threaded process is
/// undefined enough that TSan refuses it: phase 1 runs ALL its forks
/// before phase 2 creates the first in-process thread.
///
/// Phase 1 — process-kill cycles: a forked child runs the full wire
/// server (OptimizerService + WireServer on an ephemeral port, snapshot
/// on a 20 ms period); the supervisor drives it over real TCP with a
/// WireClient. Kill cycles stream pool traffic, SIGKILL the server
/// mid-stream, and check: the orphaned client's next Call returns a
/// typed kUnavailable (never a hang or a crash), the snapshot on disk
/// is a complete previous generation (torn-rename oracle), and the NEXT
/// cycle's warm phase replays the whole pool as wire cache hits, each
/// re-verified against a fresh DP by the poisoning oracle. The final
/// cycle is killed with SIGTERM instead and must drain and exit 0.
///
/// Phase 2 — in-process protocol battery against a Start()ed server:
///   A. loopback bit-identity: every pool query over the wire must
///      match an in-process SubmitAndWait bit-for-bit (signature, cost,
///      cardinality, algorithm);
///   B. hostile frames (garbage, CRC bitflip, unknown type, hostile
///      length, response-typed frame) each earn a typed error frame then
///      a clean close; a malformed PAYLOAD in a valid frame earns a
///      typed response and the connection keeps working;
///   C. a one-byte-at-a-time slow writer inside the deadline succeeds;
///      a writer that stalls mid-frame is deadline-closed;
///   D. mid-frame disconnects and half-open peers never wedge the
///      server;
///   E. connection-table overflow sheds a typed kOverloaded frame at
///      accept, and a client calling into the full table comes back
///      with a typed kUnavailable after its retries — never a hang.
/// ---------------------------------------------------------------------

#ifndef _WIN32

/// The wire pool sticks to the serial exact DPs: phase 1's poisoning
/// oracle re-runs them in the SUPERVISOR between forks, and a parallel
/// orderer there would make the parent multithreaded at fork time.
Result<std::vector<PoolQuery>> BuildWirePool(uint64_t seed) {
  static const char* const kSerialDPs[] = {"DPsize", "DPsub", "DPccp",
                                           "DPhyp", "DPconv"};
  Result<std::vector<PoolQuery>> pool = BuildServicePool(seed);
  if (!pool.ok()) {
    return pool;
  }
  for (size_t i = 0; i < pool->size(); ++i) {
    Random rng(seed * 52711 + i);
    (*pool)[i].orderer = kSerialDPs[rng.Uniform(5)];
  }
  return pool;
}

serve::ServeRequest WireRequestFor(const PoolQuery& pool_query) {
  serve::ServeRequest request;
  request.graph = pool_query.graph;
  request.orderer = pool_query.orderer;
  request.cost_model = "cout";
  request.threads = 1;
  return request;
}

serve::WireServer* volatile g_wire_child_server = nullptr;

extern "C" void WireChildDrainSignal(int /*signum*/) {
  serve::WireServer* server = g_wire_child_server;
  if (server != nullptr) {
    server->RequestStop();
  }
}

/// The forked wire-server child: serves until SIGTERM (graceful drain,
/// exit 0) or SIGKILL (the parent's chaos). Writes its ephemeral port
/// to `port_path` via atomic rename so the parent never reads a torn
/// handoff file.
int RunWireServerChild(const std::string& snapshot_path,
                       const std::string& port_path, double io_timeout) {
  serve::ServiceConfig service_config;
  service_config.workers = 2;
  service_config.queue_depth = 64;
  service_config.max_retries = 2;
  service_config.cache.capacity = 256;  // Holds the whole pool.
  service_config.cache.shards = 2;
  service_config.snapshot_path = snapshot_path;
  service_config.snapshot_period_seconds = kCrashSnapshotPeriodSeconds;
  auto service = serve::OptimizerService::Create(service_config);
  if (!service.ok()) {
    std::fprintf(stderr, "joinopt_soak: wire child service failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  serve::WireServerConfig server_config;
  server_config.listen.port = 0;
  server_config.max_connections = 16;
  server_config.io_timeout_seconds = io_timeout;
  auto server = serve::WireServer::Create(server_config, service->get());
  if (!server.ok()) {
    std::fprintf(stderr, "joinopt_soak: wire child listen failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  g_wire_child_server = server->get();
  std::signal(SIGTERM, WireChildDrainSignal);
  {
    const std::string tmp = port_path + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    out << (*server)->port() << "\n";
    out.close();
    std::error_code ec;
    std::filesystem::rename(tmp, port_path, ec);
    if (ec) {
      std::fprintf(stderr, "joinopt_soak: wire child port handoff failed\n");
      return 1;
    }
  }
  (*server)->Run();
  g_wire_child_server = nullptr;
  (*service)->Shutdown(/*drain=*/true);
  return 0;
}

/// Phase 1 (see the mode comment above). Single-threaded on purpose.
int WireForkPhase(const SoakConfig& config,
                  const std::vector<PoolQuery>& pool) {
  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() /
       ("joinopt_wire_" + std::to_string(::getpid()) + ".snap"))
          .string();
  const std::string port_path = snapshot_path + ".port";
  std::error_code ec;
  std::filesystem::remove(snapshot_path, ec);
  std::filesystem::remove(snapshot_path + ".tmp", ec);
  std::filesystem::remove(port_path, ec);
  // Generous per-exchange bound: sanitizer builds optimize slowly, and a
  // false client timeout would read as a server failure.
  const double io_timeout = std::max(3.0, config.watchdog_seconds / 10.0);

  const uint64_t total_cycles = config.crash_cycles + 1;
  for (uint64_t cycle = 0; cycle < total_cycles; ++cycle) {
    const bool final_cycle = cycle == total_cycles - 1;
    std::filesystem::remove(port_path, ec);
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("joinopt_soak: fork");
      return 1;
    }
    if (pid == 0) {
      std::exit(RunWireServerChild(snapshot_path, port_path, io_timeout));
    }

    // Port handoff, bounded by the watchdog budget.
    uint16_t port = 0;
    const auto handoff_deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config.watchdog_seconds));
    while (std::chrono::steady_clock::now() < handoff_deadline) {
      std::ifstream in(port_path);
      unsigned value = 0;
      if (in && (in >> value) && value > 0 && value <= 65535) {
        port = static_cast<uint16_t>(value);
        break;
      }
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        std::fprintf(stderr,
                     "joinopt_soak: wire cycle %" PRIu64
                     " server died before handoff (status 0x%x)\n",
                     cycle, static_cast<unsigned>(status));
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (port == 0) {
      std::fprintf(stderr,
                   "joinopt_soak: WATCHDOG: wire cycle %" PRIu64
                   " server never published its port\n",
                   cycle);
      DumpThreadStates(pid, "unpublished wire server");
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return 3;
    }

    serve::WireClientConfig client_config;
    client_config.server = net::Endpoint{"127.0.0.1", port};
    client_config.io_timeout_seconds = io_timeout;
    client_config.max_retries = 2;
    client_config.retry_backoff_seconds = 0.02;
    client_config.seed = config.seed + cycle;
    serve::WireClient client(client_config);
    SharedState shared;

    // Warm phase: the whole pool over the wire. After a restart every
    // one must be a cache hit recovered from the snapshot, and every
    // hit is re-verified against a fresh DP.
    uint64_t hits = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      serve::ServeResponse response = client.Call(WireRequestFor(pool[i]));
      if (response.status.code() == StatusCode::kUnavailable) {
        std::fprintf(stderr,
                     "joinopt_soak: wire cycle %" PRIu64
                     " warm query %zu unreachable: %s\n",
                     cycle, i, response.status.ToString().c_str());
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return 1;
      }
      if (response.cache_hit) {
        ++hits;
      }
      InFlight flight;
      flight.q = static_cast<uint64_t>(i);
      flight.pool_index = static_cast<int>(i);
      CheckServiceResponse(pool[i], flight, std::move(response), shared);
      if (shared.failed.load()) {
        std::fprintf(stderr, "joinopt_soak: wire cycle %" PRIu64 " FAIL %s\n",
                     cycle, shared.failure_detail.c_str());
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return 1;
      }
    }
    if (cycle > 0 && hits < pool.size()) {
      std::fprintf(stderr,
                   "joinopt_soak: wire cycle %" PRIu64 " retained only %"
                   PRIu64 "/%zu warm hits after recovery\n",
                   cycle, hits, pool.size());
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return 1;
    }
    // Let the child's periodic snapshot thread persist the now-complete
    // pool before any kill can land.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    if (final_cycle) {
      // Graceful drain: SIGTERM must finish in-flight work and exit 0.
      client.Disconnect();
      ::kill(pid, SIGTERM);
      int status = 0;
      if (!WaitBounded(pid, config.watchdog_seconds, "draining wire server",
                       &status)) {
        return 3;
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr,
                     "joinopt_soak: wire final cycle did not drain to exit 0 "
                     "(status 0x%x)\n",
                     static_cast<unsigned>(status));
        return 1;
      }
      break;
    }

    // Chaos stream, then the kill.
    Random rng(config.seed * 18119 + cycle);
    const uint64_t kill_after = 4 + rng.Uniform(24);
    for (uint64_t q = 0; q < kill_after; ++q) {
      const int pool_index = static_cast<int>(rng.Uniform(kPoolSize));
      serve::ServeResponse response =
          client.Call(WireRequestFor(pool[static_cast<size_t>(pool_index)]));
      if (response.status.code() == StatusCode::kUnavailable) {
        std::fprintf(stderr,
                     "joinopt_soak: wire cycle %" PRIu64
                     " server vanished mid-stream: %s\n",
                     cycle, response.status.ToString().c_str());
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return 1;
      }
      InFlight flight;
      flight.q = q;
      flight.pool_index = pool_index;
      CheckServiceResponse(pool[static_cast<size_t>(pool_index)], flight,
                           std::move(response), shared);
      if (shared.failed.load()) {
        std::fprintf(stderr, "joinopt_soak: wire cycle %" PRIu64 " FAIL %s\n",
                     cycle, shared.failure_detail.c_str());
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return 1;
      }
    }
    ::kill(pid, SIGKILL);
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0) {
      std::perror("joinopt_soak: waitpid");
      return 1;
    }
    if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
      std::fprintf(stderr,
                   "joinopt_soak: wire cycle %" PRIu64
                   " server exited before the kill (status 0x%x)\n",
                   cycle, static_cast<unsigned>(status));
      return 1;
    }
    // The orphaned client: its connection is now half-open (the peer is
    // gone without a drain). The retry envelope must come back with a
    // typed kUnavailable — never a hang, never an untyped failure.
    serve::ServeResponse gone = client.Call(WireRequestFor(pool[0]));
    if (gone.status.code() != StatusCode::kUnavailable) {
      std::fprintf(stderr,
                   "joinopt_soak: wire cycle %" PRIu64
                   " post-kill call was not a typed kUnavailable: %s\n",
                   cycle, gone.status.ToString().c_str());
      return 1;
    }
    client.Disconnect();
    if (!SnapshotSurvivedKill(snapshot_path, cycle)) {
      return 1;
    }
    std::printf("joinopt_soak: wire cycle %" PRIu64 " killed after %" PRIu64
                " queries; snapshot intact, client typed-unavailable\n",
                cycle, kill_after);
  }

  std::filesystem::remove(snapshot_path, ec);
  std::filesystem::remove(snapshot_path + ".tmp", ec);
  std::filesystem::remove(port_path, ec);
  return 0;
}

/// Appends whatever the server sends until EOF or `patience` elapses.
/// Returns true only on a clean close (EOF or reset).
bool ReadUntilClose(int fd, std::string& buf, double patience) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(patience));
  char tmp[4096];
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return false;
    }
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count()) + 1;
    const int revents = net::PollRetry(fd, POLLIN, wait_ms);
    if (revents < 0) {
      return true;  // A dead descriptor is as closed as it gets.
    }
    if (revents == 0) {
      return false;
    }
    const int64_t n = net::ReadRetry(fd, tmp, sizeof(tmp));
    if (n == 0) {
      return true;
    }
    if (n < 0) {
      const int err = static_cast<int>(-n);
      if (err == EAGAIN || err == EWOULDBLOCK) {
        continue;
      }
      return true;  // ECONNRESET and friends: the peer closed on us.
    }
    buf.append(tmp, static_cast<size_t>(n));
  }
}

/// Reads exactly one complete frame. False on corruption, close, or
/// timeout.
bool ReadOneFrame(int fd, std::string& buf, double patience,
                  serve::WireFrame& out) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(patience));
  char tmp[4096];
  for (;;) {
    const serve::FrameDecodeResult decoded = serve::DecodeFrame(buf);
    if (decoded.outcome == serve::FrameDecode::kFrame) {
      out = decoded.frame;
      buf.erase(0, decoded.consumed);
      return true;
    }
    if (decoded.outcome == serve::FrameDecode::kCorrupt) {
      return false;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return false;
    }
    const int wait_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count()) + 1;
    const int revents = net::PollRetry(fd, POLLIN, wait_ms);
    if (revents <= 0) {
      return false;
    }
    const int64_t n = net::ReadRetry(fd, tmp, sizeof(tmp));
    if (n == 0) {
      return false;
    }
    if (n < 0) {
      const int err = static_cast<int>(-n);
      if (err == EAGAIN || err == EWOULDBLOCK) {
        continue;
      }
      return false;
    }
    buf.append(tmp, static_cast<size_t>(n));
  }
}

/// Phase 2 (see the mode comment above).
int WireInProcessPhase(const SoakConfig& config,
                       const std::vector<PoolQuery>& pool) {
  serve::ServiceConfig service_config;
  service_config.workers = 2;
  service_config.queue_depth = 16;
  service_config.max_retries = 2;
  service_config.cache.capacity = 256;
  service_config.cache.shards = 4;
  auto service = serve::OptimizerService::Create(service_config);
  if (!service.ok()) {
    std::fprintf(stderr, "joinopt_soak: wire service creation failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  serve::WireServerConfig server_config;
  server_config.listen.port = 0;
  server_config.max_connections = 4;  // Small: overflow is reachable.
  server_config.io_timeout_seconds = 1.0;
  auto server = serve::WireServer::Create(server_config, service->get());
  if (!server.ok()) {
    std::fprintf(stderr, "joinopt_soak: wire server creation failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  (*server)->Start();
  const net::Endpoint endpoint{"127.0.0.1", (*server)->port()};
  const double patience = std::max(6.0, config.watchdog_seconds / 5.0);

  SharedState shared;
  std::thread watchdog(Watchdog, std::ref(shared), config.watchdog_seconds,
                       std::cref(config.repro_dir));
  const auto tick = [&shared] {
    shared.completed.fetch_add(1, std::memory_order_relaxed);
  };
  const auto finish = [&](int code) {
    shared.done.store(true);
    watchdog.join();
    (*server)->Stop();
    (*service)->Shutdown(/*drain=*/true);
    if (code == 0 && shared.failed.load()) {
      std::fprintf(stderr, "joinopt_soak: wire FAIL %s\n",
                   shared.failure_detail.c_str());
      return 1;
    }
    return code;
  };

  serve::WireClientConfig client_config;
  client_config.server = endpoint;
  client_config.io_timeout_seconds = std::max(3.0, patience / 2.0);
  client_config.max_retries = 2;
  client_config.retry_backoff_seconds = 0.01;
  client_config.seed = config.seed;
  serve::WireClient client(client_config);

  // --- Round A: loopback bit-identity against SubmitAndWait. ---------
  for (size_t i = 0; i < pool.size(); ++i) {
    serve::ServeResponse wire = client.Call(WireRequestFor(pool[i]));
    serve::ServeResponse local =
        (*service)->SubmitAndWait(WireRequestFor(pool[i]));
    if (wire.status.code() != local.status.code()) {
      shared.Fail("wire query " + std::to_string(i) + ": wire status " +
                  wire.status.ToString() + " != in-process " +
                  local.status.ToString());
      return finish(0);
    }
    if (wire.status.ok()) {
      if (wire.signature != local.signature) {
        shared.Fail("wire query " + std::to_string(i) +
                    ": wire response diverges from in-process "
                    "SubmitAndWait:\n" +
                    wire.signature.DiffAgainst(local.signature));
        return finish(0);
      }
      if (wire.cost != local.cost || wire.cardinality != local.cardinality ||
          wire.algorithm != local.algorithm) {
        shared.Fail("wire query " + std::to_string(i) +
                    ": cost/cardinality/algorithm not bit-identical over "
                    "the wire");
        return finish(0);
      }
    }
    InFlight flight;
    flight.q = static_cast<uint64_t>(i);
    flight.pool_index = static_cast<int>(i);
    CheckServiceResponse(pool[i], flight, std::move(wire), shared);
    if (shared.failed.load()) {
      return finish(0);
    }
    tick();
  }
  client.Disconnect();  // Raw-socket rounds own the connection table.

  const std::string good_payload =
      serve::EncodeRequestPayload(WireRequestFor(pool[0]));
  const std::string good_frame =
      serve::EncodeFrame(serve::FrameType::kRequest, good_payload);
  const auto raw_connect = [&]() -> int {
    Result<int> fd = net::ConnectTcp(endpoint, patience);
    if (!fd.ok()) {
      shared.Fail("raw connect failed: " + fd.status().ToString());
      return -1;
    }
    return *fd;
  };
  // A liveness probe after every hostile act: the server must still
  // answer a clean query.
  const auto alive = [&](const char* after) {
    serve::ServeResponse probe = client.Call(WireRequestFor(pool[1]));
    if (!probe.status.ok()) {
      shared.Fail(std::string("server not serving after ") + after + ": " +
                  probe.status.ToString());
      return false;
    }
    client.Disconnect();
    return true;
  };

  // --- Round B: hostile frames. --------------------------------------
  struct Corruption {
    const char* name;
    std::string bytes;
  };
  std::vector<Corruption> corruptions;
  corruptions.push_back({"garbage", "this is not a joinopt frame at all\n"});
  {
    std::string flipped = good_frame;
    flipped[flipped.size() / 2] =
        static_cast<char>(flipped[flipped.size() / 2] ^ 0x20);
    corruptions.push_back({"crc bitflip", std::move(flipped)});
  }
  {
    std::string bad_type = good_frame;
    bad_type[5] = 9;
    corruptions.push_back({"unknown type", std::move(bad_type)});
  }
  {
    std::string hostile = good_frame;
    hostile[6] = static_cast<char>(0xff);
    hostile[7] = static_cast<char>(0xff);
    hostile[8] = static_cast<char>(0xff);
    hostile[9] = 0x7f;
    corruptions.push_back({"hostile length", std::move(hostile)});
  }
  corruptions.push_back(
      {"response-typed frame",
       serve::EncodeFrame(serve::FrameType::kResponse, good_payload)});
  for (const Corruption& corruption : corruptions) {
    const int fd = raw_connect();
    if (fd < 0) {
      return finish(0);
    }
    const Status sent = net::SendAll(fd, corruption.bytes.data(),
                                     corruption.bytes.size(), patience);
    if (!sent.ok()) {
      shared.Fail(std::string(corruption.name) +
                  ": send failed: " + sent.ToString());
      net::CloseQuiet(fd);
      return finish(0);
    }
    std::string buf;
    const bool closed = ReadUntilClose(fd, buf, patience);
    net::CloseQuiet(fd);
    if (!closed) {
      shared.Fail(std::string(corruption.name) +
                  ": server did not close the poisoned connection");
      return finish(0);
    }
    serve::FrameDecodeResult decoded = serve::DecodeFrame(buf);
    if (decoded.outcome != serve::FrameDecode::kFrame ||
        decoded.frame.type != serve::FrameType::kResponse) {
      shared.Fail(std::string(corruption.name) +
                  ": no typed error frame before the close");
      return finish(0);
    }
    Result<serve::ServeResponse> response =
        serve::DecodeResponsePayload(decoded.frame.payload);
    if (!response.ok() ||
        response->status.code() != StatusCode::kInvalidArgument) {
      shared.Fail(std::string(corruption.name) +
                  ": error frame was not a typed kInvalidArgument");
      return finish(0);
    }
    if (!alive(corruption.name)) {
      return finish(0);
    }
    tick();
  }

  // A malformed payload inside a VALID frame: typed response, and the
  // connection keeps serving.
  {
    const int fd = raw_connect();
    if (fd < 0) {
      return finish(0);
    }
    const std::string bad_payload = serve::EncodeFrame(
        serve::FrameType::kRequest, "joinopt-wire v1\nnonsense\n");
    Status sent =
        net::SendAll(fd, bad_payload.data(), bad_payload.size(), patience);
    std::string buf;
    serve::WireFrame frame;
    if (!sent.ok() || !ReadOneFrame(fd, buf, patience, frame)) {
      shared.Fail("bad payload: no typed response");
      net::CloseQuiet(fd);
      return finish(0);
    }
    Result<serve::ServeResponse> typed =
        serve::DecodeResponsePayload(frame.payload);
    if (!typed.ok() ||
        typed->status.code() != StatusCode::kInvalidArgument) {
      shared.Fail("bad payload: response was not a typed kInvalidArgument");
      net::CloseQuiet(fd);
      return finish(0);
    }
    sent = net::SendAll(fd, good_frame.data(), good_frame.size(), patience);
    if (!sent.ok() || !ReadOneFrame(fd, buf, patience, frame) ||
        !(typed = serve::DecodeResponsePayload(frame.payload)).ok() ||
        !typed->status.ok()) {
      shared.Fail("bad payload: connection did not survive the typed error");
      net::CloseQuiet(fd);
      return finish(0);
    }
    net::CloseQuiet(fd);
    tick();
  }

  // --- Round C: slow writer, then a stalled one. ---------------------
  {
    const int fd = raw_connect();
    if (fd < 0) {
      return finish(0);
    }
    Status sent = Status::OK();
    for (size_t i = 0; i < good_frame.size() && sent.ok(); ++i) {
      sent = net::SendAll(fd, good_frame.data() + i, 1, patience);
      if (i % 32 == 31) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    std::string buf;
    serve::WireFrame frame;
    Result<serve::ServeResponse> typed = Status::Internal("no frame");
    if (!sent.ok() || !ReadOneFrame(fd, buf, patience, frame) ||
        !(typed = serve::DecodeResponsePayload(frame.payload)).ok() ||
        !typed->status.ok()) {
      shared.Fail("slow writer inside the deadline did not get a response");
      net::CloseQuiet(fd);
      return finish(0);
    }
    net::CloseQuiet(fd);
    tick();
  }
  {
    const int fd = raw_connect();
    if (fd < 0) {
      return finish(0);
    }
    // Header only, then silence: the read deadline must cut us off.
    const Status sent = net::SendAll(fd, good_frame.data(), 10, patience);
    std::string buf;
    const bool closed =
        sent.ok() && ReadUntilClose(fd, buf, patience);
    net::CloseQuiet(fd);
    if (!closed) {
      shared.Fail("stalled mid-frame writer was not deadline-closed");
      return finish(0);
    }
    const serve::WireServer::Stats stats = (*server)->StatsSnapshot();
    if (stats.deadline_closes < 1) {
      shared.Fail("deadline close not counted in server stats");
      return finish(0);
    }
    if (!alive("a stalled writer")) {
      return finish(0);
    }
    tick();
  }

  // --- Round D: mid-frame disconnects. -------------------------------
  for (int k = 0; k < 10; ++k) {
    const int fd = raw_connect();
    if (fd < 0) {
      return finish(0);
    }
    const size_t cut = 1 + (static_cast<size_t>(k) * 7) %
                               (good_frame.size() - 1);
    (void)net::SendAll(fd, good_frame.data(), cut, patience);
    net::CloseQuiet(fd);  // Abrupt: the server sees EOF mid-frame.
  }
  if (!alive("10 mid-frame disconnects")) {
    return finish(0);
  }
  tick();

  // --- Round E: connection-table overflow. ---------------------------
  // A dedicated server instance makes the overflow deterministic: the
  // main server's 1s idle deadline races the fill (a stale connection
  // from an earlier round can be reaped between the fill and the probe,
  // reopening a slot), so this one gets a deadline comfortably longer
  // than the round and its accepts are awaited explicitly.
  uint64_t overflow_sheds_total = 0;
  {
    serve::WireServerConfig overflow_config;
    overflow_config.listen.port = 0;
    overflow_config.max_connections = 4;
    overflow_config.io_timeout_seconds = std::max(10.0, 2.0 * patience);
    auto overflow_server =
        serve::WireServer::Create(overflow_config, service->get());
    if (!overflow_server.ok()) {
      shared.Fail("overflow server creation failed: " +
                  overflow_server.status().ToString());
      return finish(0);
    }
    (*overflow_server)->Start();
    const net::Endpoint overflow_endpoint{"127.0.0.1",
                                          (*overflow_server)->port()};
    std::vector<int> idle;
    for (int i = 0; i < overflow_config.max_connections; ++i) {
      Result<int> fd = net::ConnectTcp(overflow_endpoint, patience);
      if (!fd.ok()) {
        shared.Fail("overflow setup connect failed: " +
                    fd.status().ToString());
        break;
      }
      idle.push_back(*fd);
    }
    // connect() returning only proves the SYN queue took us; wait until
    // the event loop has actually accepted all four into the table.
    Stopwatch accept_wait;
    while (!shared.failed.load() &&
           (*overflow_server)->StatsSnapshot().accepted <
               static_cast<uint64_t>(overflow_config.max_connections) &&
           accept_wait.ElapsedSeconds() < patience) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!shared.failed.load() &&
        (*overflow_server)->StatsSnapshot().accepted <
            static_cast<uint64_t>(overflow_config.max_connections)) {
      shared.Fail("overflow setup: table never filled");
    }
    if (shared.failed.load()) {
      for (const int fd : idle) {
        net::CloseQuiet(fd);
      }
      (*overflow_server)->Stop();
      return finish(0);
    }
    Result<int> extra = net::ConnectTcp(overflow_endpoint, patience);
    if (extra.ok()) {
      std::string buf;
      const bool closed = ReadUntilClose(*extra, buf, patience);
      net::CloseQuiet(*extra);
      serve::FrameDecodeResult decoded = serve::DecodeFrame(buf);
      Result<serve::ServeResponse> shed = Status::Internal("no frame");
      if (!closed || decoded.outcome != serve::FrameDecode::kFrame ||
          !(shed = serve::DecodeResponsePayload(decoded.frame.payload))
               .ok() ||
          !shed->shed ||
          shed->status.code() != StatusCode::kOverloaded) {
        shared.Fail("table overflow did not shed a typed kOverloaded "
                    "frame before closing");
      }
    } else {
      shared.Fail("overflow connect was refused outright: " +
                  extra.status().ToString());
    }
    // A client hammering the full table must come back typed, not hang.
    if (!shared.failed.load()) {
      serve::WireClientConfig jam_config = client_config;
      jam_config.server = overflow_endpoint;
      jam_config.io_timeout_seconds = 1.0;
      serve::WireClient jam_client(jam_config);
      serve::ServeResponse jammed = jam_client.Call(WireRequestFor(pool[0]));
      if (jammed.status.code() != StatusCode::kUnavailable &&
          jammed.status.code() != StatusCode::kOverloaded) {
        shared.Fail("call into a full table was not typed "
                    "kUnavailable/kOverloaded: " +
                    jammed.status.ToString());
      }
    }
    for (const int fd : idle) {
      net::CloseQuiet(fd);
    }
    const serve::WireServer::Stats overflow_stats =
        (*overflow_server)->StatsSnapshot();
    overflow_sheds_total = overflow_stats.overflow_sheds;
    (*overflow_server)->Stop();
    if (shared.failed.load()) {
      return finish(0);
    }
    if (overflow_stats.overflow_sheds < 1) {
      shared.Fail("overflow shed not counted in server stats");
      return finish(0);
    }
    if (!alive("the overflow round")) {
      return finish(0);
    }
    tick();
  }

  const serve::WireServer::Stats stats = (*server)->StatsSnapshot();
  const int code = finish(0);
  if (code == 0) {
    std::printf("joinopt_soak: wire in-process battery clean: %" PRIu64
                " accepted, %" PRIu64 " responses, %" PRIu64
                " protocol errors, %" PRIu64 " deadline closes, %" PRIu64
                " overflow sheds, %" PRIu64 " peer closes\n",
                stats.accepted, stats.responses, stats.protocol_errors,
                stats.deadline_closes,
                stats.overflow_sheds + overflow_sheds_total,
                stats.peer_closes);
  }
  return code;
}

int RunWireMode(const SoakConfig& config) {
  Result<std::vector<PoolQuery>> pool = BuildWirePool(config.seed);
  if (!pool.ok()) {
    std::fprintf(stderr, "joinopt_soak: wire pool generator failed: %s\n",
                 pool.status().ToString().c_str());
    return 1;
  }
  // Fork phase strictly first: no in-process thread may exist at fork
  // time (TSan enforces this; plain builds merely deadlock eventually).
  const int forked = WireForkPhase(config, *pool);
  if (forked != 0) {
    return forked;
  }
  const int in_process = WireInProcessPhase(config, *pool);
  if (in_process != 0) {
    return in_process;
  }
  std::printf("joinopt_soak: wire chaos clean: %" PRIu64
              " kill cycles + 1 drain cycle + in-process battery, pool %d, "
              "seed %" PRIu64 "\n",
              config.crash_cycles, kPoolSize, config.seed);
  return 0;
}

#else  // _WIN32

int RunWireMode(const SoakConfig&) {
  std::fprintf(stderr,
               "joinopt_soak: --wire requires fork() and POSIX sockets; not "
               "supported on this platform\n");
  return 2;
}

#endif  // _WIN32

int Run(const SoakConfig& config) {
  // Pre-compute the sentinel optimum (and force registry construction)
  // on the main thread before any worker exists.
  const Result<QueryGraph> sentinel = MakeSentinelQuery();
  if (!sentinel.ok()) {
    std::fprintf(stderr, "joinopt_soak: sentinel generator failed: %s\n",
                 sentinel.status().ToString().c_str());
    return 1;
  }
  const CoutCostModel cost_model;
  const Result<OptimizationResult> sentinel_result =
      OptimizerRegistry::Get("DPccp")->Optimize(*sentinel, cost_model);
  if (!sentinel_result.ok()) {
    std::fprintf(stderr, "joinopt_soak: sentinel baseline failed: %s\n",
                 sentinel_result.status().ToString().c_str());
    return 1;
  }

  SharedState shared;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::thread> threads;
  workers.reserve(config.threads);
  threads.reserve(config.threads);
  std::thread watchdog(Watchdog, std::ref(shared), config.watchdog_seconds,
                       std::cref(config.repro_dir));
  for (int t = 0; t < config.threads; ++t) {
    workers.push_back(
        std::make_unique<Worker>(t, config, shared, sentinel_result->cost));
    threads.emplace_back(&Worker::Run, workers.back().get());
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  shared.done.store(true);
  watchdog.join();

  if (shared.failed.load()) {
    std::fprintf(stderr, "joinopt_soak: FAIL %s\n",
                 shared.failure_detail.c_str());
    return 1;
  }
  std::printf("joinopt_soak: %" PRIu64 " queries x %d threads clean (seed %"
              PRIu64 ")\n",
              config.queries, config.threads, config.seed);
  return 0;
}

}  // namespace
}  // namespace joinopt

int main(int argc, char** argv) {
  joinopt::SoakConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      config.threads = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      config.queries = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--repro-dir") == 0 && i + 1 < argc) {
      config.repro_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      config.verbose = true;
    } else if (std::strcmp(argv[i], "--service") == 0) {
      config.service = true;
    } else if (std::strcmp(argv[i], "--crash-recovery") == 0) {
      config.crash_recovery = true;
    } else if (std::strcmp(argv[i], "--wire") == 0) {
      config.wire = true;
    } else if (std::strcmp(argv[i], "--cycles") == 0 && i + 1 < argc) {
      config.crash_cycles = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      config.snapshot_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--queries N] [--seed S]"
                   " [--repro-dir DIR] [--service] [--wire]"
                   " [--crash-recovery] [--cycles N] [--snapshot PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if ((config.crash_recovery || config.wire) &&
      (config.crash_cycles < 1 || config.crash_cycles > 64)) {
    std::fprintf(stderr, "joinopt_soak: --cycles must be in [1, 64]\n");
    return 2;
  }
  if (config.threads < 1 || config.threads > 256) {
    std::fprintf(stderr, "joinopt_soak: --threads must be in [1, 256]\n");
    return 2;
  }
  // A typo'd JOINOPT_FAULT_* or limit knob must abort the harness, not
  // silently soak without the intended schedule.
  const joinopt::Result<joinopt::testing::FaultConfig> env_fault =
      joinopt::testing::FaultConfigFromEnv();
  if (!env_fault.ok()) {
    std::fprintf(stderr, "joinopt_soak: %s\n",
                 env_fault.status().ToString().c_str());
    return 2;
  }
  const joinopt::Status env_limits = joinopt::ValidateLimitEnv();
  if (!env_limits.ok()) {
    std::fprintf(stderr, "joinopt_soak: %s\n", env_limits.ToString().c_str());
    return 2;
  }
  const joinopt::Result<double> watchdog_s = joinopt::WatchdogSeconds();
  if (!watchdog_s.ok()) {
    std::fprintf(stderr, "joinopt_soak: %s\n",
                 watchdog_s.status().ToString().c_str());
    return 2;
  }
  config.watchdog_seconds = *watchdog_s;
  if (!config.repro_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(config.repro_dir, ec);
    if (ec) {
      std::fprintf(stderr, "joinopt_soak: cannot create --repro-dir %s: %s\n",
                   config.repro_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }
  if (config.crash_recovery) {
    return joinopt::RunCrashRecovery(config);
  }
  if (config.wire) {
    return joinopt::RunWireMode(config);
  }
  return config.service ? joinopt::RunServiceMode(config)
                        : joinopt::Run(config);
}
