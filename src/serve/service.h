#ifndef JOINOPT_SERVE_SERVICE_H_
#define JOINOPT_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.h"
#include "graph/query_graph.h"
#include "plan/join_tree.h"
#include "serve/fingerprint.h"
#include "serve/plan_cache.h"
#include "serve/snapshot.h"
#include "testing/fault_injection.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace joinopt {
namespace serve {

/// Configuration of an OptimizerService instance. Values are validated by
/// OptimizerService::Create; the environment-driven entry points read the
/// JOINOPT_SERVE_WORKERS / JOINOPT_QUEUE_DEPTH / JOINOPT_CACHE_* knobs
/// into this struct.
struct ServiceConfig {
  /// Worker threads pulling from the queue. Clamped to [1, 256].
  int workers = 2;
  /// Bounded admission queue depth; a Submit finding the queue full is
  /// shed with kOverloaded instead of waiting. Clamped to >= 1.
  int queue_depth = 64;
  /// Per-query end-to-end deadline (queue wait + optimization) applied
  /// when a request does not carry its own. 0 = none.
  double default_deadline_seconds = 0.0;
  /// Whole-policy retry envelope layered on RunDegradationPolicy (see
  /// core/policy.h): extra attempts after kBudgetExceeded/kInternal,
  /// doubling backoff, limit growth per attempt.
  int max_retries = 1;
  double retry_backoff_seconds = 0.0;
  /// Degradation policy for requests that do not name an orderer. Empty =
  /// the library default (DPconv[when=dense] -> salvage -> DPccp ->
  /// salvage -> IDP1[k=5] -> GOO). The normalized policy string is part of
  /// every cache key, so plans cached under another policy string (for
  /// example a snapshot written under an earlier default) miss once and
  /// are re-planned.
  std::string policy;
  /// Plan cache; set cache_enabled=false to run every query through the
  /// DP (the cache object still exists so generation stamps stay
  /// meaningful).
  bool cache_enabled = true;
  PlanCacheConfig cache;
  /// Snapshot persistence (serve/snapshot.h). Empty path disables it.
  /// When set, the service loads the snapshot before accepting traffic,
  /// saves it at drain time, and — when snapshot_period_seconds > 0 —
  /// also saves periodically from a background thread, so a kill -9
  /// loses at most one period of cache warmth.
  std::string snapshot_path;
  double snapshot_period_seconds = 0.0;
};

/// The default ServiceConfig with the environment knobs applied:
/// JOINOPT_SERVE_WORKERS, JOINOPT_QUEUE_DEPTH, JOINOPT_CACHE_SHARDS, and
/// JOINOPT_CACHE_MB — the cache budget in megabytes, converted at an
/// estimated ~1 KB per cached plan (so CACHE_MB=4 buys ~4096 entries);
/// 0 disables caching entirely. JOINOPT_SERVE_SNAPSHOT_PATH names the
/// plan-cache snapshot file (empty/unset disables persistence) and
/// JOINOPT_SERVE_SNAPSHOT_PERIOD_S the periodic-save interval (>= 0;
/// 0 = save only at drain). All strict-parsed via util/env: the first
/// malformed variable is a kInvalidArgument naming it, never a silent
/// fallback.
Result<ServiceConfig> ServiceConfigFromEnv();

/// One optimization request. The graph is copied in: the caller may
/// mutate or destroy its catalog immediately after Submit returns.
struct ServeRequest {
  QueryGraph graph;
  /// Registry orderer to run ("DPccp", "DPsizePar", ...). The service
  /// wraps it as a single salvage-armed policy step. Empty: the service
  /// config's degradation policy runs instead.
  std::string orderer;
  /// Cost model name (cout|bestof|hash|nlj|smj).
  std::string cost_model = "cout";
  /// Per-run resource limits, same semantics as OptimizeOptions. The
  /// deadline is END-TO-END: time spent queued counts against it, and a
  /// request whose deadline expired before a worker picked it up is shed
  /// with kOverloaded rather than optimized late.
  uint64_t memo_entry_budget = 0;
  double deadline_seconds = 0.0;
  int threads = 0;
  /// Chaos seam: a deterministic fault schedule armed on the worker
  /// thread for exactly this request's optimization (see
  /// testing/fault_injection.h). Production requests leave it empty.
  std::optional<testing::FaultConfig> faults;
};

/// The outcome of one served request.
struct ServeResponse {
  /// kOk with a plan; kOverloaded when shed by admission control; the
  /// optimizer's typed error otherwise.
  Status status;
  /// The plan in the REQUEST's relation numbering (translated back from
  /// canonical numbering). Empty on failure.
  std::optional<JoinTree> plan;
  double cost = 0.0;
  double cardinality = 0.0;
  /// Deterministic fingerprint of the optimization outcome. For a cache
  /// hit this is the stored signature of the miss run that created the
  /// entry — bit-identical to what a fresh run would produce.
  OutcomeSignature signature;
  /// Algorithm that produced the plan.
  std::string algorithm;
  /// True when the plan came from the cache without running a DP.
  bool cache_hit = false;
  /// True when admission control shed the request (status is then
  /// kOverloaded and nothing ran).
  bool shed = false;
  /// Seconds spent waiting in the queue / executing on a worker.
  double queue_seconds = 0.0;
  double exec_seconds = 0.0;
  /// Catalog generation the response was computed (or cached) under.
  uint64_t generation = 0;
};

/// Service-level counters (cache counters live in PlanCache::Stats).
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_predicted_deadline = 0;
  uint64_t shed_queue_expired = 0;
  uint64_t shed_shutdown = 0;
  /// Exponential moving average of per-query execution seconds — the
  /// predictor behind deadline-aware shedding.
  double ema_exec_seconds = 0.0;
};

/// The batch front end: N workers over a bounded queue, admission control
/// in front, the plan cache and the degradation-policy machinery behind.
///
/// Admission control sheds with a typed kOverloaded instead of queuing
/// forever, on three triggers: the queue is at depth, the predicted wait
/// (queue length x EMA latency / workers) already exceeds the request's
/// deadline, or the service is shutting down. A fourth, worker-side shed
/// catches requests whose deadline expired while queued.
///
/// Determinism contract: the service optimizes the CANONICAL QUANTIZED
/// graph from serve/fingerprint.h for every request, hit or miss, so a
/// cache hit's plan, cost, and OutcomeSignature are bit-identical to what
/// the DP would have produced — the chaos harness holds it to that with
/// fresh-re-run oracles. Only exact, first-intent results are cached
/// (no best-effort salvages, no fallback products, no stale
/// generations).
class OptimizerService {
 public:
  /// Validates and clamps `config` (policy string parse, worker/queue
  /// bounds) and starts the workers. kInvalidArgument on a malformed
  /// policy.
  static Result<std::unique_ptr<OptimizerService>> Create(
      ServiceConfig config);

  /// Drains and joins (Shutdown(true)).
  ~OptimizerService();

  OptimizerService(const OptimizerService&) = delete;
  OptimizerService& operator=(const OptimizerService&) = delete;

  /// Submits a request. Always returns a future that WILL be fulfilled —
  /// shed requests resolve immediately with kOverloaded, accepted ones
  /// when a worker finishes.
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Submit with completion-callback delivery — the wire server's entry
  /// point, where a fulfilled future would have to be polled but a
  /// callback can wake the event loop. `done` is invoked EXACTLY once:
  /// inline on the calling thread for shed requests, on a worker thread
  /// otherwise. It must be cheap and must not re-enter the service
  /// (enqueue-and-wake, not work).
  void SubmitWithCallback(ServeRequest request,
                          std::function<void(ServeResponse)> done);

  /// Submit + get(), for synchronous callers and tests.
  ServeResponse SubmitAndWait(ServeRequest request) {
    return Submit(std::move(request)).get();
  }

  /// Signals a catalog statistics change: every cached plan computed
  /// before this call is invalidated (lazily). Safe from any thread,
  /// including mid-stream while workers are optimizing — in-flight
  /// results stamped with the old generation are refused at insert.
  void BumpCatalogGeneration() { cache_->BumpGeneration(); }
  uint64_t generation() const { return cache_->generation(); }

  /// Stops the service. drain=true (the default, and what the destructor
  /// does) lets workers finish every queued request; drain=false answers
  /// every still-queued request with kOverloaded and joins as soon as
  /// in-flight work completes. Idempotent.
  void Shutdown(bool drain = true);

  ServiceStats Snapshot() const;
  PlanCache::Stats CacheSnapshot() const { return cache_->Snapshot(); }
  uint64_t CacheSize() const { return cache_->size(); }
  const ServiceConfig& config() const { return config_; }

  /// Outcome of the load-on-start snapshot replay. kNoSnapshot (with an
  /// empty detail) when persistence is disabled.
  SnapshotLoadStats LoadStats() const;

  /// Writes a snapshot right now (also what the periodic thread and the
  /// drain path call). kFailedPrecondition when persistence is disabled;
  /// filesystem errors otherwise. The result is also retained for
  /// LastSaveStats().
  Result<SnapshotSaveStats> SaveSnapshotNow();

  /// The most recent save attempt's outcome (OK + zeroed stats before
  /// the first save).
  Result<SnapshotSaveStats> LastSaveStats() const;

 private:
  struct Pending {
    ServeRequest request;
    /// Completion sink, invoked exactly once outside mu_. The future
    /// path wraps a promise; the wire server enqueues and wakes poll().
    std::function<void(ServeResponse)> complete;
    Stopwatch queued;
    /// Resolved end-to-end deadline (request's, else config default).
    double deadline_seconds = 0.0;
  };

  explicit OptimizerService(ServiceConfig config, DegradationPolicy policy);

  void WorkerLoop();

  /// Runs one request on the calling worker thread. `queue_seconds` is
  /// the time it spent queued (already checked against the deadline).
  ServeResponse Execute(const ServeRequest& request, double queue_seconds,
                        double deadline_seconds);

  /// The miss path: DP on the canonical graph + cache fill.
  ServeResponse Optimize(const ServeRequest& request,
                         const CanonicalQuery& canonical,
                         double remaining_seconds, uint64_t generation);

  ServeResponse ShedResponse(std::string why, uint64_t* counter);

  ServiceConfig config_;
  DegradationPolicy default_policy_;
  std::unique_ptr<PlanCache> cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  bool drain_ = true;
  ServiceStats stats_;

  std::vector<std::thread> workers_;

  /// Snapshot machinery. snapshot_io_mu_ serializes SaveSnapshot calls
  /// (periodic thread vs explicit vs drain); snapshot_mu_/cv_ only wake
  /// the periodic thread for shutdown.
  void SnapshotLoop();
  SnapshotLoadStats load_stats_;
  mutable std::mutex snapshot_io_mu_;
  Status last_save_status_;
  SnapshotSaveStats last_save_stats_;
  std::mutex snapshot_mu_;
  std::condition_variable snapshot_cv_;
  bool snapshot_stop_ = false;
  std::thread snapshot_thread_;
};

}  // namespace serve
}  // namespace joinopt

#endif  // JOINOPT_SERVE_SERVICE_H_
