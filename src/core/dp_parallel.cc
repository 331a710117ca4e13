#include "core/dp_parallel.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bitset/subset_iterator.h"
#include "cost/saturation.h"
#include "graph/connectivity.h"
#include "util/thread_pool.h"

namespace joinopt {
namespace {

/// Worker-local paper counters, folded into ctx.stats() at the end of the
/// run. All three are order-independent sums over fixed candidate sets,
/// which is what keeps the reported counters thread-count-invariant.
struct WorkerCounters {
  uint64_t inner = 0;
  uint64_t csg_cmp = 0;
  uint64_t create_calls = 0;
};

/// Lock-free deadline observation for workers, which must not touch the
/// governor (its tick state is coordinator-owned). Workers poll the
/// governor's monotonic stopwatch on a stride; once one observes the
/// deadline past, every worker winds down and the coordinator promotes
/// the observation via ResourceGovernor::CheckDeadlineNow() at the
/// barrier (monotonic clock: the re-check cannot disagree).
class DeadlineWatch {
 public:
  DeadlineWatch(const ResourceGovernor& governor, double deadline_seconds)
      : governor_(governor), deadline_seconds_(deadline_seconds) {}

  void Poll() {
    if (deadline_seconds_ > 0 &&
        !cancelled_.load(std::memory_order_relaxed) &&
        governor_.ElapsedSeconds() > deadline_seconds_) {
      cancelled_.store(true, std::memory_order_relaxed);
    }
  }

  bool cancelled() const {
    return deadline_seconds_ > 0 && cancelled_.load(std::memory_order_relaxed);
  }

 private:
  const ResourceGovernor& governor_;
  const double deadline_seconds_;
  std::atomic<bool> cancelled_{false};
};

/// How many inner iterations a worker runs between deadline polls.
constexpr uint64_t kWorkerPollStride = 4096;

/// DPsubPar coordinator-side block size: at most this many size-k masks
/// are in flight per fork-join batch, bounding the candidate buffer to a
/// few MB regardless of n.
constexpr uint64_t kBlockMasks = uint64_t{1} << 16;

/// Worker-local best-candidate reduction for one DPsizePar size layer,
/// keyed by the combined set's mask. This replaces the per-worker
/// std::unordered_map<NodeSet, PlanEntry> of the first parallel
/// implementation, which dominated the whole run (a node allocation plus
/// a hashed probe per operand order per surviving pair).
///
/// Slots are epoch-stamped: BeginLayer bumps the epoch instead of
/// clearing memory, so a layer transition is O(1) and the buffers are
/// reused for the whole run (including the occupied list, whose
/// high-water reservation survives across layers).
///
/// Two placements share the slot layout:
///  * direct — for small n the slot index IS the mask (2^n slots). No
///    probing, no keys to compare; the clique workloads the parallel DP
///    exists for live here.
///  * hashed — open-addressed with linear probing for larger n, grown at
///    2/3 load, never shrunk.
///
/// The slot also memoizes the set's canonical cardinality: EstimateSet
/// runs once per distinct set per worker per layer instead of once per
/// surviving pair — on clique-16 that is 65k estimates instead of 21.5M,
/// the single largest source of the old @1-thread overhead.
class LayerReduction {
 public:
  struct Slot {
    uint64_t mask = 0;
    double cost = 0.0;
    double cardinality = 0.0;
    PlanRef left = kInvalidPlanRef;
    PlanRef right = kInvalidPlanRef;
    JoinOperator op = JoinOperator::kUnspecified;
    uint32_t epoch = 0;
  };

  /// Called once before the first layer. Direct placement when the mask
  /// space fits a few MB of slots; hashed otherwise.
  void Configure(int relation_count) {
    direct_ = relation_count <= kDirectBits;
    if (direct_) {
      slots_.resize(uint64_t{1} << relation_count);
    } else {
      slots_.resize(kInitialHashedSlots);
    }
  }

  void BeginLayer() {
    ++epoch_;
    occupied_.clear();
    live_ = 0;
  }

  /// The slot for `mask`, creating it (epoch-stamping, recording in the
  /// occupied list) when this is its first touch of the layer. `created`
  /// tells the caller to initialize cost/cardinality.
  Slot& Touch(uint64_t mask, bool& created) {
    if (direct_) {
      Slot& slot = slots_[mask];
      created = slot.epoch != epoch_;
      if (created) {
        slot.epoch = epoch_;
        slot.mask = mask;
        occupied_.push_back(static_cast<uint32_t>(mask));
      }
      return slot;
    }
    if ((live_ + 1) * 3 >= slots_.size() * 2) {
      Grow();
    }
    const size_t cap_mask = slots_.size() - 1;
    size_t index = HashMask(mask) & cap_mask;
    while (true) {
      Slot& slot = slots_[index];
      if (slot.epoch != epoch_) {
        created = true;
        slot.epoch = epoch_;
        slot.mask = mask;
        occupied_.push_back(static_cast<uint32_t>(index));
        ++live_;
        return slot;
      }
      if (slot.mask == mask) {
        created = false;
        return slot;
      }
      index = (index + 1) & cap_mask;
    }
  }

  /// Drains this layer's slots into `candidates` (append).
  void Drain(std::vector<PlanTable::LayerCandidate>& candidates) const {
    for (const uint32_t index : occupied_) {
      const Slot& slot = slots_[index];
      candidates.push_back({NodeSet::FromMask(slot.mask), slot.cost,
                            slot.cardinality, slot.left, slot.right,
                            slot.op});
    }
  }

  size_t occupied_count() const { return occupied_.size(); }

 private:
  static constexpr int kDirectBits = 17;  // 2^17 slots ~ 7 MB per worker.
  static constexpr size_t kInitialHashedSlots = size_t{1} << 12;

  static uint64_t HashMask(uint64_t mask) {
    return NodeSetHash{}(NodeSet::FromMask(mask));
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const size_t cap_mask = slots_.size() - 1;
    std::vector<uint32_t> old_occupied = std::move(occupied_);
    occupied_.clear();
    occupied_.reserve(old_occupied.size() * 2);
    for (const uint32_t old_index : old_occupied) {
      const Slot& slot = old[old_index];
      size_t index = HashMask(slot.mask) & cap_mask;
      while (slots_[index].epoch == epoch_) {
        index = (index + 1) & cap_mask;
      }
      slots_[index] = slot;
      occupied_.push_back(static_cast<uint32_t>(index));
    }
  }

  bool direct_ = true;
  std::vector<Slot> slots_;
  std::vector<uint32_t> occupied_;
  size_t live_ = 0;
  uint32_t epoch_ = 0;
};

/// The number of threads a parallel orderer actually uses: the resolved
/// OptimizeOptions::threads, clamped to 1 when a trace sink is installed
/// (sinks are user code; all trace dispatch must stay on the coordinator).
int EffectiveThreads(const OptimizerContext& ctx) {
  if (ctx.has_trace()) {
    return 1;
  }
  return ThreadPool::ResolveThreadCount(ctx.options().threads);
}

/// The coordinator-side gate run by MergeLayer after each winner: one
/// governor tick per merged set (the deterministic arrival stream for
/// deadline faults), memo-budget accounting for fresh entries, and the
/// OnPlanInserted trace. Returns false when a limit tripped.
bool MergeGate(OptimizerContext& ctx, const PlanTable::LayerCandidate& winner,
               bool newly_populated) {
  if (ctx.Tick()) {
    return false;
  }
  if (newly_populated) {
    ctx.stats().plans_stored = ctx.table().populated_count();
    if (!ctx.WithinMemoBudget(ctx.table().populated_count())) {
      return false;
    }
    ctx.TracePlanInserted(winner.set, winner.cost, winner.cardinality);
    if (ctx.exhausted()) {
      return false;  // The trace sink threw.
    }
  }
  return true;
}

}  // namespace

Result<OptimizationResult> DPsizePar::Optimize(OptimizerContext& ctx) const {
  JOINOPT_RETURN_IF_ERROR(
      internal::BeginOptimize(ctx, name(), /*require_connected=*/true));
  const QueryGraph& graph = ctx.graph();
  const int n = graph.relation_count();
  const int threads = EffectiveThreads(ctx);

  ctx.InstallTable(internal::MakeAdaptivePlanTable(
      graph, ctx.options().memo_entry_budget));
  OptimizerStats& stats = ctx.stats();
  PlanTable& table = ctx.table();
  bool live = internal::SeedLeafPlans(ctx);

  ThreadPool pool(threads);
  DeadlineWatch watch(ctx.governor(), ctx.options().deadline_seconds);
  std::vector<WorkerCounters> counters(pool.thread_count());
  std::vector<LayerReduction> reductions(pool.thread_count());
  for (LayerReduction& reduction : reductions) {
    reduction.Configure(n);
  }
  // The barrier's candidate buffer is reused across layers; its capacity
  // ratchets up to the run's high-water mark instead of reallocating
  // from scratch every layer.
  std::vector<PlanTable::LayerCandidate> candidates;

  for (int k = 2; live && k <= n; ++k) {
    // Layers below k are complete: workers stream their frozen slabs
    // while the coordinator merges into slab k at the barrier.
    table.FreezeLayer(k - 1);
    // One task per left operand of one (s1_size, s2_size) split; the
    // worker sweeps the whole right slab (or the i < j triangle for the
    // equal-size split, matching serial DPsize's optimized enumeration).
    struct SizeTask {
      int s1_size;
      uint32_t left_offset;
    };
    std::vector<SizeTask> tasks;
    for (int s1_size = 1; 2 * s1_size <= k; ++s1_size) {
      const uint32_t left_count = table.LayerSize(s1_size);
      for (uint32_t i = 0; i < left_count; ++i) {
        tasks.push_back({s1_size, i});
      }
    }
    for (LayerReduction& reduction : reductions) {
      reduction.BeginLayer();
    }

    pool.Run(tasks.size(), [&](uint64_t task_index, int worker) {
      const SizeTask task = tasks[task_index];
      const int s2_size = k - task.s1_size;
      const PlanRef left_ref = MakePlanRef(task.s1_size, task.left_offset);
      const NodeSet s1 = table.set(left_ref);
      const double left_cost = table.cost(left_ref);
      const double left_card = table.cardinality(left_ref);
      const uint32_t right_count = table.LayerSize(s2_size);
      // Stream the frozen right slab's columns directly (no per-element
      // slab dispatch) — this loop runs 1.2e9 times on clique-16.
      const NodeSet* right_sets = table.LayerSets(s2_size);
      const double* right_costs = table.LayerCosts(s2_size);
      const double* right_cards = table.LayerCards(s2_size);
      WorkerCounters& wc = counters[worker];
      LayerReduction& reduction = reductions[worker];
      const CostModel& model = ctx.cost_model();
      uint64_t since_poll = 0;

      const uint32_t j_begin =
          task.s1_size == s2_size ? task.left_offset + 1 : 0;
      for (uint32_t j = j_begin; j < right_count; ++j) {
        ++wc.inner;
        if ((++since_poll & (kWorkerPollStride - 1)) == 0) {
          watch.Poll();
          if (watch.cancelled()) {
            return;  // Deadline observed: wind down mid-layer.
          }
        }
        const NodeSet s2 = right_sets[j];
        if (s1.Intersects(s2) || !graph.AreConnected(s1, s2)) {
          continue;
        }
        const PlanRef right_ref = MakePlanRef(s2_size, j);
        wc.csg_cmp += 2;
        wc.create_calls += 2;
        if (JOINOPT_UNLIKELY(ctx.has_trace())) {
          // Only reachable single-threaded (EffectiveThreads clamps), so
          // the sink still runs on the coordinator.
          ctx.TraceCsgCmpPair(s1, s2);
        }
        const NodeSet combined = s1 | s2;
        bool created = false;
        LayerReduction::Slot& slot =
            reduction.Touch(combined.mask(), created);
        if (created) {
          // Canonical per-set estimate (split-invariant under
          // saturation), memoized in the reduction slot: one scan per
          // distinct set per layer, not one per surviving pair.
          slot.cardinality = ctx.estimator().EstimateSet(combined);
          slot.cost = std::numeric_limits<double>::infinity();
        }
        const double right_cost = right_costs[j];
        const double right_card = right_cards[j];
        // Both operand orders, like serial CreateJoinTreeBothOrders; the
        // relax uses the same branch-free (cost, left, right) total
        // order as MergeLayer, so worker-local reductions and the
        // barrier pick the same winner no matter the partitioning.
        const double cost_lr = SaturateCost(
            left_cost + right_cost +
            model.JoinCost(left_card, right_card, slot.cardinality));
        if (PlanCandidateBeats(cost_lr, left_ref, right_ref, slot.cost,
                               slot.left, slot.right)) {
          slot.cost = cost_lr;
          slot.left = left_ref;
          slot.right = right_ref;
          slot.op =
              model.OperatorFor(left_card, right_card, slot.cardinality);
        }
        const double cost_rl = SaturateCost(
            left_cost + right_cost +
            model.JoinCost(right_card, left_card, slot.cardinality));
        if (PlanCandidateBeats(cost_rl, right_ref, left_ref, slot.cost,
                               slot.left, slot.right)) {
          slot.cost = cost_rl;
          slot.left = right_ref;
          slot.right = left_ref;
          slot.op =
              model.OperatorFor(right_card, left_card, slot.cardinality);
        }
      }
    });

    // Barrier: drain the worker reductions into one candidate list and
    // reconcile deterministically.
    size_t drained = 0;
    for (const LayerReduction& reduction : reductions) {
      drained += reduction.occupied_count();
    }
    candidates.clear();
    candidates.reserve(drained);
    for (const LayerReduction& reduction : reductions) {
      reduction.Drain(candidates);
    }
    live = table.MergeLayer(
        candidates, [&](const PlanTable::LayerCandidate& winner,
                        bool newly_populated) {
          return MergeGate(ctx, winner, newly_populated);
        });
    if (JOINOPT_UNLIKELY(!live && !ctx.exhausted())) {
      // MergeLayer stopped without the gate tripping: the size layer
      // overflowed the 26-bit PlanRef offset space. Promote it into the
      // governor's sticky typed state so salvage/policies see it as a
      // budget exhaustion.
      ctx.governor().InjectFailure(Status::BudgetExceeded(
          "plan table layer " + std::to_string(k) +
          " overflowed the 26-bit PlanRef offset space"));
    }
    if (watch.cancelled() && ctx.governor().CheckDeadlineNow()) {
      live = false;
    }
  }

  for (const WorkerCounters& wc : counters) {
    stats.inner_counter += wc.inner;
    stats.csg_cmp_pair_counter += wc.csg_cmp;
    stats.create_join_tree_calls += wc.create_calls;
  }
  stats.ono_lohman_counter = stats.csg_cmp_pair_counter / 2;
  return internal::FinishOptimize(ctx);
}

Result<OptimizationResult> DPsubPar::Optimize(OptimizerContext& ctx) const {
  JOINOPT_RETURN_IF_ERROR(
      internal::BeginOptimize(ctx, name(), /*require_connected=*/true));
  const QueryGraph& graph = ctx.graph();
  const int n = graph.relation_count();
  if (n >= 40) {
    // Same bound as serial DPsub: 2^n masks are infeasible regardless of
    // the thread count.
    return Status::InvalidArgument(
        "DPsubPar enumerates 2^n subsets; refusing n >= 40");
  }
  const int threads = EffectiveThreads(ctx);

  ctx.InstallTable(PlanTable(n, /*dense_limit=*/20,
                             ctx.options().memo_entry_budget));
  OptimizerStats& stats = ctx.stats();
  PlanTable& table = ctx.table();
  bool live = internal::SeedLeafPlans(ctx);

  ThreadPool pool(threads);
  DeadlineWatch watch(ctx.governor(), ctx.options().deadline_seconds);
  std::vector<WorkerCounters> counters(pool.thread_count());

  const uint64_t limit = (uint64_t{1} << n) - 1;
  std::vector<uint64_t> block;
  block.reserve(kBlockMasks);
  struct MaskResult {
    bool valid = false;
    PlanTable::LayerCandidate candidate;
  };
  std::vector<MaskResult> results(kBlockMasks);
  std::vector<PlanTable::LayerCandidate> candidates;

  for (int k = 2; live && k <= n; ++k) {
    // Every strict subset of a size-k mask lives in a lower,
    // already-merged layer, so the lower slabs are frozen for the
    // duration of this layer's blocks.
    table.FreezeLayer(k - 1);
    // All size-k masks in ascending order (Gosper's hack), processed in
    // blocks so the per-mask result buffer stays bounded.
    uint64_t mask = (uint64_t{1} << k) - 1;
    while (live && mask <= limit) {
      block.clear();
      while (mask <= limit && block.size() < kBlockMasks) {
        block.push_back(mask);
        mask = NextSameCount(mask);
      }

      pool.Run(block.size(), [&](uint64_t task_index, int worker) {
        MaskResult& result = results[task_index];
        result.valid = false;
        const NodeSet s = NodeSet::FromMask(block[task_index]);
        if (!IsConnectedSet(graph, s)) {
          return;  // The additional check (*) of Figure 2.
        }
        WorkerCounters& wc = counters[worker];
        const CostModel& model = ctx.cost_model();
        uint64_t since_poll = 0;
        // Replay serial DPsub's per-mask sweep exactly: ascending strict
        // subsets, table-presence connectivity (every strict subset is
        // final — it lives in a lower, already-merged layer), strict-<
        // improvement. The surviving candidate is bit-identical to the
        // entry serial DPsub would have stored.
        PlanTable::LayerCandidate best;
        best.set = s;
        best.cost = std::numeric_limits<double>::infinity();
        double out_card = 0.0;
        bool reached = false;
        for (ProperSubsetIterator it(s); !it.Done(); it.Next()) {
          ++wc.inner;
          if ((++since_poll & (kWorkerPollStride - 1)) == 0) {
            watch.Poll();
            if (watch.cancelled()) {
              return;  // Deadline observed: drop the partial candidate.
            }
          }
          const NodeSet s1 = it.Current();
          const NodeSet s2 = s - s1;
          const PlanRef left = table.Find(s1);
          if (left == kInvalidPlanRef) continue;
          const PlanRef right = table.Find(s2);
          if (right == kInvalidPlanRef) continue;
          if (!graph.AreConnected(s1, s2)) {
            continue;
          }
          ++wc.csg_cmp;
          ++wc.create_calls;
          if (JOINOPT_UNLIKELY(ctx.has_trace())) {
            // Single-threaded by the EffectiveThreads clamp.
            ctx.TraceCsgCmpPair(s1, s2);
          }
          if (!reached) {
            out_card = ctx.estimator().EstimateSet(s);
            reached = true;
          }
          const double cost = SaturateCost(
              table.cost(left) + table.cost(right) +
              model.JoinCost(table.cardinality(left),
                             table.cardinality(right), out_card));
          if (cost < best.cost) {
            best.left = left;
            best.right = right;
            best.cost = cost;
            best.cardinality = out_card;
            best.op = model.OperatorFor(table.cardinality(left),
                                        table.cardinality(right), out_card);
          }
        }
        if (best.left != kInvalidPlanRef) {
          result.valid = true;
          result.candidate = best;
        }
      });

      candidates.clear();
      for (size_t i = 0; i < block.size(); ++i) {
        if (results[i].valid) {
          candidates.push_back(results[i].candidate);
        }
      }
      live = table.MergeLayer(
          candidates, [&](const PlanTable::LayerCandidate& winner,
                          bool newly_populated) {
            return MergeGate(ctx, winner, newly_populated);
          });
      if (JOINOPT_UNLIKELY(!live && !ctx.exhausted())) {
        // Non-gate merge stop: PlanRef offset overflow (see DPsizePar).
        ctx.governor().InjectFailure(Status::BudgetExceeded(
            "plan table layer " + std::to_string(k) +
            " overflowed the 26-bit PlanRef offset space"));
      }
      if (watch.cancelled() && ctx.governor().CheckDeadlineNow()) {
        live = false;
      }
    }
  }

  for (const WorkerCounters& wc : counters) {
    stats.inner_counter += wc.inner;
    stats.csg_cmp_pair_counter += wc.csg_cmp;
    stats.create_join_tree_calls += wc.create_calls;
  }
  stats.ono_lohman_counter = stats.csg_cmp_pair_counter / 2;
  return internal::FinishOptimize(ctx);
}

}  // namespace joinopt
