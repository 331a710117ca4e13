/// Tests for the serving layer's fingerprint and sharded plan cache
/// (serve/fingerprint, serve/plan_cache): stat quantization, canonical
/// renumbering invariance, segmented-LRU eviction order under cost-aware
/// admission, generation invalidation, and the typed lookup/insert
/// outcome contract.

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "joinopt.h"
#include "serve/fingerprint.h"
#include "serve/plan_cache.h"
#include "testing/adversarial.h"

namespace joinopt {
namespace serve {
namespace {

// ---------------------------------------------------------------------
// Quantization.
// ---------------------------------------------------------------------

TEST(QuantizeStatTest, BucketsAtEighthOctaveResolution) {
  // Exact powers of two land on exact buckets and round-trip exactly.
  EXPECT_EQ(QuantizeStat(1.0), 0);
  EXPECT_EQ(QuantizeStat(2.0), 8);
  EXPECT_EQ(QuantizeStat(1024.0), 80);
  EXPECT_DOUBLE_EQ(DequantizeStat(QuantizeStat(1024.0)), 1024.0);
  // Values inside one bucket collapse; values a full bucket apart do not.
  EXPECT_EQ(QuantizeStat(1000.0), QuantizeStat(1004.0));
  EXPECT_NE(QuantizeStat(1000.0), QuantizeStat(1200.0));
}

TEST(QuantizeStatTest, RepresentativeStaysWithinBucketWidth) {
  // The representative of any value's bucket is within half a bucket
  // (2^(1/16) ~ 4.4%) of the value, across many orders of magnitude.
  for (double x : {1e-6, 0.013, 0.4, 1.0, 37.0, 1e4, 3.3e9}) {
    const double representative = DequantizeStat(QuantizeStat(x));
    EXPECT_LE(std::abs(std::log2(representative / x)), 1.0 / 16 + 1e-12)
        << "x=" << x;
  }
}

TEST(QuantizeStatTest, ExtremeValuesClampToFiniteBuckets) {
  const double tiny = DequantizeStat(QuantizeStat(1e-300));
  const double huge = DequantizeStat(QuantizeStat(1e300));
  EXPECT_TRUE(std::isfinite(tiny));
  EXPECT_GT(tiny, 0.0);
  EXPECT_TRUE(std::isfinite(huge));
}

TEST(QuantizeStatTest, NonPositiveAndNonFiniteInputsPinToFiniteBuckets) {
  // log2(0) is -inf and llround of a non-finite is unspecified; the
  // quantizer must be total so an unvalidated stat can never plant a
  // garbage bucket in a canonical fingerprint. Zero, negatives, and NaN
  // take the bottom bucket; +inf the top — all dequantize finite > 0.
  const int64_t bottom = QuantizeStat(0.0);
  EXPECT_EQ(QuantizeStat(-1.0), bottom);
  EXPECT_EQ(QuantizeStat(-std::numeric_limits<double>::infinity()), bottom);
  EXPECT_EQ(QuantizeStat(std::numeric_limits<double>::quiet_NaN()), bottom);
  const int64_t top = QuantizeStat(std::numeric_limits<double>::infinity());
  EXPECT_GT(top, bottom);
  for (const int64_t q : {bottom, top}) {
    const double representative = DequantizeStat(q);
    EXPECT_TRUE(std::isfinite(representative)) << q;
    EXPECT_GT(representative, 0.0) << q;
  }
}

TEST(QuantizeStatTest, DenormalAndSaturatedCardinalitiesStayOrdered) {
  // The smallest denormal and a 1e300-saturated cardinality both land on
  // finite buckets, and ordering survives quantization at the extremes.
  const int64_t denormal =
      QuantizeStat(std::numeric_limits<double>::denorm_min());
  const int64_t saturated = QuantizeStat(1e300);
  EXPECT_LT(denormal, saturated);
  EXPECT_EQ(denormal, QuantizeStat(0.0));  // Clamped into the same bucket.
  EXPECT_TRUE(std::isfinite(DequantizeStat(denormal)));
  EXPECT_TRUE(std::isfinite(DequantizeStat(saturated)));
}

// ---------------------------------------------------------------------
// Canonicalization.
// ---------------------------------------------------------------------

Result<QueryGraph> MakeChain(const std::vector<double>& cards,
                             const std::vector<int>& order) {
  // Builds a chain over `cards` but numbered through `order`, so the
  // same logical query can be presented under different numberings.
  QueryGraph graph;
  std::vector<int> index(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    auto added = graph.AddRelation(cards[static_cast<size_t>(order[i])]);
    if (!added.ok()) {
      return added.status();
    }
    index[static_cast<size_t>(order[i])] = *added;
  }
  for (size_t i = 0; i + 1 < cards.size(); ++i) {
    const Status status = graph.AddEdge(index[i], index[i + 1], 0.1);
    if (!status.ok()) {
      return status;
    }
  }
  return graph;
}

TEST(CanonicalizeQueryTest, RenumberedTwinsShareTheFingerprint) {
  const std::vector<double> cards = {10, 200, 3000, 40000, 500000};
  const std::vector<int> identity = {0, 1, 2, 3, 4};
  const std::vector<int> shuffled = {3, 0, 4, 1, 2};
  auto a = CanonicalizeQuery(*MakeChain(cards, identity), "DPccp", "cout");
  auto b = CanonicalizeQuery(*MakeChain(cards, shuffled), "DPccp", "cout");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->key, b->key);
  EXPECT_EQ(a->hash, b->hash);
  // The canonical graphs are structurally identical too.
  ASSERT_EQ(a->graph.relation_count(), b->graph.relation_count());
  for (int i = 0; i < a->graph.relation_count(); ++i) {
    EXPECT_DOUBLE_EQ(a->graph.cardinality(i), b->graph.cardinality(i));
  }
}

TEST(CanonicalizeQueryTest, NearbyStatsCollapseDistantStatsDoNot) {
  const std::vector<int> identity = {0, 1, 2};
  auto base = CanonicalizeQuery(*MakeChain({1000, 500, 250}, identity),
                                "DPccp", "cout");
  auto near = CanonicalizeQuery(*MakeChain({1004, 502, 251}, identity),
                                "DPccp", "cout");
  auto far = CanonicalizeQuery(*MakeChain({2000, 500, 250}, identity),
                               "DPccp", "cout");
  ASSERT_TRUE(base.ok() && near.ok() && far.ok());
  EXPECT_EQ(base->key, near->key);
  EXPECT_NE(base->key, far->key);
}

TEST(CanonicalizeQueryTest, IntentAndCostModelChangeTheKey) {
  const QueryGraph graph = *MakeChain({10, 20, 30}, {0, 1, 2});
  auto ccp = CanonicalizeQuery(graph, "DPccp", "cout");
  auto sub = CanonicalizeQuery(graph, "DPsub", "cout");
  auto nlj = CanonicalizeQuery(graph, "DPccp", "nlj");
  ASSERT_TRUE(ccp.ok() && sub.ok() && nlj.ok());
  EXPECT_NE(ccp->key, sub->key);
  EXPECT_NE(ccp->key, nlj->key);
}

TEST(CanonicalizeQueryTest, MappingTranslatesCanonicalBackToOriginal) {
  const std::vector<double> cards = {10, 200, 3000};
  const std::vector<int> shuffled = {2, 0, 1};
  const QueryGraph graph = *MakeChain(cards, shuffled);
  auto canonical = CanonicalizeQuery(graph, "DPccp", "cout");
  ASSERT_TRUE(canonical.ok());
  ASSERT_EQ(canonical->canonical_to_original.size(), cards.size());
  for (int c = 0; c < canonical->graph.relation_count(); ++c) {
    const int original = canonical->canonical_to_original[
        static_cast<size_t>(c)];
    EXPECT_DOUBLE_EQ(
        canonical->graph.cardinality(c),
        DequantizeStat(QuantizeStat(graph.cardinality(original))));
  }
}

TEST(CanonicalizeQueryTest, RejectsDegenerateStatisticsLikeTheOptimizer) {
  QueryGraph graph = *MakeChain({10, 20, 30}, {0, 1, 2});
  testing::StatsCorruptor::SetCardinality(
      graph, 1, std::numeric_limits<double>::infinity());
  auto canonical = CanonicalizeQuery(graph, "DPccp", "cout");
  EXPECT_FALSE(canonical.ok());
}

// ---------------------------------------------------------------------
// Plan cache.
// ---------------------------------------------------------------------

/// A minimal exact-result entry for key `k`; `seconds` drives cost-aware
/// admission. The plan is a real single-relation JoinTree (the cache
/// refuses planless entries as uncacheable).
CachedPlan MakeEntry(const std::string& k, uint64_t generation,
                     double seconds = 0.0) {
  static const QueryGraph* graph = [] {
    auto g = new QueryGraph(*QueryGraph::WithRelations(2, 100.0));
    JOINOPT_CHECK(g->AddEdge(0, 1, 0.5).ok());
    return g;
  }();
  static const JoinTree* plan = [] {
    const CoutCostModel cost_model;
    const JoinOrderer* orderer = OptimizerRegistry::Get("DPccp");
    auto result = new Result<OptimizationResult>(
        orderer->Optimize(*graph, cost_model));
    JOINOPT_CHECK(result->ok());
    return &(*result)->plan;
  }();
  CachedPlan entry;
  entry.key = k;
  // Spread the hash like the fingerprint would (shard index uses the top
  // byte, so a cheap std::hash is fine for tests).
  entry.hash = std::hash<std::string>{}(k);
  entry.generation = generation;
  entry.signature.status = StatusCode::kOk;
  entry.recompute_seconds = seconds;
  entry.plan = *plan;
  return entry;
}

PlanCacheConfig SmallConfig(uint64_t capacity, int shards = 1) {
  PlanCacheConfig config;
  config.capacity = capacity;
  config.shards = shards;
  config.protected_share = 0.5;
  config.protect_threshold_seconds = 1.0;  // Nothing auto-protects.
  return config;
}

TEST(PlanCacheTest, InsertThenHitThenTypedMiss) {
  PlanCache cache(SmallConfig(4));
  const CachedPlan entry = MakeEntry("a", cache.generation());
  EXPECT_EQ(cache.Insert(entry), CacheInsert::kInserted);
  auto hit = cache.Lookup(entry.hash, "a");
  EXPECT_EQ(hit.outcome, CacheLookup::kHit);
  ASSERT_TRUE(hit.entry.has_value());
  EXPECT_EQ(hit.entry->key, "a");
  auto miss = cache.Lookup(MakeEntry("b", 1).hash, "b");
  EXPECT_EQ(miss.outcome, CacheLookup::kMiss);
  const PlanCache::Stats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(PlanCacheTest, EvictsProbationTailInLruOrder) {
  // Capacity 3, single shard: insert a b c, touch a, insert d.
  // b is the probation LRU tail (a was promoted to protected by its
  // hit), so b must be the victim.
  PlanCache cache(SmallConfig(3));
  for (const char* k : {"a", "b", "c"}) {
    ASSERT_EQ(cache.Insert(MakeEntry(k, 1)), CacheInsert::kInserted);
  }
  EXPECT_EQ(cache.Lookup(MakeEntry("a", 1).hash, "a").outcome,
            CacheLookup::kHit);
  ASSERT_EQ(cache.Insert(MakeEntry("d", 1)), CacheInsert::kInserted);
  EXPECT_EQ(cache.Lookup(MakeEntry("b", 1).hash, "b").outcome,
            CacheLookup::kMiss);
  EXPECT_EQ(cache.Lookup(MakeEntry("a", 1).hash, "a").outcome,
            CacheLookup::kHit);
  EXPECT_EQ(cache.Lookup(MakeEntry("c", 1).hash, "c").outcome,
            CacheLookup::kHit);
  const PlanCache::Stats stats = cache.Snapshot();
  EXPECT_EQ(stats.evicted_probation, 1u);
  // a's first hit and c's verification hit each promoted out of
  // probation; b was evicted before it could be touched.
  EXPECT_EQ(stats.promoted, 2u);
}

TEST(PlanCacheTest, CostAwareAdmissionShieldsExpensivePlans) {
  // protect_threshold 1.0 s: "slow" (2 s) enters protected directly and
  // survives a stream of cheap one-shot entries that would evict it
  // under plain LRU.
  PlanCache cache(SmallConfig(4));
  ASSERT_EQ(cache.Insert(MakeEntry("slow", 1, /*seconds=*/2.0)),
            CacheInsert::kInserted);
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(cache.Insert(MakeEntry("cheap" + std::to_string(i), 1)),
              CacheInsert::kInserted);
  }
  EXPECT_EQ(cache.Lookup(MakeEntry("slow", 1).hash, "slow").outcome,
            CacheLookup::kHit);
  EXPECT_GT(cache.Snapshot().evicted_probation, 0u);
}

TEST(PlanCacheTest, GenerationBumpInvalidatesLazilyWithTypedStale) {
  PlanCache cache(SmallConfig(4));
  const CachedPlan entry = MakeEntry("a", cache.generation());
  ASSERT_EQ(cache.Insert(entry), CacheInsert::kInserted);
  cache.BumpGeneration();
  auto stale = cache.Lookup(entry.hash, "a");
  EXPECT_EQ(stale.outcome, CacheLookup::kStale);
  EXPECT_FALSE(stale.entry.has_value());
  // The stale entry was reclaimed on the spot.
  EXPECT_EQ(cache.size(), 0u);
  // A second lookup is a plain miss: the invalidation was consumed.
  EXPECT_EQ(cache.Lookup(entry.hash, "a").outcome, CacheLookup::kMiss);
}

TEST(PlanCacheTest, InsertRacingABumpIsRefusedStale) {
  PlanCache cache(SmallConfig(4));
  // The entry was computed under generation 1; the catalog moved before
  // the insert landed. Caching it would serve outdated statistics.
  const CachedPlan entry = MakeEntry("a", cache.generation());
  cache.BumpGeneration();
  EXPECT_EQ(cache.Insert(entry), CacheInsert::kRejectedStale);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Snapshot().rejected_stale, 1u);
}

TEST(PlanCacheTest, UncacheableOutcomesAreRefusedTyped) {
  PlanCache cache(SmallConfig(4));
  CachedPlan failed = MakeEntry("a", 1);
  failed.signature.status = StatusCode::kBudgetExceeded;
  EXPECT_EQ(cache.Insert(failed), CacheInsert::kRejectedUncacheable);
  CachedPlan best_effort = MakeEntry("b", 1);
  best_effort.signature.best_effort = true;
  EXPECT_EQ(cache.Insert(best_effort), CacheInsert::kRejectedUncacheable);
  CachedPlan planless = MakeEntry("c", 1);
  planless.plan.reset();
  EXPECT_EQ(cache.Insert(planless), CacheInsert::kRejectedUncacheable);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Snapshot().rejected_uncacheable, 3u);
}

TEST(PlanCacheTest, ZeroCapacityRefusesEverythingTyped) {
  PlanCache cache(SmallConfig(0));
  EXPECT_EQ(cache.Insert(MakeEntry("a", 1)),
            CacheInsert::kRejectedCapacity);
  EXPECT_EQ(cache.Lookup(MakeEntry("a", 1).hash, "a").outcome,
            CacheLookup::kMiss);
}

TEST(PlanCacheTest, ReinsertUpdatesInPlace) {
  PlanCache cache(SmallConfig(4));
  ASSERT_EQ(cache.Insert(MakeEntry("a", 1)), CacheInsert::kInserted);
  CachedPlan updated = MakeEntry("a", 1);
  updated.cost = 42.0;
  EXPECT_EQ(cache.Insert(updated), CacheInsert::kUpdated);
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Lookup(updated.hash, "a");
  ASSERT_EQ(hit.outcome, CacheLookup::kHit);
  EXPECT_DOUBLE_EQ(hit.entry->cost, 42.0);
}

TEST(PlanCacheTest, ShardCountClampsToPowerOfTwo) {
  for (int requested : {-3, 0, 1, 3, 7, 8, 500}) {
    PlanCacheConfig config = SmallConfig(64, requested);
    PlanCache cache(config);
    // Spread inserts over the hash space; every insert must land.
    for (int i = 0; i < 32; ++i) {
      // A char, not "k": GCC 12 -O3 reports a false -Wrestrict on
      // const char* + std::string&&.
      CachedPlan entry = MakeEntry('k' + std::to_string(i), 1);
      entry.hash = static_cast<uint64_t>(i) << 56;  // One per top-byte.
      ASSERT_EQ(cache.Insert(entry), CacheInsert::kInserted)
          << "shards=" << requested << " i=" << i;
    }
    EXPECT_EQ(cache.size(), 32u) << "shards=" << requested;
  }
}

}  // namespace
}  // namespace serve
}  // namespace joinopt
