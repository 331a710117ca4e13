/// Microbenchmarks of the end-to-end optimizers on moderate query sizes
/// (the region where all three are fast enough for google-benchmark's
/// statistics): chain-14, star-12, clique-10 — one friendly and one
/// hostile shape per algorithm.
///
/// The *_Limits and *_Traced variants pin down the overhead of the
/// unified pipeline: a run with a (never-tripping) deadline + memo budget
/// must stay within noise of the plain run, and the null-sink fast path
/// is what keeps the plain run free of tracing cost.
///
/// Besides the google-benchmark registrations, `--thread-scaling` runs an
/// explicit thread sweep of the parallel orderers (serial baselines +
/// DPsizePar/DPsubPar at 1/2/4/8 threads on clique-16) and emits one
/// JOINOPT_BENCH_JSON line per cell — the seed of the BENCH_parallel.json
/// perf trajectory (see tools/ci.sh) — and `--conv-head-to-head` runs the
/// DPccp-vs-DPconv clique-16 duel the same way (ci.sh fails the build if
/// the DPconv cell is slower than DPccp's). `--dense-gate-crossover`
/// prints the DPccp-vs-DPconv table by relation count and edge density
/// that the default policy's `when=dense` gate is drawn from.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common.h"
#include "core/policy.h"
#include "cost/cost_model.h"
#include "graph/generators.h"
#include "hyper/dphyp.h"

namespace joinopt {
namespace {

void RunOptimizer(benchmark::State& state, const char* algorithm,
                  QueryShape shape, int n,
                  const OptimizeOptions& options = OptimizeOptions()) {
  Result<QueryGraph> graph = MakeShapeQuery(shape, n);
  JOINOPT_CHECK(graph.ok());
  const CoutCostModel cost_model;
  const JoinOrderer& orderer = bench::Orderer(algorithm);
  for (auto _ : state) {
    Result<OptimizationResult> result =
        orderer.Optimize(*graph, cost_model, options);
    JOINOPT_CHECK(result.ok());
    benchmark::DoNotOptimize(result->cost);
  }
}

/// Generous limits that never trip on these sizes: measures the pure
/// bookkeeping cost of the governor (countdown ticks + budget compares).
OptimizeOptions GenerousLimits() {
  OptimizeOptions options;
  options.deadline_seconds = 3600.0;
  options.memo_entry_budget = uint64_t{1} << 40;
  return options;
}

/// A sink that observes every hook: measures the traced-path cost
/// relative to the null-sink fast path.
class CountingSink final : public TraceSink {
 public:
  void OnCsgCmpPair(NodeSet, NodeSet) override { ++pairs_; }
  void OnPlanInserted(NodeSet, double, double) override { ++inserts_; }
  void OnPruned(NodeSet, double, double) override { ++prunes_; }
  uint64_t total() const { return pairs_ + inserts_ + prunes_; }

 private:
  uint64_t pairs_ = 0;
  uint64_t inserts_ = 0;
  uint64_t prunes_ = 0;
};

void BM_DPsize_Chain14(benchmark::State& state) {
  RunOptimizer(state, "DPsize", QueryShape::kChain, 14);
}
void BM_DPsub_Chain14(benchmark::State& state) {
  RunOptimizer(state, "DPsub", QueryShape::kChain, 14);
}
void BM_DPccp_Chain14(benchmark::State& state) {
  RunOptimizer(state, "DPccp", QueryShape::kChain, 14);
}
void BM_DPsize_Star12(benchmark::State& state) {
  RunOptimizer(state, "DPsize", QueryShape::kStar, 12);
}
void BM_DPsub_Star12(benchmark::State& state) {
  RunOptimizer(state, "DPsub", QueryShape::kStar, 12);
}
void BM_DPccp_Star12(benchmark::State& state) {
  RunOptimizer(state, "DPccp", QueryShape::kStar, 12);
}
void BM_DPsize_Clique10(benchmark::State& state) {
  RunOptimizer(state, "DPsize", QueryShape::kClique, 10);
}
void BM_DPsub_Clique10(benchmark::State& state) {
  RunOptimizer(state, "DPsub", QueryShape::kClique, 10);
}
void BM_DPconv_Clique10(benchmark::State& state) {
  RunOptimizer(state, "DPconv", QueryShape::kClique, 10);
}
void BM_DPccp_Clique10(benchmark::State& state) {
  RunOptimizer(state, "DPccp", QueryShape::kClique, 10);
}
void BM_Greedy_Clique10(benchmark::State& state) {
  RunOptimizer(state, "GOO", QueryShape::kClique, 10);
}
void BM_DPccp_Chain40(benchmark::State& state) {
  RunOptimizer(state, "DPccp", QueryShape::kChain, 40);
}
void BM_TDBasic_Chain14(benchmark::State& state) {
  RunOptimizer(state, "TDBasic", QueryShape::kChain, 14);
}
void BM_LinDP_Chain40(benchmark::State& state) {
  RunOptimizer(state, "LinDP", QueryShape::kChain, 40);
}
void BM_IKKBZ_Star40(benchmark::State& state) {
  RunOptimizer(state, "IKKBZ", QueryShape::kStar, 40);
}

// Pipeline-overhead probes: same workloads as the plain DPccp/DPsub
// cells above, with limits armed (never tripping) or a live trace sink.
void BM_DPccp_Clique10_Limits(benchmark::State& state) {
  RunOptimizer(state, "DPccp", QueryShape::kClique, 10, GenerousLimits());
}
void BM_DPsub_Clique10_Limits(benchmark::State& state) {
  RunOptimizer(state, "DPsub", QueryShape::kClique, 10, GenerousLimits());
}
void BM_DPccp_Chain14_Limits(benchmark::State& state) {
  RunOptimizer(state, "DPccp", QueryShape::kChain, 14, GenerousLimits());
}
void BM_DPccp_Clique10_Traced(benchmark::State& state) {
  CountingSink sink;
  OptimizeOptions options;
  options.trace = &sink;
  RunOptimizer(state, "DPccp", QueryShape::kClique, 10, options);
  benchmark::DoNotOptimize(sink.total());
}
void BM_DPsub_Clique10_Traced(benchmark::State& state) {
  CountingSink sink;
  OptimizeOptions options;
  options.trace = &sink;
  RunOptimizer(state, "DPsub", QueryShape::kClique, 10, options);
  benchmark::DoNotOptimize(sink.total());
}

/// DPhyp on the hypergraph lift of a simple graph: the successor's
/// overhead relative to BM_DPccp_* on the same shapes. (DPhyp is reached
/// through the registry adapter for QueryGraph callers; this benchmark
/// exercises the native Hypergraph entry point.)
void RunDPhyp(benchmark::State& state, QueryShape shape, int n) {
  Result<QueryGraph> graph = MakeShapeQuery(shape, n);
  JOINOPT_CHECK(graph.ok());
  const Hypergraph hyper = Hypergraph::FromQueryGraph(*graph);
  const CoutCostModel cost_model;
  const DPhyp dphyp;
  for (auto _ : state) {
    Result<OptimizationResult> result = dphyp.Optimize(hyper, cost_model);
    JOINOPT_CHECK(result.ok());
    benchmark::DoNotOptimize(result->cost);
  }
}
void BM_DPhyp_Chain14(benchmark::State& state) {
  RunDPhyp(state, QueryShape::kChain, 14);
}
void BM_DPhyp_Star12(benchmark::State& state) {
  RunDPhyp(state, QueryShape::kStar, 12);
}
void BM_DPhyp_Clique10(benchmark::State& state) {
  RunDPhyp(state, QueryShape::kClique, 10);
}

BENCHMARK(BM_DPsize_Chain14);
BENCHMARK(BM_DPsub_Chain14);
BENCHMARK(BM_DPccp_Chain14);
BENCHMARK(BM_DPsize_Star12);
BENCHMARK(BM_DPsub_Star12);
BENCHMARK(BM_DPccp_Star12);
BENCHMARK(BM_DPsize_Clique10);
BENCHMARK(BM_DPsub_Clique10);
BENCHMARK(BM_DPconv_Clique10);
BENCHMARK(BM_DPccp_Clique10);
BENCHMARK(BM_Greedy_Clique10);
BENCHMARK(BM_DPccp_Chain40);
BENCHMARK(BM_TDBasic_Chain14);
BENCHMARK(BM_LinDP_Chain40);
BENCHMARK(BM_IKKBZ_Star40);
BENCHMARK(BM_DPccp_Clique10_Limits);
BENCHMARK(BM_DPsub_Clique10_Limits);
BENCHMARK(BM_DPccp_Chain14_Limits);
BENCHMARK(BM_DPccp_Clique10_Traced);
BENCHMARK(BM_DPsub_Clique10_Traced);
BENCHMARK(BM_DPhyp_Chain14);
BENCHMARK(BM_DPhyp_Star12);
BENCHMARK(BM_DPhyp_Clique10);

/// The --thread-scaling sweep: serial DPsize/DPsub baselines, then each
/// parallel orderer at 1/2/4/8 threads on the same clique. The thread
/// count is encoded in the emitted algorithm name ("DPsubPar@4") so the
/// JSON lines stay self-describing; wall-clock scaling is bounded by the
/// machine's core count, while the counters must not move at all (the
/// determinism contract).
int RunThreadScaling() {
  constexpr int kN = 16;
  const Result<QueryGraph> graph = MakeShapeQuery(QueryShape::kClique, kN);
  JOINOPT_CHECK(graph.ok());
  const CoutCostModel cost_model;
  std::printf("thread scaling, clique-%d, Cout\n", kN);
  std::printf("%-12s  %10s  %14s\n", "cell", "seconds", "inner");

  const auto run_cell = [&](const char* algorithm, int threads) {
    OptimizeOptions options;
    options.threads = threads;
    OptimizerStats stats;
    const double seconds = bench::MeasureSeconds(
        bench::Orderer(algorithm), *graph, cost_model, &stats, options);
    char cell[32];
    if (threads > 0) {
      std::snprintf(cell, sizeof(cell), "%s@%d", algorithm, threads);
    } else {
      std::snprintf(cell, sizeof(cell), "%s", algorithm);
    }
    bench::EmitBenchJson(cell, "clique", kN, stats, seconds);
    std::printf("%-12s  %10.4f  %14llu\n", cell, seconds,
                static_cast<unsigned long long>(stats.inner_counter));
  };

  run_cell("DPsize", 0);
  run_cell("DPsub", 0);
  for (const char* algorithm : {"DPsizePar", "DPsubPar"}) {
    for (int threads : {1, 2, 4, 8}) {
      run_cell(algorithm, threads);
    }
  }
  return 0;
}

/// The --conv-head-to-head sweep: serial DPccp vs DPconv on clique-16
/// under Cout — the paper-suite shape where csg-cmp enumeration pays
/// O(3^n) while the subset convolution stays near O(2^n·n²). One JSON
/// line per cell, BENCH_parallel.json-style; tools/ci.sh guards that the
/// DPconv cell's wall-clock never exceeds DPccp's, and that both report
/// the same optimal cost bit-for-bit.
int RunConvHeadToHead() {
  constexpr int kN = 16;
  const Result<QueryGraph> graph = MakeShapeQuery(QueryShape::kClique, kN);
  JOINOPT_CHECK(graph.ok());
  const CoutCostModel cost_model;
  std::printf("conv head-to-head, clique-%d, Cout\n", kN);
  std::printf("%-12s  %10s  %14s  %22s\n", "cell", "seconds", "inner",
              "cost");

  double costs[2] = {0.0, 0.0};
  const char* const cells[2] = {"DPccp", "DPconv"};
  for (int i = 0; i < 2; ++i) {
    OptimizerStats stats;
    const double seconds = bench::MeasureSeconds(
        bench::Orderer(cells[i]), *graph, cost_model, &stats);
    Result<OptimizationResult> result =
        bench::Orderer(cells[i]).Optimize(*graph, cost_model);
    JOINOPT_CHECK(result.ok());
    costs[i] = result->cost;
    bench::EmitBenchJson(cells[i], "clique", kN, stats, seconds);
    std::printf("%-12s  %10.4f  %14llu  %22.17g\n", cells[i], seconds,
                static_cast<unsigned long long>(stats.inner_counter),
                costs[i]);
  }
  if (costs[0] != costs[1]) {
    std::fprintf(stderr,
                 "conv head-to-head: cost mismatch DPccp %.17g vs "
                 "DPconv %.17g\n",
                 costs[0], costs[1]);
    return 1;
  }
  return 0;
}

/// The --dense-gate-crossover sweep: serial DPccp vs DPconv (its default
/// zeta gate) under Cout on random connected graphs, by relation count and
/// edge density E / (n(n-1)/2). Each cell reports DPccp's time over
/// DPconv's (> 1: DPconv wins) and whether the default policy's
/// `when=dense` gate routes the graph to DPconv. Fails on any cost that
/// is not bit-identical between the two.
int RunDenseGateCrossover() {
  const CoutCostModel cost_model;
  const double densities[] = {0.15, 0.2, 0.25, 0.35, 0.5, 1.0};
  std::printf("dense-gate crossover, random connected, Cout: DPccp ms / "
              "DPconv ms = speedup (* = gate routes to DPconv)\n");
  std::printf("%4s", "n");
  for (const double density : densities) {
    std::printf("  %24.2f", density);
  }
  std::printf("\n");
  for (const int n : {8, 9, 10, 11, 12, 13, 14, 15, 16, 17}) {
    std::printf("%4d", n);
    for (const double density : densities) {
      const int max_edges = n * (n - 1) / 2;
      const int edges = std::max(
          n - 1, static_cast<int>(std::ceil(density * max_edges)));
      WorkloadConfig config;
      config.seed = 20061012 + static_cast<uint64_t>(n);
      const Result<QueryGraph> graph =
          MakeRandomConnectedQuery(n, edges - (n - 1), config);
      JOINOPT_CHECK(graph.ok());
      char shape[32];
      std::snprintf(shape, sizeof(shape), "random-d%.2f", density);
      double seconds[2] = {0.0, 0.0};
      double costs[2] = {0.0, 0.0};
      const char* const cells[2] = {"DPccp", "DPconv"};
      for (int i = 0; i < 2; ++i) {
        OptimizerStats stats;
        seconds[i] = bench::MeasureSeconds(bench::Orderer(cells[i]), *graph,
                                           cost_model, &stats);
        Result<OptimizationResult> result =
            bench::Orderer(cells[i]).Optimize(*graph, cost_model);
        JOINOPT_CHECK(result.ok());
        costs[i] = result->cost;
        bench::EmitBenchJson(cells[i], shape, n, stats, seconds[i]);
      }
      if (costs[0] != costs[1]) {
        std::fprintf(stderr,
                     "dense-gate crossover: n=%d density %.2f cost mismatch "
                     "DPccp %.17g vs DPconv %.17g\n",
                     n, density, costs[0], costs[1]);
        return 1;
      }
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%.3g/%.3g=%.2f%s",
                    seconds[0] * 1e3, seconds[1] * 1e3,
                    seconds[0] / seconds[1],
                    StepGateHolds(StepGate::kDense, *graph, cost_model)
                        ? "*"
                        : " ");
      std::printf("  %24s", cell);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace joinopt

int main(int argc, char** argv) {
  joinopt::bench::RequireValidEnv();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--thread-scaling") == 0) {
      return joinopt::RunThreadScaling();
    }
    if (std::strcmp(argv[i], "--conv-head-to-head") == 0) {
      return joinopt::RunConvHeadToHead();
    }
    if (std::strcmp(argv[i], "--dense-gate-crossover") == 0) {
      return joinopt::RunDenseGateCrossover();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
