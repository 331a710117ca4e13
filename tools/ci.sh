#!/usr/bin/env bash
# Tier-1 CI gate: configure, build, and run the full test suite three
# times — plain (RelWithDebInfo, the shipping configuration), under
# ASan+UBSan (Debug, so assertions and the plan-table generation checks
# are live), and under TSan (Debug), which builds the concurrent soak
# harness and the differential fuzzer and runs them with the parallel DP
# orderers in the algorithm mix — then configure and build everything
# once more in Release (-O3, still -Werror). The plain pass additionally
# emits the BENCH_parallel.json thread-scaling artifact.
# Intended both for automation and as the one command to run before
# sending a change:
#
#   tools/ci.sh            # all four passes
#   tools/ci.sh plain      # just the plain pass
#   tools/ci.sh sanitize   # just the ASan+UBSan pass
#   tools/ci.sh tsan       # just the TSan soak pass
#   tools/ci.sh release    # just the Release configure-and-build
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 4)"

run_pass() {
  local label="$1" build_dir="$2"
  shift 2
  echo "=== ${label}: configure (${build_dir}) ==="
  cmake -B "${build_dir}" -S . "$@"
  echo "=== ${label}: build ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== ${label}: test ==="
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
  echo "=== ${label}: fuzz smoke ==="
  # Fixed seeds so a red run is reproducible verbatim. 500 iterations
  # cycle the differential fuzzer through all six round types (plain,
  # extreme, degenerate statistics, and the three fault injections);
  # under the sanitize pass this doubles as a leak/UB sweep of every
  # error path — including the DPconv slice: the subset-convolution
  # orderer sits in the differential pool, so its zeta-transform
  # workspace, its bit-identity-to-DPccp oracle, and its typed non-Cout
  # rejection all run under ASan/UBSan here.
  # The runs also interleave snapshot-mutation rounds against the
  # plan-cache persistence layer; the guard below requires at least one
  # corrupt record to have been skipped without a nonzero exit — proof
  # the corruption-tolerant skip path ran, not just the happy path.
  "${build_dir}/tools/joinopt_fuzz" --iters 500 --seed 1 \
    | tee "${build_dir}/fuzz_smoke.log"
  "${build_dir}/tools/joinopt_fuzz" --iters 500 --seed 20060912 \
    | tee -a "${build_dir}/fuzz_smoke.log"
  if ! grep -Eq "snapshot fuzz: [0-9]+ mutations, [1-9][0-9]* corrupt records skipped" \
      "${build_dir}/fuzz_smoke.log"; then
    echo "fuzz smoke: snapshot mutation rounds never skipped a corrupt record" >&2
    exit 1
  fi
  # Same proof obligation for the wire-frame mutation rounds: at least
  # one mutated frame must have been REJECTED (CRC/magic/length), not
  # just truncated into kIncomplete — otherwise the corruption-rejection
  # path never ran.
  if ! grep -Eq "wire fuzz: [0-9]+ mutations, [1-9][0-9]* rejected" \
      "${build_dir}/fuzz_smoke.log"; then
    echo "fuzz smoke: wire mutation rounds never rejected a corrupt frame" >&2
    exit 1
  fi
  # And for the default policy's DPconv route: each plain round adds a
  # dense Cout draw that the `when=dense` gate must route to DPconv, so a
  # run that routed nothing never checked that route against DPccp.
  if ! grep -Eq "policy fuzz: [0-9]+ default-policy runs, [1-9][0-9]* routed to DPconv" \
      "${build_dir}/fuzz_smoke.log"; then
    echo "fuzz smoke: the default policy never routed a query to DPconv" >&2
    exit 1
  fi
  echo "=== ${label}: soak smoke ==="
  # The concurrent anytime soak: mixed graph families, randomized budget
  # / deadline / fault trips, per-thread fault injectors. Any crash,
  # invalid plan, or cross-query state leak fails the run. --repro-dir
  # arms the flight recorder, so a red soak leaves replayable bundles
  # behind instead of just a log line.
  rm -rf "${build_dir}/repro-artifacts"
  "${build_dir}/tools/joinopt_soak" --threads 8 --queries 500 \
    --repro-dir "${build_dir}/repro-artifacts/soak"
  echo "=== ${label}: service chaos smoke ==="
  # The serving layer under chaos: recurring queries through the plan
  # cache with per-request fault schedules, mid-stream catalog-generation
  # bumps, and overload bursts. Every cache hit is compared against a
  # fresh DP re-run (the poisoning oracle); sheds must be typed
  # kOverloaded; the watchdog turns a stall into a hard failure.
  "${build_dir}/tools/joinopt_soak" --service --threads 8 --queries 300
  echo "=== ${label}: crash recovery soak ==="
  # The process-kill chaos harness: fork the service, SIGKILL it
  # mid-traffic (and regularly mid-snapshot-write) three times, and
  # require every restart to recover the full pool from the surviving
  # snapshot with bit-identical replay — then one clean cycle and a
  # corruption drill that must skip the bad record with a typed count.
  "${build_dir}/tools/joinopt_soak" --crash-recovery --cycles 3 \
    --snapshot "${build_dir}/crash_recovery.snap"
  echo "=== ${label}: wire chaos soak ==="
  # The network front end under chaos: fork/SIGKILL server processes
  # mid-exchange (clients must get typed kUnavailable, snapshots must
  # survive), then the in-process battery — loopback responses held
  # bit-identical to SubmitAndWait, hostile frames answered with typed
  # errors and clean closes, slowloris writers deadline-closed, mid-frame
  # disconnects shrugged off, and connection-table overflow shed with a
  # typed kOverloaded frame. The server crashing on ANY of it is the
  # failure.
  "${build_dir}/tools/joinopt_soak" --wire --cycles 3
  echo "=== ${label}: replay smoke ==="
  # The flight-recorder loop, end to end: a fuzz run that arms fault
  # injection captures one bundle per injected failure; every bundle must
  # then replay bit-for-bit through joinopt_cli. A divergence means
  # nondeterminism crept into an optimizer path (iteration order, time,
  # uninitialized reads) — exactly what the recorder exists to catch.
  "${build_dir}/tools/joinopt_fuzz" --iters 240 --seed 5 \
    --repro-dir "${build_dir}/repro-artifacts/fuzz"
  replayed=0
  for bundle in "${build_dir}"/repro-artifacts/fuzz/*.joinopt; do
    [ -e "${bundle}" ] || continue
    "${build_dir}/tools/joinopt_cli" replay "${bundle}" > /dev/null
    replayed=$((replayed + 1))
  done
  if [ "${replayed}" -eq 0 ]; then
    echo "replay smoke: no bundles captured (fault rounds should emit)" >&2
    exit 1
  fi
  echo "replay smoke: ${replayed} bundle(s) reproduced bit-for-bit"
  if [ "${label}" != plain ]; then
    return  # The bench sweep is a perf cell; sanitizer builds would only
            # add minutes without checking anything the plain pass misses.
  fi
  echo "=== ${label}: parallel bench smoke ==="
  # The thread-scaling cell of the parallel DP orderers. The wall-clock
  # column scales only with the machine's core count, but the counters
  # are part of the determinism contract and must not move — the JSON
  # artifact (BENCH_parallel.json) records both so perf trajectories and
  # counter regressions are diffable across commits.
  rm -f "${build_dir}/BENCH_parallel.json"
  JOINOPT_BENCH_JSON="${build_dir}/BENCH_parallel.json" \
    "${build_dir}/bench/micro_optimizers" --thread-scaling
  if [ ! -s "${build_dir}/BENCH_parallel.json" ]; then
    echo "parallel bench smoke: no JSON artifact emitted" >&2
    exit 1
  fi
  echo "=== ${label}: parallel perf guard ==="
  # Representation-overhead regression guard: DPsizePar at one thread is
  # serial DPsize plus the reduction/merge machinery, so its runtime is a
  # direct measure of the memo representation's parallel-path overhead.
  # The slab refactor brought the ratio from ~3.5x to ~1x; fail the run
  # if it creeps back above 1.15x.
  python3 - "${build_dir}/BENCH_parallel.json" <<'PYGUARD'
import json, sys
cells = {}
with open(sys.argv[1]) as f:
    for line in f:
        cell = json.loads(line)
        cells[cell["algorithm"]] = cell["elapsed_s"]
serial, par1 = cells["DPsize"], cells["DPsizePar@1"]
ratio = par1 / serial
print(f"DPsizePar@1/DPsize on clique-16: {par1:.3f}s / {serial:.3f}s = {ratio:.3f}x")
if ratio > 1.15:
    print(f"FAIL: parallel representation overhead {ratio:.3f}x exceeds the 1.15x budget", file=sys.stderr)
    sys.exit(1)
PYGUARD
  echo "=== ${label}: conv head-to-head guard ==="
  # DPconv's reason to exist is beating the csg-cmp enumeration on the
  # paper's hardest shape: fail the build if the subset-convolution cell
  # is slower than DPccp's on clique-16 under Cout. Both cells land in
  # BENCH_parallel.json alongside the thread-scaling rows (the bench
  # binary itself exits nonzero on any optimal-cost mismatch between the
  # two, so the perf guard below can assume cost equality held).
  JOINOPT_BENCH_JSON="${build_dir}/BENCH_parallel.json" \
    "${build_dir}/bench/micro_optimizers" --conv-head-to-head
  python3 - "${build_dir}/BENCH_parallel.json" <<'PYCONV'
import json, sys
cells = {}
with open(sys.argv[1]) as f:
    for line in f:
        cell = json.loads(line)
        cells[cell["algorithm"]] = cell["elapsed_s"]
ccp, conv = cells["DPccp"], cells["DPconv"]
print(f"DPconv/DPccp on clique-16: {conv:.3f}s / {ccp:.3f}s = {conv/ccp:.3f}x")
if conv > ccp:
    print(f"FAIL: DPconv ({conv:.3f}s) is slower than DPccp ({ccp:.3f}s) on clique-16", file=sys.stderr)
    sys.exit(1)
PYCONV
  echo "=== ${label}: memo representation bench ==="
  # Index-backend and layout throughput cells (BENCH_memo.json): slab
  # dense/sparse vs the pre-refactor hash-map-of-AoS baseline, plus the
  # clique-16 end-to-end cells, diffable across commits like the
  # parallel artifact above.
  rm -f "${build_dir}/BENCH_memo.json"
  JOINOPT_BENCH_JSON="${build_dir}/BENCH_memo.json" \
    "${build_dir}/bench/micro_plan_table"
  if [ ! -s "${build_dir}/BENCH_memo.json" ]; then
    echo "memo bench: no JSON artifact emitted" >&2
    exit 1
  fi
  echo "=== ${label}: serving bench ==="
  # The serving-layer cells (BENCH_serving.json): hit-rate and throughput
  # at several plan-cache capacities plus the overload-shedding cell. The
  # guard requires the sweep to actually cover multiple cache sizes and
  # the full-pool cache to hit — a silently dead cache would otherwise
  # still produce a plausible-looking artifact.
  rm -f "${build_dir}/BENCH_serving.json"
  JOINOPT_BENCH_JSON="${build_dir}/BENCH_serving.json" \
    "${build_dir}/bench/serving"
  python3 - "${build_dir}/BENCH_serving.json" <<'PYSERVE'
import json, sys
cells = [json.loads(line) for line in open(sys.argv[1])]
capacities = {c["cache_capacity"] for c in cells if c["cell"] != "overload"}
if len(capacities) < 3:
    print(f"FAIL: serving sweep covered only {sorted(capacities)}", file=sys.stderr)
    sys.exit(1)
full = next(c for c in cells if c["cell"] == "full")
if full["hit_rate"] < 0.5:
    print(f"FAIL: full-pool cache hit rate {full['hit_rate']:.2f} < 0.5", file=sys.stderr)
    sys.exit(1)
overload = next(c for c in cells if c["cell"] == "overload")
if overload["shed"] == 0:
    print("FAIL: overload cell shed nothing", file=sys.stderr)
    sys.exit(1)
warm = next(c for c in cells if c["cell"] == "warm_start")
if warm["restored"] == 0 or warm["hit_rate"] < 0.99:
    print(f"FAIL: warm start restored {warm['restored']} entries with hit rate {warm['hit_rate']:.2f} (want restored > 0, hit rate >= 0.99)", file=sys.stderr)
    sys.exit(1)
wire = next((c for c in cells if c["cell"] == "wire"), None)
if wire is None:
    print("FAIL: wire cell missing from the serving sweep", file=sys.stderr)
    sys.exit(1)
if wire["queries"] == 0 or wire["hit_rate"] < 0.5:
    print(f"FAIL: wire cell served {wire['queries']} queries with hit rate {wire['hit_rate']:.2f} (want completion with a live cache)", file=sys.stderr)
    sys.exit(1)
for c in cells:
    if not (0 <= c["latency_p50_s"] <= c["latency_p95_s"] <= c["latency_p99_s"]):
        print(f"FAIL: cell {c['cell']} latency percentiles are not monotone", file=sys.stderr)
        sys.exit(1)
print(f"serving bench: {len(cells)} cells, full-pool hit rate {full['hit_rate']:.1%}, warm-start hit rate {warm['hit_rate']:.1%} ({warm['restored']} restored), overload shed {overload['shed']}, wire {wire['throughput_qps']:.0f} q/s")
PYSERVE
}

run_tsan_pass() {
  local build_dir="build-tsan"
  echo "=== tsan: configure (${build_dir}) ==="
  cmake -B "${build_dir}" -S . \
    -DCMAKE_BUILD_TYPE=Debug -DJOINOPT_SANITIZE=thread
  echo "=== tsan: build joinopt_soak + joinopt_fuzz ==="
  cmake --build "${build_dir}" -j "${jobs}" --target joinopt_soak joinopt_fuzz
  echo "=== tsan: concurrent soak (~60s) ==="
  # TSan halts the process on the first data race (halt_on_error via
  # -fno-sanitize-recover=all), so a clean exit here certifies the
  # thread_local fault injector and the shared registry/statics are
  # race-free under 8-way concurrent optimization — including the
  # parallel DP orderers' thread pools nested inside the soak workers.
  rm -rf "${build_dir}/repro-artifacts"
  "${build_dir}/tools/joinopt_soak" --threads 8 --queries 500 \
    --seed 20060912 --repro-dir "${build_dir}/repro-artifacts/soak"
  echo "=== tsan: service chaos soak ==="
  # The serving layer's whole concurrency surface under TSan: sharded
  # cache mutexes against the atomic generation stamp, the admission
  # queue against worker pops and drain, promise/future handoff, and the
  # per-request thread_local fault injectors — with the cache enabled,
  # faults armed, generation bumps racing in-flight inserts, and
  # overload bursts racing the queue. The acceptance bar is zero races,
  # zero watchdog aborts, zero poisoning violations.
  "${build_dir}/tools/joinopt_soak" --service --threads 8 --queries 300 \
    --seed 20060912
  echo "=== tsan: wire chaos soak ==="
  # The wire front end's cross-thread seams under TSan: worker-thread
  # completions crossing into the poll() loop through the completed_
  # vector + self-pipe wake, stats counters read from the harness while
  # the loop mutates them, and Start/Stop joining the loop thread. The
  # fork phase runs before any in-process threads exist, so the child
  # processes stay fork-safe under TSan too.
  "${build_dir}/tools/joinopt_soak" --wire --cycles 3 --seed 20060912
  echo "=== tsan: parallel fuzz smoke ==="
  # The differential fuzzer drives DPsizePar/DPsubPar against the serial
  # enumerators, so this slice sweeps the layer-barrier fan-out, the
  # sharded memo reads, and the worker deadline watch under TSan.
  "${build_dir}/tools/joinopt_fuzz" --iters 120 --seed 20060912
}

run_release_pass() {
  local build_dir="build-release"
  echo "=== release: configure (${build_dir}) ==="
  # GCC's optimizer-driven diagnostics (-Wrestrict, -Warray-bounds, ...)
  # only fire at -O3, so the Release configuration must compile clean
  # under -Werror too; the tests already ran in the passes above.
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Release
  echo "=== release: build ==="
  cmake --build "${build_dir}" -j "${jobs}"
}

mode="${1:-all}"
case "${mode}" in
  plain | sanitize | tsan | release | all) ;;
  *)
    echo "usage: $0 [plain|sanitize|tsan|release|all]" >&2
    exit 2
    ;;
esac

if [[ "${mode}" == plain || "${mode}" == all ]]; then
  run_pass "plain" build
fi
if [[ "${mode}" == sanitize || "${mode}" == all ]]; then
  run_pass "sanitize" build-sanitize \
    -DCMAKE_BUILD_TYPE=Debug -DJOINOPT_SANITIZE=ON
fi
if [[ "${mode}" == tsan || "${mode}" == all ]]; then
  run_tsan_pass
fi
if [[ "${mode}" == release || "${mode}" == all ]]; then
  run_release_pass
fi

echo "=== CI green (${mode}) ==="
