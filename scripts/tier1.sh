#!/usr/bin/env bash
# Tier-1 verification: the standard build + full test suite, then a
# ThreadSanitizer build running the parallel-determinism suite (the tests
# that exercise the thread pool across engines; see docs/PARALLELISM.md),
# then a UBSan build running the fixed-seed fuzz smoke corpus (every
# topology generator x routing engine through the invariant oracle; see
# docs/FUZZING.md — a larger randomized sweep is `route_fuzz --nightly`).
set -euo pipefail
cd "$(dirname "$0")/.."

# The main build is warning-clean and stays that way: -Werror.
cmake -B build -S . -DNUE_WERROR=ON
cmake --build build -j
ctest --test-dir build --output-on-failure -j

# TSan also covers the churn regressions, the daemon's concurrent
# query-during-storm path (epoch-snapshot reads racing repair commits),
# the wave-scheduler suite (multi-epoch migration chains committing
# through the same swap while readers hold table snapshots), the
# live observability plane (scraper threads reading metrics/journal
# against an in-flight storm), the bounded transition log (its retention
# window, the journal/reconfig golden and the counter-parity check), and
# the event-engine suites (the engine itself is single-threaded, but its
# runs sit downstream of the thread-pooled routing phase), and Nue's
# incremental reroute (its layers, escape-root screen included, run on
# the pool; the repair goldens replay it at several thread counts).
cmake -B build-tsan -S . -DSANITIZE=thread
cmake --build build-tsan -j --target nue_tests
TSAN_OPTIONS="halt_on_error=1" \
  ./build-tsan/tests/nue_tests \
  --gtest_filter='ParallelDeterminism.*:NetworkChurn.*:ResilienceChurn.*:ReconfigLogRetention.*:Daemon.*:WaveScheduler.*:LivePlane.*:JournalGolden.*:CounterParity.*:EventSim.*:SimParity.*:Scenario.*:Reroute.*:GoldenRepair.*'

cmake -B build-ubsan -S . -DSANITIZE=undefined
cmake --build build-ubsan -j --target route_fuzz
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ./build-ubsan/tools/route_fuzz --smoke --json build-ubsan/fuzz.json
# The fuzz summary must be JSON and agree with the exit status above, and
# the matrix must be exactly the engine catalogue's: an edit that drops an
# engine or changes which scenarios apply moves these counts.
python3 -c "
import json
s = json.load(open('build-ubsan/fuzz.json'))
assert s['scenarios'] > 0 and s['violations'] == 0 and s['failures'] == [], s
matrix = {k: s[k] for k in
          ('scenarios', 'inapplicable', 'sim_checked', 'reconfig_checked')}
assert matrix == {'scenarios': 153, 'inapplicable': 21, 'sim_checked': 127,
                  'reconfig_checked': 5}, matrix
"

# Live-reconfiguration smoke (docs/RESILIENCE.md): replay the committed
# runtime fault trace through the resilience manager under ASan — the
# full event -> repair ladder -> union-CDG gate -> swap loop; nue_route
# exits non-zero unless the final table passes the validation oracle —
# then a randomized fault/repair sweep through the fuzzer's
# reconfiguration oracle, which re-validates every committed epoch and
# re-proves every hitless gate.
cmake -B build-asan -S . -DSANITIZE=address
cmake --build build-asan -j --target nue_route
ASAN_OPTIONS="halt_on_error=1" \
  ./build-asan/tools/nue_route \
  --fault-trace tests/corpus/torus-4x4x3-runtime.trace --routing nue --vls 4 \
  --reconfig-json build-asan/replay.reconfig.json \
  --metrics-out build-asan/replay.metrics.json
# Both documents the replay wrote must parse; the run report must carry
# the same reconfiguration log as its `reconfig` section.
python3 -c "
import json
log = json.load(open('build-asan/replay.reconfig.json'))
assert log['records'], 'empty reconfiguration log'
"
python3 scripts/validate_json.py scripts/schemas/run_report.schema.json \
  build-asan/replay.metrics.json \
  --nonzero reconfig/transitions \
  --nonzero reconfig/records
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ./build-ubsan/tools/route_fuzz --reconfig --count 40

# Telemetry stage (docs/OBSERVABILITY.md): trace a routed faulted torus
# under TSan — the per-thread span rings and atomic registry must be
# provably race-free while the pool is engaged — then validate both
# exporter outputs against the bundled JSON schemas. The fixed config is
# known to exercise Nue's escape machinery, so the counters the
# acceptance gate watches must be nonzero; pool spans prove the worker
# threads were traced, not just the caller.
cmake --build build-tsan -j --target nue_route
TSAN_OPTIONS="halt_on_error=1" \
  ./build-tsan/tools/nue_route --generate torus:5x5x5:4 --fail-links 4 \
  --fault-seed 11 --routing nue --vls 8 --threads 8 \
  --trace-out build-tsan/telemetry.trace.json \
  --metrics-out build-tsan/telemetry.metrics.json
python3 scripts/validate_json.py scripts/schemas/chrome_trace.schema.json \
  build-tsan/telemetry.trace.json
python3 scripts/validate_json.py scripts/schemas/run_report.schema.json \
  build-tsan/telemetry.metrics.json \
  --nonzero counters/nue.backtracks \
  --nonzero counters/nue.omega_hits \
  --nonzero spans/by_name/nue.layer/count \
  --nonzero spans/by_name/pool.caller/count \
  --nonzero spans/by_name/validate.routing/count

# Daemon smoke (docs/SERVICE.md): nue_managerd under ASan — startup with
# two shards, a route query, a fault event through the repair ladder,
# a post-event query, then a protocol-driven clean shutdown; the churn
# regression tests (adjacency-pool accounting, resilience-manager reuse)
# and the per-column suites (ColumnPass's memo and load arrays are
# indexed by node x lane class, RoutingResult's lane array per column or
# per node x column; the repair pins copy and shift those lanes) and the
# complete-CDG suites (the order repair indexes its position -> channel
# array by position, so an off-by-one at the region's end must fail
# loudly) run under the same ASan build. Responses are schema-checked
# against the protocol envelope, and the run report flushed at shutdown
# must carry the service counters plus the shard's reconfig section.
cmake --build build-asan -j --target nue_managerd nue_routectl nue_tests
ASAN_OPTIONS="halt_on_error=1" \
  ./build-asan/tests/nue_tests \
  --gtest_filter='NetworkChurn.*:ResilienceChurn.*:ReconfigLogRetention.*:Daemon.*:WaveScheduler.*:LivePlane.*:JournalGolden.*:CounterParity.*:EventSim.*:SimParity.*:Scenario.*:ValidateColumnPass.*:RoutingColumns.*:QualityColumnPass.*:GoldenRepair.*:GenerateSpec.*:ManagerServiceDispatch.*:CompleteCdg*.*:Seeds/CompleteCdg*.*'
MANAGERD_SOCK="build-asan/managerd.sock"
rm -rf build-asan/flightrec build-asan/managerd.journal.jsonl
ASAN_OPTIONS="halt_on_error=1" \
  ./build-asan/tools/nue_managerd --socket "$MANAGERD_SOCK" \
  --load "a=torus:4x4:1@nue:2;b=random:20:50:2@dfsssp:8" \
  --metrics-out build-asan/managerd.metrics.json \
  --journal build-asan/managerd.journal.jsonl \
  --flightrec-dir build-asan/flightrec \
  --prom-out build-asan/managerd.prom &
MANAGERD_PID=$!
for _ in $(seq 1 100); do
  [ -S "$MANAGERD_SOCK" ] && break
  sleep 0.1
done
./build-asan/tools/nue_routectl --socket "$MANAGERD_SOCK" --op status --json \
  > build-asan/managerd.status.json
./build-asan/tools/nue_routectl --socket "$MANAGERD_SOCK" --op route --json \
  --fabric a --src 16 --dst 31 > build-asan/managerd.route1.json
./build-asan/tools/nue_routectl --socket "$MANAGERD_SOCK" --op event --json \
  --fabric a --kind link-down --id 4 > build-asan/managerd.event.json
./build-asan/tools/nue_routectl --socket "$MANAGERD_SOCK" --op route --json \
  --fabric a --src 16 --dst 31 > build-asan/managerd.route2.json
# Zero-drain storm smoke (docs/RESILIENCE.md): a 200-event fault/repair
# storm on the live shard under ASan. The fixed seed is known to force
# dozens of union-gate failures on this fabric, and with the wave
# scheduler armed every one must commit as a migration chain — the
# shutdown report's resilience.drains counter is asserted exactly zero
# (the counter is always emitted, so a silent rename cannot pass).
# The storm runs in the background and the live plane is scraped against
# it mid-flight: two `metrics` snapshots (schema-valid, counters
# monotone between them — the torn-scrape gate) plus a `journal` tail.
./build-asan/tools/nue_routectl --socket "$MANAGERD_SOCK" --op storm --json \
  --fabric a --events 200 --seed 1 > build-asan/managerd.storm.json &
STORM_PID=$!
./build-asan/tools/nue_routectl --socket "$MANAGERD_SOCK" --op metrics --json \
  > build-asan/managerd.metrics1.json
./build-asan/tools/nue_routectl --socket "$MANAGERD_SOCK" --op metrics --json \
  > build-asan/managerd.metrics2.json
./build-asan/tools/nue_routectl --socket "$MANAGERD_SOCK" --op journal --json \
  > build-asan/managerd.journal.json
./build-asan/tools/nue_routectl --socket "$MANAGERD_SOCK" --op watch \
  --iterations 1 > build-asan/managerd.watch.txt
wait "$STORM_PID"
./build-asan/tools/nue_routectl --socket "$MANAGERD_SOCK" --op status --json \
  > build-asan/managerd.status2.json
./build-asan/tools/nue_routectl --socket "$MANAGERD_SOCK" --op shutdown --json
wait "$MANAGERD_PID"
for resp in status route1 event route2 storm status2; do
  python3 scripts/validate_json.py scripts/schemas/managerd.schema.json \
    "build-asan/managerd.$resp.json"
done
python3 scripts/validate_json.py scripts/schemas/managerd.schema.json \
  build-asan/managerd.storm.json \
  --nonzero waved \
  --zero drains
python3 scripts/validate_json.py scripts/schemas/live_metrics.schema.json \
  build-asan/managerd.metrics2.json \
  --require-monotonic build-asan/managerd.metrics1.json \
  --nonzero report/counters/service.requests
python3 scripts/validate_json.py scripts/schemas/journal.schema.json \
  build-asan/managerd.journal.json \
  --nonzero total
grep -q 'epoch' build-asan/managerd.watch.txt
# The storm's union-gate failures must have tripped the flight recorder,
# and the shutdown Prometheus exposition must carry the service SLOs.
ls build-asan/flightrec/flightrec-a-*.json > /dev/null
python3 -c "import json,glob; json.load(open(glob.glob('build-asan/flightrec/flightrec-a-*.json')[0]))"
grep -q '^service_request_us_bucket{le="+Inf"}' build-asan/managerd.prom
grep -q '^# TYPE service_requests counter' build-asan/managerd.prom
python3 -c "
import json
lines = [json.loads(l) for l in open('build-asan/managerd.journal.jsonl')]
assert lines, 'journal mirror is empty'
assert any(e['kind'] == 'gate-failure' for e in lines), 'no gate-failure journaled'
seqs = [e['seq'] for e in lines]
assert seqs == sorted(seqs), 'journal mirror out of order'
"
python3 scripts/validate_json.py scripts/schemas/run_report.schema.json \
  build-asan/managerd.metrics.json \
  --nonzero counters/service.requests \
  --nonzero counters/service.route_queries \
  --nonzero counters/service.fault_events \
  --nonzero counters/resilience.transitions \
  --nonzero counters/resilience.waves \
  --nonzero counters/resilience.zero_drain_saves \
  --zero counters/resilience.drains \
  --nonzero reconfig.a/transitions

# Stalled-reader shutdown (docs/SERVICE.md): a client pipelines `tables`
# requests (~190 kB replies each, far past the socket buffers) and never
# reads them. SIGTERM must still end nue_managerd within 10 s (the server
# drains for at most 1 s once the pool is idle), and the run report must
# still be flushed.
STALL_SOCK="build-asan/managerd-stall.sock"
rm -f build-asan/managerd-stall.metrics.json
ASAN_OPTIONS="halt_on_error=1" \
  ./build-asan/tools/nue_managerd --socket "$STALL_SOCK" \
  --load "a=torus:4x4x4:1@nue:2" \
  --metrics-out build-asan/managerd-stall.metrics.json &
STALL_PID=$!
for _ in $(seq 1 100); do
  [ -S "$STALL_SOCK" ] && break
  sleep 0.1
done
python3 - "$STALL_SOCK" <<'PY' &
import socket, sys, time
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b'{"op":"tables","fabric":"a"}\n' * 20)
time.sleep(60)  # never reads its replies
PY
STALL_CLIENT=$!
sleep 1
kill -TERM "$STALL_PID"
for _ in $(seq 1 100); do
  kill -0 "$STALL_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$STALL_PID" 2>/dev/null; then
  echo "nue_managerd still running 10 s after SIGTERM (stalled reader)" >&2
  kill -KILL "$STALL_PID" "$STALL_CLIENT" || true
  exit 1
fi
wait "$STALL_PID"
kill "$STALL_CLIENT" 2>/dev/null || true
wait "$STALL_CLIENT" || true
python3 scripts/validate_json.py scripts/schemas/run_report.schema.json \
  build-asan/managerd-stall.metrics.json \
  --nonzero counters/service.requests

# Scale-bench smoke (docs/SCALING.md): tiny fabrics through the full
# sweep machinery — sampled destinations, pivot-sampled escape roots,
# validation oracle, peak-RSS capture — then the emitted records are
# schema-checked. The bench exits non-zero if any fabric fails to route
# or validate, so this gate catches scale-path regressions cheaply; the
# full 10^5-switch sweep is a manual `bench_scale` run.
./build/bench/bench_scale --smoke --json build/BENCH_scale.json
python3 scripts/validate_json.py scripts/schemas/bench_scale.schema.json \
  build/BENCH_scale.json \
  --nonzero peak_rss_mb \
  --nonzero records

# Simulation-bench smoke (docs/SIMULATION.md): a tiny torus through the
# full sim-scale machinery — scenario parsing, the event engine with
# phase spans, and the event-vs-cycle head-to-head, whose delivered
# totals the bench itself asserts byte-identical (exit 2 on divergence).
# total_events proves the event path actually ran; the full 10^5-switch
# head-to-head is a manual `bench_sim_scale` run.
./build/bench/bench_sim_scale --smoke --json build/BENCH_sim.json
python3 scripts/validate_json.py scripts/schemas/bench_sim.schema.json \
  build/BENCH_sim.json \
  --nonzero total_events \
  --nonzero records

echo "tier-1 OK"
