#!/usr/bin/env bash
# The CI pipeline, runnable locally. Stages, in order:
#   - default build + full test suite;
#   - the instruction-set split: no VEX instruction in a baseline-level
#     object, no EVEX instruction in an AVX2-level one, and no weak symbol
#     in an AVX2- or AVX-512-level one;
#   - the suite at IVNET_THREADS 1/2/nproc and pinned to one CPU;
#   - the benchmark: perfbench's unit tests, and its driver built and run
#     traced on every workload for one second, which must report
#     "correct": true;
#   - the telemetry-overhead gate (bench_service: <= 3% CPU per request at
#     the sign-test 95% upper end, identical responses);
#   - a 10k-request `ivnet serve` soak with live telemetry that must shed
#     nothing while unsaturated (time series schema-checked, flight dump
#     validated as Chrome trace JSON);
#   - the large-N planner gates (bench_x1: delta score memcmp-equal to the
#     full rebuild, within 1e-6 of a naive double-precision oracle), a
#     plan/re-plan pair whose plan JSONs cmp equal with zero evaluations
#     on the hit, an N=128 plan cmp-equal at IVNET_THREADS 1 and nproc,
#     and a plan written to /dev/full that must fail;
#   - CLI flags: 64-bit seeds stay exact, a malformed value exits 2, a
#     negative value after a flag is that flag's value, a bare
#     --closed-loop runs 4 x workers, an oversize window or a bad
#     --time-scale beside a wall-clock sampler exits 2, a campaign with
#     --trials 0 or --range-trials 0 exits 2, and a plan with --trials,
#     --moves or --restarts 0 or --antennas 0 or 1 exits 2 naming the flag,
#     and replay-exemplar exits 2 on an exemplar whose kind, trials or
#     antennas its request cannot hold, or whose SNR or medium loss is
#     missing or not a whole finite number;
#   - every soak exemplar replays to its recorded response hash;
#   - the suite under ASan+UBSan and TSan, and a Debug spot-check of the FIR,
#     radio, waveform-session, Gen2, impairment/link-session, sweep
#     (determinism, impairment matrix), campaign, cib, service and telemetry
#     suites (other legs are NDEBUG);
#   - a traced `ivnet vitals --rounds 4` whose metrics/trace artifacts are
#     smoke-checked;
#   - campaign kill-and-resume and a 3-shard fleet with one worker
#     SIGKILL'd, each cmp-equal to the uninterrupted run at 1/2/8 threads;
#   - an x13 campaign at IVNET_THREADS 1/2/nproc whose results and sim
#     traces cmp equal and whose metrics snapshots match except for the
#     wall-clock campaign.cell.seconds;
#   - with gcovr installed, a line-coverage floor on src/ivnet/gen2,
#     src/ivnet/impair and src/ivnet/obs.
#
# Knobs:
#   JOBS                  parallel build jobs      (default: nproc)
#   COVERAGE_LINE_FLOOR   gcovr --fail-under-line  (default: 80)
#   IVNET_COVERAGE        ON forces the coverage stage: missing gcovr is
#                         then a hard failure instead of a skip
#   ARTIFACT_DIR          where artifacts land (default: build-ci/artifacts)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
COVERAGE_LINE_FLOOR="${COVERAGE_LINE_FLOOR:-80}"
ARTIFACT_DIR="${ARTIFACT_DIR:-build-ci/artifacts}"

build_and_test() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure
}

echo "=== ci: default build ==="
build_and_test build-ci

echo "=== ci: instruction-set split (baseline, AVX2 and AVX-512 objects) ==="
# Each wide unit runs only after common/isa.cpp finds its level on the CPU,
# so a CPU without the level never enters it. Three slips would still fault
# there: a VEX-encoded instruction in a baseline-level object; an
# EVEX-encoded one (a zmm, mask or xmm/ymm16-31 register) in an AVX2-level
# object, which must run on CPUs without AVX-512; or a weak symbol in a wide
# object (an inline or template copy the linker may hand to a narrower
# level's callers too). cib/objective.cpp calls the block kernels and holds
# the per-trial Eq. 6 scan, so it is baseline-level too.
OBJ_DIR=build-ci/src/CMakeFiles/ivnet.dir/ivnet
for obj in signal/gauss.cpp.o cib/delta_objective.cpp.o cib/objective.cpp.o; do
  vex=$(objdump -d --no-show-raw-insn "$OBJ_DIR/$obj" |
      awk -F'\t' 'NF>1{print $2}' | grep -c '^v' || true)
  if [[ "$vex" -ne 0 ]]; then
    echo "ci: baseline object $obj holds $vex VEX instructions" >&2
    exit 1
  fi
done
for obj in signal/gauss_avx2.cpp.o cib/delta_avx2.cpp.o; do
  evex=$(objdump -d --no-show-raw-insn "$OBJ_DIR/$obj" |
      awk -F'\t' 'NF>1{print $2}' |
      grep -cE '%zmm|%k[0-7]|%[xy]mm(1[6-9]|2[0-9]|3[01])' || true)
  if [[ "$evex" -ne 0 ]]; then
    echo "ci: AVX2 object $obj holds $evex EVEX instructions" >&2
    exit 1
  fi
done
for obj in signal/gauss_avx2.cpp.o cib/delta_avx2.cpp.o \
    cib/delta_avx512.cpp.o; do
  weak=$(nm --defined-only "$OBJ_DIR/$obj" | awk '$2 ~ /^[WwVvu]$/' | wc -l)
  if [[ "$weak" -ne 0 ]]; then
    echo "ci: wide object $obj defines $weak weak symbols:" >&2
    nm -C --defined-only "$OBJ_DIR/$obj" | awk '$2 ~ /^[WwVvu]$/' >&2
    exit 1
  fi
done
echo "ci: baseline objects hold no VEX instruction, AVX2 objects no EVEX" \
    "instruction, wide objects no weak symbol"

echo "=== ci: tier-1 at fixed pool sizes and on one CPU ==="
# Tests may assert only facts that hold under any thread schedule, so the
# suite must pass at every pool size: 1, 2 and nproc threads, and once
# pinned to CPU 0 (the pool keeps its default size, time-sliced on one
# core).
for threads in 1 2 "$(nproc)"; do
  echo "ci: ctest at IVNET_THREADS=$threads"
  IVNET_THREADS=$threads ctest --test-dir build-ci --output-on-failure
done
echo "ci: ctest under taskset -c 0"
taskset -c 0 ctest --test-dir build-ci --output-on-failure

echo "=== ci: benchmark build and smoke run ==="
# perfbench builds its own driver against src/ and is the only caller of
# some library entry points (the FIR probes), so a library change can break
# the benchmark alone. One traced second per workload builds the driver,
# runs every probe and checks every output.
mkdir -p "$ARTIFACT_DIR"
if command -v python3 >/dev/null 2>&1; then
  python3 -m unittest discover -s perfbench -p 'test_*.py'
  CARGO_TARGET_DIR=build-ci/bench python3 perfbench/run.py --workload all \
      --seed 1 --seconds 1 --trace 1 > "$ARTIFACT_DIR/perfbench_smoke.txt"
  python3 - "$ARTIFACT_DIR/perfbench_smoke.txt" <<'PY'
import json, sys
result = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert result["correct"] is True, result
print(f"ci: perfbench correct, {result['failed']} of "
      f"{result['attempted']} operations failed")
PY
else
  echo "ci: python3 not installed, skipping the benchmark smoke run"
fi

echo "=== ci: telemetry overhead gate (<= 3% CPU per request) ==="
# The full observability stack (rolling windows + exemplar store + flight
# recorder) against the bare service, 400 paired blocks on one pinned CPU:
# the bench exits non-zero when the upper end of the sign-test 95% interval
# for the median CPU-time ratio exceeds 1.03, or when telemetry changed a
# response.
build-ci/bench/bench_service

echo "=== ci: service soak (bounded, 10k requests, 8 workers) ==="
# Run-to-completion soak through `ivnet serve`: a 2-state MMPP schedule well
# below the 1-worker saturation point, deep queue. Unsaturated open-loop
# serving must shed NOTHING and complete everything it accepted (the
# graceful-shutdown drain guarantee); either miss fails the pipeline.
mkdir -p "$ARTIFACT_DIR"
build-ci/tools/ivnet serve --workers 8 --queue-depth 4096 \
    --requests 10000 --rate 3000 --trials 1 --seed 41 --json \
    --telemetry-out "$ARTIFACT_DIR/SOAK_series.jsonl" \
    --exemplars-out "$ARTIFACT_DIR/SOAK_exemplars.jsonl" \
    --flight-out "$ARTIFACT_DIR/SOAK_flight.json" \
    > "$ARTIFACT_DIR/SOAK_service.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$ARTIFACT_DIR/SOAK_service.json" <<'PY'
import json, sys
soak = json.load(open(sys.argv[1]))
assert soak["submitted"] == 10000, soak["submitted"]
assert soak["rejected"] == 0, f"unsaturated soak shed {soak['rejected']} requests"
assert soak["completed"] == soak["accepted"] == 10000, \
    f"drain lost requests: {soak['completed']}/{soak['accepted']}"
print(f"ci: soak {soak['completed']}/10000 completed, 0 rejected, "
      f"p99 wait {soak['queue_wait_p99_s']*1e3:.2f} ms, "
      f"digest {soak['digest']}")
PY
  # Time-series schema: every line is a standalone JSON record carrying the
  # three trailing windows with the full stat set, counts consistent.
  python3 - "$ARTIFACT_DIR/SOAK_series.jsonl" <<'PY'
import json, sys
required = {"window_s", "accepted", "completed", "shed", "throughput_rps",
            "shed_rps", "queue_wait_p50_s", "queue_wait_p99_s",
            "service_p50_s", "service_p99_s"}
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "telemetry series is empty"
total = 0
for line in lines:
    rec = json.loads(line)
    assert rec["t_s"] >= 0, rec
    windows = rec["windows"]
    assert [w["window_s"] for w in windows] == [1, 10, 60], windows
    for w in windows:
        assert required <= set(w), sorted(required - set(w))
        assert w["shed"] == 0, f"soak shed inside a window: {w}"
    total = max(total, windows[2]["completed"])
print(f"ci: telemetry series has {len(lines)} samples, "
      f"peak 60s-window completions {total}")
PY
  # Flight recorder: the forced dump must be valid Chrome trace JSON with
  # events from the submit ring and the worker rings.
  python3 - "$ARTIFACT_DIR/SOAK_flight.json" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "flight dump has no events"
tids = {e["tid"] for e in events}
assert 0 in tids and len(tids) > 1, f"expected submit+worker rings, got {tids}"
kinds = {e["name"] for e in events}
assert "enqueue" in kinds and "dequeue" in kinds, kinds
print(f"ci: flight dump has {len(events)} events across {len(tids)} rings")
PY
else
  grep -q '"rejected":0' "$ARTIFACT_DIR/SOAK_service.json" || {
    echo "ci: unsaturated soak shed requests" >&2
    exit 1
  }
  grep -q '"completed":10000' "$ARTIFACT_DIR/SOAK_service.json" || {
    echo "ci: soak did not complete all 10000 requests" >&2
    exit 1
  }
fi

echo "=== ci: large-N planner delta-eval gates ==="
# bench_x1 sweeps N in {10, 32, 64, 128}: the delta evaluator's score must
# be memcmp-identical to the retained full rebuild AND agree with an
# independent double-precision naive evaluation to 1e-6 relative — an exit
# code 1 is a correctness bug.
if ! build-ci/bench/bench_x1_freq_optimizer "$ARTIFACT_DIR/BENCH_planner.json"; then
  echo "ci: delta evaluator diverged from the full/naive oracle" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - "$ARTIFACT_DIR/BENCH_planner.json" <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
assert bench["gates_ok"], "planner score-identity gate failed"
print(f"ci: planner sweep ({bench['mc_trials']} trials)")
print(f"  {'N':>4} {'steps':>7} {'memcmp':>7} {'naive rel err':>14}")
for r in bench["rows"]:
    assert r["memcmp_identical"], f"delta != full rebuild at N={r['n']}"
    assert r["naive_rel_err"] <= 1e-6, f"naive disagreement at N={r['n']}"
    print(f"  {r['n']:>4} {r['steps']:>7} {str(r['memcmp_identical']):>7} "
          f"{r['naive_rel_err']:>14.1e}")
PY
fi

echo "=== ci: plan store re-plan determinism ==="
# Plan, then re-plan the identical scenario in a FRESH process sharing the
# journal: run two must be a cache hit (zero objective evaluations — no
# planner.evals counter at all) and its --out plan JSON must be
# byte-identical to run one's.
PLAN_DIR="$ARTIFACT_DIR/plans"
mkdir -p "$PLAN_DIR"
rm -f "$PLAN_DIR/plans.jsonl"
build-ci/tools/ivnet plan --antennas 24 --trials 8 --moves 60 --restarts 2 \
    --journal "$PLAN_DIR/plans.jsonl" --out "$PLAN_DIR/plan_first.json" \
    --metrics-out "$PLAN_DIR/plan_first_metrics.json"
build-ci/tools/ivnet plan --antennas 24 --trials 8 --moves 60 --restarts 2 \
    --journal "$PLAN_DIR/plans.jsonl" --out "$PLAN_DIR/plan_second.json" \
    --metrics-out "$PLAN_DIR/plan_second_metrics.json"
cmp "$PLAN_DIR/plan_first.json" "$PLAN_DIR/plan_second.json" || {
  echo "ci: re-planned JSON differs from the first plan" >&2
  exit 1
}
grep -q 'planner.cache.misses' "$PLAN_DIR/plan_first_metrics.json" || {
  echo "ci: first plan did not record a cache miss" >&2
  exit 1
}
grep -q 'planner.evals' "$PLAN_DIR/plan_first_metrics.json" || {
  echo "ci: first plan recorded no objective evaluations" >&2
  exit 1
}
grep -q 'planner.cache.hits' "$PLAN_DIR/plan_second_metrics.json" || {
  echo "ci: re-plan was not served from the plan store" >&2
  exit 1
}
if grep -q 'planner.evals' "$PLAN_DIR/plan_second_metrics.json"; then
  echo "ci: re-plan spent objective evaluations despite the store hit" >&2
  exit 1
fi
echo "ci: re-plan served from the journal, 0 evaluations, byte-identical plan"
# The N=128 search (the pool's trial spread and the delta evaluator's build
# and move kernels at a size determinism_test does not reach) must plan the
# same bytes on one thread and on every CPU.
IVNET_THREADS=1 build-ci/tools/ivnet plan --antennas 128 \
    --out "$PLAN_DIR/plan128_t1.json"
IVNET_THREADS="$(nproc)" build-ci/tools/ivnet plan --antennas 128 \
    --out "$PLAN_DIR/plan128_tn.json"
cmp "$PLAN_DIR/plan128_t1.json" "$PLAN_DIR/plan128_tn.json" || {
  echo "ci: N=128 plan differs between 1 and $(nproc) threads" >&2
  exit 1
}
echo "ci: N=128 plan byte-identical at IVNET_THREADS 1 and $(nproc)"

echo "=== ci: artifact write errors fail the command ==="
# /dev/full accepts the open and fails the flush: an artifact lost to a
# full disk must be a non-zero exit, not a silent success.
if build-ci/tools/ivnet plan --antennas 4 --trials 2 --moves 4 --restarts 1 \
    --out /dev/full; then
  echo "ci: ivnet plan --out /dev/full exited 0 with the artifact lost" >&2
  exit 1
fi
echo "ci: write failure on /dev/full reported with a non-zero exit"

echo "=== ci: CLI numeric flags parse whole and exactly ==="
# Seeds 2^53+1 and 2^53 are distinct plans (a double round-trip merged
# them), a malformed count is exit 2 rather than a silent default,
# `--snr -5` is a -5 dB load, a bare --closed-loop is 4 x workers, and a
# window the queue cannot hold or a bad --time-scale exits 2.
plan_hash() {
  build-ci/tools/ivnet plan --antennas 4 --trials 2 --moves 4 --restarts 1 \
      --seed "$1" --json | sed -n 's/.*"scenario_hash":"\([0-9a-f]*\)".*/\1/p'
}
hash_odd=$(plan_hash 9007199254740993)
hash_even=$(plan_hash 9007199254740992)
if [[ -z "$hash_odd" || "$hash_odd" == "$hash_even" ]]; then
  echo "ci: seeds 2^53+1 and 2^53 planned the same scenario ($hash_odd)" >&2
  exit 1
fi
rc=0
build-ci/tools/ivnet plan --antennas abc --trials 2 --moves 4 --restarts 1 \
    > /dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 2 ]]; then
  echo "ci: ivnet plan --antennas abc exited $rc, expected 2" >&2
  exit 1
fi
serve_digest() {
  build-ci/tools/ivnet serve --workers 2 --requests 400 --closed-loop \
      --snr "$1" --json | sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p'
}
digest_neg=$(serve_digest -5)
digest_one=$(serve_digest 1)
if [[ -z "$digest_neg" || "$digest_neg" == "$digest_one" ]]; then
  echo "ci: --snr -5 and --snr 1 served the same responses ($digest_one)" >&2
  exit 1
fi
window=$(build-ci/tools/ivnet serve --workers 4 --requests 400 --closed-loop \
    --json | sed -n 's/.*"window":\([0-9]*\).*/\1/p')
if [[ "$window" != 16 ]]; then
  echo "ci: bare --closed-loop at 4 workers ran window '$window', expected 16" >&2
  exit 1
fi
rc=0
build-ci/tools/ivnet serve --workers 1 --queue-depth 2 --requests 200 \
    --closed-loop 64 > /dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 2 ]]; then
  echo "ci: --closed-loop 64 over a 2-slot queue exited $rc, expected 2" >&2
  exit 1
fi
rc=0
build-ci/tools/ivnet serve --requests 10 --time-scale abc --telemetry-clock wall \
    --telemetry-out "$ARTIFACT_DIR/bad_scale.jsonl" > /dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 2 ]]; then
  echo "ci: --time-scale abc beside a wall sampler exited $rc, expected 2" >&2
  exit 1
fi
# A zero-trial campaign would write null rates and zero percentiles for
# every cell; each trial-count flag must refuse 0 by name.
for zero in "x13 --trials 0" "fig9 --trials 0" "fig13 --range-trials 0"; do
  rc=0
  # shellcheck disable=SC2086  # $zero is a bench name plus one flag
  build-ci/tools/ivnet campaign run --bench $zero --fresh \
      --journal "$ARTIFACT_DIR/zero_trials.jsonl" \
      --out "$ARTIFACT_DIR/zero_trials.json" > /dev/null 2>&1 || rc=$?
  if [[ "$rc" -ne 2 ]]; then
    echo "ci: ivnet campaign run --bench $zero exited $rc, expected 2" >&2
    exit 1
  fi
done
# A plan count the search cannot honour (no trials, no moves, no restarts,
# fewer than two antennas) is refused by name rather than clamped.
for bad in "--trials 0" "--moves 0" "--restarts 0" "--antennas 0" \
    "--antennas 1"; do
  rc=0
  # shellcheck disable=SC2086  # $bad is one flag and its value
  build-ci/tools/ivnet plan $bad > /dev/null \
      2> "$ARTIFACT_DIR/plan_bad_count.txt" || rc=$?
  if [[ "$rc" -ne 2 ]] || ! grep -q -- "${bad% *}" \
      "$ARTIFACT_DIR/plan_bad_count.txt"; then
    echo "ci: ivnet plan $bad exited $rc, expected 2 naming ${bad% *}" >&2
    exit 1
  fi
done
# An exemplar field its request slot cannot hold (a negative kind, trials
# past 32 bits, antennas past 16 bits, a kind past kPlan) exits 2 instead
# of replaying a wrapped or truncated request, even beside a good line; so
# does a missing or malformed SNR or medium loss, which would otherwise
# replay a different request and report a hash mismatch.
first_exemplar=$(head -n 1 "$ARTIFACT_DIR/SOAK_exemplars.jsonl")
for edit in 's/"kind":[0-9]*/"kind":-1/' 's/"kind":[0-9]*/"kind":3/' \
    's/"trials":[0-9]*/"trials":4294967297/' \
    's/"antennas":[0-9]*/"antennas":65538/' \
    's/"snr_db":[^,]*,//' 's/"snr_db":\([^,]*\),/"snr_db":\1x,/' \
    's/"medium_loss_db":[^,]*,//'; do
  { echo "$first_exemplar"; sed "$edit" <<< "$first_exemplar"; } \
      > "$ARTIFACT_DIR/bad_exemplar.jsonl"
  rc=0
  build-ci/tools/ivnet replay-exemplar --in "$ARTIFACT_DIR/bad_exemplar.jsonl" \
      > /dev/null 2>&1 || rc=$?
  if [[ "$rc" -ne 2 ]]; then
    echo "ci: replay-exemplar with $edit exited $rc, expected 2" >&2
    exit 1
  fi
done
echo "ci: seeds $hash_odd != $hash_even, --antennas abc exits 2, --snr -5 digest $digest_neg != $digest_one, bare --closed-loop window $window, oversize window exits 2, zero-trial campaigns exit 2, plan counts below their minimum exit 2, out-of-range or malformed exemplars exit 2"

echo "=== ci: exemplar deterministic replay ==="
# Responses are pure functions of (request, seed): every tail-latency
# exemplar the soak captured must re-execute to its recorded response hash
# (replay-exemplar exits non-zero on any mismatch).
test -s "$ARTIFACT_DIR/SOAK_exemplars.jsonl" || {
  echo "ci: soak captured no exemplars" >&2
  exit 1
}
build-ci/tools/ivnet replay-exemplar --in "$ARTIFACT_DIR/SOAK_exemplars.jsonl"

echo "=== ci: AddressSanitizer + UndefinedBehaviorSanitizer ==="
# IVNET_SANITIZE=address also builds with -fsanitize=undefined
# -fno-sanitize-recover=undefined, so any undefined behaviour fails the test.
build_and_test build-asan -DIVNET_SANITIZE=address

echo "=== ci: ThreadSanitizer ==="
build_and_test build-tsan -DIVNET_SANITIZE=thread

echo "=== ci: Debug spot-check (input validation with asserts enabled) ==="
# The default/ASan/TSan legs build RelWithDebInfo (NDEBUG), where an
# assert-only input check would vanish. Pin that the throwing contracts
# (fir design, RadioArray::tune's offset count and transmit_through's gain
# count), the fused radio kernel's byte-identity, the session's sample
# rates and pinned digests, the record kernels' samples-per-level asserts
# and the link session's pinned digests hold in an assert-enabled Debug
# build too.
cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug
cmake --build build-debug -j "$JOBS" --target signal_test dsp_test dsp_fastpath_test sdr_test waveform_session_test gen2_test gen2_golden_test impair_test impair_matrix_test determinism_test campaign_test campaign_shard_test cib_test svc_test loadgen_test obs_test telemetry_test freq_planner_test
ctest --test-dir build-debug --output-on-failure -R 'signal_test|dsp_test|dsp_fastpath_test|sdr_test|waveform_session_test|gen2_test|gen2_golden_test|impair_test|impair_matrix_test|determinism_test|campaign_test|campaign_shard_test|cib_test|svc_test|loadgen_test|obs_test|telemetry_test|freq_planner_test'

echo "=== ci: traced vitals artifacts (ivnet vitals --rounds 4) ==="
mkdir -p "$ARTIFACT_DIR"
build-ci/tools/ivnet vitals --rounds 4 \
    --metrics-out "$ARTIFACT_DIR/metrics.json" \
    --trace-out "$ARTIFACT_DIR/trace.json" --trace-clock sim \
    > "$ARTIFACT_DIR/vitals.txt"
for artifact in metrics.json trace.json; do
  test -s "$ARTIFACT_DIR/$artifact" || {
    echo "ci: missing artifact $ARTIFACT_DIR/$artifact" >&2
    exit 1
  }
done
if command -v python3 >/dev/null 2>&1; then
  python3 - "$ARTIFACT_DIR/metrics.json" "$ARTIFACT_DIR/trace.json" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))
trace = json.load(open(sys.argv[2]))
assert set(metrics) >= {"counters", "gauges", "histograms"}, metrics.keys()
assert trace["traceEvents"], "trace has no events"
print(f"ci: metrics has {len(metrics['counters'])} counters, "
      f"trace has {len(trace['traceEvents'])} events")
PY
else
  echo "ci: python3 not installed, artifacts archived but not parse-checked"
fi

echo "=== ci: campaign kill-and-resume determinism ==="
# A campaign SIGKILL'd mid-run must resume from its journal and produce
# byte-identical final JSON to an uninterrupted run — across different
# IVNET_THREADS on every leg (1 for the reference, 2 for the killed run,
# 8 for the resume). Wherever the kill lands (before, between, or after
# cell journal appends), the resumed bytes must match.
CAMPAIGN_DIR="$ARTIFACT_DIR/campaign"
mkdir -p "$CAMPAIGN_DIR"
CAMPAIGN_TRIALS="${CAMPAIGN_TRIALS:-12000}"
IVNET_THREADS=1 build-ci/tools/ivnet campaign run --bench fig9 \
    --trials "$CAMPAIGN_TRIALS" --fresh \
    --journal "$CAMPAIGN_DIR/ref.jsonl" --out "$CAMPAIGN_DIR/ref.json"
IVNET_THREADS=2 build-ci/tools/ivnet campaign run --bench fig9 \
    --trials "$CAMPAIGN_TRIALS" --fresh \
    --journal "$CAMPAIGN_DIR/killed.jsonl" \
    --out "$CAMPAIGN_DIR/killed.json" &
victim=$!
sleep 0.4
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
build-ci/tools/ivnet campaign status --bench fig9 \
    --trials "$CAMPAIGN_TRIALS" --journal "$CAMPAIGN_DIR/killed.jsonl"
IVNET_THREADS=8 build-ci/tools/ivnet campaign resume --bench fig9 \
    --trials "$CAMPAIGN_TRIALS" \
    --journal "$CAMPAIGN_DIR/killed.jsonl" \
    --out "$CAMPAIGN_DIR/resumed.json" \
    --metrics-out "$CAMPAIGN_DIR/resume_metrics.json"
cmp "$CAMPAIGN_DIR/ref.json" "$CAMPAIGN_DIR/resumed.json" || {
  echo "ci: resumed campaign JSON differs from uninterrupted run" >&2
  exit 1
}
grep -q 'campaign.cells.resumed' "$CAMPAIGN_DIR/resume_metrics.json" || {
  echo "ci: resume metrics snapshot missing campaign counters" >&2
  exit 1
}
echo "ci: kill-and-resume output byte-identical across 1/2/8 threads"

echo "=== ci: distributed campaign shard fleet ==="
# Three cooperating worker processes split one x13 campaign through
# per-shard journals and the fcntl-locked claims file. One worker is
# SIGKILL'd mid-run; the survivors steal what they can, the coordinator
# resume fills the durable gap, and the merged JSON must stay
# byte-identical to the single-process reference at every thread count.
SHARD_DIR="$ARTIFACT_DIR/campaign-shards"
mkdir -p "$SHARD_DIR"
SHARD_TRIALS="${SHARD_TRIALS:-24}"
IVNET_THREADS=1 build-ci/tools/ivnet campaign run --bench x13 \
    --trials "$SHARD_TRIALS" --fresh \
    --journal "$SHARD_DIR/ref.jsonl" --out "$SHARD_DIR/ref.json"
rm -f "$SHARD_DIR"/fleet.jsonl.shard*.jsonl "$SHARD_DIR/fleet.jsonl.claims"
for k in 0 1 2; do
  IVNET_THREADS=2 build-ci/tools/ivnet campaign worker --bench x13 \
      --trials "$SHARD_TRIALS" --journal "$SHARD_DIR/fleet.jsonl" \
      --shards 3 --shard "$k" &
  eval "worker$k=\$!"
done
sleep 0.15
kill -9 "$worker1" 2>/dev/null || true
wait "$worker0" 2>/dev/null || true
wait "$worker1" 2>/dev/null || true
wait "$worker2" 2>/dev/null || true
build-ci/tools/ivnet campaign status --bench x13 --trials "$SHARD_TRIALS" \
    --journal "$SHARD_DIR/fleet.jsonl" --shards 3
for threads in 1 2 8; do
  IVNET_THREADS=$threads build-ci/tools/ivnet campaign resume --bench x13 \
      --trials "$SHARD_TRIALS" --journal "$SHARD_DIR/fleet.jsonl" \
      --shards 3 --out "$SHARD_DIR/merged_$threads.json"
  cmp "$SHARD_DIR/ref.json" "$SHARD_DIR/merged_$threads.json" || {
    echo "ci: sharded campaign diverged at IVNET_THREADS=$threads" >&2
    exit 1
  }
done
build-ci/tools/ivnet campaign merge --bench x13 --trials "$SHARD_TRIALS" \
    --journal "$SHARD_DIR/fleet.jsonl" --shards 3 \
    --out "$SHARD_DIR/merged_only.json"
cmp "$SHARD_DIR/ref.json" "$SHARD_DIR/merged_only.json" || {
  echo "ci: campaign merge output differs from the single-process run" >&2
  exit 1
}
echo "ci: 3-shard fleet byte-identical across 1/2/8 threads after worker SIGKILL"

echo "=== ci: x13 campaign artifacts across thread counts ==="
# Same-seed sweep cells run as trial-major families over a per-thread noise
# tape; which thread runs which (family, trial) unit must not show in any
# artifact. Results and sim traces cmp equal at 1, 2 and nproc threads; the
# metrics snapshots match except for campaign.cell.seconds, the only
# wall-clock series.
X13_DIR="$ARTIFACT_DIR/campaign-x13"
mkdir -p "$X13_DIR"
for threads in 1 2 "$(nproc)"; do
  IVNET_THREADS=$threads build-ci/tools/ivnet campaign run --bench x13 \
      --trials 24 --fresh --journal "$X13_DIR/x13_$threads.jsonl" \
      --out "$X13_DIR/x13_$threads.json" \
      --metrics-out "$X13_DIR/metrics_$threads.json" \
      --trace-out "$X13_DIR/trace_$threads.json" --trace-clock sim \
      > /dev/null
done
for threads in 2 "$(nproc)"; do
  for artifact in x13 trace; do
    cmp "$X13_DIR/${artifact}_1.json" "$X13_DIR/${artifact}_$threads.json" || {
      echo "ci: x13 $artifact differs between 1 and $threads threads" >&2
      exit 1
    }
  done
done
if command -v python3 >/dev/null 2>&1; then
  python3 - "$X13_DIR"/metrics_1.json "$X13_DIR/metrics_2.json" \
      "$X13_DIR/metrics_$(nproc).json" <<'PY'
import json, sys
def stable(path):
    snapshot = json.load(open(path))
    snapshot["histograms"].pop("campaign.cell.seconds", None)
    return snapshot
reference = stable(sys.argv[1])
assert reference["counters"].get("campaign.cells.computed"), reference
for path in sys.argv[2:]:
    assert stable(path) == reference, f"{path} differs from {sys.argv[1]}"
print(f"ci: x13 metrics equal across thread counts "
      f"({len(reference['counters'])} counters)")
PY
else
  echo "ci: python3 not installed, x13 metrics snapshots not compared"
fi
echo "ci: x13 results and sim trace byte-identical at 1/2/$(nproc) threads"

# Coverage gates only where the tool exists — the growth container has no
# gcovr — unless the caller asked for coverage explicitly, in which case a
# missing gcovr is a loud failure rather than a silent skip.
if command -v gcovr >/dev/null 2>&1; then
  echo "=== ci: coverage (line floor ${COVERAGE_LINE_FLOOR}%) ==="
  build_and_test build-cov -DIVNET_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug
  gcovr --root . \
        --filter 'src/ivnet/gen2/' \
        --filter 'src/ivnet/impair/' \
        --filter 'src/ivnet/obs/' \
        --object-directory build-cov \
        --fail-under-line "${COVERAGE_LINE_FLOOR}" \
        --print-summary
elif [[ "${IVNET_COVERAGE:-}" == "ON" ]]; then
  echo "ci: IVNET_COVERAGE=ON but gcovr is not installed" >&2
  exit 1
else
  echo "=== ci: gcovr not installed, skipping coverage gate ==="
fi

echo "=== ci: all stages passed ==="
