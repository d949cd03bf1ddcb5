#!/usr/bin/env python3
"""The repo benchmark: builds the driver, runs one workload, checks its
outputs and prints its metrics.

    python3 perfbench/run.py --workload sweep|serve|vitals|plan|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. The driver is built with CMake under
$CARGO_TARGET_DIR (default .bench_build)/perfbench; scratch journals live
in a per-run directory there and are removed afterwards. A traced run
(--trace 1) also keeps its span log at traces/<workload>-seed<N>.spans.jsonl
in that directory.

Output: one line per metric (issue-level names, with units), then as the
last line one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones. Any failed output check makes the exit code non-zero.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

WORKLOADS = ("sweep", "serve", "vitals", "plan")

# End-to-end metrics: name -> unit. Every workload reports all of them; what
# each means per workload is in README.md.
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "quality": "ratio",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics: name -> (unit, better). Reported by every traced run.
PER_LAYER = {
    "signal.gauss.ns_per_sample": ("ns", "lower"),
    "signal.gauss.lanes_ns_per_sample": ("ns", "lower"),
    "signal.gauss.session_share": ("ratio", "lower"),
    "signal.noise.ns_per_sample": ("ns", "lower"),
    "signal.fir.ns_per_sample": ("ns", "lower"),
    "signal.fir.decimate_ns_per_sample": ("ns", "lower"),
    "signal.envelope.ns_per_sample": ("ns", "lower"),
    "signal.correlate.us_per_search": ("us", "lower"),
    "signal.waveform.accumulate_ms": ("ms", "lower"),
    "gen2.pie_encode.us": ("us", "lower"),
    "gen2.pie_decode.us": ("us", "lower"),
    "gen2.fm0_decode.us_rn16": ("us", "lower"),
    "gen2.fm0_decode.us_epc": ("us", "lower"),
    "gen2.tag_sm.ns_per_cmd": ("ns", "lower"),
    "impair.session.us_mid_snr": ("us", "lower"),
    "impair.session.us_burst": ("us", "lower"),
    "impair.session.attempts_per_session": ("count", "lower"),
    "impair.session.success_per_attempt": ("ratio", "higher"),
    "impair.ber_probe.us": ("us", "lower"),
    "impair.chain.ns_per_sample": ("ns", "lower"),
    "sim.batch.us_per_session_w32": ("us", "lower"),
    "sim.batch.lockstep_share": ("ratio", "higher"),
    "sim.batch.workspace_pooled_bytes": ("bytes", "lower"),
    "sim.campaign.cell_ms_p50": ("ms", "lower"),
    "sim.campaign.cell_ms_max": ("ms", "lower"),
    "sim.campaign.pool_idle_share": ("ratio", "lower"),
    "sim.campaign.journal_append_us": ("us", "lower"),
    "common.parallel.efficiency": ("ratio", "higher"),
    "sim.planner.hit_us": ("us", "lower"),
    "sim.planner.cache_hit_ratio": ("ratio", "higher"),
    "sim.planner.evals": ("count", "lower"),
    "sim.planner.accept_ratio": ("ratio", "higher"),
    "sim.waveform.commands_per_round": ("count", "lower"),
    "sim.waveform.retries_per_round": ("count", "lower"),
    "sim.waveform.transmit_share": ("ratio", "lower"),
    "sdr.pa.ns_per_call": ("ns", "lower"),
    "sdr.radio.transmit_ms": ("ms", "lower"),
    "tag.downlink_ms": ("ms", "lower"),
    "tag.backscatter_us": ("us", "lower"),
    "reader.oob.decode_ms": ("ms", "lower"),
    "cib.delta.build_ms": ("ms", "lower"),
    "cib.delta.score_move_us": ("us", "lower"),
    "cib.delta.state_mib": ("MiB", "lower"),
    "cib.anneal.s_n128": ("s", "lower"),
    "cib.hillclimb.s_n10": ("s", "lower"),
    "cib.two_stage.steady_s": ("s", "lower"),
    "svc.queue_wait_us_p50": ("us", "lower"),
    "svc.queue_wait_us_p99": ("us", "lower"),
    "svc.service_us_p50": ("us", "lower"),
    "svc.service_us_p99": ("us", "lower"),
    "svc.decode.service_us_p50": ("us", "lower"),
    "svc.inventory.service_us_p50": ("us", "lower"),
    "svc.plan.service_us_p50": ("us", "lower"),
    "svc.dispatch_overhead_us": ("us", "lower"),
    "svc.mpmc.roundtrip_ns": ("ns", "lower"),
    "svc.shed": ("count", "lower"),
    "svc.inflight_peak": ("count", "lower"),
    "loadgen.late_p99_ms": ("ms", "lower"),
    "obs.overhead_pct": ("%", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}

# Issue-level names of the generic end-to-end metrics, per workload.
NAMES = {
    "sweep": {"work_per_s": ("sessions_per_s", "1/s"),
              "p50_ms": ("campaign_p50_ms", "ms"),
              "tail_ms": ("campaign_tail_ms", "ms"),
              "quality": ("matrix_success", "ratio")},
    "serve": {"work_per_s": ("sat_rps", "req/s"),
              "p50_ms": ("req_p50_ms", "ms"),
              "tail_ms": ("req_p90_ms", "ms"),
              "quality": ("session_success", "ratio")},
    "vitals": {"work_per_s": ("rounds_per_s", "1/s"),
               "p50_ms": ("round_p50_ms", "ms"),
               "tail_ms": ("round_p90_ms", "ms"),
               "quality": ("read_ok_per_powered", "ratio")},
    "plan": {"work_per_s": ("plans_per_s", "1/s"),
             "p50_ms": ("plan_p50_ms", "ms"),
             "tail_ms": ("plan_tail_ms", "ms"),
             "quality": ("plan_quality", "ratio")},
}

DRIVER_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_driver(root):
    """Configure (once) and build the driver; returns its path."""
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the repository root", 2)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(os.cpu_count() or 1)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "perfbench_driver"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("driver build failed (log: " + log_path + ")", 3)
    return build_dir, os.path.join(build_dir, "perfbench_driver")


def source_fingerprint(root):
    """The commit when the checkout is a git repository, else a hash of the
    library sources (the benchmark runs from plain source trees too)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_driver(driver, build_dir, workload, seed, seconds, trace):
    """Runs the driver with the ambient IVNET_* knobs removed; returns its
    raw record and the span log path (traced runs)."""
    tmp = os.path.join(build_dir, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    spans = None
    if trace:
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        spans = os.path.join(build_dir, "traces",
                             f"{workload}-seed{seed}.spans.jsonl")
    out = os.path.join(tmp, "raw.json")
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp", tmp, "--out", out]
    if spans:
        cmd += ["--spans", spans]
    env = {k: v for k, v in os.environ.items() if not k.startswith("IVNET_")}
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail(f"driver exited with {proc.returncode} on {workload}", 4)
        with open(out) as f:
            raw = json.load(f)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out on {workload}", 4)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return raw, spans


def end_to_end(raw):
    """The end-to-end metrics of one untraced run, the tail's label, and
    unbounded extras (the open-loop p99)."""
    extras = {}
    if raw["due_s"]:
        groups = [[None if x is None else 1e3 * x
                   for x in benchlib.due_time_latencies(due, done)]
                  for due, done in zip(raw["due_s"], raw["done_s"])]
        _, p99, label99 = benchlib.latency_summary(groups, 0.99)
        extras["req_p99_ms"] = (p99, f"ms ({label99}; not bounded)")
    else:
        groups = raw["latency_ms"]
    p50, tail, label = benchlib.latency_summary(groups,
                                                raw["tail_percentile"])
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "work_per_s": statistics.median(raw["rate_per_s"]),
        "p50_ms": p50,
        "tail_ms": tail,
        "quality": raw["quality"],
        "peak_rss_mb": raw["peak_rss_mib"],
    }
    return metrics, label, extras


def per_layer(raw, spans_path):
    metrics = dict(raw["layer"])
    metrics["obs.overhead_pct"] = benchlib.overhead_pct(raw["untraced_cost"],
                                                        raw["traced_cost"])
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    metrics["trace.unattributed_share"] = benchlib.unattributed_share(spans)
    return metrics


def run_workload(driver, build_dir, workload, args, commit):
    raw, spans = run_driver(driver, build_dir, workload, args.seed,
                            args.seconds, args.trace)
    fp = raw["fingerprint"]
    knobs = " ".join(f"{k}={v}" for k, v in sorted(fp["knobs"].items()))
    print(f"# {workload} seed={args.seed} trace={args.trace} "
          f"nproc={fp['nproc']} gauss_simd={fp['gauss_simd_enabled']} "
          f"build={fp['build_type']} commit={commit} knobs: {knobs}")
    for failure in raw["failures"]:
        print(f"# FAILED CHECK: {failure}")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"{workload}.fail_frac {benchlib.fail_frac(attempted, failed):.6g} "
          f"ratio ({failed} of {attempted})")
    if args.trace:
        values = per_layer(raw, spans)
        units = {k: v[0] for k, v in PER_LAYER.items()}
        print(f"# spans: {spans}")
    else:
        values, tail_label, extras = end_to_end(raw)
        units = END_TO_END
        for key, value in values.items():
            name, unit = NAMES[workload].get(key, (key, END_TO_END[key]))
            note = f" ({tail_label})" if key == "tail_ms" else ""
            print(f"{workload}.{name} {value:.6g} {unit}{note}")
        for key, (value, unit) in extras.items():
            print(f"{workload}.{key} {value:.6g} {unit}")
        for key, value in sorted(raw["named"].items()):
            print(f"{workload}.{key} {value:.6g}")
    missing = sorted(set(units) - set(values))
    bad = sorted(k for k in units if k in values
                 and not math.isfinite(values[k]))
    correct = failed == 0 and not raw["failures"] and not missing and not bad
    if missing or bad:
        print(f"# missing or non-finite metrics: {missing + bad}")
    metrics = {k: {"value": values[k], "unit": units[k]}
               for k in units if k in values and k not in bad}
    return correct, attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    build_dir, driver = build_driver(root)
    commit = source_fingerprint(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        ok, att, bad, values = run_workload(driver, build_dir, workload, args,
                                            commit)
        correct, attempted, failed = correct and ok, attempted + att, \
            failed + bad
        if len(workloads) == 1:
            metrics = values
        else:
            metrics.update({f"{workload}.{k}": v for k, v in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
