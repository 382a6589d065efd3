#!/usr/bin/env python3
"""tcmpbench runner: build the benchmark, run it, check it, print metrics.

Run from the root of the source tree:

  python3 tcmpbench/run.py --workload mp3d-16 --seed 1 --seconds 30 --trace 0
  python3 tcmpbench/run.py --seed 1 --repeats 5 --out bench-results.json
  python3 tcmpbench/run.py --smoke

With --workload, one workload is measured: --trace 0 runs timed
repetitions (each in a fresh process) for --seconds seconds, or exactly
--repeats of them, and reports the end-to-end metrics of BENCHMARK.json;
--trace 1 runs the traced pass and reports its per-layer metrics. Without
--workload, all four workloads run one after another, each timed and traced.
--smoke shrinks every workload, runs one repetition plus the traced pass, and
fails unless every metric BENCHMARK.json names is emitted and every check
passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every check
passed; build failures exit without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "tcmpbench")
WORKLOADS = ["mp3d-16", "water-16-base", "radix-256-k4", "fig6-sweep"]
# Cold set-up samples per timed measurement (timed repetitions contribute
# theirs; set-up-only processes make up the rest).
SETUP_SAMPLES = 9
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 170
# Committed simulated outputs are exact for integers and compared to this
# relative tolerance for floating-point values.
FLOAT_RTOL = 1e-9


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the tcmpbench target; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tcmpbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def child(workload, seed, *flags):
    """Run one benchmark process; its parsed JSON line, or None on failure."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"tcmpbench: {' '.join(cmd)} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"tcmpbench: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
        return None
    return json.loads(lines[-1])


def iqr_share(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def committed_mismatches(workload, seed, smoke, outputs):
    """Differences from the committed seed-1 outputs (seed 1, full size only)."""
    if seed != 1 or smoke:
        return []
    with open(os.path.join(HERE, "expected_seed1.json")) as f:
        expected = json.load(f)[workload]
    bad = []
    for key, want in expected.items():
        got = outputs.get(key)
        same = got == want if isinstance(want, int) else (
            got is not None and abs(got - want) <= FLOAT_RTOL * abs(want))
        if not same:
            bad.append(f"{workload}: {key} = {got}, committed seed-1 value {want}")
    return bad


class Result:
    """Attempted/failed simulation runs, failed checks and metrics of one measurement."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.metrics = {}
        self.samples = {}

    def check(self, reasons, runs):
        """Record failed checks; together they count `runs` runs as failed."""
        if reasons:
            self.failed += runs
        for why in reasons:
            self.failures.append(why)
            log(f"tcmpbench: CHECK FAILED: {why}")


def measure_timed(workload, seed, seconds, repeats, smoke):
    res = Result()
    flags = ["--smoke"] if smoke else []
    reps = []
    deadline = time.monotonic() + seconds
    while True:
        t0 = time.monotonic()
        rep = child(workload, seed, *flags)
        if rep is None:
            res.attempted += 1
            res.check([f"{workload}: timed repetition {len(reps) + 1} crashed"], 1)
            break
        reps.append(rep)
        res.attempted += rep["runs"]
        reasons = []
        if rep["failed"]:
            reasons.append(f"{workload}: {rep['failed']} runs did not finish")
        if rep["outputs"] != reps[0]["outputs"]:
            reasons.append(f"{workload}: repetition {len(reps)} outputs differ from the "
                           f"first: {rep['outputs']} vs {reps[0]['outputs']}")
        elif len(reps) == 1:
            reasons += committed_mismatches(workload, seed, smoke, rep["outputs"])
        res.check(reasons, rep["runs"])
        elapsed = time.monotonic() - t0
        if repeats:
            if len(reps) >= repeats:
                break
        elif len(reps) >= MIN_REPEATS and time.monotonic() + elapsed > deadline:
            break
    if not reps:
        return res

    setup = [r["setup_s"] for r in reps]
    while len(setup) < SETUP_SAMPLES and not smoke:
        rep = child(workload, seed, "--setup-only", *flags)
        if rep is None:
            res.attempted += 1
            res.check([f"{workload}: set-up-only process crashed"], 1)
            break
        setup.append(rep["setup_s"])

    res.samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "sim_kcps": [r["sim_kcps"] for r in reps],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    res.metrics = {name: statistics.median(v) for name, v in res.samples.items()}
    res.metrics["sim_cycles"] = reps[0]["outputs"]["sim_cycles"]
    return res


def measure_traced(workload, seed, smoke, trace_out):
    res = Result()
    flags = ["--traced"] + (["--smoke"] if smoke else [])
    if trace_out:
        flags += ["--trace-out", trace_out]
    rep = child(workload, seed, *flags)
    if rep is None:
        res.attempted = 1
        res.check([f"{workload}: traced pass crashed"], 1)
        return res
    res.attempted = rep["runs"]
    res.check(rep["failures"], rep["failed"])
    res.check(committed_mismatches(workload, seed, smoke, rep["outputs"]), 1)
    res.metrics = rep["per_layer"]
    return res


def with_units(res, declared, prefix=""):
    """The declared metrics of `res`, each with its unit; a missing one fails."""
    out = {}
    for m in declared:
        if m["name"] not in res.metrics:
            res.check([f"metric {m['name']} was not emitted"], 0)
            continue
        out[prefix + m["name"]] = {"value": res.metrics[m["name"]], "unit": m["unit"]}
    return out


def print_metrics(title, metrics, samples=None):
    print(f"== {title}")
    for name, m in metrics.items():
        extra = ""
        base = name.split("/")[-1]
        if samples and base in samples:
            n = len(samples[base])
            extra = f"   (median of {n}, IQR {100 * iqr_share(samples[base]):.1f}% of median)"
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{extra}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--repeats", type=int, default=0,
                    help="exact number of timed repetitions (overrides --seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-out", help="Chrome trace JSON of the traced pass's spans")
    ap.add_argument("--out", help="write every sample and spread to this JSON file")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 1:
        ap.error("--seed must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if not build():
        log("tcmpbench: build failed")
        return 2

    smoke = args.smoke
    workloads = [args.workload] if args.workload else WORKLOADS
    repeats = 1 if smoke else args.repeats
    # One workload: the mode --trace picks. Otherwise (and in smoke mode):
    # every workload timed, then traced.
    modes = [args.trace] if args.workload and not smoke else [0, 1]
    prefixed = len(workloads) > 1 or len(modes) > 1

    attempted = failed = 0
    failures, metrics, report = [], {}, {}
    for w in workloads:
        for mode in modes:
            if mode == 0:
                res = measure_timed(w, args.seed, args.seconds, repeats, smoke)
                declared = bench["end_to_end"]
            else:
                trace_out = args.trace_out
                if trace_out and len(workloads) > 1:
                    stem, ext = os.path.splitext(trace_out)
                    trace_out = f"{stem}.{w}{ext}"
                res = measure_traced(w, args.seed, smoke, trace_out)
                declared = bench["per_layer"]
            emitted = with_units(res, declared, f"{w}/" if prefixed else "")
            print_metrics(f"{w} ({'traced' if mode else 'timed'}, seed {args.seed})",
                          emitted, res.samples)
            metrics.update(emitted)
            attempted += res.attempted
            failed += res.failed
            failures += res.failures
            report[f"{w}/{'traced' if mode else 'timed'}"] = {
                "metrics": emitted, "samples": res.samples,
                "iqr_share": {k: iqr_share(v) for k, v in res.samples.items()},
                "attempted": res.attempted, "failed": res.failed,
                "failures": res.failures}

    correct = not failures and attempted > 0
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "correct": correct, "runs": report}, f, indent=1)
    attempted = max(attempted, 1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": min(failed, attempted), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
