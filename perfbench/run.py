#!/usr/bin/env python3
"""End-to-end benchmark of the simulated Open MPI / Elan4 stack.

    python3 perfbench/run.py --workload pingpong|ring_scale|mix_lossy \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the benchmark
binary (perfbench/CMakeLists.txt compiles ../src) into .bench_build/; later runs
only re-check the build. Every repetition is its own process, so
peak RSS, wall time and counter diffs belong to that repetition alone.

--trace 0 measures for --seconds: set-up-only repetitions for up to a
quarter of the time, full ones for the rest, and reports the end-to-end
metrics of BENCHMARK.json (wall: medians over repetitions; simulated: exact,
and required to repeat bit for bit across the repetitions of a seed).
--trace 1 is the separate attribution run: two untraced repetitions and one
traced one, reporting the per-layer metrics; spans go to .bench_build/spans/.

The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is nonzero when an output check failed or a metric is
missing. A repetition that crashes or is still running when the run's time
limit is reached is such a failure: it is killed, the run stops there and
still prints its result line, with "correct": false and the repetition's
ops counted as failed. Library warnings go to .bench_build/logs/, never to
the terminal.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
WORKLOADS = ("pingpong", "ring_scale", "mix_lossy")
# Everything on the simulated clock, plus the digest of every op's
# completion time: must be identical in every repetition of a seed.
SIM_KEYS = ("sim_ms", "op_p50_us", "op_p99_us", "goodput_mbps", "ops",
            "ops_failed", "events", "digest")
RUN_LIMIT_S = 170       # a run must end well inside the 180 s contract
MIN_SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 15
MIN_FULL_REPS = 3


class BenchError(Exception):
    pass


class RepetitionFailed(Exception):
    """The program under test crashed or did not finish a repetition."""


def build():
    """Configure and build the binary under a lock (no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "openqs.h")):
        raise BenchError("no simulator sources at %s/src; run from a source "
                         "checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", HERE, "-B", os.path.join(BUILD, "perfbench"),
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", os.path.join(BUILD, "perfbench"), "-j4"],
        ):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                raise BenchError("build failed: %s (see %s)"
                                 % (" ".join(cmd), log_path))


def spec():
    """BENCHMARK.json: (end-to-end, per-layer) lists of metric dicts."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return b["end_to_end"], b["per_layer"]


def repetition(workload, seed, change="none", setup_only=False, trace=False,
               timeout=RUN_LIMIT_S):
    """One process: one repetition. Returns its JSON."""
    tag = "%s-seed%d-%s-%d" % (workload, seed, change, os.getpid())
    for d in ("logs", "spans"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    log = os.path.join(BUILD, "logs", tag + ".stderr")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--change", change, "--stderr", log]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", "--spans",
                os.path.join(BUILD, "spans", tag + ".jsonl")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, check=False,
                           timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise RepetitionFailed(
            "%s seed %d: a repetition did not finish within the run's %d s "
            "limit and was killed" % (workload, seed, RUN_LIMIT_S))
    lines = p.stdout.decode().strip().splitlines()
    if p.returncode != 0 or not lines:
        raise RepetitionFailed("perfbench exited %d on %s seed %d (see %s)"
                               % (p.returncode, workload, seed, log))
    r = json.loads(lines[-1])
    if not r.get("errors"):
        os.remove(log)  # ring_scale teardown alone logs ~5 MB of warnings
    return r


def check_repeats(reps, errors):
    """Simulated numbers must repeat exactly across fresh processes."""
    for r in reps:
        errors.extend(e for e in r["errors"] if e not in errors)
        for k in SIM_KEYS:
            if r[k] != reps[0][k]:
                errors.append("simulated %s differs between repetitions "
                              "(%r vs %r)" % (k, r[k], reps[0][k]))


def summarise(reps, failure, errors):
    """The simulated values and run info of the completed repetitions.

    Every repetition of a seed runs the same ops, so when one fails
    (`failure`) the run counts that many ops attempted and all of them
    failed; if none completed, the failed repetition counts as one op.
    """
    check_repeats(reps, errors)
    if failure:
        errors.append(failure)
    first = reps[0] if reps else {}
    values = {k: first[k] for k in SIM_KEYS if k in first}
    values.setdefault("digest", "-")
    values.setdefault("ops", 1)
    if failure:
        values["ops_failed"] = values["ops"]
    info = dict(reps=len(reps), op_samples=first.get("op_samples", 0),
                beyond_p99=first.get("op_samples_beyond_p99", 0))
    return values, info


def measure(workload, seed, seconds, change="none"):
    """The end-to-end metrics of one run, plus counts and errors."""
    start = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - start)

    def elapsed():
        return time.monotonic() - start

    setup, reps, failure = [], [], None
    try:
        while len(setup) < MAX_SETUP_SAMPLES and (
                len(setup) < MIN_SETUP_SAMPLES or elapsed() < seconds / 4):
            setup.append(repetition(workload, seed, change, setup_only=True,
                                    timeout=left()))
        while len(reps) < MIN_FULL_REPS or elapsed() < seconds:
            reps.append(repetition(workload, seed, change, timeout=left()))
    except RepetitionFailed as e:
        failure = str(e)
    setup_s = [r["setup_s"] for r in setup + reps]

    errors = []
    values, info = summarise(reps, failure, errors)
    if setup_s:
        values["setup_s"] = statistics.median(setup_s)
    if reps:
        values["run_s"] = statistics.median(r["run_s"] for r in reps)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"]
                                                  for r in reps)
    info.update(seed_use=setup[0]["seed_use"] if setup else "-",
                setup_samples=len(setup_s))
    return values, info, errors


def attribute(workload, seed, change="none"):
    """The per-layer metrics of a traced repetition, checked against two
    untraced ones; tracing overhead is traced minus untraced run_s."""
    start = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - start)

    plain, traced, failure = [], None, None
    try:
        for _ in range(2):
            plain.append(repetition(workload, seed, change, timeout=left()))
        traced = repetition(workload, seed, change, trace=True,
                            timeout=left())
    except RepetitionFailed as e:
        failure = str(e)

    errors = []
    if traced is None:
        values, info = summarise(plain, failure, errors)
        info.update(seed_use=plain[0]["seed_use"] if plain else "-",
                    setup_samples=0)
        return values, info, errors
    values, info = summarise([traced] + plain, failure, errors)
    values.update(traced["layers"])
    values["bench.trace_overhead_s"] = (
        traced["run_s"] - statistics.mean(r["run_s"] for r in plain))
    info.update(seed_use=traced["seed_use"], setup_samples=0)
    return values, info, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        e2e, per_layer = spec()
        build()
        if args.trace:
            values, info, errors = attribute(args.workload, args.seed)
        else:
            values, info, errors = measure(args.workload, args.seed,
                                           args.seconds)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in (per_layer if args.trace else e2e)
               if m["name"] in values}
    missing = [m["name"] for m in (per_layer if args.trace else e2e)
               if m["name"] not in values]
    if missing:
        errors.append("%d metrics missing: %s" % (len(missing),
                                                  ", ".join(missing)))

    # The seed is printed with the numbers so a claim can be re-checked on a
    # seed that was not used while the change was written.
    print("# workload %s seed %d (%s): %d repetitions, %d set-up samples, "
          "digest %s" % (args.workload, args.seed, info["seed_use"],
                         info["reps"], info["setup_samples"], values["digest"]))
    print("# ops %d ops_failed %d; %d op samples, %d beyond p99"
          % (values["ops"], values["ops_failed"], info["op_samples"],
             info["beyond_p99"]))
    for name, m in metrics.items():
        print("%-34s %20.6f %s" % (name, m["value"], m["unit"]))
    for e in errors:
        print("# error: " + e)
    ok = not errors
    print(json.dumps({"correct": ok, "attempted": int(values["ops"]),
                      "failed": int(values["ops_failed"]),
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
