#!/usr/bin/env python3
"""Known-change check: shows the benchmark sees a change where it should.

    python3 perfbench/check_known_change.py [--seed N] [--seconds S]

Each case applies one existing public option (perfbench --change)
and measures the parent configuration and the changed one with the same
code, seed and run length. Both changes are regressions, so a case passes
when every predicted metric gets worse by more than its BENCHMARK.json
bound on the predicted workload, and every guarded metric stays within its
bound where the change should not act. Exit code 0 when all cases pass.

  reliability (simulated clock): go-back-N + CRC on every frame. pingpong
      pays CRC on up to 1 MiB messages, so op_p99_us rises and goodput
      falls; mix_lossy already runs the reliable stream, so its simulated
      numbers must stay within bounds (they come out identical).
  fast_poll (wall clock): host_poll_ns 80 -> 20 ns, four times the poll
      iterations of every waiting rank. pingpong's run_s rises with the
      extra spin events; the poll interval barely shifts when a completion
      is seen, so its simulated numbers stay within bounds. No workload
      skips polling, so the guard is the other clock, not another workload.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SIM = ["sim_ms", "op_p50_us", "op_p99_us", "goodput_mbps"]
CASES = [
    {"change": "reliability", "clock": "sim",
     "moves": [("pingpong", "op_p99_us"), ("pingpong", "goodput_mbps")],
     "holds": [("mix_lossy", m) for m in SIM]},
    {"change": "fast_poll", "clock": "wall",
     "moves": [("pingpong", "run_s")],
     "holds": [("pingpong", m) for m in SIM]},
]


def worse_share(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    d = (new - base) / base
    return -d if metric["better"] == "higher" else d


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=8)
    args = ap.parse_args()

    e2e, _ = run.spec()
    metrics = {m["name"]: m for m in e2e}
    run.build()
    cache = {}

    def values(workload, change):
        if (workload, change) not in cache:
            v, _, errors = run.measure(workload, args.seed, args.seconds, change)
            if errors:
                raise run.BenchError("%s/%s: %s" % (workload, change, errors))
            cache[(workload, change)] = v
        return cache[(workload, change)]

    ok = True
    for case in CASES:
        print("== %s (%s clock)" % (case["change"], case["clock"]))
        for kind in ("moves", "holds"):
            for workload, name in case[kind]:
                m = metrics[name]
                base = values(workload, "none")[name]
                new = values(workload, case["change"])[name]
                share = worse_share(m, base, new)
                passed = share > m["bound"] if kind == "moves" \
                    else share <= m["bound"]
                ok &= passed
                print("%-4s %-6s %-10s %-13s %14.6g -> %-14.6g %+8.1f%% "
                      "(bound %.0f%%)" % ("ok" if passed else "FAIL", kind,
                                          workload, name, base, new,
                                          100 * share, 100 * m["bound"]))
    print(json.dumps({"known_change_check": "pass" if ok else "fail"}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
