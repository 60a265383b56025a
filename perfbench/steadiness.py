#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report, per
metric, the median, the quartiles and the interquartile spread as a share of
the median (the measure `BENCHMARK.json`'s bounds are judged by).

Run from the repository root after building the benchmark:

    cargo build --release --manifest-path perfbench/Cargo.toml
    python3 perfbench/steadiness.py --runs 10 --seconds 10 [--workload W ...]

`--bin` names the built binary (default: the release binary under
`$CARGO_TARGET_DIR`, else `perfbench/target`). `--trace 1` reports the
per-layer metrics instead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def default_bin():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(target, "release", "wsn-perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", default=default_bin())
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values, walls, notes = {}, [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            t = time.time()
            p = subprocess.run(
                [args.bin, "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            walls.append(time.time() - t)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if p.returncode != 0 or not result["correct"]:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stdout}{p.stderr}")
            notes.append(next((l for l in lines if l.startswith(w)), ""))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w}: {args.runs} runs, process wall "
              f"min/median/max {min(walls):.1f}/{statistics.median(walls):.1f}/{max(walls):.1f} s")
        for name, xs in values.items():
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            iqr = (q3 - q1) / abs(q2) if q2 else float("nan")
            bound = bounds.get(name)
            tag = "" if bound is None else f"  bound {bound}  iqr/bound {iqr / bound:.2f}"
            if bound is not None and name != "setup_s":
                worst = max(worst, iqr / bound)
            print(f"{name:32s} median {q2:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"iqr/median {iqr:.4f}{tag}")
        for n in notes:
            print("   ", n)
    if args.trace == 0:
        print(f"worst iqr/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
