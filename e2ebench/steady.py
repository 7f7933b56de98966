#!/usr/bin/env python3
"""Steadiness check for the capture -> verdict benchmark.

Runs every workload in BENCHMARK.json once per seed (untraced, at its
run_seconds), then, for every end-to-end metric, prints the median over
the runs and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
A spread above the metric's bound fails the check; one above a third of
the bound is flagged.

    python3 e2ebench/steady.py [--runs 10] [--first-seed 1]

Run it from the repository root. Exits 1 if any run fails or any spread
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    subprocess.run(command + ["--help"], capture_output=True)  # builds

    ok = True
    for w in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = command + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            p = subprocess.run(argv, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.stderr.write(p.stderr[-2000:])
                print(f"{w} seed {seed}: exit {p.returncode}")
                ok = False
                continue
            res = json.loads(lines[-1])
            runs.append(res)
            print(
                f"{w} seed {seed}: "
                + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
                ),
                flush=True,
            )
        if len(runs) < 4:
            ok = False
            continue
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            held = spread <= m["bound"]
            flag = "ok" if spread <= m["bound"] / 3 else ("WIDE" if held else "FAIL")
            ok &= held
            print(
                f"  {w:13s} {m['name']:15s} median {med:12.4f} {m['unit']:4s} "
                f"spread {spread:6.3f} bound {m['bound']:.2f}  {flag}"
            )
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
