"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                [--baseline perfbench/out/steady-....json]

Runs ``perfbench/run.py`` once per seed (``first-seed`` onwards), one run
at a time, with ``run_seconds`` from ``BENCHMARK.json``.  For every
end-to-end metric it prints the median of the runs, the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as
a share of the median, and that spread against the metric's bound: a
spread above a third of the bound is flagged ``WIDE``, above the bound
``FAIL`` (``setup_s`` is reported but not judged).  The raw values are
saved to ``perfbench/out/``; given a ``--baseline`` file saved earlier,
it also prints how far each median moved against the baseline's, judged
against the bound in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_workload(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """Median and interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / abs(median)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--baseline", default=None,
                        help="a JSON file saved by an earlier steadiness check")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    baseline = {}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)

    saved = {}
    ok = True
    for workload in names:
        results = [run_workload(workload, args.first_seed + i, bench["run_seconds"])
                   for i in range(args.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, correct={all(r['correct'] for r in results)}, "
              f"failed shares {shares}, attempted {min(r['attempted'] for r in results)}"
              f"..{max(r['attempted'] for r in results)}")
        print(f"  {'metric':<16} {'median':>12} {'IQR/median':>11} {'bound':>6}  verdict"
              + ("   vs baseline" if baseline else ""))
        values = {m: [r["metrics"][m]["value"] for r in results] for m in metrics}
        saved[workload] = values
        for name, spec in metrics.items():
            median, share = spread(values[name])
            verdict = "-"
            if name != "setup_s":
                verdict = ("ok" if share <= spec["bound"] / 3
                           else "WIDE" if share <= spec["bound"] else "FAIL")
                ok = ok and verdict != "FAIL"
            line = (f"  {name:<16} {median:>12.6g} {share:>11.4f} {spec['bound']:>6}  "
                    f"{verdict:<7}")
            if workload in baseline:
                base = statistics.median(baseline[workload][name])
                worse = (median - base) / base if spec["better"] == "lower" else (base - median) / base
                line += f"  {100 * worse:+.2f}% worse {'FAIL' if worse > spec['bound'] else 'ok'}"
                ok = ok and worse <= spec["bound"]
            print(line)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{'-'.join(names)}-{args.first_seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(saved, fh, indent=1)
    print(f"\nraw values saved to {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
