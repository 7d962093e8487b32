"""Benchmark of the persymjac pipeline: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each run is a closed loop: one caller in one process with no
extra threads performs whole rounds of the workload's operations, one
after the other, until ``--seconds`` of wall time have passed and at
least ``MIN_OPS`` operations are done.  Only the program calls are
timed; every output is checked between operations, with the clock
stopped.

Operation times are rescaled to a fixed machine speed.  The shared
machine this was written on runs the same code up to twice as slowly
for seconds at a time, and the medians of 30-second windows of a fixed
kernel spread by 24%.  So a fixed reference kernel (``Speed``) runs
between operations, and each operation's wall time is multiplied by
``REF_MS`` over the mean time of the kernel runs on either side of it.
The reported operation times are therefore milliseconds at the speed
at which the kernel takes ``REF_MS``; the traced run also reports the
raw wall time and the kernel's own median.  ``setup_s`` is rescaled
the same way, its import by the kernel run in the fresh interpreter
that timed the import.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half
the time untraced and half traced, writes the spans to
``perfbench/out/`` and prints the per-layer metrics.  The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups (and fresh-interpreter imports) per run; ``setup_s`` reports medians.
SETUP_REPEATS = 3
#: Operations run inside each set-up before timing starts.
WARMUP_OPS = 2
#: Fewest operations in an untraced run, so that p90 has ten samples above it.
MIN_OPS = 100
#: Median time of one ``Speed.probe`` kernel, in ms, on the machine of
#: the reference figures in README.md; all times are rescaled to it.
REF_MS = 1.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("inverse", "reconstruct", "verify", "deform"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import ``persymjac`` from this checkout's ``src/``, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import persymjac
    except ImportError as exc:
        sys.exit(f"cannot import persymjac from {SRC}: {exc}")
    if not os.path.abspath(persymjac.__file__).startswith(SRC + os.sep):
        sys.exit(f"persymjac was imported from {persymjac.__file__}, not from {SRC}")


#: Run as ``python -c IMPORT_TIMER SRC HERE``: times ``import persymjac``,
#: then runs the reference kernel in the same fresh interpreter and prints
#: the import time rescaled by the kernel's median.
IMPORT_TIMER = (
    "import statistics, sys, time; sys.path[:0] = sys.argv[1:3]; "
    "t = time.perf_counter(); import persymjac; t = time.perf_counter() - t; "
    "import run; speed = run.Speed(); "
    "print(t * run.REF_MS / statistics.median(speed.probe() for _ in range(3)))")


def import_seconds() -> float:
    """Median over ``SETUP_REPEATS`` fresh interpreters of the time to
    import ``persymjac``, rescaled; each interpreter has ended on return."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, SRC, HERE],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


class Speed:
    """A fixed kernel of the kinds of work the program spends its time on:
    a recurrence over a 129-point array, as in a Sturm sweep, and
    interpreted Python, as in argument parsing and JSON."""

    def __init__(self):
        self.x = np.linspace(-1.0, 1.0, 129)
        self.times: list[float] = []
        self.probe()  # the first run is slower: warm up

    def probe(self) -> float:
        """Run the kernel once; returns (and keeps) its wall time in ms."""
        start = time.perf_counter()
        d = self.x - 2.0
        for _ in range(160):
            d = (self.x - 0.5) - 0.25 / d
        json.loads(json.dumps([float(v) for v in d]))
        total = 0
        for i in range(3000):
            total += i
        ms = 1e3 * (time.perf_counter() - start)
        self.times.append(ms)
        return ms


class Tally:
    """Operations attempted, their times and the outcome of their checks."""

    def __init__(self, tol: float):
        self.tol = tol
        self.wall: list[float] = []      # seconds, as measured
        self.scaled: list[float] = []    # seconds, at the reference speed (``rescale``)
        self.failed = 0
        self.wrong = 0
        self.worst_error = 0.0

    def record(self, wl, item, run_time: float, result, exc) -> None:
        self.wall.append(run_time)
        if exc is not None:
            self.failed += 1
            if self.failed == 1:
                print(f"{wl.name}: operation failed: {exc!r}", file=sys.stderr)
            return
        try:
            err = wl.check(item, result)
        except (KeyError, TypeError, ValueError):  # malformed output
            err = None
        if err is None or not err <= self.tol:
            self.failed += 1
            self.wrong += 1
            print(f"{wl.name}: wrong output (error {err})", file=sys.stderr)
        else:
            self.worst_error = max(self.worst_error, err)

    def rescale(self, probes: list[float]) -> None:
        """Rescale each operation's time by the mean of the probes on either
        side of it: ``probes[i]`` ran just before operation ``i`` and
        ``probes[i + 1]`` just after it."""
        self.scaled = [wall * 2.0 * REF_MS / (probes[i] + probes[i + 1])
                       for i, wall in enumerate(self.wall)]

    def ops_per_s(self) -> float:
        return (len(self.scaled) - self.failed) / sum(self.scaled)


def measure(wl, speed: Speed, seconds: float, min_ops: int, tally: Tally,
            tracer=None) -> None:
    """Whole rounds until ``seconds`` of wall time and ``min_ops`` operations."""
    start = time.perf_counter()
    probes = [speed.probe()]
    while True:
        for item in wl.round:
            if tracer is not None:
                tracer.op = len(tally.wall)
            result, exc = None, None
            t = time.perf_counter()
            try:
                result = wl.run(item)
            except Exception as exc_:  # a failing operation is a data point, not an abort
                exc = exc_
            run_time = time.perf_counter() - t
            probes.append(speed.probe())
            tally.record(wl, item, run_time, result, exc)
        if len(tally.wall) >= min_ops and time.perf_counter() - start >= seconds:
            tally.rescale(probes)
            return


def set_up(workload_cls, seed: int, workdir: str, speed: Speed, warmup: Tally):
    """Draw the inputs, write the input files and warm up, ``SETUP_REPEATS``
    times; returns the workload and the median set-up time, rescaled."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        start = time.perf_counter()
        wl = workload_cls(seed, workdir)
        wl.prepare()
        runs = []
        for item in wl.round[:WARMUP_OPS]:
            t = time.perf_counter()
            try:
                runs.append((item, wl.run(item), None, time.perf_counter() - t))
            except Exception as exc:  # checked below like any operation
                runs.append((item, None, exc, time.perf_counter() - t))
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2.0 * REF_MS / (before + speed.probe()))
        for item, result, exc, run_time in runs:
            warmup.record(wl, item, run_time, result, exc)
    return wl, statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    # both import persymjac, so they can only be loaded after it
    import spans
    import workloads

    speed = Speed()
    import_s = import_seconds()
    os.makedirs(OUT, exist_ok=True)
    warmup = Tally(workloads.TOL)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl, setup_s = set_up(workloads.WORKLOADS[args.workload], args.seed, workdir,
                             speed, warmup)
        tally = Tally(workloads.TOL)
        if args.trace:
            measure(wl, speed, args.seconds / 2, len(wl.round), tally)
            traced = Tally(workloads.TOL)
            tracer = spans.Tracer()
            with tracer.installed():
                measure(wl, speed, args.seconds / 2, len(wl.round), traced, tracer)
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
            scales = [s / w for s, w in zip(traced.scaled, traced.wall)]
            metrics = tracer.reduce(scales)
            metrics["trace.overhead"] = traced.ops_per_s() / tally.ops_per_s()
            metrics["wall.op_p50_ms"] = 1e3 * statistics.median(tally.wall)
            metrics["speed.probe_ms"] = statistics.median(speed.times)
            tallies = (warmup, tally, traced)
        else:
            measure(wl, speed, args.seconds, MIN_OPS, tally)
            lat_ms = [1e3 * t for t in tally.scaled]
            metrics = {
                "setup_s": import_s + setup_s,
                "ops_per_s": tally.ops_per_s(),
                "op_p50_ms": statistics.median(lat_ms),
                "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "accuracy_digits": workloads.digits(max(tally.worst_error, warmup.worst_error)),
            }
            tallies = (warmup, tally)

    units = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
             "accuracy_digits": "digits", "jacobi.eigenvalues.calls": "count",
             "jacobi.roundtrip_ratio": "ratio", "trace.overhead": "ratio"}
    for name in metrics:
        units.setdefault(name, "count" if name.endswith(".errors") else "ms")
    print(json.dumps({
        "correct": all(t.wrong == 0 for t in tallies),
        "attempted": sum(len(t.wall) for t in tallies if t is not warmup),
        "failed": sum(t.failed for t in tallies if t is not warmup),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
