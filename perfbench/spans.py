"""Spans recorded around calls into the program's public names.

The tracer replaces, for the length of a traced phase, the module
attributes through which the program's callers look functions up
(``persymjac.cli.eigenvalues``, the entries of ``ALGORITHMS``, ...)
with wrappers that record one span per call: name, start, end, parent
span and operation id.  Nothing under ``src/`` changes.  Spans stay in
memory until the run ends; ``reduce`` turns them into the per-layer
metrics, and ``write`` saves them as JSON.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from persymjac import cli, reconstruction

#: Span name -> the (module, attribute) bindings it wraps.  Each name is
#: looked up at call time by its caller, so replacing the binding is
#: enough to see every call.
TRACED = {
    "cli": [(cli, "main")],
    "jacobi.eigenvalues": [(cli, "eigenvalues")],
    "jacobi.weights_persymmetric": [(reconstruction, "weights_persymmetric")],
    "jacobi.weights_general": [(cli, "weights_general")],
    "jacobi.mirror_residual": [(cli, "mirror_residual")],
    "reconstruction.hl": [(reconstruction, "reconstruct_half_lattice")],
    "reconstruction.sublattice_weights": [(reconstruction, "sublattice_weights"),
                                          (cli, "sublattice_weights")],
    "reconstruction.midpoint_data": [(reconstruction, "midpoint_data")],
    "reconstruction.moments": [(cli, "moments")],
    "polynomials.poly_from_roots": [(reconstruction, "poly_from_roots")],
    "polynomials.lagrange_interpolate": [(reconstruction, "lagrange_interpolate")],
    "deformation.deform_closed_form": [(cli, "deform_closed_form")],
    "deformation.deformed_weights": [(cli, "deformed_weights")],
}

LAYERS = ("cli", "jacobi", "reconstruction", "polynomials", "deformation")

#: Spans whose self time is reported next to their total time.
SELF_TIMED = ("cli", "reconstruction.hl", "reconstruction.gs", "reconstruction.le",
              "reconstruction.mf")

#: Spans whose total time per operation is reported.
TIMED = ("jacobi.eigenvalues", "jacobi.weights_persymmetric", "jacobi.weights_general",
         "jacobi.mirror_residual", "reconstruction.hl", "reconstruction.gs",
         "reconstruction.le", "reconstruction.mf", "reconstruction.sublattice_weights",
         "reconstruction.midpoint_data", "reconstruction.moments",
         "polynomials.poly_from_roots", "polynomials.lagrange_interpolate",
         "deformation.deform_closed_form", "deformation.deformed_weights")

# span record fields
NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        """``fn`` recording a span per call.  A span is marked as an error
        when the call raises or, for ``cli.main``, returns a nonzero code."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, False]
            self.spans.append(span)
            self._stack.append(idx)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter_ns()
                self._stack.pop()
            if name == "cli" and result != 0:
                span[ERROR] = True
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every traced binding for its wrapper; restore on exit."""
        saved = []
        try:
            for name, bindings in TRACED.items():
                wrapper = self.wrap(name, getattr(*bindings[0]))
                for module, attr in bindings:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
                if name == "reconstruction.hl":
                    saved.append((reconstruction.ALGORITHMS, "hl",
                                  reconstruction.ALGORITHMS["hl"]))
                    reconstruction.ALGORITHMS["hl"] = wrapper
            for alg in ("gs", "le", "mf"):
                saved.append((reconstruction.ALGORITHMS, alg, reconstruction.ALGORITHMS[alg]))
                reconstruction.ALGORITHMS[alg] = self.wrap(
                    f"reconstruction.{alg}", reconstruction.ALGORITHMS[alg])
            yield self
        finally:
            for target, key, original in reversed(saved):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    def write(self, path: str) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "op", "error")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)

    def reduce(self, scales: list[float]) -> dict[str, float]:
        """Per-layer metrics: milliseconds per operation in each span name
        (total and, for ``SELF_TIMED``, minus traced children), eigensolver
        calls per operation, the round-trip ratio and errors per layer.

        ``scales[i]`` rescales the spans of operation ``i`` to the
        reference speed, as the operation's own time was rescaled."""
        ops = len(scales)
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        errors = dict.fromkeys(LAYERS, 0)
        for name, start, end, parent, op, error in self.spans:
            duration = (end - start) * scales[op]
            total[name] += duration
            calls[name] += 1
            if parent >= 0:
                child[self.spans[parent][NAME]] += duration
            if error:
                errors[name.split(".")[0]] += 1
        per_op = 1e-6 / ops
        out = {}
        for name in SELF_TIMED:
            out[f"{name}.self_ms"] = (total[name] - child[name]) * per_op
        for name in TIMED:
            out[f"{name}.ms"] = total[name] * per_op
        out["jacobi.eigenvalues.calls"] = calls["jacobi.eigenvalues"] / ops
        hl_ms = out["reconstruction.hl.ms"]
        out["jacobi.roundtrip_ratio"] = out["jacobi.eigenvalues.ms"] / hl_ms if hl_ms else 0.0
        for layer, count in errors.items():
            out[f"{layer}.errors"] = float(count)
        return out
