"""The four benchmark workloads: seeded inputs, one operation, one check.

Every workload is a fixed *round* of inputs drawn from
``numpy.random.default_rng(seed)``; a run repeats whole rounds, so each
input is attempted equally often whatever the run length.  Inside a
workload every operation has the same size, so the per-operation
latency distribution has one mode.

Each check compares the program's output against something computed
apart from it -- ``scipy.linalg.eigh_tridiagonal``, the closed-form
matrix of an equally spaced spectrum, or a Lanczos run written here --
or against a property the method must have (exact palindromes,
positive couplings, unit mass).  Nothing is compared with a stored
output.

A check returns the operation's error relative to the spectral radius
(``None`` when the output is wrong in a way that has no size, such as a
broken palindrome).  An operation whose error exceeds ``TOL`` fails.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from scipy.linalg import eigh_tridiagonal

from persymjac import cli, reconstruction

#: Largest error, relative to the spectral radius, an operation may show.
TOL = 1e-8

#: ``accuracy_digits`` of an exact result; keeps the metric finite.
CAP_DIGITS = 16.0


def digits(err: float) -> float:
    """-log10 of an error, capped at ``CAP_DIGITS``."""
    return CAP_DIGITS if err <= 10.0 ** -CAP_DIGITS else min(CAP_DIGITS, -math.log10(err))


# ----------------------------------------------------------------------
# input generation (the package's own generators are not used)
# ----------------------------------------------------------------------


# Every spectrum here has half-width 1 about its centre.


def equally_spaced(npts: int, center: float) -> np.ndarray:
    return center + np.linspace(-1.0, 1.0, npts)


def random_gaps(rng, npts: int, center: float) -> np.ndarray:
    """Gaps drawn from U(0.5, 1.5), the whole mapped onto ``center +- 1``.

    The largest gap is at most three times the smallest, which keeps
    every route of ``verify`` well conditioned at 10-11 points.
    """
    x = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, npts - 1))))
    return center + (2.0 * x / x[-1] - 1.0)


def closed_form(npts: int, center: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and squared couplings of the persymmetric matrix whose
    spectrum is ``equally_spaced(npts, center)``:
    constant diagonal and ``u_n = h**2 n (N + 1 - n) / 4`` with step ``h``."""
    big_n = npts - 1
    h = 2.0 / big_n
    n = np.arange(1, npts)
    return np.full(npts, center), h * h * n * (big_n + 1 - n) / 4.0


def lanczos_persymmetric(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The persymmetric Jacobi matrix with spectrum ``x``, built here.

    Lanczos on ``diag(x)`` from the square roots of the persymmetric
    weights ``w_s ~ 1 / |prod_{t != s} (x_s - x_t)|``, with two passes of
    full reorthogonalisation; the result is averaged with its mirror
    image so that it is persymmetric to the last bit.
    """
    npts = x.size
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    logr = -np.sum(np.log(np.abs(diff)), axis=1)
    q = np.exp(0.5 * (logr - logr.max()))
    basis = np.zeros((npts, npts))
    basis[:, 0] = q / np.linalg.norm(q)
    b = np.empty(npts)
    a = np.empty(npts - 1)
    for k in range(npts):
        r = x * basis[:, k]
        b[k] = basis[:, k] @ r
        for _ in range(2):
            r -= basis[:, :k + 1] @ (basis[:, :k + 1].T @ r)
        if k < npts - 1:
            a[k] = np.linalg.norm(r)
            basis[:, k + 1] = r / a[k]
    return 0.5 * (b + b[::-1]), 0.5 * (a + a[::-1])


def _write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _take_json(path: str):
    """Read an output file and remove it, so no later check can see it."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(path)
    return doc


def _spectrum_inputs(rng, sizes: tuple[int, ...], repeats: int) -> list[dict]:
    """``repeats`` equally spaced and ``repeats`` random-gap spectra of each
    size, each about a centre drawn from U(-1, 1)."""
    items = []
    for _ in range(repeats):
        for npts in sizes:
            for kind in ("equal", "gaps"):
                center = float(rng.uniform(-1.0, 1.0))
                if kind == "equal":
                    x = equally_spaced(npts, center)
                else:
                    x = random_gaps(rng, npts, center)
                items.append({"kind": kind, "x": x, "center": center,
                              "shuffled": [float(v) for v in rng.permutation(x)]})
    return items


# ----------------------------------------------------------------------
# shared checks
# ----------------------------------------------------------------------


def _spectrum_error(b, a, x) -> float:
    ev = eigh_tridiagonal(np.asarray(b), np.asarray(a), eigvals_only=True)
    return float(np.max(np.abs(ev - x)))


def _check_persymmetric_output(item: dict, b: np.ndarray, a: np.ndarray) -> float | None:
    """Error of a reconstructed matrix ``(b, a)`` against its input spectrum.

    ``hl`` mirrors its lower half, so the output must be an exact
    palindrome with positive couplings.  Equally spaced spectra also
    compare every entry with the closed-form matrix.
    """
    x = item["x"]
    if b.size != x.size or a.size != x.size - 1:
        return None
    if not (np.array_equal(b, b[::-1]) and np.array_equal(a, a[::-1]) and np.all(a > 0)):
        return None
    radius = float(np.max(np.abs(x)))
    err = _spectrum_error(b, a, x) / radius
    if item["kind"] == "equal":
        b_ref, u_ref = closed_form(x.size, item["center"])
        err = max(err, float(np.max(np.abs(b - b_ref))) / radius,
                  float(np.max(np.abs(a - np.sqrt(u_ref)))) / radius)
    return err


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    """One round of inputs, the operation on an input, and its check.

    ``prepare`` draws the round from the seed and writes any input files
    into ``workdir``; ``run`` performs one operation (the only timed
    step) and returns the program's result, if it returns one rather
    than writing a file; ``check`` returns the operation's relative
    error, or ``None`` if the output is wrong outright.  ``run`` raises
    ``OperationFailed`` when the program exits nonzero.
    """

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.round: list[dict] = []

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, item: dict):
        raise NotImplementedError

    def check(self, item: dict, result) -> float | None:
        raise NotImplementedError


class OperationFailed(Exception):
    """The program reported a failure (a nonzero exit code)."""


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise OperationFailed(f"persymjac {argv[0]} exited {code}")


class Inverse(Workload):
    """``reconstruct_half_lattice`` as a library call, 512 and 513 points."""

    name = "inverse"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.round = _spectrum_inputs(rng, (512, 513), 2)

    def run(self, item: dict):
        return reconstruction.reconstruct_half_lattice(item["x"])

    def check(self, item: dict, result) -> float | None:
        if not np.all(result.u > 0):
            return None
        return _check_persymmetric_output(item, result.b, np.sqrt(result.u))


class Reconstruct(Workload):
    """``persymjac reconstruct --algorithm hl``, 128 and 129 points."""

    name = "reconstruct"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.round = _spectrum_inputs(rng, (128, 129), 1)
        for i, item in enumerate(self.round):
            item["path"] = _write_json(os.path.join(self.workdir, f"spec{i}.json"),
                                       item["shuffled"])
            item["out"] = os.path.join(self.workdir, f"rec{i}.json")

    def run(self, item: dict):
        _cli(["reconstruct", item["path"], "--algorithm", "hl", "--out", item["out"]])

    def check(self, item: dict, result) -> float | None:
        doc = _take_json(item["out"])
        residual = doc.get("residual")
        if doc.get("n") != item["x"].size - 1 or not (
                isinstance(residual, float) and 0.0 <= residual <= TOL):
            return None
        return _check_persymmetric_output(item, np.array(doc["b"]), np.array(doc["a"]))


class Verify(Workload):
    """``persymjac verify`` on 10- and 11-point spectra scaled to [-1, 1]."""

    name = "verify"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.round = []
        for i in range(14):
            npts = 10 + i % 2
            x = np.linspace(-1.0, 1.0, npts) if i < 2 else random_gaps(rng, npts, 0.0)
            path = _write_json(os.path.join(self.workdir, f"spec{i}.json"),
                               [float(v) for v in rng.permutation(x)])
            self.round.append({"x": x, "path": path,
                               "out": os.path.join(self.workdir, f"ver{i}.json")})

    def run(self, item: dict):
        _cli(["verify", item["path"], "--out", item["out"]])

    def check(self, item: dict, result) -> float | None:
        """Five checks, each passed, and the report's own verdict."""
        doc = _take_json(item["out"])
        checks = doc.get("checks", [])
        if (doc.get("passed") is not True or doc.get("n") != item["x"].size - 1
                or len(checks) != 5):
            return None
        residuals = [c["residual"] for c in checks]
        if any(c["status"] != "pass" for c in checks) or not all(
                isinstance(r, float) and 0.0 <= r <= TOL for r in residuals):
            return None
        return max(residuals)


class Deform(Workload):
    """``persymjac deform --weights`` on 32 points, then ``forward`` on the result.

    Two matrices of each round are the closed-form equally spaced ones;
    the other six are built by ``lanczos_persymmetric`` from random-gap
    spectra.  Angles are drawn from U(0.1, 0.6), away from the singular
    angle pi/4.
    """

    name = "deform"

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.round = []
        for i in range(8):
            center = float(rng.uniform(-0.5, 0.5))
            if i < 2:
                x = equally_spaced(32, center)
                b, u = closed_form(32, center)
                a = np.sqrt(u)
            else:
                x = random_gaps(rng, 32, center)
                b, a = lanczos_persymmetric(x)
            theta = float(rng.uniform(0.1, 0.6))
            path = _write_json(os.path.join(self.workdir, f"mat{i}.json"),
                               {"n": 31, "b": b.tolist(), "a": a.tolist()})
            self.round.append({"x": x, "b": b, "a": a, "theta": theta, "path": path,
                               "deformed": os.path.join(self.workdir, f"def{i}.json"),
                               "forward": os.path.join(self.workdir, f"fwd{i}.json")})

    def run(self, item: dict):
        _cli(["deform", item["path"], "--theta", repr(item["theta"]), "--weights",
              "--out", item["deformed"]])
        _cli(["forward", item["deformed"], "--out", item["forward"]])

    def check(self, item: dict, result) -> float | None:
        """The input and the deformed matrix both have the spectrum ``x``;
        both weight tables match the squared first eigenvector components
        of the deformed matrix and sum to one."""
        deformed, forward = _take_json(item["deformed"]), _take_json(item["forward"])
        x = item["x"]
        if deformed.get("theta") != item["theta"] or deformed.get("n") != x.size - 1:
            return None
        values, vectors = eigh_tridiagonal(np.array(deformed["b"]), np.array(deformed["a"]))
        w_ref = vectors[0] ** 2
        w_def = np.array(deformed["weights"])
        w_fwd = np.array(forward["weights"])
        if w_def.size != x.size or w_fwd.size != x.size or len(forward["spectrum"]) != x.size:
            return None
        if abs(w_def.sum() - 1.0) > 1e-12 or abs(w_fwd.sum() - 1.0) > 1e-12:
            return None
        radius = float(np.max(np.abs(x)))
        return max(_spectrum_error(item["b"], item["a"], x) / radius,
                   float(np.max(np.abs(values - x))) / radius,
                   float(np.max(np.abs(np.array(forward["spectrum"]) - x))) / radius,
                   float(np.max(np.abs(w_def - w_ref))),
                   float(np.max(np.abs(w_fwd - w_ref))))


WORKLOADS = {cls.name: cls for cls in (Inverse, Reconstruct, Verify, Deform)}
