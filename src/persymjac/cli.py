"""Command-line interface.

Five subcommands over JSON files (schemas in ``docs/formats.md``):

* ``forward``      matrix file -> spectrum and weights
* ``reconstruct``  spectrum file -> matrix file (choice of algorithm)
* ``deform``       matrix file + angle -> deformed matrix file
* ``verify``       spectrum file -> named consistency checks
* ``bench``        benchmark report as CSV or JSON

Exit codes: 0 success, 1 verification failure, 2 input error (parse,
schema, or value problems), 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .benchmark import (config_from_dict, default_config, records_to_csv,
                        records_to_json, run_benchmark)
from .deformation import deform_closed_form, deformed_weights
from .errors import NumericalError
from .jacobi import (Spectrum, SymmetricJacobi, eigenvalues, mirror_residual,
                     weights_general, weights_persymmetric)
from .reconstruction import (ALGORITHMS, _closing, _sublattices, moments,
                             sublattice_weights)

#: CLI-facing persymmetry tolerance for ``deform``.
_DEFORM_TOL = 1e-8


# ----------------------------------------------------------------------
# file I/O
# ----------------------------------------------------------------------


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _require_finite(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _load_matrix(path: str) -> SymmetricJacobi:
    doc = _load_json(path)
    if not isinstance(doc, dict) or not {"n", "b", "a"} <= set(doc):
        raise ValueError("matrix file must be an object with keys n, b, a")
    n = int(doc["n"])
    b = _require_finite(doc["b"], "b")
    a = _require_finite(doc["a"], "a")
    if b.size != n + 1 or a.size != n:
        raise ValueError("matrix file lengths are inconsistent with n")
    return SymmetricJacobi(b, a)


def _load_spectrum(path: str) -> Spectrum:
    doc = _load_json(path)
    seq = doc.get("spectrum") if isinstance(doc, dict) else doc
    if not isinstance(seq, list) or not seq:
        raise ValueError('spectrum file must be a nonempty array or {"spectrum": [...]}')
    return Spectrum.from_values(_require_finite(seq, "spectrum"))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc, out: str | None) -> None:
    _emit(json.dumps(doc, indent=1) + "\n", out)


def _floats(arr) -> list[float]:
    return [float(x) for x in arr]


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_forward(args) -> int:
    jac = _load_matrix(args.matrix)
    monic = jac.to_monic()
    spec = eigenvalues(monic)
    table = weights_general(monic, spec)
    _emit_json({"spectrum": _floats(spec.values), "weights": _floats(table.w)}, args.out)
    return 0


def _cmd_reconstruct(args) -> int:
    spec = _load_spectrum(args.spectrum)
    rec = ALGORITHMS[args.algorithm](spec)
    back = eigenvalues(rec)
    residual = float(np.max(np.abs(back.values - spec.values)))
    if residual > args.tolerance:
        raise NumericalError(f"round-trip residual {residual:.3e} exceeds "
                             f"the requested tolerance {args.tolerance:.3e}")
    sym = SymmetricJacobi.from_monic(rec)
    _emit_json({"n": rec.n, "b": _floats(sym.b), "a": _floats(sym.a),
                "residual": residual}, args.out)
    return 0


def _cmd_deform(args) -> int:
    """Deform the matrix file; ``--weights`` adds the tilted weight table.

    The weights tilted are the closed-form ones of the exactly
    persymmetric matrix with the computed spectrum;
    ``deform_closed_form`` has just checked that the input is
    persymmetric (within ``_DEFORM_TOL``).
    """
    jac = _load_matrix(args.matrix)
    tilted = deform_closed_form(jac, args.theta, tol=_DEFORM_TOL)
    doc = {"n": tilted.n, "b": _floats(tilted.b), "a": _floats(tilted.a),
           "theta": args.theta}
    if args.weights:
        table, _ = weights_persymmetric(eigenvalues(jac.to_monic()))
        doc["weights"] = _floats(deformed_weights(table, args.theta).w)
    _emit_json(doc, args.out)
    return 0


@np.errstate(all="ignore")
def _verify_checks(spec: Spectrum, tol: float) -> list[dict]:
    """The named consistency checks behind ``verify``.

    Residuals are reported as measured; a check passes when its residual
    is at most ``tol``.  A residual that is not finite (overflow at large
    N) is reported as ``inf`` and fails, so floating-point warnings are
    silenced here.  Checks that need structure the input lacks
    (sublattices of a two-point spectrum) are marked skipped.
    """
    n = spec.n
    checks = []

    def add(name: str, residual: float | None):
        if residual is None:
            checks.append({"name": name, "status": "skipped", "residual": None})
        else:
            if not math.isfinite(residual):
                residual = math.inf
            status = "pass" if residual <= tol else "fail"
            checks.append({"name": name, "status": status, "residual": residual})

    results = {}
    for alg, fn in ALGORITHMS.items():
        try:
            results[alg] = fn(spec)
        except NumericalError:
            results[alg] = None

    ref = results["gs"]
    if ref is None:
        add("spectral-roundtrip", math.inf)
        add("mirror-relation", math.inf)
    else:
        try:
            back = eigenvalues(ref)
            add("spectral-roundtrip", float(np.max(np.abs(back.values - spec.values))))
        except NumericalError:
            add("spectral-roundtrip", math.inf)
        add("mirror-relation", mirror_residual(ref, spec))

    # sublattice moments must reproduce the full-lattice moments below
    # order N; degenerate (single-point) sublattices are uninformative
    if n < 2:
        add("sublattice-moments", None)
    else:
        full = moments(spec, n - 1)
        even_t, odd_t = sublattice_weights(spec)
        # np.max, unlike the builtin max, propagates a NaN from overflow
        devs = [0.0]
        for table in (even_t, odd_t):
            if table is None:
                continue
            x, w = table.points.values, table.w
            sub = [float(np.sum(w * x ** k)) for k in range(n)]
            devs.append(float(np.max(np.abs(np.array(sub) - full.c))))
        add("sublattice-moments", float(np.max(devs)))

    # the central recurrence entries are pinned by the sublattice root
    # sums alone; compare against the full reconstruction
    if ref is None:
        add("midpoint-closure", math.inf)
    else:
        _, _, sigma0, sigma1 = _sublattices(spec.values)
        mid = ref.u[n // 2] if n % 2 else ref.b[n // 2]
        scale = max(1.0, float(spec.radius) ** 2)
        add("midpoint-closure", abs(_closing(sigma0, sigma1, n) - mid) / scale)

    done = [rec for rec in results.values() if rec is not None]
    if len(results) != len(done):
        add("four-way-agreement", math.inf)
    else:
        worst = 0.0
        for other in done[1:]:
            worst = max(worst, float(np.max(np.abs(other.b - done[0].b))))
            if n:
                worst = max(worst, float(np.max(np.abs(other.u - done[0].u))))
        add("four-way-agreement", worst)
    return checks


def _cmd_verify(args) -> int:
    spec = _load_spectrum(args.spectrum)
    checks = _verify_checks(spec, args.tolerance)
    passed = all(c["status"] != "fail" for c in checks)
    _emit_json({"n": spec.n, "tolerance": args.tolerance,
                "checks": checks, "passed": passed}, args.out)
    return 0 if passed else 1


def _cmd_bench(args) -> int:
    if args.config is not None:
        config = config_from_dict(_load_json(args.config))
    else:
        config = default_config(seed=args.seed)
    records = run_benchmark(config)
    if args.format == "json":
        _emit(records_to_json(records), args.out)
    else:
        _emit(records_to_csv(records), args.out)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="persymjac",
        description="Spectral toolbox for mirror-symmetric tridiagonal matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    fwd = sub.add_parser("forward", help="eigenvalues and weights of a matrix file")
    fwd.add_argument("matrix", help="path to a matrix JSON file")
    fwd.add_argument("--out", default=None, help="output path (default: stdout)")
    fwd.set_defaults(func=_cmd_forward)

    rec = sub.add_parser("reconstruct", help="matrix from a spectrum file")
    rec.add_argument("spectrum", help="path to a spectrum JSON file")
    rec.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="mf",
                     help="reconstruction algorithm (default: mf)")
    rec.add_argument("--tolerance", type=float, default=1e-8,
                     help="largest acceptable round-trip residual (default: 1e-8)")
    rec.add_argument("--out", default=None)
    rec.set_defaults(func=_cmd_reconstruct)

    dfm = sub.add_parser("deform", help="isospectral deformation of a matrix file")
    dfm.add_argument("matrix", help="path to a matrix JSON file")
    dfm.add_argument("--theta", type=float, default=0.0,
                     help="deformation angle in radians (default: 0)")
    dfm.add_argument("--weights", action="store_true",
                     help="also emit the deformed weights")
    dfm.add_argument("--out", default=None)
    dfm.set_defaults(func=_cmd_deform)

    ver = sub.add_parser("verify", help="consistency checks on a spectrum file")
    ver.add_argument("spectrum", help="path to a spectrum JSON file")
    ver.add_argument("--tolerance", type=float, default=1e-8,
                     help="pass/fail threshold for residuals (default: 1e-8)")
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser("bench", help="run the reconstruction benchmark")
    ben.add_argument("--config", default=None, help="benchmark config JSON file")
    ben.add_argument("--format", choices=("json", "csv"), default="csv")
    ben.add_argument("--seed", type=int, default=42,
                     help="seed for the default random-gap family")
    ben.add_argument("--out", default=None)
    ben.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
