"""Acceptance gate for the toolkit.

One test per shipping criterion.  Each test prints a single visible
``criterion N (...): PASS/FAIL`` line with its measured margins (the
prints bypass capture, so they appear in a plain ``pytest`` run), then
asserts.  Shared expensive fixtures -- the 200-spectrum random suite and
its reconstructions -- are built lazily and cached at module scope.
"""

import functools
import json
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from persymjac.benchmark import default_config, run_benchmark
from persymjac.cli import main as cli_main
from persymjac.deformation import (deform_closed_form, deform_conjugate,
                                   deformed_polynomials, deformed_weights)
from persymjac.jacobi import (Spectrum, SymmetricJacobi, eigenvalues,
                              mirror_residual, recurrence_polynomials,
                              weights_general, weights_persymmetric)
from persymjac.polynomials import Polynomial
from persymjac.reconstruction import (ALGORITHMS, midpoint_data, moments,
                                      sublattice_weights)

GOLDEN = Path(__file__).parent / "golden"

FROZEN_SPECTRA = (
    ((-1.0, 1.0), (0.0, 0.0), (1.0,)),
    ((-1.0, 0.0, 1.0), (0.0, 0.0, 0.0), (0.5, 0.5)),
    ((0.0, 1.0, 2.0), (1.0, 1.0, 1.0), (0.5, 0.5)),
    ((-1.5, -0.5, 0.5, 1.5), (0.0, 0.0, 0.0, 0.0), (0.75, 1.0, 0.75)),
)


def _report(num: int, label: str, ok: bool, detail: str, capsys) -> None:
    with capsys.disabled():
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _gapped_spectrum(rng: np.random.Generator, n: int) -> Spectrum:
    span, need = 2.0, 0.05 * n
    raw = rng.random(n)
    extra = raw / raw.sum() * rng.uniform(0.0, span - need)
    gaps = 0.05 + extra
    start = -1.0 + rng.uniform(0.0, span - gaps.sum())
    return Spectrum(start + np.concatenate(([0.0], np.cumsum(gaps))))


@functools.lru_cache(maxsize=1)
def _suite() -> tuple[Spectrum, ...]:
    """200 random spectra, sizes 3..13 round-robin, values in [-1, 1],
    neighbor gaps at least 0.05."""
    rng = np.random.default_rng(20250815)
    return tuple(_gapped_spectrum(rng, 2 + i % 11) for i in range(200))


@functools.lru_cache(maxsize=1)
def _suite_recs() -> tuple[dict, ...]:
    return tuple({name: fn(spec) for name, fn in ALGORITHMS.items()}
                 for spec in _suite())


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def test_criterion_01_exact_small_cases(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for values, b, u in FROZEN_SPECTRA:
        for fn in ALGORITHMS.values():
            rec = fn(values)
            worst = max(worst,
                        float(np.max(np.abs(rec.b - np.array(b)))),
                        float(np.max(np.abs(rec.u - np.array(u)), initial=0.0)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 1.0
    _report(1, "closed-form small spectra, all four algorithms", ok,
            f"worst entry deviation {worst:.2e} (bound 1e-10), {dt:.2f}s", capsys)


def test_criterion_02_random_suite_roundtrip_and_agreement(capsys):
    t0 = time.perf_counter()
    worst_rt = worst_agree = 0.0
    for spec, recs in zip(_suite(), _suite_recs()):
        for rec in recs.values():
            back = eigenvalues(rec)
            worst_rt = max(worst_rt, float(np.max(np.abs(back.values - spec.values))))
        ref = recs["gs"]
        for rec in recs.values():
            worst_agree = max(worst_agree,
                              float(np.max(np.abs(rec.b - ref.b))),
                              float(np.max(np.abs(rec.u - ref.u), initial=0.0)))
    dt = time.perf_counter() - t0
    ok = worst_rt <= 1e-8 and worst_agree <= 1e-8 and dt < 30.0
    _report(2, "200-spectrum random suite: round trip and four-way agreement", ok,
            f"worst round trip {worst_rt:.2e}, worst disagreement {worst_agree:.2e} "
            f"(bounds 1e-8), {dt:.1f}s", capsys)


def test_criterion_03_mirror_relation_on_the_suite(capsys):
    worst = 0.0
    for spec, recs in zip(_suite(), _suite_recs()):
        worst = max(worst, mirror_residual(recs["mf"], spec))
    ok = worst <= 1e-9
    _report(3, "mirror relation of the orthonormal family", ok,
            f"worst residual {worst:.2e} (bound 1e-9)", capsys)


def test_criterion_04_weight_formulas_agree(capsys):
    worst_w = worst_h = 0.0
    for spec, recs in zip(_suite(), _suite_recs()):
        k = recs["mf"]
        general = weights_general(k, spec)
        table, h = weights_persymmetric(spec)
        worst_w = max(worst_w, float(np.max(np.abs(general.w - table.w))))
        h_true = float(np.prod(k.u))
        worst_h = max(worst_h, abs(h - h_true) / h_true)
    ok = worst_w <= 1e-12 and worst_h <= 1e-10
    _report(4, "persymmetric weight shortcut vs general formula", ok,
            f"worst weight deviation {worst_w:.2e} (bound 1e-12), "
            f"worst relative norm deviation {worst_h:.2e} (bound 1e-10)", capsys)


def test_criterion_05_sublattice_orthogonality_and_moments(capsys):
    worst_gram = worst_mom = 0.0
    count = 0
    for spec, recs in zip(_suite(), _suite_recs()):
        n = spec.n
        if n > 11:
            continue
        count += 1
        half = (n - 1) // 2
        sys = recurrence_polynomials(recs["mf"])
        even_t, odd_t = sublattice_weights(spec)
        for table in (even_t, odd_t):
            x, w = table.points.values, table.w
            vals = np.array([sys.polys[k](x) for k in range(half + 1)])
            gram = (vals * w) @ vals.T
            worst_gram = max(worst_gram,
                             float(np.max(np.abs(gram - np.diag(sys.h[: half + 1])))))
        full = moments(spec, n - 1).c
        for table in (even_t, odd_t):
            x, w = table.points.values, table.w
            sub = np.array([np.sum(w * x**k) for k in range(n)])
            worst_mom = max(worst_mom, float(np.max(np.abs(sub - full))))
    ok = worst_gram <= 1e-9 and worst_mom <= 1e-11 and count > 0
    _report(5, "low polynomials stay orthogonal on each sublattice", ok,
            f"{count} spectra of N <= 11, both parities; worst Gram deviation {worst_gram:.2e} "
            f"(bound 1e-9), worst moment mismatch {worst_mom:.2e} (bound 1e-11)",
            capsys)


def test_criterion_06_midpoint_closure(capsys):
    worst = 0.0
    for spec, recs in zip(_suite(), _suite_recs()):
        n = spec.n
        x = spec.values
        sigma0, sigma1 = float(np.sum(x[0::2])), float(np.sum(x[1::2]))
        rec = recs["gs"]
        if n % 2:
            closing = 0.25 * (sigma1 - sigma0) ** 2
            worst = max(worst, abs(closing - rec.u[(n - 1) // 2]))
        else:
            closing = sigma0 - sigma1
            worst = max(worst, abs(closing - rec.b[n // 2]))
    # the sign of the midpoint combination matters: flipping it must
    # collapse the degree instead of producing the middle polynomial
    md = midpoint_data([-1.0, 0.0, 1.0])
    b_mid = md.sigma0 - md.sigma1
    alt = 0.5 * (md.omega0 - Polynomial([-b_mid, 1.0]) * md.omega1)
    degree_drops = alt.degree < 2
    ok = worst <= 1e-9 and degree_drops
    _report(6, "central coefficients from sublattice root sums", ok,
            f"worst closure deviation {worst:.2e} (bound 1e-9); "
            f"sign-flipped variant degree {alt.degree} (must drop below 2)", capsys)


def test_criterion_07_isospectral_deformations(capsys):
    grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    thetas = grid[np.abs(np.cos(2.0 * grid)) >= 0.05][:16]
    rng = np.random.default_rng(20250816)
    worst = dict(agree=0.0, spectrum=0.0, weights=0.0, mass=0.0, polys=0.0)
    for n in (1, 3, 5, 7, 9, 11, 2, 4, 6, 8, 10):
        half_b = rng.uniform(-1.0, 1.0, (n + 2) // 2)
        half_a = rng.uniform(0.3, 1.2, (n + 1) // 2)
        j = SymmetricJacobi(np.concatenate((half_b, half_b[: (n + 1) // 2][::-1])),
                            np.concatenate((half_a, half_a[: n // 2][::-1])))
        k = j.to_monic()
        spec = eigenvalues(k)
        table = weights_general(k, spec)
        sys = recurrence_polynomials(k)
        for theta in thetas:
            closed = deform_closed_form(j, theta)
            viav = deform_conjugate(j, theta)
            worst["agree"] = max(worst["agree"],
                                 float(np.max(np.abs(closed.b - viav.b))),
                                 float(np.max(np.abs(closed.a - viav.a), initial=0.0)))
            dk = closed.to_monic()
            dspec = eigenvalues(dk)
            worst["spectrum"] = max(worst["spectrum"],
                                    float(np.max(np.abs(dspec.values - spec.values))))
            wd = deformed_weights(table, theta)
            wg = weights_general(dk, dspec)
            worst["weights"] = max(worst["weights"], float(np.max(np.abs(wd.w - wg.w))))
            worst["mass"] = max(worst["mass"], abs(float(np.sum(wd.w)) - 1.0))
            qs = deformed_polynomials(sys, theta)
            dsys = recurrence_polynomials(dk)
            prods = np.concatenate(([1.0], np.cumprod(closed.a)))
            for m in range(n + 1):
                want = dsys.polys[m](spec.values) / prods[m]
                worst["polys"] = max(worst["polys"],
                                     float(np.max(np.abs(qs[m](spec.values) - want))))
    ok = (worst["agree"] <= 1e-13 and worst["spectrum"] <= 1e-10
          and worst["weights"] <= 1e-9 and worst["mass"] <= 1e-12
          and worst["polys"] <= 1e-9)
    _report(7, "deformations: two constructions, spectrum, weights, polynomials", ok,
            f"construction gap {worst['agree']:.2e} (1e-13), "
            f"spectrum drift {worst['spectrum']:.2e} (1e-10), "
            f"weights {worst['weights']:.2e} (1e-9), mass {worst['mass']:.2e} (1e-12), "
            f"polynomials {worst['polys']:.2e} (1e-9)", capsys)


def test_criterion_08_folded_algorithms_are_faster_at_scale(capsys):
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = run_benchmark(default_config())
    dt = time.perf_counter() - t0
    med = {(r.n, r.algorithm): r.median_ns for r in records
           if r.family == "symmetric-linear"}
    failures = []
    for n in (64, 128, 256):
        if not med[(n, "mf")] < med[(n, "le")]:
            failures.append(f"mf !< le at N={n}")
        if not med[(n, "hl")] < med[(n, "gs")]:
            failures.append(f"hl !< gs at N={n}")
    ok = not failures and dt < 120.0
    ratios = ", ".join(
        f"N={n}: le/mf {med[(n, 'le')] / med[(n, 'mf')]:.1f}x, "
        f"gs/hl {med[(n, 'gs')] / med[(n, 'hl')]:.1f}x" for n in (64, 128, 256))
    _report(8, "median timings at N=64/128/256, 20 reps", ok,
            (f"{ratios}; {len(caught)} accuracy warnings (expected at these sizes); "
             f"{dt:.0f}s" if ok else "; ".join(failures) + f"; {dt:.0f}s"), capsys)


def test_criterion_09_cli_golden_files_and_exit_codes(tmp_path, capsys):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    failures = []

    def check(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    mat = write("m.json", {"n": 1, "b": [0, 0], "a": [1]})
    sym4 = write("s.json", [-1.5, -0.5, 0.5, 1.5])
    bench_cfg = write("c.json", {
        "families": [{"kind": "uniform-linear", "N": 2},
                     {"kind": "random-gap", "N": 5, "seed": 42, "min_gap": 0.05}],
        "algorithms": ["gs", "mf"], "reps": 2})

    # golden comparisons, one per subcommand
    for argv, golden in [
        (["forward", mat], "forward_2x2.json"),
        (["reconstruct", sym4, "--algorithm", "mf"], "reconstruct_sym4.json"),
        (["deform", mat, "--theta", "0.5235987755982988", "--weights"],
         "deform_pi6.json"),
        (["verify", sym4], "verify_sym4.json"),
    ]:
        out = tmp_path / ("got_" + golden)
        check(f"{argv[0]} exit", cli_main(argv + ["--out", str(out)]), 0)
        check(f"{argv[0]} output", out.read_text(encoding="utf-8"),
              (GOLDEN / golden).read_text(encoding="utf-8"))

    out = tmp_path / "got_bench.csv"
    check("bench exit", cli_main(["bench", "--config", bench_cfg, "--out", str(out)]), 0)
    got_rows = out.read_text(encoding="utf-8").splitlines()
    want_rows = (GOLDEN / "bench_tiny.csv").read_text(encoding="utf-8").splitlines()
    check("bench csv header (bit-exact)", got_rows[0],
          "family,N,algorithm,median_ns,entry_err,spectral_residual,reps")
    check("bench row count", len(got_rows), len(want_rows))
    for g_line, w_line in zip(got_rows[1:], want_rows[1:]):
        g, w = g_line.split(","), w_line.split(",")
        check("bench row (timing masked)", g[:3] + g[4:], w[:3] + w[4:])

    # exit-code matrix
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    wide = write("wide.json", list(np.linspace(-1.0, 1.0, 65)))
    tight = write("tight.json", list(np.linspace(0.0, 0.20, 21)))
    even_mat = write("even.json", {"n": 2, "b": [0, 0, 0], "a": [0.5, 0.5]})
    skew_mat = write("skew.json", {"n": 2, "b": [0, 0, 1], "a": [0.5, 0.5]})
    cut_mat = write("cut.json", {"n": 1, "b": [0, 0], "a": [0]})
    single = write("single.json", {"n": 0, "b": [5], "a": []})
    for label, argv, want in [
        ("success", ["forward", single], 0),
        ("verify failure", ["verify", tight], 1),
        ("parse error", ["forward", str(bad)], 2),
        ("duplicate points", ["reconstruct", write("dup.json", [0.0, 0.0, 1.0])], 2),
        ("even-N weights request", ["deform", even_mat, "--weights"], 0),
        ("non-persymmetric weights request", ["deform", skew_mat, "--weights"], 2),
        ("descent breakdown", ["reconstruct", wide, "--algorithm", "le"], 3),
        ("zero coupling", ["deform", cut_mat, "--weights"], 3),
    ]:
        check(f"exit code: {label}", cli_main(argv), want)
    capsys.readouterr()  # drop accumulated CLI stdout/stderr

    ok = not failures
    _report(9, "command-line goldens and exit codes", ok,
            "five subcommands match their goldens; exit codes 0/1/2/3 verified"
            if ok else "; ".join(failures), capsys)


def test_entry_point_smoke(tmp_path, capsys, child_env):
    mat = tmp_path / "m.json"
    mat.write_text(json.dumps({"n": 1, "b": [0, 0], "a": [1]}), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "persymjac", "forward", str(mat)],
                          capture_output=True, text=True, timeout=60, env=child_env)
    ok = proc.returncode == 0 and json.loads(proc.stdout)["spectrum"] == [-1.0, 1.0]
    _report(0, "module entry point", ok, "python -m persymjac runs the CLI", capsys)
