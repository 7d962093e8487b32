"""Guard for the benchmark's tracer.

``perfbench/spans.py`` wraps module attributes of the package by name
(``TRACED``).  A refactor that renames or drops one of them would make
``perfbench/run.py --trace 1`` fail, or read zero, without any test in
this suite noticing; these tests load the tracer as it is, check every
binding it wraps, and check that it sees the round-trip eigensolve.
"""

import importlib.util
import json
from pathlib import Path

from persymjac import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_to_a_callable():
    traced = _load_spans().TRACED
    assert traced
    missing = [f"{name}: {module.__name__}.{attr}"
               for name, bindings in traced.items()
               for module, attr in bindings
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_tracer_sees_one_round_trip_eigensolve_per_verify(tmp_path):
    # the round trip passes its guess as a keyword, through the wrapper
    spans = _load_spans()
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps([-1.0, -0.4, 0.1, 0.5, 1.0]), encoding="utf-8")
    out = str(tmp_path / "out.json")
    tracer = spans.Tracer()
    with tracer.installed():
        for op in range(3):
            tracer.op = op
            assert cli.main(["verify", str(spec), "--out", out]) == 0
    eig = [span[spans.OP] for span in tracer.spans if span[spans.NAME] == "jacobi.eigenvalues"]
    assert eig == [0, 1, 2]
    assert not any(span[spans.ERROR] for span in tracer.spans)
