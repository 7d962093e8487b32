"""Guard for the benchmark's tracer.

``perfbench/spans.py`` wraps module attributes of the package by name
(``TRACED``).  A refactor that renames or drops one of them would make
``perfbench/run.py --trace 1`` fail, or read zero, without any test in
this suite noticing; this test loads the tracer as it is and checks
every binding it wraps.
"""

import importlib.util
from pathlib import Path

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
