"""The committed benchmark history: every ``BENCH_*.json`` at the root.

Each file records one change's parent and change figures.  It must parse
and must name every workload and end-to-end metric that
``BENCHMARK.json`` declares, and the attempted and failed operations of
each side, so that the history can be read as one trajectory, failure
share included.  Nothing is run here.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
HISTORY = sorted(ROOT.glob("BENCH_*.json"))


def test_history_is_committed():
    assert HISTORY


@pytest.mark.parametrize("path", HISTORY, ids=lambda p: p.name)
def test_names_every_declared_workload_and_metric(path):
    doc = json.loads(path.read_text())
    for workload in DECLARED["workloads"]:
        got = doc["workloads"][workload["name"]]
        for metric in DECLARED["end_to_end"]:
            for side in ("parent", "change"):
                figures = got[metric["name"]][side]
                assert set(figures) >= {"median", "q1", "q3"}
        for side in ("parent", "change"):
            assert 0 <= got["failed_ops"][side] <= got["attempted_ops"][side]
