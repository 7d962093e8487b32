"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import persymjac


@pytest.fixture
def child_env() -> dict:
    """Environment in which a child interpreter imports the package under
    test, whether it is installed or only on the tests' ``pythonpath``."""
    src = str(Path(persymjac.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env
