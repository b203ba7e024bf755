"""The benchmark's span patch points (``perfbench/tracing.py``) stay valid.

``instrument`` patches every ``JOB_POINTS``/``LAYER_POINTS`` attribute by
name, so renaming or deleting one of them in ``src/`` breaks the traced
benchmark run.  This test installs all of them and checks that each one is
wrapped inside the block and restored on exit.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracing():
    path = REPO_ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["perfbench_tracing"] = module
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_is_wrapped_and_restored(tracing):
    points = tracing.JOB_POINTS + tracing.LAYER_POINTS
    originals = {(owner, name): vars(owner)[name] for _, owner, name in points}
    with tracing.instrument(tracing.Tracer(), layers=True):
        for (owner, name), original in originals.items():
            assert vars(owner)[name] is not original, f"{owner.__name__}.{name} not patched"
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, f"{owner.__name__}.{name} not restored"
