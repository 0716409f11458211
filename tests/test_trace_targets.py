"""Every name the benchmark's layer trace wraps still exists in dyntr.

``Tracer.install`` reads ``owner.__dict__[attr]`` for each target, so a
renamed or deleted name would otherwise surface only in a traced run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import layer_trace  # noqa: E402


@pytest.mark.parametrize(
    "name,owner,attr",
    [target[:3] for target in layer_trace.TARGETS],
    ids=[f"{owner.__name__}.{attr}" for _, owner, attr, *_ in layer_trace.TARGETS],
)
def test_trace_target_exists(name, owner, attr):
    assert attr in owner.__dict__, f"{name}: {owner.__name__} has no {attr!r}"
