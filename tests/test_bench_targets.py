"""The benchmark's trace targets must name functions of the package: the
tracer skips a target it cannot resolve, so a rename would otherwise drop
a span from the per-layer metrics without an error."""

import importlib
import importlib.util
import os

import pytest

LAYERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "bench", "layers.py")


def _targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [t["where"] for t in layers.TARGETS]


@pytest.mark.parametrize("where", _targets())
def test_trace_target_resolves(where):
    module, *attrs = where.split(".")
    owner = importlib.import_module(f"tempex.{module}")
    for attr in attrs:
        owner = getattr(owner, attr, None)
    assert callable(owner), f"bench/layers.py traces {where!r}, not found"
