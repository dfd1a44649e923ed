"""The demos that take a few seconds run to their end, output captured.
demos/learned_explainer.py takes about ten seconds and is left out; run it
with `python3 demos/learned_explainer.py`."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "demos")


@pytest.mark.parametrize("name", ["autodiff_basics", "baselines_and_metrics",
                                  "hmm_benchmark"])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
