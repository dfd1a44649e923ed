"""The benchmark's definition: workloads, metrics and bounds.

`python3 bench/run.py --write-benchmark-json` writes this table to
BENCHMARK.json at the repository root; the runner checks that every result
it prints carries exactly these metrics.
"""

from __future__ import annotations

import json

from layers import PER_LAYER as LAYER_TABLE

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 25

WORKLOADS = [
    ("learned_hmm",
     "explain_learned to convergence on 48 HMM series: per-sample GRU and "
     "tape dominate, and early-stopped rows are still computed"),
    ("occlusion_icu",
     "occlusion and augmented occlusion on 32 ICU-like samples: "
     "forward-only, shared weights, no tape, 770 predict_proba calls"),
    ("fold_hmm",
     "one HMM fold through the tempex CLI: data, training, all six "
     "explainers, metrics and file writing, as a user runs it"),
]

# (name, unit, better, bound); bound is the share of the parent's median
# by which the metric may worsen
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("aup", "area", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

PER_LAYER = [(name, unit, better) for name, unit, better, _fn in LAYER_TABLE]
PER_LAYER.append(("trace.samples_per_s", "1/s", "higher"))


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def write(path):
    with open(path, "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
