"""What the traced run wraps, and how its spans reduce to per-layer metrics.

Each per-layer metric below names the end-to-end metric it should move
(see README.md for the full map). Durations are in seconds; a `self_s`
metric subtracts the time of wrapped callees.
"""

from __future__ import annotations

import numpy as np

EXPLAIN_LEARNED = "explainers.explain_learned"

METRICS_SPANS = ("metrics.aup_aur", "metrics.information", "metrics.entropy",
                 "metrics.ground_truth_report",
                 "metrics.masked_prediction_metrics",
                 "metrics.positive_rate_masking_curve")
# results CSV, checkpoints, aggregate and charts; private writers are
# wrapped because the fold writes its CSVs only through them
WRITE_SPANS = ("experiment._write_rows", "experiment._write_aggregated",
               "experiment.aggregate", "experiment.write_charts",
               "nets.save_classifier", "cli._echo_config")
HARNESS_SPANS = ("cli.main", "experiment.run_experiment",
                 "experiment.hmm_fold")


def _gru_name(args):
    per_sample = args[1].fwd.w_x.ndim == 3
    return "nets.gru_forward." + ("per_sample" if per_sample else "shared")


def _count_tape(tracer, args, kwargs):
    tracer.counts["tape_ops"] += len(args[0])


def _count_rows(tracer, args, kwargs):
    shape = np.shape(args[0])
    tracer.counts["row_steps"] += shape[0] * shape[1]


def _count_active(tracer, args, kwargs):
    active = args[1] if len(args) > 1 else kwargs.get("active")
    if active is not None and tracer.current() == EXPLAIN_LEARNED:
        tracer.counts["active_sum"] += float(np.mean(active))
        tracer.counts["active_steps"] += 1


def _count_epochs(tracer, args, kwargs, result):
    tracer.counts["train_epochs"] += len(result[1])


def _count_iterations(tracer, args, kwargs, result):
    tracer.counts["iterations_run"] += result.metadata["iterations_run"]


def _spans(*wheres):
    return [{"where": w, "name": w} for w in wheres]


TARGETS = [
    {"where": "autodiff.Tape.backward", "name": "autodiff.Tape.backward",
     "on_call": _count_tape},
    {"where": "autodiff.Adam.step", "name": "autodiff.Adam.step",
     "on_call": _count_active},
    {"where": "nets.gru_forward", "name": _gru_name},
    *_spans("nets.classifier_forward", "perturbation.apply_learned",
            "perturbation.apply_fixed", "data.generate_hmm",
            "data.generate_icu_like", "explainers.explain_dynamask",
            "explainers.occlusion", "explainers.augmented_occlusion",
            "explainers.integrated_gradients", *METRICS_SPANS,
            *WRITE_SPANS, *HARNESS_SPANS),
    {"where": "nets.predict_proba", "name": "nets.predict_proba",
     "on_call": _count_rows},
    {"where": "nets.train_classifier", "name": "nets.train_classifier",
     "on_return": _count_epochs},
    {"where": "explainers.explain_learned", "name": EXPLAIN_LEARNED,
     "on_return": _count_iterations},
]


def _ratio(num, den):
    return num / den if den else 0.0


# (name, unit, better, reduction of a Tracer)
PER_LAYER = [
    # learned explainer: per-sample GRU, tape, early stopping
    ("autodiff.backward_s", "s", "lower",
     lambda t: t.total(["autodiff.Tape.backward"])),
    ("autodiff.backward.calls", "count", "lower",
     lambda t: t.calls(["autodiff.Tape.backward"])),
    ("autodiff.tape_ops", "count", "lower",
     lambda t: _ratio(t.counts["tape_ops"],
                      t.calls(["autodiff.Tape.backward"]))),
    ("nets.gru_forward.per_sample_s", "s", "lower",
     lambda t: t.total(["nets.gru_forward.per_sample"])),
    ("perturbation.apply_learned.self_s", "s", "lower",
     lambda t: t.self_time(["perturbation.apply_learned"])),
    ("explainers.learned.active_row_fraction", "fraction", "higher",
     lambda t: _ratio(t.counts["active_sum"], t.counts["active_steps"])),
    ("explainers.learned.iterations_run", "count", "lower",
     lambda t: t.counts["iterations_run"]),
    ("explainers.learned_s", "s", "lower",
     lambda t: t.total([EXPLAIN_LEARNED])),
    # forward-only occlusion
    ("nets.predict_proba.calls", "count", "lower",
     lambda t: t.calls(["nets.predict_proba"])),
    ("nets.predict_proba.row_steps", "count", "lower",
     lambda t: t.counts["row_steps"]),
    ("nets.predict_proba.s", "s", "lower",
     lambda t: t.total(["nets.predict_proba"])),
    ("explainers.occlusion_s", "s", "lower",
     lambda t: t.total(["explainers.occlusion"])),
    ("explainers.augmented_occlusion_s", "s", "lower",
     lambda t: t.total(["explainers.augmented_occlusion"])),
    # the frozen classifier, shared weights
    ("nets.classifier_forward.self_s", "s", "lower",
     lambda t: t.self_time(["nets.classifier_forward"])),
    ("nets.classifier_forward.calls", "count", "lower",
     lambda t: t.calls(["nets.classifier_forward"])),
    ("nets.gru_forward.shared_s", "s", "lower",
     lambda t: t.total(["nets.gru_forward.shared"])),
    # set-up
    ("nets.train_s", "s", "lower",
     lambda t: t.total(["nets.train_classifier"])),
    ("nets.train_epochs", "count", "lower",
     lambda t: t.counts["train_epochs"]),
    ("data.generate_s", "s", "lower",
     lambda t: t.total(["data.generate_hmm", "data.generate_icu_like"])),
    # the rest of a CLI fold
    ("explainers.dynamask_s", "s", "lower",
     lambda t: t.total(["explainers.explain_dynamask"])),
    ("explainers.integrated_gradients_s", "s", "lower",
     lambda t: t.total(["explainers.integrated_gradients"])),
    ("perturbation.apply_fixed.self_s", "s", "lower",
     lambda t: t.self_time(["perturbation.apply_fixed"])),
    ("metrics.s", "s", "lower",
     lambda t: t.total(METRICS_SPANS, outermost=True)),
    ("experiment.write_s", "s", "lower",
     lambda t: t.total(WRITE_SPANS, outermost=True)),
    ("experiment.self_s", "s", "lower",
     lambda t: t.self_time(HARNESS_SPANS)),
    ("trace.spans", "count", "lower", lambda t: len(t.spans)),
]


def per_layer_metrics(tracer):
    return {name: (float(fn(tracer)), unit)
            for name, unit, _better, fn in PER_LAYER}
