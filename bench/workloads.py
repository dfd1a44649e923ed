"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup`, then `call` makes
the timed call into tempex and checks what came back. A failed check raises
`CheckFailed`; the runner counts it as a failed operation.

- learned_hmm: one `explain_learned` call with the default config (the
  preservation game, bidirectional per-sample generator, 500-iteration cap,
  early stopping) on 48 HMM series of T=50, run to convergence.
- occlusion_icu: `occlusion` plus `augmented_occlusion` (10 draws) on 32
  ICU-like samples (T=48, n=8) against a frozen final-step classifier.
- fold_hmm: `tempex run --experiment hmm --profile fast --folds 1` through
  the CLI, with a config that shrinks the fold.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import hashlib
import os
import shutil
import sys
from dataclasses import dataclass

import numpy as np

from tempex import cli, data, explainers, metrics, nets

GT_METRICS = ("aup", "aur", "information", "entropy")
FOLD_METHODS = ("learned_preservation", "learned_deletion", "dynamask",
                "occlusion", "augmented_occlusion", "integrated_gradients")
# at the fold's 100 iterations the learned masks stay nearly constant (AUP
# 0.333 or above 0.9 with AUR under 0.03, depending on the seed), so the
# fold's quality guard averages the methods whose AUP is informative there;
# learned_hmm guards the learned explainer
GUARD_METHODS = ("dynamask", "occlusion", "augmented_occlusion",
                 "integrated_gradients")
CSV_HEADER = ["method", "metric", "fraction", "substitution", "mean", "std",
              "fold"]


class CheckFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class Sizes:
    hmm_series: int = 200
    hmm_steps: int = 50
    hmm_hidden: int = 32
    hmm_epochs: int = 20
    learned_samples: int = 48
    learned_iterations: int = 500  # the ExplainerConfig default
    icu_series: int = 200
    icu_steps: int = 48
    icu_hidden: int = 64
    icu_epochs: int = 20
    occlusion_samples: int = 32
    occlusion_draws: int = 10
    # keys `hmm_fold` reads, by config-file section
    fold_dataset: tuple = (("n_series", 200), ("n_steps", 50))
    fold_model: tuple = (("epochs", 10),)
    fold_metrics: tuple = (("eval_samples", 32),)
    fold_explainers: tuple = (("iterations", 100),)
    setup_repeats: int = 3
    import_repeats: int = 5


FULL = Sizes()
TINY = Sizes(hmm_series=24, hmm_steps=8, hmm_hidden=4, hmm_epochs=2,
             learned_samples=4, learned_iterations=30, icu_series=24,
             icu_steps=6, icu_hidden=4, icu_epochs=2, occlusion_samples=4,
             occlusion_draws=2,
             fold_dataset=(("n_series", 20), ("n_steps", 8)),
             fold_model=(("epochs", 1),), fold_metrics=(("eval_samples", 4),),
             fold_explainers=(("iterations", 3),), setup_repeats=2,
             import_repeats=1)


@dataclass
class Outcome:
    """What one timed call produced: `work` is the count the throughput
    metric divides by its time."""
    samples: int
    work: float
    aup: float
    aur: float
    digest: str
    info: dict


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def check_scores(scores, shape, method):
    if scores.shape != shape:
        raise CheckFailed(f"{method}: scores {scores.shape}, expected {shape}")
    if not np.all(np.isfinite(scores)):
        raise CheckFailed(f"{method}: non-finite scores")
    if scores.min() < 0.0 or scores.max() > 1.0:
        raise CheckFailed(f"{method}: scores outside [0, 1] "
                          f"({scores.min()}, {scores.max()})")


def _train(ds, hidden, epochs, seed, readout):
    model = nets.init_classifier(np.random.default_rng(seed), ds.X.shape[2],
                                 hidden, readout=readout)
    model, _history = nets.train_classifier(
        ds, model, nets.TrainConfig(epochs=epochs, seed=seed))
    return model.freeze()


def model_digest(model):
    h = hashlib.sha256()
    for t in model.tensors():
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


class LearnedHmm:
    """Almost all time goes to the per-sample GRU forward and backward and
    to the tape; rows that freeze early are still computed."""

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed):
        s = self.sizes
        ds = data.generate_hmm(data.HmmConfig(
            n_series=s.hmm_series, n_steps=s.hmm_steps, seed=seed))
        model = _train(ds, s.hmm_hidden, s.hmm_epochs, seed,
                       nets.PER_TIMESTEP)
        return ds, model

    def fingerprint(self, state):
        return model_digest(state[1])

    def call(self, state):
        ds, model = state
        s = self.sizes
        X = ds.X[:s.learned_samples]
        out = explainers.explain_learned(
            X, model,
            explainers.ExplainerConfig(iterations=s.learned_iterations))
        check_scores(out.scores, X.shape, out.method)
        its = out.metadata["iterations_run"]
        if not 1 <= its <= s.learned_iterations:
            raise CheckFailed(f"iterations_run {its} outside "
                              f"[1, {s.learned_iterations}]")
        aup, aur = metrics.aup_aur(out.scores,
                                   ds.true_saliency[:s.learned_samples])
        # the batch runs until its last row freezes, and that count
        # depends on the inputs, so throughput counts sample-iterations
        return Outcome(samples=len(X), work=len(X) * its, aup=aup, aur=aur,
                       digest=_digest(out.scores),
                       info={"iterations_run": its})


class OcclusionIcu:
    """Forward-only, shared weights, no tape: T*n predict_proba calls per
    method."""

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed):
        s = self.sizes
        ds = data.generate_icu_like(s.icu_series, n_steps=s.icu_steps,
                                    seed=seed)
        model = _train(ds, s.icu_hidden, s.icu_epochs, seed,
                       nets.FINAL_STEP)
        return ds, model, seed

    def fingerprint(self, state):
        return model_digest(state[1])

    def call(self, state):
        ds, model, seed = state
        s = self.sizes
        X = ds.X[:s.occlusion_samples]
        occ = explainers.occlusion(X, model)
        check_scores(occ.scores, X.shape, occ.method)
        aug = explainers.augmented_occlusion(X, model, ds.X,
                                             draws=s.occlusion_draws,
                                             seed=seed)
        check_scores(aug.scores, X.shape, aug.method)
        aup, aur = metrics.aup_aur(aug.scores,
                                   ds.true_saliency[:s.occlusion_samples])
        return Outcome(samples=len(X), work=len(X), aup=aup, aur=aur,
                       digest=_digest(np.stack([occ.scores, aug.scores])),
                       info={})


class FoldHmm:
    """The user's workflow through the CLI: generation, training, all six
    explainers, metrics and file writing."""

    def __init__(self, sizes: Sizes, out_dir):
        self.sizes = sizes
        self.out_dir = out_dir

    def requested(self):
        s = self.sizes
        return dict(s.fold_dataset + s.fold_model + s.fold_metrics
                    + s.fold_explainers)

    def setup(self, seed):
        s = self.sizes
        os.makedirs(self.out_dir, exist_ok=True)
        conf = configparser.ConfigParser()
        for section, pairs in (("dataset", s.fold_dataset),
                               ("model", s.fold_model),
                               ("metrics", s.fold_metrics),
                               ("explainers.learned", s.fold_explainers)):
            conf[section] = {k: str(v) for k, v in pairs}
        path = os.path.join(self.out_dir, "fold_hmm.ini")
        with open(path, "w") as fh:
            conf.write(fh)
        return path, seed

    def fingerprint(self, state):
        with open(state[0], "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def call(self, state):
        config_path, seed = state
        run_dir = os.path.join(self.out_dir, "fold_hmm_run")
        shutil.rmtree(run_dir, ignore_errors=True)
        argv = ["run", "--experiment", "hmm", "--profile", "fast",
                "--folds", "1", "--seed", str(seed), "--config", config_path,
                "--out", run_dir, "--force"]
        try:
            # the CLI reports on stdout; keep it off the result line
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            if code != 0:
                raise CheckFailed(f"tempex run exited with {code}")
            self._check_config(os.path.join(run_dir, "config.ini"))
            results = os.path.join(run_dir, "hmm_results.csv")
            values = self._check_results(results)
            with open(results, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        samples = self.requested()["eval_samples"]
        return Outcome(
            samples=samples, work=samples,
            aup=float(np.mean([values[m, "aup"] for m in GUARD_METHODS])),
            aur=float(np.mean([values[m, "aur"] for m in GUARD_METHODS])),
            digest=digest,
            info={"learned_preservation_aup":
                  values["learned_preservation", "aup"],
                  "learned_preservation_aur":
                  values["learned_preservation", "aur"]})

    def _check_config(self, path):
        """Every requested size must reach the fold: a key the harness
        does not read would otherwise be dropped silently."""
        conf = configparser.ConfigParser()
        conf.read(path)
        resolved = conf["resolved"] if conf.has_section("resolved") else {}
        wrong = {k: resolved.get(k) for k, v in self.requested().items()
                 if resolved.get(k) != str(v)}
        if wrong:
            raise CheckFailed(f"config keys did not take effect: {wrong}")

    def _check_results(self, path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != CSV_HEADER:
            raise CheckFailed(f"results header {rows[:1]}")
        body = rows[1:]
        want = {(m, k) for m in FOLD_METHODS for k in GT_METRICS}
        got = [(r[0], r[1]) for r in body]
        if len(body) != len(want) or set(got) != want:
            raise CheckFailed(f"results rows {len(body)}, expected "
                              f"{len(want)} (methods x metrics)")
        values = {(r[0], r[1]): float(r[4]) for r in body}
        if not all(np.isfinite(v) for v in values.values()):
            raise CheckFailed("non-finite value in results CSV")
        return values


def make(name, sizes, out_dir):
    if name == "learned_hmm":
        return LearnedHmm(sizes)
    if name == "occlusion_icu":
        return OcclusionIcu(sizes)
    if name == "fold_hmm":
        return FoldHmm(sizes, out_dir)
    raise ValueError(f"unknown workload {name!r}")
