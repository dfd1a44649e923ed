"""Experiment harness: data -> classifier -> explainers -> metrics -> files.

A run produces, inside its output directory, a per-fold CSV
(`<experiment>_results.csv`, one row per method/metric/fold), an aggregated
CSV with mean and std over folds, trained classifier checkpoints, and SVG
line charts for the metrics that carry a mask-fraction axis.

Every fold re-seeds data generation and model training (seed + fold), so a
run is fully determined by its config. A run is one ordered list of tasks
on a pool of `jobs` processes: first every fold's data and classifier
(fold_data), then every fold's tasks (hmm_fold, icu_fold), fold by fold and
heaviest first within a fold, each one explainer with its metric rows.
Every explainer runs in one process, and each fold's rows are written in a
fixed method order, so the job count never changes a byte. CLAIMS holds
the paper's claims; evaluate_claims checks them against a run directory.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import glob
import operator
import os
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import data, explainers as ex, metrics as mt, nets
from .perturbation import BIDIRECTIONAL, UNIDIRECTIONAL, ZERO

HMM = "hmm"
ICU = "icu_like"
EXPERIMENTS = (HMM, ICU)

FAST = "fast"
FULL = "full"

LAMBDAS = (0.01, 0.1, 1.0, 10.0, 100.0)
FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
SUBSTITUTIONS = (mt.TIME_AVERAGE, mt.ZEROS)
# the fixed-perturbation baselines of both experiments, in row order
BASELINES = ("occlusion", "augmented_occlusion", "integrated_gradients")


def grid_method(l1, l2):
    """Method name of one cell of the lambda grid."""
    return f"learned_l1={l1:g}_l2={l2:g}"


CSV_HEADER = ["method", "metric", "fraction", "substitution", "mean",
              "std", "fold"]

# per (experiment, profile) sizing; everything is overridable via config
PROFILES = {
    (HMM, FAST): dict(n_series=200, n_steps=100, eval_samples=100,
                      iterations=100, epochs=20, hidden=32),
    (HMM, FULL): dict(n_series=1000, n_steps=200, eval_samples=200,
                      iterations=500, epochs=40, hidden=32),
    (ICU, FAST): dict(n_series=200, n_steps=48, eval_samples=100,
                      iterations=100, epochs=20, hidden=64),
    (ICU, FULL): dict(n_series=800, n_steps=48, eval_samples=150,
                      iterations=500, epochs=30, hidden=200),
}


class StageError(RuntimeError):
    """Failure inside a named pipeline stage; partial results stay on disk."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # the default reduce replays self.args (the formatted message) into
        # __init__, which takes two arguments; a worker's error would then
        # fail to unpickle in the parent and surface as BrokenProcessPool
        return StageError, (self.stage, self.cause)


@dataclass
class ExperimentConfig:
    experiment: str = HMM
    profile: str = FAST
    folds: int = 5
    seed: int = 0
    out_dir: str = "runs/out"
    # processes for the run's tasks: each fold's data and training, then
    # each fold's explainers, one task per method
    jobs: int = field(default_factory=ex.usable_cpus)
    ablation: str = None  # "lambda" for the 5x5 grid (HMM only)
    compare_generators: bool = False
    # scalar overrides for the PROFILES entry (n_series, epochs, ...)
    overrides: dict = field(default_factory=dict)

    def settings(self):
        key = (self.experiment, self.profile)
        if key not in PROFILES:
            raise ValueError(f"no profile {self.profile!r} for experiment "
                             f"{self.experiment!r}")
        s = dict(PROFILES[key])
        s.update(self.overrides)
        return s


def _stage(name):
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, etype, exc, tb):
            if exc is not None and not isinstance(exc, StageError):
                raise StageError(name, exc) from exc
            return False

    return _Ctx()


# ---------------------------------------------------------------------------
# fold tasks


def fold_data(cfg: ExperimentConfig, fold: int):
    """The first phase of a fold, under the stages "generate" and "train":
    (eval subset, frozen classifier, every series), with the data and the
    classifier seeded by seed + fold."""
    s = cfg.settings()
    fold_seed = cfg.seed + fold
    with _stage("generate"):
        if cfg.experiment == HMM:
            ds = data.generate_hmm(data.HmmConfig(
                n_series=s["n_series"], n_steps=s["n_steps"],
                seed=fold_seed))
        else:
            ds = data.generate_icu_like(s["n_series"], n_steps=s["n_steps"],
                                        seed=fold_seed)
    with _stage("train"):
        readout = nets.PER_TIMESTEP if cfg.experiment == HMM \
            else nets.FINAL_STEP
        model = nets.init_classifier(np.random.default_rng(fold_seed),
                                     ds.X.shape[2], s["hidden"],
                                     readout=readout)
        model, _ = nets.train_classifier(
            ds, model, nets.TrainConfig(epochs=s["epochs"], seed=fold_seed))
    sub = ds.subset(np.arange(min(s["eval_samples"], ds.n_samples)))
    return sub, model.freeze(), ds.X


def _explain_tasks(stages, rows):
    """A (method, fn) task per (method, explain) stage: fn() runs explain()
    under _stage("explain:" + method), with its explainer on workers=1, and
    returns rows(method, scores), computed under _stage("metrics")."""
    def task(method, explain):
        def run():
            with _stage(f"explain:{method}"):
                scores = explain()
            with _stage("metrics"):
                return rows(method, scores)
        return method, run

    return [task(method, explain) for method, explain in stages]


def _baseline_stages(X, model, reference, seed):
    """The BASELINES of a fold as stages, heaviest first."""
    return [
        ("augmented_occlusion", lambda: ex.augmented_occlusion(
            X, model, reference, seed=seed, workers=1).scores),
        ("integrated_gradients", lambda: ex.integrated_gradients(
            X, model, steps=128).scores),
        ("occlusion", lambda: ex.occlusion(X, model, workers=1).scores),
    ]


def hmm_fold(cfg: ExperimentConfig, fold: int, sub, model, X):
    """The tasks of one HMM fold on fold_data's output, heaviest first, and
    its methods in row order. Each task returns its method's rows of
    ground-truth metrics."""
    fold_seed = cfg.seed + fold
    it = cfg.settings()["iterations"]

    def learned(**kw):
        return ex.explain_learned(
            sub.X, model,
            ex.ExplainerConfig(iterations=it, seed=fold_seed, **kw),
            workers=1).scores

    def rows(method, scores):
        rep = mt.ground_truth_report(scores, sub.true_saliency)
        return [[method, metric, "", "", getattr(rep, metric), fold]
                for metric in ("aup", "aur", "information", "entropy")]

    if cfg.ablation == "lambda":
        stages = [(grid_method(l1, l2), partial(learned, lambda1=l1,
                                                 lambda2=l2))
                  for l1 in LAMBDAS for l2 in LAMBDAS]
        return _explain_tasks(stages, rows), [name for name, _ in stages]
    augmented, *baselines = _baseline_stages(sub.X, model, X, fold_seed)
    stages = [
        ("learned_preservation", learned),
        # in the deletion game the mask stays at 1 on unimportant cells
        # and is driven to 0 where removal destroys the prediction, so the
        # importance is 1 - m
        ("learned_deletion", lambda: 1.0 - learned(mode=ex.DELETION)),
        augmented,
        ("dynamask", lambda: ex.explain_dynamask(
            sub.X, model, iterations=it, workers=1).scores),
        *baselines,
    ]
    return _explain_tasks(stages, rows), [
        "learned_preservation", "learned_deletion", "dynamask", *BASELINES]


def icu_fold(cfg: ExperimentConfig, fold: int, sub, model, X):
    """The tasks of one ICU-like fold on fold_data's output, heaviest
    first, and its methods in row order: masked-prediction metrics over
    fractions and substitutions per method, then the front/back masking
    curve, which is computed here, under the stage "metrics", so that a
    fold it fails on runs no explainer."""
    s = cfg.settings()
    fold_seed = cfg.seed + fold
    generators = [("learned_preservation", BIDIRECTIONAL)]
    if cfg.compare_generators:
        generators += [("learned_gru", UNIDIRECTIONAL),
                       ("learned_zeros", ZERO)]

    def learned(kind):
        return ex.explain_learned(
            sub.X, model, ex.ExplainerConfig(
                generator=kind, iterations=s["iterations"], seed=fold_seed),
            workers=1).scores

    def rows(method, scores):
        out = []
        for frac in s.get("fractions", FRACTIONS):
            for subst in SUBSTITUTIONS:
                rep = mt.masked_prediction_metrics(model, sub, scores, frac,
                                                   subst)
                for metric in ("accuracy", "cross_entropy",
                               "comprehensiveness", "sufficiency"):
                    out.append([method, metric, frac, subst,
                                getattr(rep, metric), fold])
        return out

    # the curve needs no saliency map, and it fails on a classifier that
    # predicts no sample positive, so it runs here, before any explainer
    with _stage("metrics"):
        T = sub.X.shape[1]
        curve = mt.positive_rate_masking_curve(model, sub,
                                               [0, T // 4, T // 2, T])
        curve_rows = []
        for i, k in enumerate(curve["k"]):
            curve_rows.append(["masking_curve", "positive_rate_mask_first",
                               k / T, mt.ZEROS, curve["mask_first"][i], fold])
            curve_rows.append(["masking_curve", "positive_rate_mask_last",
                               k / T, mt.ZEROS, curve["mask_last"][i], fold])

    tasks = _explain_tasks(
        [(name, partial(learned, kind)) for name, kind in generators]
        + _baseline_stages(sub.X, model, X, fold_seed), rows)
    tasks.append(("masking_curve", lambda: curve_rows))
    methods = [name for name, _ in generators] + [*BASELINES,
                                                  "masking_curve"]
    return tasks, methods


# ---------------------------------------------------------------------------
# run orchestration


def _fmt(v):
    if v == "":
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_rows(path, rows, append=False):
    """Write rows of the 7 CSV_HEADER fields to path after the header, or
    append them to the file there: a fold's rows with std "" and their
    fold, aggregate's with their std and fold "all"."""
    mode = "a" if append and os.path.exists(path) else "w"
    with open(path, mode, newline="") as fh:
        w = csv.writer(fh)
        if mode == "w":
            w.writerow(CSV_HEADER)
        w.writerows([method, metric, _fmt(frac), subst, _fmt(mean),
                     _fmt(std), fold]
                    for method, metric, frac, subst, mean, std, fold in rows)


def load_results(path):
    """Rows of the results CSV as dicts with floats where applicable."""
    out = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rec["mean"] = float(rec["mean"])
            rec["std"] = float(rec["std"]) if rec["std"] else None
            rec["fraction"] = float(rec["fraction"]) if rec["fraction"] \
                else None
            out.append(rec)
    return out


def aggregate(rows):
    """Group per-fold rows by (method, metric, fraction, substitution) and
    reduce to mean and sample std over folds."""
    groups = {}
    for method, metric, frac, subst, value, _fold in rows:
        groups.setdefault((method, metric, frac, subst), []).append(value)
    agg = []
    for key in sorted(groups, key=lambda k: tuple(str(x) for x in k)):
        vals = np.asarray(groups[key], dtype=np.float64)
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        agg.append(list(key) + [float(vals.mean()), std])
    return agg


def _write_aggregated(path, agg):
    """aggregate's rows, as fold "all"."""
    _write_rows(path, [(*row, "all") for row in agg])


def run_experiment(cfg: ExperimentConfig):
    """Execute all folds and write results, aggregates and charts.

    The tasks run on explainers._map_blocks with cfg.jobs processes, in
    two phases: fold_data for every fold, then the tasks of hmm_fold or
    icu_fold for every fold, in fold order. A fold's rows and classifier
    are written as soon as its tasks are back.

    Returns the path of the per-fold results CSV. Raises StageError with
    the failing stage name. A generate or train failure, or an ICU-like
    fold's masking curve failing (icu_fold), stops the run before any
    fold's rows are written; after a later failure, the rows of the folds
    completed before it are on disk.
    """
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    os.makedirs(os.path.join(cfg.out_dir, "models"), exist_ok=True)
    results_path = os.path.join(cfg.out_dir, f"{cfg.experiment}_results.csv")

    # phase 1: every fold's data and classifier; phase 2: every fold's
    # tasks, fold by fold. The tasks are closures, so they reach the
    # workers by fork, and only their indices are pickled
    folds = list(ex._map_blocks(partial(fold_data, cfg),
                                [(f,) for f in range(cfg.folds)], cfg.jobs))
    build = hmm_fold if cfg.experiment == HMM else icu_fold
    plans = [build(cfg, f, *fd) for f, fd in enumerate(folds)]
    fns = [fn for tasks, _ in plans for _, fn in tasks]
    all_rows = []
    # closing shuts the pool down as soon as the last fold is written
    with contextlib.closing(ex._map_blocks(
            lambda i: fns[i](), [(i,) for i in range(len(fns))],
            cfg.jobs)) as results:
        for fold, ((tasks, methods), (_, model, _)) in enumerate(
                zip(plans, folds)):
            by_method = {method: next(results) for method, _ in tasks}
            rows = [row for method in methods for row in by_method[method]]
            # each fold is written as soon as its tasks are back, so a
            # later failure keeps the earlier folds on disk
            _write_rows(results_path, [(*row[:5], "", row[5]) for row in rows],
                        append=fold > 0)
            nets.save_classifier(model, os.path.join(
                cfg.out_dir, "models", f"fold{fold}.json"))
            all_rows.extend(rows)

    with _stage("aggregate"):
        agg = aggregate(all_rows)
        _write_aggregated(
            os.path.join(cfg.out_dir, f"{cfg.experiment}_aggregated.csv"),
            agg)
    with _stage("charts"):
        write_charts(cfg.out_dir, cfg.experiment, agg)
    return results_path


def remove_run_files(out_dir):
    """Delete the results, aggregates, charts and classifiers that a run
    writes to out_dir, and no other file."""
    patterns = [f"{exp}_{kind}" for exp in EXPERIMENTS
                for kind in ("results.csv", "aggregated.csv", "*.svg")]
    for pattern in patterns + [os.path.join("models", "fold*.json")]:
        for path in glob.glob(os.path.join(glob.escape(out_dir), pattern)):
            os.remove(path)


# ---------------------------------------------------------------------------
# paper claims, checked by `tempex report` and by the acceptance tests
# (tests/test_acceptance.py) whose names they carry

PASS, FAIL, MISSING = "pass", "fail", "missing rows"
# rule(agg, folds, threshold) over read_run's tables returns (holds,
# message with the observed numbers); a row the run lacks raises KeyError
Claim = namedtuple("Claim", "id test threshold rule")
ClaimVerdict = namedtuple("ClaimVerdict", "id test verdict message")


def read_run(run_dir):
    """(experiment, aggregated, per_fold) of the run in run_dir: its
    aggregated rows (dicts) and per-fold {fold: value}, keyed by (method,
    metric), plus (fraction, substitution) for rows that have a fraction.
    The experiment is the one the run's config.ini names, else the first
    with an aggregated CSV. Raises FileNotFoundError if run_dir has no
    aggregated CSV of it."""
    config = configparser.ConfigParser()
    config.read(os.path.join(run_dir, "config.ini"))
    named = config.get("run", "experiment", fallback=None)
    candidates = (named,) if named else EXPERIMENTS
    for exp in candidates:
        if os.path.exists(os.path.join(run_dir, f"{exp}_aggregated.csv")):
            break
    else:
        expected = ", ".join(f"{e}_aggregated.csv" for e in candidates)
        raise FileNotFoundError(f"no aggregated results in {run_dir!r}; "
                                f"expected one of: {expected}")
    agg, folds = {}, {}
    for kind in ("aggregated", "results"):
        path = os.path.join(run_dir, f"{exp}_{kind}.csv")
        for r in load_results(path) if os.path.exists(path) else ():
            key = (r["method"], r["metric"])
            if r["fraction"] is not None:
                key += (r["fraction"], r["substitution"])
            if r["fold"] == "all":
                agg[key] = r
            else:
                folds.setdefault(key, {})[int(r["fold"])] = r["mean"]
    return exp, agg, folds


def _diff(op, a, b=None, msg=""):
    """Rule: op(mean(a) - mean(b), threshold), with mean(b) = 0 if b is
    None; `msg` formats the failure from a, b and t."""
    def rule(agg, _folds, t):
        x, y = agg[a]["mean"], agg[b]["mean"] if b else 0.0
        return op(x - y, t), msg.format(a=x, b=y, t=t)
    return rule


def _grid_best(agg, _folds, t):
    """Rule: the best aup*aur of the lambda grid is at l1 == t, l2 >= t."""
    score = {(l1, l2): agg[(grid_method(l1, l2), "aup")]["mean"]
             * agg[(grid_method(l1, l2), "aur")]["mean"]
             for l1 in LAMBDAS for l2 in LAMBDAS}
    l1, l2 = max(score, key=score.get)
    return l1 == t and l2 >= t, (f"best aup*aur at l1={l1:g}, l2={l2:g}, "
                                 f"not at l1={t:g}, l2>={t:g}")


def _ablation(hi, lo, subst, min_folds):
    """Rule: over >= min_folds folds, the per-fold CE differences hi - lo
    at 20% masking have a mean >= -threshold standard deviations."""
    def rule(_agg, folds, t):
        a, b = (folds[(m, "cross_entropy", 0.2, subst)] for m in (hi, lo))
        common = sorted(a.keys() & b.keys())
        tag = f"ce {hi} vs {lo} ({subst})"
        if len(common) < min_folds:
            return False, f"{tag}: {len(common)} folds, need {min_folds}"
        diff = np.array([a[f] - b[f] for f in common])
        tol = t * diff.std(ddof=1)
        return diff.mean() >= -tol, (
            f"{tag}: mean difference {diff.mean():.4f} < -{tol:.4f} "
            f"({t:g} std over {len(common)} folds)")
    return rule


def _late_masking(base_rate):
    """Rule: from a positive rate of base_rate, masking the last quarter of
    the steps lowers it by >= threshold times the first quarter's drop."""
    def rule(agg, _folds, t):
        base, first, last = (
            agg[("masking_curve", f"positive_rate_mask_{which}", frac,
                 mt.ZEROS)]["mean"]
            for which, frac in (("first", 0.0), ("first", 0.25),
                                ("last", 0.25)))
        first, last = base - first, base - last
        return base == base_rate and last > 0 and last >= t * first, (
            f"masking the last T/4 does not reduce the positive rate {t:g}x "
            f"more than the first T/4 (base rate {base:.3f}, must be "
            f"{base_rate:g}; drops {last:.3f} last, {first:.3f} first)")
    return rule


_LP, _LD, _DM = "learned_preservation", "learned_deletion", "dynamask"
_GT, _GE, _LT = operator.gt, operator.ge, operator.lt

CLAIMS = (
    Claim("hmm.learned_aup", "test_hmm_full_learned_aup_aur", 0.80, _diff(
        _GE, (_LP, "aup"), msg="learned preservation aup {a:.3f} < {t}")),
    Claim("hmm.learned_aur", "test_hmm_full_learned_aup_aur", 0.70, _diff(
        _GE, (_LP, "aur"), msg="learned preservation aur {a:.3f} < {t}")),
    *(Claim(f"hmm.beats_dynamask.{m}", "test_hmm_full_beats_dynamask", 0.0,
            _diff(op, (_LP, m), (_DM, m), f"learned preservation does not "
                  f"beat dynamask on {m} ({{a:.3f}} vs {{b:.3f}})"))
      for m, op in (("aup", _GT), ("information", _GT), ("entropy", _LT))),
    Claim("hmm.dynamask_aur_margin", "test_hmm_full_beats_dynamask", -0.05,
          _diff(_GE, (_LP, "aur"), (_DM, "aur"), "learned preservation aur "
                "{a:.3f} more than {t} below dynamask {b:.3f}")),
    Claim("hmm.deletion_aur_above", "test_hmm_full_deletion_vs_preservation",
          0.0, _diff(_GT, (_LD, "aur"), (_LP, "aur"),
                     "deletion aur {a:.3f} not above preservation {b:.3f}")),
    Claim("hmm.deletion_aup_gap", "test_hmm_full_deletion_vs_preservation",
          0.3, _diff(_GE, (_LP, "aup"), (_LD, "aup"), "deletion aup {b:.3f} "
                     "not >= {t} below preservation {a:.3f}")),
    Claim("hmm_grid.best_aup_aur", "test_lambda_grid_sweet_spot", 1.0,
          _grid_best),
    *(Claim(f"hmm_grid.aur_l1={l1:g}_l2={l2:g}",
            "test_lambda_grid_sweet_spot", 0.3,
            _diff(_LT, (grid_method(l1, l2), "aur"),
                  msg=f"l1={l1:g}, l2={l2:g}: aur {{a:.3f}} >= {{t}}"))
      for l1 in LAMBDAS if l1 >= 10.0 for l2 in LAMBDAS),
    # at 20% masking the learned mask beats each baseline: higher CE and
    # comprehensiveness, lower sufficiency and accuracy
    *(Claim(f"icu.{m}_vs_{other}.{subst}", "test_icu_orderings_at_20pct",
            0.0, _diff(op, (_LP, m, 0.2, subst), (other, m, 0.2, subst),
                       f"{m} not better than {other} ({subst}): "
                       "{a:.3f} vs {b:.3f}"))
      for subst in SUBSTITUTIONS
      for other in BASELINES
      for m, op in (("cross_entropy", _GT), ("comprehensiveness", _GT),
                    ("sufficiency", _LT), ("accuracy", _LT))),
    # GRU >= Bi-GRU >= zeros generator, ties within one std over folds
    *(Claim(f"icu.ablation_{hi}_vs_{lo}.{subst}",
            "test_icu_generator_ablation_ce", 1.0,
            _ablation(hi, lo, subst, min_folds=5))
      for subst in SUBSTITUTIONS
      for hi, lo in (("learned_gru", _LP), (_LP, "learned_zeros"))),
    Claim("icu.late_masking", "test_icu_late_masking_dominates", 3.0,
          _late_masking(base_rate=1.0)),
)


def evaluate_claims(run_dir):
    """A ClaimVerdict per entry of CLAIMS, in table order, from the
    aggregated and per-fold CSVs in run_dir (see read_run)."""
    _, agg, folds = read_run(run_dir)
    out = []
    for c in CLAIMS:
        try:
            ok, msg = c.rule(agg, folds, c.threshold)
            verdict = PASS if ok else FAIL
        except KeyError as e:
            verdict, msg = MISSING, f"no row {e.args[0]}"
        out.append(ClaimVerdict(c.id, c.test, verdict, msg))
    return out


# ---------------------------------------------------------------------------
# SVG line charts (no plotting dependency; fixed palette, one polyline per
# method, metric on y, mask fraction on x)

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f")


def write_svg_chart(path, title, series):
    """series: {label: (xs, ys)}; writes a self-contained SVG line chart
    over the mask fraction."""
    W, H = 640, 400
    ml, mr, mt_, mb = 60, 160, 40, 50
    pw, ph = W - ml - mr, H - mt_ - mb
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return mt_ + (1.0 - (y - y0) / (y1 - y0)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{ml}" y="24" font-size="14" font-family="sans-serif">'
        f'{title}</text>',
        f'<line x1="{ml}" y1="{mt_ + ph}" x2="{ml + pw}" y2="{mt_ + ph}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt_}" x2="{ml}" y2="{mt_ + ph}" '
        'stroke="black"/>',
        f'<text x="{ml + pw / 2:.0f}" y="{H - 12}" font-size="12" '
        f'font-family="sans-serif" text-anchor="middle">mask fraction</text>',
    ]
    for frac_pos in (0.0, 0.5, 1.0):
        xv = x0 + frac_pos * (x1 - x0)
        yv = y0 + frac_pos * (y1 - y0)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{mt_ + ph + 18}" font-size="10" '
            f'font-family="sans-serif" text-anchor="middle">{xv:.3g}</text>')
        parts.append(
            f'<text x="{ml - 6}" y="{sy(yv) + 4:.1f}" font-size="10" '
            f'font-family="sans-serif" text-anchor="end">{yv:.3g}</text>')
    for i, (label, (xs, ys)) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = mt_ + 14 + 16 * i
        parts.append(f'<line x1="{ml + pw + 8}" y1="{ly - 4}" '
                     f'x2="{ml + pw + 28}" y2="{ly - 4}" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + pw + 32}" y="{ly}" font-size="10" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def write_charts(out_dir, experiment, agg):
    """One chart per metric that has a fraction axis, lines per method."""
    by_metric = {}
    for method, metric, frac, subst, mean, _std in agg:
        if frac == "" or frac is None:
            continue
        key = (metric, subst)
        by_metric.setdefault(key, {}).setdefault(method, []).append(
            (float(frac), mean))
    for (metric, subst), methods in by_metric.items():
        series = {}
        for method, pts in methods.items():
            pts = sorted(pts)
            series[method] = ([p[0] for p in pts], [p[1] for p in pts])
        name = f"{experiment}_{metric}_{subst}.svg" if subst else \
            f"{experiment}_{metric}.svg"
        write_svg_chart(os.path.join(out_dir, name),
                        f"{metric} vs mask fraction ({subst})", series)
