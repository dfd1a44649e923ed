"""Evaluation metrics.

Ground-truth metrics (AUP, AUR, mask information, mask entropy) compare
saliency scores against known salient cells. Model-behavior metrics
(accuracy, cross-entropy, comprehensiveness, sufficiency) compare the
classifier's predictions before and after masking the highest-scored
cells. Aggregation helpers produce per-feature / per-time importance
profiles and the front/back masking curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import ClassifierParams, predict_proba

EPS = 1e-6

TIME_AVERAGE = "time_average"
ZEROS = "zeros"


@dataclass
class GroundTruthReport:
    aup: float
    aur: float
    information: float
    entropy: float


@dataclass
class MaskedPredictionReport:
    accuracy: float
    cross_entropy: float
    comprehensiveness: float
    sufficiency: float
    fraction: float
    substitution: str


def aup_aur(scores, truth, grid=100):
    """Threshold-sweep precision/recall areas.

    Thresholds are score quantiles at `grid` uniform levels in (0, 1), so
    the result is invariant under strictly monotone rescaling of scores.
    Cells scoring strictly above the threshold count as predicted salient;
    thresholds that select nothing are skipped. A map that is 0 everywhere
    selects no cell at any threshold in (0, 1), as in the absolute-threshold
    AUR of Dynamask (the integral of R(tau) over tau in (0, 1)), and scores
    (0, 0). Any other constant map degenerates to the single all-predicted
    point (base rate, 1); the docs do not settle constant maps strictly
    between 0 and 1, which keep that convention. Non-finite scores raise
    ValueError.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    if not np.isfinite(s).all():  # NaN would make every threshold NaN
        raise ValueError("aup_aur: scores must be finite")
    a = np.asarray(truth, dtype=bool).ravel()
    if s.shape != a.shape:
        raise ValueError(f"scores {s.shape} vs truth {a.shape}")
    if a.all() or not a.any():
        raise ValueError("degenerate truth: needs both salient and "
                         "non-salient cells")
    total_true = a.sum()
    levels = (np.arange(grid) + 1) / (grid + 1)
    taus = np.quantile(s, levels)
    precisions, recalls = [], []
    for tau in taus:
        pred = s > tau
        hits = pred.sum()
        if hits == 0:
            continue
        tp = (pred & a).sum()
        precisions.append(tp / hits)
        recalls.append(tp / total_true)
    if not precisions:
        if not s.any():
            return 0.0, 0.0
        # nonzero constant scores: every cell predicted salient
        precisions = [total_true / a.size]
        recalls = [1.0]
    return float(np.mean(precisions)), float(np.mean(recalls))


def information(scores, truth):
    """-sum ln(1 - m) over the true salient cells (scores clipped away
    from 1 before the log)."""
    s = np.asarray(scores, dtype=np.float64)[np.asarray(truth, dtype=bool)]
    s = np.clip(s, EPS, 1.0 - EPS)
    return float(-np.log(1.0 - s).sum())


def entropy(scores, truth):
    """-sum [m ln m + (1 - m) ln(1 - m)] over the true salient cells,
    with 0 * ln 0 := 0 so saturated masks score exactly zero."""
    s = np.asarray(scores, dtype=np.float64)[np.asarray(truth, dtype=bool)]
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(s > 0, s * np.log(np.where(s > 0, s, 1.0)), 0.0) \
            + np.where(s < 1, (1 - s) * np.log(np.where(s < 1, 1 - s, 1.0)),
                       0.0)
    return float(-h.sum())


def ground_truth_report(scores, truth, grid=100):
    aup, aur = aup_aur(scores, truth, grid)
    return GroundTruthReport(aup=aup, aur=aur,
                             information=information(scores, truth),
                             entropy=entropy(scores, truth))


# ---------------------------------------------------------------------------
# model-behavior metrics


def top_cells_mask(scores, fraction):
    """Boolean (N, T, n): the top `fraction` of cells per sample by score.
    Ties break deterministically by flattened (t, feature) index;
    non-finite scores raise ValueError."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ValueError("top_cells_mask: scores must be finite")
    N, T, n = scores.shape
    k = int(round(fraction * T * n))
    if k < 1:
        raise ValueError(
            f"fraction {fraction} selects zero cells of {T * n}")
    sel = np.zeros((N, T * n), dtype=bool)
    idx = np.arange(T * n)
    for b in range(N):
        order = np.lexsort((idx, -scores[b].ravel()))
        sel[b, order[:k]] = True
    return sel.reshape(N, T, n)


def substitute(X, cells, substitution):
    """Replace flagged cells with the per-sample time average of their
    feature, or with zeros."""
    X = np.asarray(X, dtype=np.float64)
    if substitution == ZEROS:
        repl = np.zeros_like(X)
    elif substitution == TIME_AVERAGE:
        repl = np.broadcast_to(X.mean(axis=1, keepdims=True), X.shape)
    else:
        raise ValueError(f"unknown substitution {substitution!r}")
    return np.where(cells, repl, X)


def _binary_ce(p, q):
    q = np.clip(q, EPS, 1.0 - EPS)
    return -(p * np.log(q) + (1.0 - p) * np.log(1.0 - q))


def masked_prediction_metrics(classifier: ClassifierParams, dataset, scores,
                              fraction, substitution) -> MaskedPredictionReport:
    """Mask the per-sample top `fraction` of cells and compare predictions.

    Accuracy and cross-entropy and comprehensiveness mask the selected
    cells; sufficiency keeps only the selected cells (masks the
    complement). Comp/Suff are the signed original-minus-masked change in
    the probability of the originally predicted class.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    X, y = dataset.X, dataset.y
    cells = top_cells_mask(scores, fraction)
    p_orig = predict_proba(X, classifier)
    p_masked = predict_proba(substitute(X, cells, substitution), classifier)
    p_kept = predict_proba(substitute(X, ~cells, substitution), classifier)
    pred_class = (p_orig > 0.5).astype(np.float64)
    # probability assigned to the originally predicted class
    def class_prob(p):
        return np.where(pred_class == 1.0, p, 1.0 - p)
    comp = float(np.mean(class_prob(p_orig) - class_prob(p_masked)))
    suff = float(np.mean(class_prob(p_orig) - class_prob(p_kept)))
    acc = float(np.mean((p_masked > 0.5).astype(np.int64) == y))
    ce = float(np.mean(_binary_ce(p_orig, p_masked)))
    return MaskedPredictionReport(accuracy=acc, cross_entropy=ce,
                                  comprehensiveness=comp, sufficiency=suff,
                                  fraction=fraction,
                                  substitution=substitution)


# ---------------------------------------------------------------------------
# aggregation


def aggregate_importance(scores):
    """Mean and normal-approximation 95% CI of importance per feature
    (averaged over time) and per timestep (averaged over features); the
    sample is the unit of variation."""
    scores = np.asarray(scores, dtype=np.float64)
    N = scores.shape[0]
    if N < 2:
        raise ValueError("need at least 2 samples to aggregate")

    def stats(per_sample):  # (N, k) -> means, half-widths
        mean = per_sample.mean(axis=0)
        sem = per_sample.std(axis=0, ddof=1) / np.sqrt(N)
        return mean, 1.96 * sem

    feat_mean, feat_ci = stats(scores.mean(axis=1))
    time_mean, time_ci = stats(scores.mean(axis=2))
    return {
        "per_feature": {"mean": feat_mean, "ci95": feat_ci},
        "per_time": {"mean": time_mean, "ci95": time_ci},
    }


def positive_rate_masking_curve(classifier: ClassifierParams, dataset,
                                k_values):
    """Positive-prediction rate among originally positive samples when the
    first k (resp. last k) timesteps are zeroed out entirely."""
    X = dataset.X
    p = predict_proba(X, classifier)
    if p.ndim != 1:
        raise ValueError("masking curve expects a sequence-level classifier")
    positive = p > 0.5
    if not positive.any():
        raise ValueError("no positively predicted samples")
    Xp = X[positive]
    out = {"k": [], "mask_first": [], "mask_last": []}
    for k in k_values:
        out["k"].append(int(k))
        for key, sl in (("mask_first", slice(0, k)),
                        ("mask_last", slice(Xp.shape[1] - k, None))):
            mod = Xp.copy()
            if k > 0:
                mod[:, sl, :] = 0.0
            rate = float(np.mean(predict_proba(mod, classifier) > 0.5))
            out[key].append(rate)
    return out
