"""Benchmark data: the 2-state hidden-Markov benchmark with known salient
cells, a synthetic ICU-like stand-in with a planted late-time signal, and a
simple archive format.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .autodiff import _sigmoid


@dataclass
class TimeSeriesDataset:
    X: np.ndarray  # (N, T, n) float64
    y: np.ndarray  # (N, T) or (N,) int labels
    true_saliency: np.ndarray | None = None  # (N, T, n) bool
    feature_names: list[str] = field(default_factory=list)

    @property
    def n_samples(self):
        return self.X.shape[0]

    @property
    def n_steps(self):
        return self.X.shape[1]

    @property
    def n_features(self):
        return self.X.shape[2]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.X.ndim != 3:
            raise ValueError(f"X must be (N, T, n), got {self.X.shape}")
        if self.y.shape[0] != self.X.shape[0]:
            raise ValueError("X and y disagree on sample count")
        if self.true_saliency is not None and \
                self.true_saliency.shape != self.X.shape:
            raise ValueError("true_saliency shape must match X")
        if not self.feature_names:
            self.feature_names = [f"f{i}" for i in range(self.X.shape[2])]

    def subset(self, idx):
        return TimeSeriesDataset(
            X=self.X[idx],
            y=self.y[idx],
            true_saliency=None if self.true_saliency is None
            else self.true_saliency[idx],
            feature_names=list(self.feature_names),
        )


# ---------------------------------------------------------------------------
# HMM benchmark


# the benchmark's two hidden states: their transition matrix (rows sum to
# 1), and their emission means and covariances over the three features
HMM_TRANSITION = np.array([[0.9, 0.1], [0.1, 0.9]])
HMM_MU = np.array([[0.1, 1.6, 0.5], [-0.1, -0.4, -1.5]])
HMM_SIGMA = np.stack([np.array([[1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.2],
                                [0.0, 0.2, 1.0]])] * 2)


@dataclass
class HmmConfig:
    n_series: int = 1000
    n_steps: int = 200
    seed: int = 0


def hmm_stationary_distribution(transition):
    vals, vecs = np.linalg.eig(transition.T)
    k = np.argmin(np.abs(vals - 1.0))
    pi = np.real(vecs[:, k])
    return pi / pi.sum()


def _first_cdf(p):
    """The first entry of p's CDF, normalised as rng.choice normalises it."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf[0]


def generate_hmm(config: HmmConfig) -> TimeSeriesDataset:
    """Two hidden states (HMM_TRANSITION); emissions Gaussian per state
    (HMM_MU, HMM_SIGMA); label at each step drawn Bernoulli(sigmoid of
    feature 2) in state 0 and (feature 3) in state 1. The generating
    feature is the true salient cell of that step; feature 1 is never
    salient.
    """
    N, T = config.n_series, config.n_steps
    states = np.empty((N, T), dtype=np.int64)
    normals = np.empty((N, T, 3))
    uniforms = np.empty((N, T))
    # one independent stream per series so generation order is irrelevant
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(config.seed).spawn(N)]
    # rng.choice(2, p=p) draws u = rng.random() and picks state 1 if u is
    # at least the normalised CDF's first entry; that one draw per step
    # gives the same states in a tenth of the time
    first_cut, *cuts = (_first_cdf(p) for p in
                        (hmm_stationary_distribution(HMM_TRANSITION),
                         *HMM_TRANSITION))
    # the loop only draws, in each cell's order: state, emission normals,
    # label uniform; the arithmetic runs over all cells after it
    for i, rng in enumerate(streams):
        s = int(rng.random() >= first_cut)
        for t in range(T):
            if t > 0:
                s = int(rng.random() >= cuts[s])
            states[i, t] = s
            rng.standard_normal(out=normals[i, t])
            uniforms[i, t] = rng.random()
    chol = np.stack([np.linalg.cholesky(HMM_SIGMA[s]) for s in range(2)])
    X = HMM_MU[states] + (chol[states] @ normals[..., None])[..., 0]
    driver = np.where(states == 0, X[..., 1], X[..., 2])
    y = (uniforms < _sigmoid(driver)).astype(np.int64)
    sal = np.zeros((N, T, 3), dtype=bool)
    sal[:, :, 1] = states == 0
    sal[:, :, 2] = states == 1
    ds = TimeSeriesDataset(X=X, y=y, true_saliency=sal,
                           feature_names=["f1", "f2", "f3"])
    ds.states = states
    return ds


# ---------------------------------------------------------------------------
# ICU-like synthetic benchmark (stand-in for restricted clinical data)


ICU_SIGNAL_CHANNELS = (0, 1)
# the channels (one standardized feature each), their AR(1) coefficient,
# and the label's logit per unit of the planted score
ICU_FEATURES = ("heart_rate", "sys_bp", "resp_rate", "temp", "spo2",
                "glucose", "lactate", "wbc")
ICU_RHO = 0.8
ICU_SIGNAL_SCALE = 4.0
# the label reads the last third of the steps, which is empty below 3
ICU_MIN_STEPS = 3


def generate_icu_like(n_samples, n_steps=48, seed=0):
    """Autocorrelated standardized channels (ICU_FEATURES); the binary
    sequence label is driven only by channels 0 and 1 averaged over the
    final third of the window, so late-time cells on those channels are
    the planted truth. ValueError below ICU_MIN_STEPS steps.
    """
    if n_steps < ICU_MIN_STEPS:
        raise ValueError(f"n_steps is {n_steps}; the label reads the last "
                         f"third of the steps, so it must be >= "
                         f"{ICU_MIN_STEPS}")
    rng = np.random.default_rng(seed)
    N, T, n = n_samples, n_steps, len(ICU_FEATURES)
    X = np.empty((N, T, n))
    # stationary AR(1): marginal N(0, 1) at every step
    X[:, 0, :] = rng.standard_normal((N, n))
    innov = rng.standard_normal((N, T - 1, n)) * np.sqrt(1.0 - ICU_RHO**2)
    for t in range(1, T):
        X[:, t, :] = ICU_RHO * X[:, t - 1, :] + innov[:, t - 1, :]
    late = slice(T - T // 3, T)
    score = X[:, late, ICU_SIGNAL_CHANNELS[0]].mean(axis=1) \
        + X[:, late, ICU_SIGNAL_CHANNELS[1]].mean(axis=1)
    y = (rng.random(N) < _sigmoid(ICU_SIGNAL_SCALE * score)).astype(np.int64)
    sal = np.zeros((N, T, n), dtype=bool)
    for c in ICU_SIGNAL_CHANNELS:
        sal[:, late, c] = True
    return TimeSeriesDataset(X=X, y=y, true_saliency=sal,
                             feature_names=list(ICU_FEATURES))


# ---------------------------------------------------------------------------
# archive format: zip with a JSON header + raw little-endian f64 payloads


def save_dataset(dataset: TimeSeriesDataset, path):
    header = {
        "version": 1,
        "shape": list(dataset.X.shape),
        "feature_names": dataset.feature_names,
        "label_shape": list(dataset.y.shape),
        "has_saliency": dataset.true_saliency is not None,
    }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("header.json", json.dumps(header))
        zf.writestr("X.f64", dataset.X.astype("<f8").tobytes())
        zf.writestr("y.f64", dataset.y.astype("<f8").tobytes())
        if dataset.true_saliency is not None:
            zf.writestr("saliency.u8",
                        dataset.true_saliency.astype(np.uint8).tobytes())


def load_dataset(path):
    with zipfile.ZipFile(path) as zf:
        header = json.loads(zf.read("header.json"))
        if header.get("version") != 1:
            raise ValueError(f"unsupported archive version {header.get('version')}")
        shape = tuple(header["shape"])
        X = np.frombuffer(zf.read("X.f64"), dtype="<f8").reshape(shape)
        y = np.frombuffer(zf.read("y.f64"), dtype="<f8") \
            .reshape(tuple(header["label_shape"])).astype(np.int64)
        sal = None
        if header["has_saliency"]:
            sal = np.frombuffer(zf.read("saliency.u8"),
                                dtype=np.uint8).reshape(shape).astype(bool)
    return TimeSeriesDataset(X=X.copy(), y=y, true_saliency=sal,
                             feature_names=header["feature_names"])
