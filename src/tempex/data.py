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


@dataclass
class HmmConfig:
    n_series: int = 1000
    n_steps: int = 200
    transition: np.ndarray = None  # (2, 2), rows sum to 1
    mu: np.ndarray = None  # (2, 3) per-state emission means
    sigma: np.ndarray = None  # (2, 3, 3) per-state covariances
    seed: int = 0

    def __post_init__(self):
        if self.transition is None:
            self.transition = np.array([[0.9, 0.1], [0.1, 0.9]])
        if self.mu is None:
            self.mu = np.array([[0.1, 1.6, 0.5], [-0.1, -0.4, -1.5]])
        if self.sigma is None:
            base = np.eye(3)
            base[1, 2] = base[2, 1] = 0.2
            self.sigma = np.stack([base, base.copy()])
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.transition.shape != (2, 2):
            raise ValueError("transition must be (2, 2): two states")
        if (self.transition < 0).any():
            raise ValueError("transition probabilities must be non-negative")
        # within rng.choice's tolerance, the one generate_hmm's draws assume
        if (np.abs(self.transition.sum(axis=1) - 1.0)
                > np.sqrt(np.finfo(np.float64).eps)).any():
            raise ValueError("transition rows must sum to 1")
        if self.mu.shape != (2, 3):
            raise ValueError("mu must be (2, 3): two states, three features")
        for s in range(2):
            try:
                np.linalg.cholesky(self.sigma[s])
            except np.linalg.LinAlgError:
                raise ValueError(
                    f"covariance for state {s} is not positive-definite"
                ) from None


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
    """Two hidden states; emissions Gaussian per state; label at each step
    drawn Bernoulli(sigmoid of feature 2) in state 0 and (feature 3) in
    state 1. The generating feature is the true salient cell of that step;
    feature 1 is never salient.
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
                        (hmm_stationary_distribution(config.transition),
                         *config.transition))
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
    chol = np.stack([np.linalg.cholesky(config.sigma[s]) for s in range(2)])
    X = config.mu[states] + (chol[states] @ normals[..., None])[..., 0]
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


def generate_icu_like(n_samples, n_steps=48, n_features=8, seed=0,
                      rho=0.8, signal_scale=4.0):
    """Autocorrelated standardized channels; the binary sequence label is
    driven only by channels 0 and 1 averaged over the final third of the
    window, so late-time cells on those channels are the planted truth.
    """
    if n_features < 4:
        raise ValueError("need at least 4 features")
    rng = np.random.default_rng(seed)
    N, T, n = n_samples, n_steps, n_features
    X = np.empty((N, T, n))
    # stationary AR(1): marginal N(0, 1) at every step
    X[:, 0, :] = rng.standard_normal((N, n))
    innov = rng.standard_normal((N, T - 1, n)) * np.sqrt(1.0 - rho**2)
    for t in range(1, T):
        X[:, t, :] = rho * X[:, t - 1, :] + innov[:, t - 1, :]
    late = slice(T - T // 3, T)
    score = X[:, late, ICU_SIGNAL_CHANNELS[0]].mean(axis=1) \
        + X[:, late, ICU_SIGNAL_CHANNELS[1]].mean(axis=1)
    y = (rng.random(N) < _sigmoid(signal_scale * score)).astype(np.int64)
    sal = np.zeros((N, T, n), dtype=bool)
    for c in ICU_SIGNAL_CHANNELS:
        sal[:, late, c] = True
    names = ["heart_rate", "sys_bp", "resp_rate", "temp",
             "spo2", "glucose", "lactate", "wbc"][:n]
    names += [f"ch{i}" for i in range(len(names), n)]
    return TimeSeriesDataset(X=X, y=y, true_saliency=sal, feature_names=names)


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
