"""Perturbation operators.

Fixed operators blend the input with a deterministic temporal surrogate
(windowed averages, or a mask-bandwidth Gaussian blur). The learned
operator blends with the output of a trainable generator:

    phi(x, m) = m * x + (1 - m) * nn(x),    0 <= m <= 1

so m = 1 keeps the input exactly and m = 0 hands the cell to the
generator. Generators: all-zeros, a unidirectional GRU, or a
bidirectional GRU, each with a linear head back to the feature space. As
in the paper's phi, one generator serves every row it perturbs: its
parameters carry no row axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nets
from .autodiff import Tensor

WINDOW_AVERAGE = "window_average"
PAST_WINDOW_AVERAGE = "past_window_average"
GAUSSIAN_BLUR = "gaussian_blur"

ZERO = "zero"
UNIDIRECTIONAL = "unidirectional"
BIDIRECTIONAL = "bidirectional"


@dataclass
class FixedPerturbationConfig:
    kind: str = WINDOW_AVERAGE
    window: int = 2
    sigma_max: float = 2.0

    def __post_init__(self):
        if self.kind not in (WINDOW_AVERAGE, PAST_WINDOW_AVERAGE,
                             GAUSSIAN_BLUR):
            raise ValueError(f"unknown perturbation kind {self.kind!r}")
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if self.sigma_max <= 0:
            raise ValueError("sigma_max must be > 0")


def window_average(x, window):
    """Centered moving average along time. x: array (..., T, n); boundary
    windows truncate to valid indices and renormalize."""
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[-2]
    out = np.empty_like(x)
    for t in range(T):
        lo, hi = max(0, t - window), min(T, t + window + 1)
        out[..., t, :] = x[..., lo:hi, :].mean(axis=-2)
    return out


def past_window_average(x, window):
    """Trailing moving average over [t - window, t], truncated at the start."""
    x = np.asarray(x, dtype=np.float64)
    T = x.shape[-2]
    out = np.empty_like(x)
    for t in range(T):
        lo = max(0, t - window)
        out[..., t, :] = x[..., lo:t + 1, :].mean(axis=-2)
    return out


def _blur_weights(m, sigma_max, T):
    """Per-cell normalized kernel weights, differentiable in m.

    m: Tensor (..., T, n). Returns Tensor (..., T, n, T') of weights over
    source steps t'. sigma = sigma_max * (1 - m); tails beyond 4 sigma are
    truncated and the row renormalized.
    """
    dt = np.arange(T, dtype=np.float64)
    d2 = (dt[:, None] - dt[None, :]) ** 2  # (T, T')
    sigma = ad.mul(ad.sub(1.0, m), sigma_max)  # (..., T, n)
    # sigma = 0 (m = 1) degenerates to the identity row: the clamp keeps the
    # arithmetic finite and the 4-sigma cutoff removes every off-diagonal
    safe = ad.clamp(sigma, 1e-12, float(np.inf))
    inv2s2 = ad.div(1.0, ad.mul(ad.mul(safe, safe), 2.0))
    expanded = ad.reshape(inv2s2, inv2s2.shape + (1,))  # (..., T, n, 1)
    w = ad.exp(ad.neg(ad.mul(expanded, Tensor(d2.reshape(T, 1, T)))))
    sig = np.maximum(sigma.data, 1e-12)
    cutoff = np.sqrt(d2).reshape(
        (1,) * (m.ndim - 2) + (T, 1, T)) > 4.0 * sig[..., None]
    w = ad.mul(w, Tensor((~cutoff).astype(np.float64)))
    norm = ad.tsum(w, axis=-1, keepdims=True)
    return ad.div(w, norm)


def gaussian_blur(x, m, sigma_max):
    """Temporal Gaussian re-blur of x with bandwidth sigma_max * (1 - m).

    x: Tensor or array (..., T, n); m: Tensor (..., T, n). At m = 1 the
    output equals x exactly.
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    T, n = x.shape[-2], x.shape[-1]
    w = _blur_weights(m, sigma_max, T)  # (..., T, n, T')
    # out[..., t, i] = sum_t' w[..., t, i, t'] * x[..., t', i]
    xt = ad.reshape(_transpose_last2(x), x.shape[:-2] + (1, n, T))
    blurred = ad.tsum(ad.mul(w, xt), axis=-1)  # (..., T, n)
    # exact identity where m == 1 (no 0/0, no roundoff through the kernel)
    keep_x = Tensor((m.data >= 1.0).astype(np.float64))
    return ad.add(ad.mul(keep_x, x), ad.mul(ad.sub(1.0, keep_x), blurred))


def _transpose_last2(x):
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    data = np.transpose(x.data, axes)
    out = Tensor(data.copy())

    def backward(g):
        if x._tracked():
            x._accumulate(np.transpose(g, axes))

    return ad._record(out, (x,), backward)


def blend(x, m, surrogate):
    """m * x + (1 - m) * surrogate, per cell (Tensors)."""
    return ad.add(ad.mul(m, x), ad.mul(ad.sub(1.0, m), surrogate))


def fixed_surrogate(x, config: FixedPerturbationConfig):
    """The surrogate mu of a window kind for the array x, which does not
    depend on the mask; None for the blur kind, whose surrogate does."""
    if config.kind == GAUSSIAN_BLUR:
        return None
    average = window_average if config.kind == WINDOW_AVERAGE \
        else past_window_average
    return average(x, config.window)


def apply_fixed(x, m, config: FixedPerturbationConfig):
    """Fixed-surrogate perturbation. Window kinds blend per cell:
    m * x + (1 - m) * mu; the blur kind is the pure re-blur with
    mask-dependent bandwidth (no extra blend)."""
    x_arr = x.data if isinstance(x, Tensor) else np.asarray(x)
    if m.shape != x_arr.shape:
        raise ad.ShapeError(
            f"apply_fixed: mask {m.shape} vs input {x_arr.shape}"
        )
    if config.kind == GAUSSIAN_BLUR:
        return gaussian_blur(x, m, config.sigma_max)
    x_t = x if isinstance(x, Tensor) else Tensor(x_arr)
    return blend(x_t, m, Tensor(fixed_surrogate(x_arr, config)))


# ---------------------------------------------------------------------------
# learned perturbation


class Mask:
    """Trainable mask in [0, 1]^(B, T, n); clamped back into the box after
    every optimizer step (hard projection keeps values interpretable as
    saliency scores)."""

    def __init__(self, batch, n_steps, n_features, init=0.5):
        self.values = Tensor(np.full((batch, n_steps, n_features), init),
                             requires_grad=True, name="mask")

    def project(self):
        np.clip(self.values.data, 0.0, 1.0, out=self.values.data)

    @property
    def data(self):
        return self.values.data


class PerturbationGenerator:
    """nn(x) of the learned operator. kind 'zero' has no parameters; the
    recurrent kinds hold one GRU (nets.init_gru) and a linear head back to
    the feature space, shared by every row they perturb and drawn from
    `seed` alone."""

    def __init__(self, kind, n_features, hidden=32, seed=0):
        if kind not in (ZERO, UNIDIRECTIONAL, BIDIRECTIONAL):
            raise ValueError(f"unknown generator kind {kind!r}")
        self.kind = kind
        self.n_features = n_features
        if kind == ZERO:
            self.gru = None
            self.w_head = None
            self.b_head = None
            return
        rng = np.random.default_rng(seed)
        direction = nets.FORWARD if kind == UNIDIRECTIONAL \
            else nets.BIDIRECTIONAL
        self.gru = nets.init_gru(rng, n_features, hidden, direction)
        D = self.gru.output_size
        k = 1.0 / np.sqrt(D)
        self.w_head = Tensor(rng.uniform(-k, k, (D, n_features)),
                             requires_grad=True, name="gen_head_w")
        self.b_head = Tensor(rng.uniform(-k, k, n_features),
                             requires_grad=True, name="gen_head_b")

    def parameters(self):
        if self.kind == ZERO:
            return []
        return self.gru.tensors() + [self.w_head, self.b_head]

    def forward(self, x):
        """x: Tensor (B, T, n) -> Tensor (B, T, n)."""
        if x.ndim != 3 or x.shape[2] != self.n_features:
            raise ad.ShapeError(
                f"generator holds {self.n_features} features, got input "
                f"{x.shape}"
            )
        if self.kind == ZERO:
            return ad.zeros(x.shape)
        B, T, n = x.shape
        h = nets.gru_forward(x, self.gru)  # (B, T, D)
        flat = ad.reshape(h, (B * T, h.shape[2]))
        out = ad.add(ad.matmul(flat, self.w_head), self.b_head)
        return ad.reshape(out, (B, T, n))


def apply_learned(x, m, generator: PerturbationGenerator):
    """phi = m * x + (1 - m) * nn(x), differentiable in m and the
    generator parameters."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if m.shape != x.shape:
        raise ad.ShapeError(f"apply_learned: mask {m.shape} vs input {x.shape}")
    nn_x = generator.forward(x)
    return blend(x, m, nn_x), nn_x
