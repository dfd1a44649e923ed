"""Perturbation operators.

Both operators blend the input with a surrogate, per cell:

    phi(x, m) = m * x + (1 - m) * surrogate,    0 <= m <= 1

so m = 1 keeps the input exactly. The fixed operator's surrogate is a
centred moving average of the input (window_average), which does not
depend on the mask. The learned operator's surrogate is the output nn(x)
of a trainable generator: all-zeros, a unidirectional GRU, or a
bidirectional GRU, each with a linear head back to the feature space. As
in the paper's phi, one generator serves every row it perturbs: its
parameters carry no row axis.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import nets
from .autodiff import Tensor

ZERO = "zero"
UNIDIRECTIONAL = "unidirectional"
BIDIRECTIONAL = "bidirectional"
# the kinds of PerturbationGenerator
GENERATORS = (ZERO, UNIDIRECTIONAL, BIDIRECTIONAL)


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


def _blend(x, m, surrogate):
    """m * x + (1 - m) * surrogate, per cell (Tensors)."""
    return ad.add(ad.mul(m, x), ad.mul(ad.sub(1.0, m), surrogate))


def apply_fixed(x, m, surrogate):
    """m * x + (1 - m) * surrogate for a surrogate computed beforehand
    from x (an array or Tensor of x's shape, e.g. window_average(x, w));
    x: array or Tensor, m: Tensor of x's shape."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    if not isinstance(surrogate, Tensor):
        surrogate = Tensor(surrogate)
    if not m.shape == surrogate.shape == x.shape:
        raise ad.ShapeError(f"apply_fixed: mask {m.shape} and surrogate "
                            f"{surrogate.shape} vs input {x.shape}")
    return _blend(x, m, surrogate)


# ---------------------------------------------------------------------------
# learned perturbation


class Mask:
    """Trainable mask in [0, 1]^(B, T, n), 0.5 everywhere at the start;
    clamped back into the box after every optimizer step (hard projection
    keeps values interpretable as saliency scores)."""

    def __init__(self, batch, n_steps, n_features):
        self.values = Tensor(np.full((batch, n_steps, n_features), 0.5),
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
        if kind not in GENERATORS:
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
    return _blend(x, m, nn_x), nn_x
