"""GRU sequence models: the classifier under explanation and the recurrent
perturbation generators both build on the same cell.

All forward passes take a batched input [B, T, n]. Parameters are either
shared across the batch (2-d weights, the normal case) or carry a leading
batch axis (3-d weights, one independent parameter set per sample; used
when many explanation instances are optimized jointly).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

log = logging.getLogger(__name__)

FORWARD = "forward"
BACKWARD = "backward"
BIDIRECTIONAL = "bidirectional"


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class GruDirectionParams:
    w_x: Tensor  # (n, 3H) or (B, n, 3H)
    w_h: Tensor  # (H, 3H) or (B, H, 3H)
    b: Tensor  # (3H,) or (B, 1, 3H)

    def tensors(self):
        return [self.w_x, self.w_h, self.b]


@dataclass
class GruParams:
    input_size: int
    hidden_size: int
    direction: str = FORWARD
    fwd: GruDirectionParams = None
    bwd: GruDirectionParams = None  # only for bidirectional

    @property
    def output_size(self):
        return 2 * self.hidden_size if self.direction == BIDIRECTIONAL \
            else self.hidden_size

    def tensors(self):
        out = self.fwd.tensors()
        if self.bwd is not None:
            out = out + self.bwd.tensors()
        return out


def _init_direction(rng, n, hidden, batch, requires_grad):
    # uniform in [-k, k], k = 1/sqrt(H)
    k = 1.0 / np.sqrt(hidden)
    def u(shape):
        full = shape if batch is None else (batch,) + shape
        return Tensor(rng.uniform(-k, k, size=full), requires_grad=requires_grad)
    return GruDirectionParams(
        w_x=u((n, 3 * hidden)),
        w_h=u((hidden, 3 * hidden)),
        b=u((3 * hidden,)) if batch is None
        else Tensor(rng.uniform(-k, k, size=(batch, 1, 3 * hidden)),
                    requires_grad=requires_grad),
    )


def init_gru(rng, input_size, hidden_size, direction=FORWARD, batch=None,
             requires_grad=True):
    if direction not in (FORWARD, BACKWARD, BIDIRECTIONAL):
        raise ValueError(f"unknown direction {direction!r}")
    p = GruParams(input_size, hidden_size, direction)
    p.fwd = _init_direction(rng, input_size, hidden_size, batch, requires_grad)
    if direction == BIDIRECTIONAL:
        p.bwd = _init_direction(rng, input_size, hidden_size, batch,
                                requires_grad)
    return p


# per-sample mat-vec products, one per batch row (numpy >= 2.2 has ufuncs)
_vecmat = getattr(np, "vecmat", lambda v, m: (v[..., None, :] @ m)[..., 0, :])
_matvec = getattr(np, "matvec", lambda m, v: (m @ v[..., None])[..., 0])


def _batch_matmul(a, W):
    """a @ W, for a (M, K) batch or a (copies, ..., K) stack of copies of
    one batch. BLAS gives a row of a matrix product the same bits whatever
    the row count, so the copies of a batch of 2+ rows go through as one
    matmul. numpy hands a one-row product to gemv instead, whose bits
    differ, so each copy of a one-row batch stays its own product."""
    if a.ndim == 2:
        return a @ W
    rows = a.reshape(-1, a.shape[-1]) if a[0].size != a.shape[-1] \
        else a.reshape(len(a), 1, a.shape[-1])
    return (rows @ W).reshape(a.shape[:-1] + W.shape[-1:])


def _gru_cell(xg, h, Wh, H):
    """One GRU step from the input projection xg = x_t @ W_x + b and the
    previous state h: returns (h_new, r, z, c, hc), where hc = h @ W_hc.

    h is (B, H), or (copies, ..., H) copies of a batch that xg broadcasts
    over (see _batch_matmul). With per-sample weights (3-d W_h) each row
    uses its own matrix.
    """
    hg = _vecmat(h, Wh) if Wh.ndim == 3 else _batch_matmul(h, Wh)
    # xg and h may be cached or broadcast, so only fresh arrays are
    # written in place: the gate sum, c and the new state. The gate sum is
    # a new contiguous array, not hg's strided gate columns, because
    # numpy's exp and reciprocal run about twice as fast on contiguous data
    rz = xg[..., :2 * H] + hg[..., :2 * H]
    ad._sigmoid(rz, out=rz)
    r, z = rz[..., :H], rz[..., H:]
    hc = hg[..., 2 * H:]
    c = r * hc
    c += xg[..., 2 * H:]
    np.tanh(c, out=c)
    h_new = h - c
    h_new *= z
    h_new += c
    return h_new, r, z, c, hc


def gru_direction(x, dp: GruDirectionParams, hidden, reverse=False):
    """One GRU direction over the whole sequence, as a single taped op.

    x: Tensor (B, T, n) -> Tensor (B, T, H). The cell is the usual r/z/c
    gating, h_t = (1-z)*c + z*h_{t-1} from h = 0; reverse=True runs from
    t = T-1 down to 0. Forward steps through time, and backward steps
    only the dh recurrence. With per-sample weights the input projection,
    dx and the weight gradients are one batched matmul each over all T
    steps (the cuDNN recipe, Appleyard et al., arXiv:1604.01946). Shared
    weights keep small per-step buffers, because whole-sequence
    temporaries cost more in page faults than they save. Nothing is saved
    for backward when the op is not recorded.
    """
    H = hidden
    w_x, w_h, b = dp.w_x, dp.w_h, dp.b
    X, Wx, Wh, bias = x.data, w_x.data, w_h.data, b.data
    B, T, _ = X.shape
    per_sample = Wx.ndim == 3
    record = ad._recording((x, w_x, w_h, b))
    steps = range(T - 1, -1, -1) if reverse else range(T)
    if per_sample:  # time-major, so that each step reads a contiguous slab
        xg_seq = np.empty((T, B, 3 * H))
        np.matmul(X, Wx, out=xg_seq.transpose(1, 0, 2))
        xg_seq += bias.transpose(1, 0, 2)
    out = np.empty((B, T, H))
    saved = [None] * T
    h = np.zeros((B, H))
    for t in steps:
        if per_sample:
            xg = xg_seq[t]
        else:
            x_t = np.array(X[:, t])
            xg = x_t @ Wx + bias
        h_new, r, z, c, hc = _gru_cell(xg, h, Wh, H)
        if record:
            saved[t] = (None if per_sample else x_t, h, r, z, c, hc)
        out[:, t] = h_new
        h = h_new
    result = Tensor(out)
    if not record:
        return result

    def backward(g):
        wanted = [t._tracked() for t in (x, w_x, w_h, b)]
        grads = [None] * 4  # x, w_x, w_h, b
        if per_sample:
            dxg_seq = np.empty((T, B, 3 * H))
            dhg_seq = np.empty((T, B, 3 * H)) if wanted[2] else None
        elif wanted[0]:
            grads[0] = np.zeros_like(X)
        dh = None
        for k, t in enumerate(reversed(steps)):
            x_t, h_prev, r, z, c, hc = saved[t]
            gt = g[:, t] if dh is None else g[:, t] + dh
            du = gt * (1.0 - z) * (1.0 - c * c)
            d_ar = du * hc * r * (1.0 - r)
            d_az = gt * (h_prev - c) * z * (1.0 - z)
            d_xg = np.concatenate([d_ar, d_az, du], axis=-1)
            d_hg = np.concatenate([d_ar, d_az, du * r], axis=-1)
            if k < T - 1:  # h before the first step is a constant zero
                dh = gt * z + (_matvec(Wh, d_hg) if per_sample
                               else d_hg @ Wh.T)
            if per_sample:
                dxg_seq[t] = d_xg
                if dhg_seq is not None:
                    dhg_seq[t] = d_hg
                continue
            if wanted[0]:
                grads[0][:, t] = d_xg @ Wx.T
            parts = (x_t.T @ d_xg if wanted[1] else None,
                     h_prev.T @ d_hg if wanted[2] else None,
                     ad._unbroadcast(d_xg, b.shape) if wanted[3] else None)
            for i, gi in enumerate(parts, 1):
                if gi is not None:
                    grads[i] = gi if grads[i] is None else grads[i] + gi
        if per_sample:
            dxg = dxg_seq.transpose(1, 0, 2)  # (B, T, 3H) view
            if wanted[0]:
                grads[0] = dxg @ Wx.swapaxes(1, 2)
            if wanted[1]:
                grads[1] = X.swapaxes(1, 2) @ dxg
            if wanted[2]:
                # h_{t-1} pairs with step t; the zero initial state adds 0
                if reverse:
                    grads[2] = out[:, 1:].swapaxes(1, 2) \
                        @ dhg_seq[:-1].transpose(1, 0, 2)
                else:
                    grads[2] = out[:, :-1].swapaxes(1, 2) \
                        @ dhg_seq[1:].transpose(1, 0, 2)
            if wanted[3]:
                grads[3] = dxg.sum(axis=1, keepdims=True)
        for tensor, grad in zip((x, w_x, w_h, b), grads):
            if grad is not None:
                tensor._accumulate(grad, owned=True)

    return ad._record(result, (x, w_x, w_h, b), backward)


def gru_forward(x, params: GruParams):
    """x: Tensor (B, T, n) -> (B, T, H) or (B, T, 2H) for bidirectional.

    A bidirectional pass concatenates the forward states with the states of
    an independent time-reversed pass.
    """
    if x.ndim != 3:
        raise ad.ShapeError(f"gru_forward expects (B, T, n), got {x.shape}")
    B, T, n = x.shape
    if T < 1:
        raise ad.ShapeError("gru_forward: empty sequence")
    if n != params.input_size:
        raise ad.ShapeError(
            f"gru_forward: {n} features vs params.input_size {params.input_size}"
        )
    outs = [gru_direction(x, dp, params.hidden_size, reverse=reverse)
            for dp, reverse in _passes(params)]
    return outs[0] if len(outs) == 1 else ad.concatenate(outs, axis=2)


def _passes(params: GruParams):
    """(direction params, reverse) of each pass, in output order."""
    if params.direction == BACKWARD:
        return [(params.fwd, True)]
    if params.direction == BIDIRECTIONAL:
        return [(params.fwd, False), (params.bwd, True)]
    return [(params.fwd, False)]


# ---------------------------------------------------------------------------
# classifier

PER_TIMESTEP = "per_timestep"
FINAL_STEP = "final_step"


@dataclass
class ClassifierParams:
    gru: GruParams
    w_out: Tensor  # (D, 1) single-logit binary readout
    b_out: Tensor  # (1,)
    readout: str = PER_TIMESTEP

    def tensors(self):
        return self.gru.tensors() + [self.w_out, self.b_out]

    def freeze(self):
        for t in self.tensors():
            t.requires_grad = False
        return self

    def snapshot(self):
        return [t.data.copy() for t in self.tensors()]

    def check_unchanged(self, snap):
        for t, s in zip(self.tensors(), snap):
            if not np.array_equal(t.data, s):
                raise RuntimeError(
                    "classifier parameters changed during explanation"
                )


def init_classifier(rng, input_size, hidden_size, direction=FORWARD,
                    readout=PER_TIMESTEP):
    if readout not in (PER_TIMESTEP, FINAL_STEP):
        raise ValueError(f"unknown readout mode {readout!r}")
    gru = init_gru(rng, input_size, hidden_size, direction)
    D = gru.output_size
    k = 1.0 / np.sqrt(D)
    return ClassifierParams(
        gru=gru,
        w_out=Tensor(rng.uniform(-k, k, size=(D, 1)), requires_grad=True),
        b_out=Tensor(rng.uniform(-k, k, size=(1,)), requires_grad=True),
        readout=readout,
    )


def classifier_forward(x, params: ClassifierParams):
    """Logits: (B, T) in per-timestep mode, (B,) in final-step mode."""
    h = gru_forward(x, params.gru)  # (B, T, D)
    B, T, D = h.shape
    if params.readout == PER_TIMESTEP:
        flat = ad.reshape(h, (B * T, D))
        logits = ad.add(ad.matmul(flat, params.w_out), params.b_out)
        return ad.reshape(logits, (B, T))
    h_last = h[:, T - 1, :]
    logits = ad.add(ad.matmul(h_last, params.w_out), params.b_out)
    return ad.reshape(logits, (B,))


def _score(p, target, per_timestep):
    """target_score of positive-class probabilities p: (..., T) per
    timestep, (...) at the final step."""
    p = p if target == 1 else 1.0 - p
    return p.sum(axis=-1) if per_timestep else p


def predict_proba(x_data, params: ClassifierParams):
    """Positive-class probabilities as a plain array (no tape)."""
    return ad._sigmoid(classifier_forward(Tensor(x_data), params).data)


def target_score(x_data, params: ClassifierParams, target=1):
    """Scalar per-sample score for attribution methods: the target-class
    probability, summed over output positions in per-timestep mode."""
    return _score(predict_proba(x_data, params), target,
                  params.readout == PER_TIMESTEP)


# rows of perturbed copies that perturbed_step_scores steps at once
_CHUNK_ROWS = 512


def perturbed_step_scores(x_data, params: ClassifierParams, replacements,
                          target=1, repeats=1):
    """target_score of copies of x_data that differ from it at one step.

    A copy is the batch np.repeat(x_data, repeats, axis=0), B*repeats rows,
    with step t replaced. replacements(t) is called once per step, for
    t = 0 .. T-1 in order, and returns an (m, B*repeats, n) stack: row j
    of copy k has replacements(t)[k, j] at step t. Returns scores[t, k],
    the target_score of copy k, shape (T, m, B*repeats).

    The classifier runs once over x_data and caches, per pass, the states
    and the input projections x_s @ W_x + b. A copy starts from the
    cached state next to step t (before it going forward, after it going
    in reverse) and re-steps only the states that change, reusing the
    cached projections at every step but t. Whole copies go through
    together, about _CHUNK_ROWS rows at a time. Every step is _gru_cell,
    and each copy's logits are one matrix-vector product over the rows of
    the copy's batch, as in classifier_forward, so every score equals
    target_score of its copy bit for bit.
    """
    X = np.asarray(x_data, dtype=np.float64)
    B, T, n = X.shape
    r = repeats
    H = params.gru.hidden_size
    per_t = params.readout == PER_TIMESTEP
    first = 0 if per_t else T - 1  # the first position the readout reads
    w_out, b_out = params.w_out.data, params.b_out.data
    # the cache takes the copies' BLAS route (see _batch_matmul): a
    # one-row x_data whose copies have 2+ rows is cached over two rows
    Xc = np.repeat(X, 2, axis=0) if B == 1 < r else X
    passes = []  # (W_x, W_h, b, reverse, projections, states), time-major
    for dp, reverse in _passes(params.gru):
        Wx, Wh, bias = dp.w_x.data, dp.w_h.data, dp.b.data
        xg = np.empty((T, len(Xc), 3 * H))
        states = np.empty((T, len(Xc), H))
        h = np.zeros((len(Xc), H))
        for s in range(T - 1, -1, -1) if reverse else range(T):
            xg[s] = np.array(Xc[:, s]) @ Wx + bias
            h = states[s] = _gru_cell(xg[s], h, Wh, H)[0]
        passes.append((Wx, Wh, bias, reverse, xg[:, :B], states[:, :B]))
    D = H * len(passes)
    copies = max(1, _CHUNK_ROWS // max(B * r, 1))
    # each copy's output states at the positions the readout reads. A
    # cached state is filled once, into all `copies` rows: a reverse pass
    # re-steps positions t and below, so the ones above it are filled here;
    # a forward pass re-steps t and above, so position t is filled after t
    cat = np.empty((copies, B, r, T - first, D))
    lo = max(1, first)
    for p, (_, _, _, reverse, _, states) in enumerate(passes):
        if reverse:
            cat[..., lo - first:, p * H:(p + 1) * H] = \
                states[lo:].transpose(1, 0, 2)[:, None]
    zeros = np.zeros((B, H))
    scores = None
    for t in range(T):
        rep = np.asarray(replacements(t), dtype=np.float64)
        if rep.shape[1:] != (B * r, n):
            raise ad.ShapeError(f"replacements({t}): {rep.shape}, expected "
                                f"(m, {B * r}, {n})")
        if scores is None:
            scores = np.empty((T, len(rep), B * r))
        for k0 in range(0, len(rep), copies):
            chunk = rep[k0:k0 + copies]
            c = len(chunk)
            for p, (Wx, Wh, bias, reverse, xg, states) in enumerate(passes):
                cols = slice(p * H, (p + 1) * H)
                # re-step from t to the far end of the positions read;
                # the states read on the near side are the cached ones
                if reverse:
                    span = range(t, first - 1, -1)
                    h = states[t + 1] if t + 1 < T else zeros
                else:
                    span = range(t, T)
                    h = states[t - 1] if t > 0 else zeros
                h = np.broadcast_to(h[:, None], (c, B, r, H))
                for s in span:
                    x_s = xg[s][:, None] if s != t else \
                        (_batch_matmul(chunk, Wx) + bias).reshape(
                            c, B, r, 3 * H)
                    h = _gru_cell(x_s, h, Wh, H)[0]
                    if s >= first:
                        cat[:c, :, :, s - first, cols] = h
            logits = cat[:c].reshape(c, B * r * (T - first), D) @ w_out
            logits = (logits + b_out).reshape(c, B * r, T - first)
            scores[t, k0:k0 + c] = _score(
                ad._sigmoid(logits if per_t else logits[..., 0]), target,
                per_t)
        for p, (_, _, _, reverse, _, states) in enumerate(passes):
            if not reverse and t >= first:
                cat[..., t - first, p * H:(p + 1) * H] = states[t][:, None]
    return scores


@dataclass
class TrainConfig:
    epochs: int = 50
    lr: float = 0.001
    batch_size: int = 64
    seed: int = 0
    log_every: int = 0  # epochs between INFO loss records; 0 = silent


def train_classifier(dataset, params: ClassifierParams,
                     config: TrainConfig = None):
    """Minimize binary cross-entropy on the dataset; returns params.

    Labels are (N, T) for per-timestep readout or (N,) for final-step.
    Deterministic for a fixed seed. NaN loss aborts.
    """
    config = config or TrainConfig()
    X, y = dataset.X, dataset.y
    N = X.shape[0]
    if N == 0:
        raise ValueError("train_classifier: empty dataset")
    rng = np.random.default_rng(config.seed)
    opt = ad.Adam(params.tensors(), lr=config.lr)
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(N)
        total, count = 0.0, 0
        for lo in range(0, N, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            with ad.Tape():
                logits = classifier_forward(Tensor(X[idx]), params)
                loss = ad.tmean(
                    ad.cross_entropy_with_logits(logits, Tensor(y[idx]))
                )
                val = loss.item()
                if not np.isfinite(val):
                    raise TrainingDiverged(
                        f"NaN/Inf loss at epoch {epoch}, batch offset {lo}"
                    )
                opt.zero_grad()
                loss.backward()
            opt.step()
        # epoch loss on the last batch is noisy; track a fresh full pass
        full = ad.tmean(ad.cross_entropy_with_logits(
            classifier_forward(Tensor(X), params), Tensor(y))).item()
        history.append(full)
        if config.log_every and (epoch + 1) % config.log_every == 0:
            log.info("epoch %d: loss %.4f", epoch + 1, full)
    return params, history


# ---------------------------------------------------------------------------
# checkpoint format: versioned JSON with shapes + flat weight arrays

_CKPT_VERSION = 1


def _arrays_of(params: ClassifierParams):
    names = ["fwd.w_x", "fwd.w_h", "fwd.b"]
    tensors = params.gru.fwd.tensors()
    if params.gru.bwd is not None:
        names += ["bwd.w_x", "bwd.w_h", "bwd.b"]
        tensors += params.gru.bwd.tensors()
    names += ["w_out", "b_out"]
    tensors += [params.w_out, params.b_out]
    return names, tensors


def save_classifier(params: ClassifierParams, path):
    names, tensors = _arrays_of(params)
    payload = {
        "version": _CKPT_VERSION,
        "input_size": params.gru.input_size,
        "hidden_size": params.gru.hidden_size,
        "direction": params.gru.direction,
        "readout": params.readout,
        "arrays": {
            name: {"shape": list(t.shape), "data": t.data.ravel().tolist()}
            for name, t in zip(names, tensors)
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_classifier(path):
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {payload.get('version')}")
    rng = np.random.default_rng(0)
    params = init_classifier(rng, payload["input_size"],
                             payload["hidden_size"], payload["direction"],
                             payload["readout"])
    names, tensors = _arrays_of(params)
    for name, t in zip(names, tensors):
        rec = payload["arrays"][name]
        arr = np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"])
        if arr.shape != t.shape:
            raise ValueError(f"checkpoint array {name}: shape {arr.shape} "
                             f"does not match {t.shape}")
        t.data = arr
    return params
