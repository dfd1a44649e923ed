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


def _init_direction(rng, n, hidden):
    # uniform in [-k, k], k = 1/sqrt(H)
    k = 1.0 / np.sqrt(hidden)
    def u(shape):
        return Tensor(rng.uniform(-k, k, size=shape), requires_grad=True)
    return GruDirectionParams(w_x=u((n, 3 * hidden)),
                              w_h=u((hidden, 3 * hidden)),
                              b=u((3 * hidden,)))


def init_gru(rng, input_size, hidden_size, direction=FORWARD):
    if direction not in (FORWARD, BACKWARD, BIDIRECTIONAL):
        raise ValueError(f"unknown direction {direction!r}")
    p = GruParams(input_size, hidden_size, direction)
    p.fwd = _init_direction(rng, input_size, hidden_size)
    if direction == BIDIRECTIONAL:
        p.bwd = _init_direction(rng, input_size, hidden_size)
    return p


# per-sample mat-vec products, one per batch row (numpy >= 2.2 has ufuncs)
_vecmat = getattr(np, "vecmat", lambda v, m: (v[..., None, :] @ m)[..., 0, :])
_matvec = getattr(np, "matvec", lambda m, v: (m @ v[..., None])[..., 0])


def _gru_cell(xg, h, Wh, H):
    """One GRU step from the input projection xg = x_t @ W_x + b and the
    previous state h (B, H): returns (h_new, r, z, c, hc), where
    hc = h @ W_hc. With per-sample weights (3-d W_h) each row uses its own
    matrix.
    """
    hg = _vecmat(h, Wh) if Wh.ndim == 3 else h @ Wh
    # xg may be cached, so only fresh arrays are written in place: the gate
    # sum, c and the new state. The gate sum is a new contiguous array, not
    # hg's strided gate columns, because numpy's exp and reciprocal run
    # about twice as fast on contiguous data
    rz = xg[..., :2 * H] + hg[..., :2 * H]
    ad._sigmoid_unguarded(rz, rz)  # callers ignore overflow around the loop
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
    with np.errstate(over="ignore"):  # the gate sigmoids of _gru_cell
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


# rows of perturbed copies that perturbed_step_scores steps at once, at most
# (see _step_rows)
_CHUNK_ROWS = 512
# scipy-openblas 0.3.31 multiplies an (M, K) @ (K, N) product with M*N*K
# at most this with its small-matrix kernel, which packs nothing; with
# another BLAS the bound only sets the chunk size
_SMALL_PRODUCT = 10**6
# perturbed_step_scores scores min(T, STEP_BLOCKS) contiguous step blocks
# (see step_blocks)
STEP_BLOCKS = 4


def _restep_costs(T, params: ClassifierParams):
    """Cost of step t in perturbed_step_scores, t = 0 .. T-1: the GRU steps
    it re-runs, summed over the passes, plus one for its input projection
    and readout."""
    first = 0 if params.readout == PER_TIMESTEP else T - 1
    t = np.arange(T)
    cost = np.ones(T, dtype=np.int64)
    for _, reverse in _passes(params.gru):
        cost += np.maximum(t - first + 1, 0) if reverse else T - t
    return cost


def step_blocks(T, params: ClassifierParams):
    """(lo, hi) bounds of min(T, STEP_BLOCKS) contiguous blocks of the
    steps 0 .. T-1, of near-equal _restep_costs. They depend on T, the
    classifier's passes and its readout alone, never on a worker count."""
    k = max(1, min(T, STEP_BLOCKS))
    # the cost of the steps before each edge e = 0 .. T
    before = np.concatenate([[0], np.cumsum(_restep_costs(T, params))])
    edges = [0]
    for i in range(1, k):
        # the edge nearest to i/k of the total, leaving no block empty
        e = int(np.abs(before * k - before[-1] * i).argmin())
        edges.append(min(max(e, edges[-1] + 1), T - k + i))
    edges.append(T)
    return list(zip(edges[:-1], edges[1:]))


# gate blocks whose width is a multiple of this get the bits of the same
# columns of the whole product (see _step_weights)
_GATE_BLOCK_COLUMNS = 8


def _negate_rz(a, H):
    """a (..., 3H) with its r and z gate columns negated."""
    out = a.copy()
    np.negative(out[..., :2 * H], out=out[..., :2 * H])
    return out


def _gates(a, H):
    """The (..., 3H) gate columns of a as a (3, ..., H) view, gate first."""
    return np.moveaxis(a.reshape(a.shape[:-1] + (3, H)), -2, 0)


def _copies_matmul(a, W, out):
    """a @ W into out, for a (copies, rows, K) stack of copies of a batch
    and W (K, N), or a (G, K, N) stack of matrices with out (G, copies,
    rows, N). BLAS gives a row of a matrix product the same bits whatever
    the row count, so the copies of a batch of 2+ rows go through as one
    matmul. numpy hands a one-row product to gemv instead, whose bits
    differ, so each copy of a one-row batch stays its own product."""
    K, N = W.shape[-2:]
    if a.shape[1] > 1:
        a, out = a.reshape(-1, K), out.reshape(out.shape[:-3] + (-1, N))
    else:
        W = W.reshape(W.shape[:-2] + (1, K, N))
    np.matmul(a, W, out=out)


def _step_weights(Wh, H):
    """W_h of _restep, r and z negated: three contiguous (H, H) gate blocks
    when H is a multiple of _GATE_BLOCK_COLUMNS, else the (H, 3H) matrix.

    A gate block's product has the bits of the same columns of the whole
    h @ W_h only where the BLAS sums both alike, which depends on its
    kernels. scipy-openblas 0.3.31's SkylakeX kernels do when H is a
    multiple of 8 (measured for H = 8 .. 256 in steps of 8, 1 .. 2048
    rows, 1 and 2 threads), and not in general: at H = 17 .. 20 every row
    count differs. Its Haswell, Sandybridge, Nehalem and Prescott kernels
    keep the rule on one thread at the row counts tried (1 .. 512); on
    two, all but Sandybridge break it for some row counts. Where it
    breaks, scores move in their last bits and tests/test_nets.py's
    gate-block cases at H = 64 and 200 fail. Three products instead of
    one whole product copied into the blocks ran the occlusion_icu
    benchmark 1.12x faster."""
    Wh = _negate_rz(Wh, H)
    if H % _GATE_BLOCK_COLUMNS:
        return Wh
    return np.ascontiguousarray(_gates(Wh, H))


def _step_rows(W):
    """The rows that perturbed_step_scores re-steps at once, for the
    weights W of _step_weights: _CHUNK_ROWS, or fewer if at least 128 rows
    keep each h @ W product within _SMALL_PRODUCT. At H = 64 a
    (192, 64) @ (64, 64) gate product took 177 ns a row, against 268 ns at
    256 rows, past that bound (scipy-openblas 0.3.31, one thread); below
    128 rows numpy's per-call cost outweighs the gain. These chunks, with
    the draw ranges of _step_chunks, ran the occlusion_icu benchmark 1.13x
    faster than chunks of _CHUNK_ROWS whole copies."""
    rows = _SMALL_PRODUCT // (W.shape[-2] * W.shape[-1])
    return min(_CHUNK_ROWS, rows) if rows >= 128 else _CHUNK_ROWS


def _step_chunks(m, B, r, rows):
    """(copies, draw ranges) of the chunks in which perturbed_step_scores
    re-steps m copies of r draws of B rows, about `rows` rows at a time: as
    many whole copies as fit, in near-equal chunks, or one copy at a time
    in near-equal ranges of its draws. A copy of two or more rows keeps
    two or more in each range, so that a range's product takes the copy's
    own BLAS route (see _copies_matmul)."""
    if B * r <= rows:
        n_chunks = max(1, -(-m * B * r // rows))
        return max(1, -(-m // n_chunks)), [(0, r)]
    parts = min(-(-B * r // rows), r if B > 1 else r // 2)
    edges = [r * i // parts for i in range(parts + 1)]
    return 1, list(zip(edges[:-1], edges[1:]))


def _restep_buffers(lead, H, W):
    """The workspace of _restep for states of shape lead + (H,) and the
    weights W of _step_weights: the gate blocks, and the whole product
    when W is not split."""
    return (np.empty((3,) + lead + (H,)),
            np.empty(lead + (3 * H,)) if W.ndim == 2 else None)


def _gate_products(h, W, ws):
    """h @ W_h into the gate blocks ws[0], for the (k, ..., H) stack of k
    copies h: a product per gate block when W is split, else one whole
    product into ws[1], copied into the blocks."""
    g, whole = ws
    k, H = len(h), h.shape[-1]
    h = h.reshape(k, -1, H)
    if whole is None:
        _copies_matmul(h, W, g.reshape(3, k, -1, H))
    else:
        _copies_matmul(h, W, whole.reshape(k, -1, 3 * H))
        np.copyto(g, _gates(whole, H))


def _restep(x, h, W, ws, out):
    """The _gru_cell step of perturbed_step_scores, on gate blocks: writes
    the new state of h into out, which may be h.

    x is the input projection as (3, ..., H) gate blocks that broadcast to
    h's rows; x and W (_step_weights) have r and z negated. Negation is
    exact, so the gate sums are exactly _gru_cell's negated ones and the
    sigmoid skips its negation pass; ws (_restep_buffers) takes every
    result, each ufunc runs on contiguous blocks, and nothing is
    allocated. The step has _gru_cell's bits.
    """
    _gate_products(h, W, ws)
    g = ws[0]
    rz, c = g[:2], g[2]
    rz += x[:2]
    np.exp(rz, out=rz)  # callers ignore overflow around the loop
    rz += 1.0
    np.reciprocal(rz, out=rz)
    np.multiply(g[2], g[0], out=c)
    c += x[2]
    np.tanh(c, out=c)
    np.subtract(h, c, out=out)
    out *= g[1]
    out += c


def perturbed_step_scores(x_data, params: ClassifierParams, replacements,
                          target=1, repeats=1, map_blocks=None):
    """target_score of copies of x_data that differ from it at one step.

    A copy is the batch np.repeat(x_data, repeats, axis=0), B*repeats rows,
    with step t replaced. replacements(t) returns an (m, B*repeats, n)
    stack: row j of copy k has replacements(t)[k, j] at step t. It must be
    a pure function of t: each step calls it once, but the steps run in
    blocks, in any order and possibly in other processes. Returns
    scores[t, k], the target_score of copy k, shape (T, m, B*repeats).

    The classifier runs once over x_data and caches, per pass, the states
    and the input projections x_s @ W_x + b, as gate blocks. A copy starts
    from the cached state next to step t (before it going forward, after
    it going in reverse) and re-steps only the states that change,
    reusing the cached projections at every step but t. Copies go through
    about _step_rows rows at a time: several whole copies, or one copy's
    draws in ranges. Their rows are ordered draw-major, so that a cached
    projection broadcasts over whole blocks.
    The cache and every re-step are _restep, which has _gru_cell's bits,
    and each copy's logits are one matrix-vector product over the rows of
    the copy's batch, as in classifier_forward, so every score equals
    target_score of its copy bit for bit.

    The steps of one step_blocks block are scored by block(lo, hi), which
    returns scores[lo:hi] and reads the cache, built before any block
    runs. map_blocks(block, bounds) gives block(lo, hi) for (lo, hi) in
    bounds, in order, possibly computed elsewhere (default: here). Each
    step is independent of the others, so the blocks give the scores of
    one pass over all steps, bit for bit.
    """
    X = np.asarray(x_data, dtype=np.float64)
    B, T, n = X.shape
    r = repeats
    H = params.gru.hidden_size
    per_t = params.readout == PER_TIMESTEP
    first = 0 if per_t else T - 1  # the first position the readout reads
    w_out, b_out = params.w_out.data, params.b_out.data
    # the cache takes the copies' BLAS route (see _copies_matmul): a
    # one-row x_data whose copies have 2+ rows is cached over two rows
    Xc = np.repeat(X, 2, axis=0) if B == 1 < r else X
    Bc = len(Xc)
    # (W_x, W_h, b, reverse, projections, states), r and z negated (see
    # _restep), the projections (3, T, B, H) gate blocks, the states
    # (T, B, H)
    passes = []
    with np.errstate(over="ignore"):  # the gate sigmoids of _restep
        for dp, reverse in _passes(params.gru):
            Wx, bias = (_negate_rz(a.data, H) for a in (dp.w_x, dp.b))
            Wh = _step_weights(dp.w_h.data, H)
            ws = _restep_buffers((1, Bc), H, Wh)
            xg = np.empty((3, T, Bc, H))
            states = np.empty((T, Bc, H))
            h = np.zeros((Bc, H))
            for s in range(T - 1, -1, -1) if reverse else range(T):
                xs = np.array(Xc[:, s]) @ Wx + bias
                np.copyto(xg[:, s], _gates(xs, H))
                _restep(xg[:, s, None], h[None], Wh, ws, out=states[s][None])
                h = states[s]
            passes.append((Wx, Wh, bias, reverse, xg[:, :, :B],
                           states[:, :B]))
    D = H * len(passes)
    rows = _step_rows(passes[0][1])
    zeros = np.zeros((B, H))

    def readout_states(copies, t0):
        """Each copy's output states at the positions the readout reads,
        for a block from t0. A cached state is filled once, into all
        `copies` rows: the steps go up from t0, a reverse pass re-steps
        positions t and below, and a forward pass re-steps t and above, so
        the reverse positions above t0 and the forward ones below it are
        filled here, and forward position t after step t."""
        cat = np.empty((copies, B, r, T - first, D))
        for p, (_, _, _, reverse, _, states) in enumerate(passes):
            cols = slice(p * H, (p + 1) * H)
            if reverse:
                lo = max(t0 + 1, first)
                cat[..., lo - first:, cols] = \
                    states[lo:].transpose(1, 0, 2)[:, None]
            elif t0 > first:
                cat[..., :t0 - first, cols] = \
                    states[first:t0].transpose(1, 0, 2)[:, None]
        return cat

    @np.errstate(over="ignore")  # the gate and readout sigmoids
    def block(t0, t1):
        # per chunk size, step t's projections as computed and as gate
        # blocks; per pass and chunk shape, the re-stepped states
        # (c, draws, B, H) and their workspace. Every step reuses them
        projections, steppers = {}, {}
        scores = None
        for t in range(t0, t1):
            rep = np.asarray(replacements(t), dtype=np.float64)
            if rep.shape[1:] != (B * r, n):
                raise ad.ShapeError(f"replacements({t}): {rep.shape}, "
                                    f"expected (m, {B * r}, {n})")
            if scores is None:
                scores = np.empty((t1 - t0, len(rep), B * r))
                copies, draws = _step_chunks(len(rep), B, r, rows)
                cat = readout_states(copies, t0)
            # a copy re-steps from t to the far end of the positions read,
            # from the cached state next to t; the states read on the near
            # side are the cached ones
            spans, h0 = [], []
            for _, _, _, reverse, _, states in passes:
                if reverse:
                    spans.append(range(t, first - 1, -1))
                    h0.append(states[t + 1] if t + 1 < T else zeros)
                else:
                    spans.append(range(t, T))
                    h0.append(states[t - 1] if t > 0 else zeros)
            for k0 in range(0, len(rep), copies):
                chunk = rep[k0:k0 + copies]
                c = len(chunk)
                if c not in projections:
                    projections[c] = (np.empty((c, B * r, 3 * H)),
                                      np.empty((3, c, r, B, H)))
                proj, x_t = projections[c]
                for p, (Wx, Wh, bias, _, xg, _) in enumerate(passes):
                    cols = slice(p * H, (p + 1) * H)
                    _copies_matmul(chunk, Wx, proj)
                    proj += bias
                    np.copyto(x_t, _gates(proj.reshape(c, B, r, 3 * H),
                                          H).swapaxes(2, 3))
                    for d0, d1 in draws:
                        if (p, c, d1 - d0) not in steppers:
                            steppers[p, c, d1 - d0] = (
                                np.empty((c, d1 - d0, B, H)),
                                _restep_buffers((c, d1 - d0, B), H, Wh))
                        h, ws = steppers[p, c, d1 - d0]
                        h[...] = h0[p]
                        for s in spans[p]:
                            x_s = x_t[:, :, d0:d1] if s == t else \
                                xg[:, s, None, None]
                            _restep(x_s, h, Wh, ws, out=h)
                            if s >= first:
                                cat[:c, :, d0:d1, s - first, cols] = \
                                    h.swapaxes(1, 2)
                logits = cat[:c].reshape(c, B * r * (T - first), D) @ w_out
                logits = (logits + b_out).reshape(c, B * r, T - first)
                probs = logits if per_t else logits[..., 0]
                scores[t - t0, k0:k0 + c] = _score(
                    ad._sigmoid_unguarded(probs, probs), target, per_t)
            for p, (_, _, _, reverse, _, states) in enumerate(passes):
                if not reverse and t >= first:
                    cat[..., t - first, p * H:(p + 1) * H] = \
                        states[t][:, None]
        return scores

    bounds = step_blocks(T, params)
    parts = list(map_blocks(block, bounds)) if map_blocks is not None \
        else [block(*b) for b in bounds]
    return np.concatenate(parts)


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
