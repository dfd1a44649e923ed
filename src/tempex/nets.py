"""GRU sequence models: the classifier under explanation, one forward GRU
with a linear readout, and the recurrent perturbation generators, a
forward or a bidirectional GRU, all build on the same cell.

All forward passes take a batched input [B, T, n], and every row of the
batch runs through the same 2-d weights. gru_forward is one taped op that
steps every pass of a GRU, forward and reverse, in one time loop. Every
step, of gru_forward and of the occlusion re-stepper
(perturbed_step_scores), is _gru_step on (3, ..., B, H) gate blocks
r | z | c: the gate products are one stacked matmul by W_h's (H, H) gate
blocks, and each ufunc reads contiguous (B, H) blocks. A recorded call
keeps its whole-sequence state and leaves its backward only the dh
recurrence; the weight and input gradients are one product per pass over
all steps, of the row-major (rows, 3H) gradient of the gate inputs.
Inside a reuse_buffers scope (training's epochs, the
mask explainers' and integrated gradients' iterations), a recorded call
takes views of the buffers an earlier call of as many rows or more gave
back, so a loop allocates them once.
"""

from __future__ import annotations

import contextlib
import json
import threading
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

FORWARD = "forward"
BIDIRECTIONAL = "bidirectional"


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class GruDirectionParams:
    w_x: Tensor  # (n, 3H)
    w_h: Tensor  # (H, 3H)
    b: Tensor  # (3H,)

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
    if direction not in (FORWARD, BIDIRECTIONAL):
        raise ValueError(f"unknown direction {direction!r}")
    p = GruParams(input_size, hidden_size, direction)
    p.fwd = _init_direction(rng, input_size, hidden_size)
    if direction == BIDIRECTIONAL:
        p.bwd = _init_direction(rng, input_size, hidden_size)
    return p


def _gate_blocks(dp, H):
    """W_x, W_h and b of a pass as (3, K, H) gate blocks r | z | c, b as
    (3, 1, H), with r and z negated: negation is exact, and the sigmoid of
    _gru_step then needs no negation pass."""
    blocks = []
    for t in dp.tensors():
        a = t.data.reshape(-1, 3, H).swapaxes(0, 1).copy()
        np.negative(a[:2], out=a[:2])
        blocks.append(a)
    return blocks


def _gru_step(x, g, h, out, ws=None):
    """One GRU step of a stack of states h (..., B, H), on (3, ..., B, H)
    gate blocks r | z | c: x is the input projection x_t @ W_x + b, which
    may broadcast to h's rows, and g the products h @ W_h, both with the
    r and z gates negated (_gate_blocks), so that the sigmoid needs no
    negation pass. Writes the new state into out, which may be h.

    ws = (rz, c, r_hc, h_c) take the gates r | z with the sigmoid applied,
    c, r * hc (hc = h @ W_hc) and h - c; a recorded call keeps them. By
    default they go to g's blocks and out, so nothing is allocated.
    """
    rz, c, r_hc, h_c = ws or (g[:2], g[2], g[2], out)
    np.add(x[:2], g[:2], out=rz)
    np.exp(rz, out=rz)  # callers ignore overflow around the loop
    rz += 1.0
    np.reciprocal(rz, out=rz)
    np.multiply(rz[0], g[2], out=r_hc)
    np.add(r_hc, x[2], out=c)
    np.tanh(c, out=c)
    np.subtract(h, c, out=h_c)
    np.multiply(h_c, rz[1], out=out)
    out += c


def _gate_factors(proj, gates, c):
    """The factors of a recorded call's backward that do not depend on
    the gradient, from the values its steps left, as gate blocks: proj
    (3, ...) holds [r * hc, h - c, spent], gates (2, ...) [r, z] and c
    (...) c. With A = (1-z)(1-c^2), writes
    E = [A hc r(1-r), (h-c) z(1-z), A r] over proj, A over c and 1 - r
    over r; z stays."""
    e_r, e_z, e_c = proj
    r, z = gates
    np.multiply(c, c, out=c)
    np.subtract(1.0, c, out=c)
    np.subtract(1.0, z, out=e_c)
    e_z *= z
    e_z *= e_c
    c *= e_c
    np.multiply(c, r, out=e_c)
    np.subtract(1.0, r, out=r)
    e_r *= r
    e_r *= c


def gru_forward(x, params: GruParams):
    """x: Tensor (B, T, n) -> (B, T, H), or (B, T, 2H) for bidirectional:
    every pass of params (_passes) as one taped op.

    The cell is the usual r/z/c gating, h_t = (1-z)*c + z*h_{t-1} from
    h = 0. All P passes step in one time loop (_gru_step): at loop step k
    the forward pass reads position k and a reverse pass position T-1-k.
    Their weights are stacked per call into (3, P, ., H) gate blocks, r
    and z negated (_gate_blocks), so that one stacked matmul forms all
    3 * P gate products of a step, each a gemm (gemv for one row) of the
    B rows, into a contiguous (3, P, B, H) array. Pass p's states fill
    columns p*H .. (p+1)*H of the output.

    A recorded call takes its whole-sequence buffers from _take, inside a
    reuse_buffers scope as views of an earlier call's spares. Those that
    the backward multiplies as one matrix a pass are pass-major: the
    inputs (P, T, B, n), their projections x_t @ W_x + b (P, T, 3, B, H),
    one stacked matmul before the loop, and the states (P, T, B, H). The
    gates r | z (T, 2, P, B, H) and c (T, P, B, H), which only ufuncs
    read, are step-major, so that the step's exp, reciprocal and tanh run
    on contiguous arrays: on a strided view of one row's two passes
    numpy's exp took twice as long.
    After the loop, _gate_factors turns them into the factors of the
    backward that do not depend on the gradient, so the backward loop
    runs only the dh recurrence,
    gt = G_k + dh, D_k = E_k * gt, dh = D_k @ W_h^T + gt * z, with gt
    written over the spent r gates. D_k is written over E_k row-major, as
    (B, 3H), so that its product with W_h^T, and after the loop the W_h,
    W_x, b and input gradients, are one product or sum per pass over all
    T*B rows of D. The backward gives the buffers back as spares
    (_give_back). An unrecorded call runs the same step on per-step
    buffers and keeps nothing but its output.
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
    H = params.hidden_size
    dps, reverses = zip(*_passes(params))
    P = len(dps)
    weights = [t for dp in dps for t in dp.tensors()]
    Wx, Wh, bias = (np.stack(a, axis=1) for a in
                    zip(*(_gate_blocks(dp, H) for dp in dps)))
    record = ad._recording((x, *weights))
    Xt = x.data.swapaxes(0, 1)
    out = np.empty((B, T, P, H))
    hg = np.empty((3, P, B, H))
    h = np.zeros((P, B, H))
    if record:
        held, (xs, proj, gates, cs, states) = _take((P, T, B),
                                                    (n, 3 * H, 2 * H, H, H))
        proj = proj.reshape(P, T, 3, B, H)
        gates, cs = gates.reshape(T, 2, P, B, H), cs.reshape(T, P, B, H)
        for p, reverse in enumerate(reverses):
            np.copyto(xs[p], Xt[::-1] if reverse else Xt)
        np.matmul(xs[:, :, None], Wx.swapaxes(0, 1)[:, None], out=proj)
        proj += bias.swapaxes(0, 1)[:, None]
        # step k's projections (3, P, B, H) and states (P, B, H)
        xks, hks = proj.transpose(1, 2, 0, 3, 4), states.swapaxes(0, 1)
    else:
        # the positions each pass reads at each loop step
        pos = [[T - 1 - k if reverse else k for reverse in reverses]
               for k in range(T)]
        at = np.array(pos)
        xg = np.empty((3, P, B, H))
    with np.errstate(over="ignore"):  # the gate sigmoids of _gru_step
        for k in range(T):
            np.matmul(h, Wh, out=hg)
            if record:
                xk = xks[k]
                _gru_step(xk, hg, h, hks[k], (gates[k], cs[k], xk[0], xk[1]))
                h = hks[k]
            else:
                np.matmul(Xt[at[k]], Wx, out=xg)
                xg += bias
                _gru_step(xg, hg, h, h)
                for p, t in enumerate(pos[k]):
                    out[:, t, p] = h[p]
    if not record:
        return Tensor(out.reshape(B, T, P * H))
    for p, reverse in enumerate(reverses):
        np.copyto(out[:, :, p],
                  (states[p, ::-1] if reverse else states[p]).swapaxes(0, 1))
    _gate_factors(xks.swapaxes(0, 1), gates.swapaxes(0, 1), cs)

    def backward(g):
        wanted = [t._tracked() for t in (x, *weights)]
        # which of w_x, w_h and b some pass wants
        stacked = [any(wanted[1 + i::3]) for i in range(3)]
        # gt in step order, over the spent 1 - r
        gt, z = gates.swapaxes(0, 1)
        G = g.reshape(B, T, P, H).transpose(1, 2, 0, 3)
        for p, reverse in enumerate(reverses):
            np.copyto(gt[:, p], G[::-1, p] if reverse else G[:, p])
        # E_k as (P, B, 3, H), and D row-major, (P, T, B, 3H), over E
        E = proj.transpose(1, 0, 3, 2, 4)
        D = proj.reshape(P, T, B, 3 * H)
        D_k = np.empty((P, B, 3, H))
        WhT = np.stack([dp.w_h.data.T for dp in dps])
        dh, gz = np.empty((P, B, H)), np.empty((P, B, H))
        for k in range(T - 1, -1, -1):
            if k < T - 1:
                gt[k] += dh
            np.multiply(E[k], gt[k, :, :, None], out=D_k)
            D[:, k] = D_k.reshape(P, B, 3 * H)
            if k > 0:  # h before the first step is a constant zero
                np.matmul(D[:, k], WhT, out=dh)
                np.multiply(gt[k], z[k], out=gz)
                dh += gz

        def rows(a, lo=0):
            """a's steps from lo as (P, rows, width), one matrix a pass."""
            return a[:, lo:].reshape(P, -1, a.shape[-1])

        gw = [None] * 3  # w_x, w_h, b of every pass, stacked
        if stacked[1]:
            gw[1] = rows(states)[:, :(T - 1) * B].swapaxes(1, 2) \
                @ rows(D, 1)
        # D's c gate, gt A r, becomes d_xg's, gt A
        np.multiply(gt, cs, out=D[..., 2 * H:].swapaxes(0, 1))
        d_xg = rows(D)
        if stacked[0]:
            gw[0] = rows(xs).swapaxes(1, 2) @ d_xg
        if stacked[2]:
            gw[2] = d_xg.sum(axis=1)
        if wanted[0]:
            WxT = np.stack([dp.w_x.data.T for dp in dps])
            gx = (d_xg @ WxT).reshape(P, T, B, n)
        # the last pass first, so that x's gradient sums the passes in the
        # order one op per pass on the tape would
        for p in range(P - 1, -1, -1):
            if wanted[0]:
                gxp = gx[p, ::-1] if reverses[p] else gx[p]
                x._accumulate(np.ascontiguousarray(gxp.swapaxes(0, 1)),
                              owned=True)
            for i, tensor in enumerate(dps[p].tensors()):
                if wanted[1 + 3 * p + i]:
                    tensor._accumulate(gw[i][p].reshape(tensor.shape),
                                       owned=True)
        # every gradient above is a fresh array: nothing reads the buffers
        _give_back(held)

    return ad._record(Tensor(out.reshape(B, T, P * H)), (x, *weights),
                      backward)


def _allocate(lead, widths):
    """New arrays of shape lead + (w,) for w in widths, one each: the
    buffers of a recorded gru_forward call that no spare has room for."""
    return [np.empty(lead + (w,)) for w in widths]


class _Spares(threading.local):
    """The current thread's open reuse_buffers scopes and the spare
    buffers that recorded gru_forward calls gave back inside them."""

    def __init__(self):
        self.depth = 0
        self.spares = {}  # widths: the buffers of _allocate calls


_SPARES = _Spares()


@contextlib.contextmanager
def reuse_buffers():
    """Let the recorded gru_forward calls of this thread reuse each other's
    whole-sequence buffers inside the block.

    A call takes views of the buffers that an earlier call of the same
    widths and as many rows or more gave back at the end of its backward
    (_take), so a loop that tapes the same shapes, or fewer rows than at
    first (rows froze, a short last batch), allocates once, and glibc does
    not hand the pages back and fault them in again each time. A call
    whose tape is dropped without a backward never gives its buffers back.
    Scopes nest, and leaving the outermost drops every spare. Every buffer
    is written before it is read, so no byte of any result depends on the
    scope."""
    _SPARES.depth += 1
    try:
        yield
    finally:
        _SPARES.depth -= 1
        if not _SPARES.depth:
            _SPARES.spares.clear()


def _take(lead, widths):
    """gru_forward's buffers lead + (w,) for w in widths, as (held, views):
    held is the smallest spare of these widths with room for them, else
    new arrays (_allocate); the views are held's leading elements, laid
    out as new arrays of lead would be."""
    size, spares = int(np.prod(lead)), _SPARES.spares.get(widths, [])
    room = [i for i, h in enumerate(spares) if h[0].size >= size * widths[0]]
    held = spares.pop(min(room, key=lambda i: spares[i][0].size)) if room \
        else _allocate(lead, widths)
    return held, [a.reshape(-1)[:size * w].reshape(lead + (w,))
                  for a, w in zip(held, widths)]


def _give_back(held):
    """Keep a backwarded call's buffers as spares inside a reuse_buffers
    scope."""
    if _SPARES.depth:
        widths = tuple(a.shape[-1] for a in held)
        _SPARES.spares.setdefault(widths, []).append(held)


def _passes(params: GruParams):
    """(direction params, reverse) of each pass, in output order."""
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
    w_out: Tensor  # (H, 1) single-logit binary readout
    b_out: Tensor  # (1,)
    readout: str = PER_TIMESTEP

    def __post_init__(self):
        # save_classifier and perturbed_step_scores read one forward pass:
        # a bidirectional GRU's second pass would be mislabelled or dropped
        if self.gru.direction != FORWARD:
            raise ValueError("unsupported classifier direction: "
                             f"{self.gru.direction!r}")

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


def init_classifier(rng, input_size, hidden_size, readout=PER_TIMESTEP):
    """A forward GRU of hidden_size states and a one-logit readout."""
    if readout not in (PER_TIMESTEP, FINAL_STEP):
        raise ValueError(f"unknown readout mode {readout!r}")
    gru = init_gru(rng, input_size, hidden_size)
    k = 1.0 / np.sqrt(hidden_size)
    return ClassifierParams(
        gru=gru,
        w_out=Tensor(rng.uniform(-k, k, size=(hidden_size, 1)),
                     requires_grad=True),
        b_out=Tensor(rng.uniform(-k, k, size=(1,)), requires_grad=True),
        readout=readout,
    )


def classifier_forward(x, params: ClassifierParams):
    """Logits: (B, T) in per-timestep mode, (B,) in final-step mode."""
    h = gru_forward(x, params.gru)  # (B, T, H)
    B, T, H = h.shape
    if params.readout == PER_TIMESTEP:
        flat = ad.reshape(h, (B * T, H))
        logits = ad.add(ad.matmul(flat, params.w_out), params.b_out)
        return ad.reshape(logits, (B, T))
    h_last = h[:, T - 1, :]
    logits = ad.add(ad.matmul(h_last, params.w_out), params.b_out)
    return ad.reshape(logits, (B,))


def predict_proba(x_data, params: ClassifierParams):
    """Positive-class probabilities as a plain array (no tape)."""
    return ad._sigmoid(classifier_forward(Tensor(x_data), params).data)


def target_score(x_data, params: ClassifierParams):
    """Scalar per-sample score for attribution methods: the positive-class
    probability, summed over output positions in per-timestep mode."""
    p = predict_proba(x_data, params)
    return p.sum(axis=-1) if params.readout == PER_TIMESTEP else p


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


def step_blocks(T):
    """(lo, hi) bounds of min(T, STEP_BLOCKS) contiguous blocks of the
    steps 0 .. T-1, of near-equal re-step cost in perturbed_step_scores:
    step t re-runs the T - t GRU steps from t on, plus one for its input
    projection and readout. They depend on T alone, never on the
    classifier or a worker count."""
    k = max(1, min(T, STEP_BLOCKS))
    # the cost of the steps before each edge e = 0 .. T
    before = np.concatenate([[0], np.cumsum(T + 1 - np.arange(T))])
    edges = [0]
    for i in range(1, k):
        # the edge nearest to i/k of the total, leaving no block empty
        e = int(np.abs(before * k - before[-1] * i).argmin())
        edges.append(min(max(e, edges[-1] + 1), T - k + i))
    edges.append(T)
    return list(zip(edges[:-1], edges[1:]))


def _copies_matmul(a, W, out):
    """a @ W into out, for a (copies, rows, K) stack of copies of a batch
    and a (G, K, N) stack of matrices W, with out (G, copies, rows, N).
    BLAS gives a row of a matrix product the same bits whatever the row
    count, so the copies of a batch of 2+ rows go through as one matmul.
    numpy hands a one-row product to gemv instead, whose bits differ, so
    each copy of a one-row batch stays its own product."""
    G, K, N = W.shape
    if a.shape[1] > 1:
        a, out = a.reshape(-1, K), out.reshape(G, -1, N)
    else:
        W = W.reshape(G, 1, K, N)
    np.matmul(a, W, out=out)


def _step_rows(H):
    """The rows that perturbed_step_scores re-steps at once, at hidden size
    H: _CHUNK_ROWS, or fewer if at least 128 rows keep each (H, H) gate
    product within _SMALL_PRODUCT. At H = 64 a (192, 64) @ (64, 64) gate
    product took 177 ns a row, against 268 ns at 256 rows, past that
    bound (scipy-openblas 0.3.31, one thread); below 128 rows numpy's
    per-call cost outweighs the gain. These chunks, with the draw ranges
    of _step_chunks, ran the occlusion_icu benchmark 1.13x faster than
    chunks of _CHUNK_ROWS whole copies."""
    rows = _SMALL_PRODUCT // (H * H)
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


def _restep(x, h, W, g, out):
    """The step of perturbed_step_scores on the (k, ..., H) stack of k
    copies h: the gate products h @ W_h into g, (3, k, ..., H), through
    _copies_matmul, then _gru_step with x, which broadcasts to h's rows.
    W (3, H, H) and x are gate blocks, r and z negated (_gate_blocks).
    Writes the new state into out, which may be h. Each copy's products
    have the bits of the copy's own rows through gru_forward's product."""
    k, H = len(h), h.shape[-1]
    _copies_matmul(h.reshape(k, -1, H), W, g.reshape(3, k, -1, H))
    _gru_step(x, g, h, out)


def perturbed_step_scores(x_data, params: ClassifierParams, values,
                          map_blocks=None):
    """target_score of copies of x_data that differ from it in one cell a
    row.

    values has shape (T, n, B*r) for the B rows of x_data and some r >= 1.
    Copy i at step t is the batch np.repeat(x_data, r, axis=0), B*r rows,
    with feature i of step t replaced: row j takes values[t, i, j].
    Returns scores[t, i], the target_score of copy i at step t, shape
    (T, n, B*r). A values array of any other shape raises ShapeError here,
    before any block runs.

    The classifier runs once over x_data and caches its states and the
    input projections x_s @ W_x + b, as gate blocks. A copy starts from the
    cached state before step t and re-steps the states from t on, reusing
    the cached projections at every step but t; the states before t are
    the cached ones. Copies go through about _step_rows rows at a time:
    several whole copies, or one copy's draws in ranges. Their rows are
    ordered draw-major, so that a cached projection broadcasts over whole
    blocks.
    The states are gru_forward's, the projections are gate products as in
    gru_forward, and every re-step is _restep, gru_forward's _gru_step on
    the products of each copy's rows; each copy's logits are one
    matrix-vector product over the rows of the copy's batch, as in
    classifier_forward, so every score equals target_score of its copy
    bit for bit.

    The steps of one step_blocks block are scored by block(lo, hi), which
    returns scores[lo:hi] and reads the cache, built before any block
    runs. map_blocks(block, bounds) gives block(lo, hi) for (lo, hi) in
    bounds, in order, possibly computed elsewhere (default: here). Each
    step is independent of the others, so the blocks give the scores of
    one pass over all steps, bit for bit.
    """
    X = np.asarray(x_data, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    B, T, n = X.shape
    r = values.shape[-1] // B if B and values.ndim == 3 else 1
    if values.shape != (T, n, B * r) or not r:
        raise ad.ShapeError(f"values {values.shape}, expected ({T}, {n}, "
                            f"{B} * r) for some r >= 1")
    H = params.gru.hidden_size
    per_t = params.readout == PER_TIMESTEP
    first = 0 if per_t else T - 1  # the first position the readout reads
    w_out, b_out = params.w_out.data, params.b_out.data
    # the cache takes the copies' BLAS route (see _copies_matmul): a
    # one-row x_data whose copies have 2+ rows is cached over two rows
    Xc = np.repeat(X, 2, axis=0) if B == 1 < r else X
    states = gru_forward(Tensor(Xc), params.gru).data[:B].swapaxes(0, 1)
    Wx, Wh, bias = _gate_blocks(params.gru.fwd, H)
    # the projections as (3, T, B, H) gate blocks, contiguous for the
    # re-steps
    xg = np.matmul(Xc.swapaxes(0, 1), Wx[:, None])[:, :, :B] + bias[:, None]
    rows = _step_rows(H)
    zeros = np.zeros((B, H))
    cells = np.arange(n)

    @np.errstate(over="ignore")  # the gate and readout sigmoids
    def block(t0, t1):
        copies, draws = _step_chunks(n, B, r, rows)
        scores = np.empty((t1 - t0, n, B * r))
        # each copy's states at the positions the readout reads; a cached
        # one is filled once, into all `copies` rows: those before t0
        # here, and position t after step t
        cat = np.empty((copies, B, r, T - first, H))
        if t0 > first:
            cat[..., :t0 - first, :] = \
                states[first:t0].transpose(1, 0, 2)[:, None]
        # per chunk size, step t's projections; per chunk shape, the
        # re-stepped states (c, draws, B, H) and their gate products.
        # Every step reuses them
        projections, steppers = {}, {}
        for t in range(t0, t1):
            # the copies' rows draw-major, (n, r, B, n)
            rep = np.tile(X[:, t], (n, r, 1, 1))
            rep[cells, :, :, cells] = values[t].reshape(n, B, r) \
                .swapaxes(1, 2)
            h0 = states[t - 1] if t > 0 else zeros
            for k0 in range(0, n, copies):
                chunk = rep[k0:k0 + copies]
                c = len(chunk)
                if c not in projections:
                    projections[c] = np.empty((3, c, r, B, H))
                x_t = projections[c]
                _copies_matmul(chunk.reshape(c, r * B, n), Wx,
                               x_t.reshape(3, c, r * B, H))
                x_t += bias[:, None, None]
                for d0, d1 in draws:
                    if (c, d1 - d0) not in steppers:
                        steppers[c, d1 - d0] = (
                            np.empty((c, d1 - d0, B, H)),
                            np.empty((3, c, d1 - d0, B, H)))
                    h, g = steppers[c, d1 - d0]
                    h[...] = h0
                    for s in range(t, T):
                        x_s = x_t[:, :, d0:d1] if s == t else \
                            xg[:, s, None, None]
                        _restep(x_s, h, Wh, g, out=h)
                        if s >= first:
                            cat[:c, :, d0:d1, s - first] = h.swapaxes(1, 2)
                logits = cat[:c].reshape(c, B * r * (T - first), H) @ w_out
                logits = (logits + b_out).reshape(c, B * r, T - first)
                probs = logits if per_t else logits[..., 0]
                ad._sigmoid_unguarded(probs, probs)
                scores[t - t0, k0:k0 + c] = \
                    probs.sum(axis=-1) if per_t else probs
            if t >= first:
                cat[..., t - first, :] = states[t][:, None]
        return scores

    bounds = step_blocks(T)
    parts = list(map_blocks(block, bounds)) if map_blocks is not None \
        else [block(*b) for b in bounds]
    return np.concatenate(parts)


def check_count(name, value, least):
    """Raise ValueError unless value is an integer >= least; a bool is
    not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


# rows per minibatch of train_classifier
BATCH_SIZE = 64


@dataclass
class TrainConfig:
    epochs: int = 50
    lr: float = 0.001
    seed: int = 0

    def __post_init__(self):
        check_count("epochs", self.epochs, 0)
        if not 0 < self.lr < np.inf:  # else uphill, idle or into NaN
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


def train_classifier(dataset, params: ClassifierParams,
                     config: TrainConfig = None):
    """Minimize binary cross-entropy on the dataset in one reuse_buffers
    scope; returns (params, history), history[e] being the row-weighted
    mean of epoch e's minibatch losses, each taken before its step.
    Labels are (N, T) for per-timestep readout or (N,) for final-step.
    Deterministic for a fixed seed and BLAS thread count: the caller's
    count is kept, so that the large weight-gradient products may use more
    than one thread, and their last bits can depend on it (every tempex
    command runs on one). NaN loss aborts."""
    config = config or TrainConfig()
    X, y = dataset.X, dataset.y
    N = X.shape[0]
    if N == 0:
        raise ValueError("train_classifier: empty dataset")
    rng = np.random.default_rng(config.seed)
    opt = ad.Adam(params.tensors(), lr=config.lr)
    history = []
    with reuse_buffers():
        for epoch in range(config.epochs):
            order, total = rng.permutation(N), 0.0
            for lo in range(0, N, BATCH_SIZE):
                idx = order[lo:lo + BATCH_SIZE]
                with ad.Tape():
                    loss = ad.tmean(ad.cross_entropy_with_logits(
                        classifier_forward(Tensor(X[idx]), params),
                        Tensor(y[idx])))
                    val = loss.item()
                    if not np.isfinite(val):
                        raise TrainingDiverged(f"NaN/Inf loss at epoch "
                                               f"{epoch}, batch offset {lo}")
                    opt.zero_grad()
                    loss.backward()
                opt.step()
                total += val * len(idx)
            history.append(total / N)
    return params, history


# ---------------------------------------------------------------------------
# checkpoint format: versioned JSON with shapes + flat weight arrays

_CKPT_VERSION = 1
# the arrays of a checkpoint, in the order of ClassifierParams.tensors
_CKPT_ARRAYS = ("fwd.w_x", "fwd.w_h", "fwd.b", "w_out", "b_out")


def save_classifier(params: ClassifierParams, path):
    payload = {
        "version": _CKPT_VERSION,
        "input_size": params.gru.input_size,
        "hidden_size": params.gru.hidden_size,
        "direction": FORWARD,
        "readout": params.readout,
        "arrays": {
            name: {"shape": list(t.shape), "data": t.data.ravel().tolist()}
            for name, t in zip(_CKPT_ARRAYS, params.tensors())
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_classifier(path):
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {version}")
    if payload.get("direction") != FORWARD:
        raise ValueError("unsupported classifier direction: "
                         f"{payload.get('direction')!r}")
    rng = np.random.default_rng(0)
    params = init_classifier(rng, payload["input_size"],
                             payload["hidden_size"], payload["readout"])
    for name, t in zip(_CKPT_ARRAYS, params.tensors()):
        rec = payload["arrays"][name]
        arr = np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"])
        if arr.shape != t.shape:
            raise ValueError(f"checkpoint array {name}: shape {arr.shape} "
                             f"does not match {t.shape}")
        t.data = arr
    return params
