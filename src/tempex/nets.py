"""GRU sequence models: the classifier under explanation and the recurrent
perturbation generators both build on the same cell.

All forward passes take a batched input [B, T, n], and every row of the
batch runs through the same 2-d weights. gru_forward is one taped op that
steps every pass of a GRU, forward and reverse, in one time loop. A
recorded call keeps its whole-sequence state in one allocation (up to a
size past which the allocator would keep it resident) and leaves its
backward only the dh recurrence; the weight and input gradients are one
product per pass over all steps. Inside a reuse_buffers scope, which the
mask explainers and integrated gradients open around their iterations, a
recorded call takes that state from the buffers an earlier call of the
same layout gave back, so an optimization loop allocates it once.
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
BACKWARD = "backward"
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
    if direction not in (FORWARD, BACKWARD, BIDIRECTIONAL):
        raise ValueError(f"unknown direction {direction!r}")
    p = GruParams(input_size, hidden_size, direction)
    p.fwd = _init_direction(rng, input_size, hidden_size)
    if direction == BIDIRECTIONAL:
        p.bwd = _init_direction(rng, input_size, hidden_size)
    return p


def _gru_cell(xg, h, Wh, out, ws):
    """One GRU step of P passes on rows (..., B, P, .): from the input
    projection xg = x_t @ W_x + b and the previous states h, with the r
    and z gate columns of xg and W_h (P, H, 3H) negated (_negate_rz), so
    that the sigmoid needs no negation pass. Writes the new state into
    out, which may be h.

    ws = (hg, rz, c, r_hc, h_c) take h @ W_h (one stacked matmul over the
    passes), the gates with the sigmoid applied, c, r * hc (hc = h @ W_hc)
    and h - c. A recorded call keeps the last four; an unrecorded one
    passes c as r_hc and out as h_c, so that every result lands in a
    contiguous per-step buffer.
    """
    hg, rz, c, r_hc, h_c = ws
    H = c.shape[-1]
    np.matmul(h.swapaxes(-3, -2), Wh, out=hg.swapaxes(-3, -2))
    # the gate sum goes to rz, not to hg's strided gate columns, because
    # numpy's exp and reciprocal run about twice as fast on contiguous data
    np.add(xg[..., :2 * H], hg[..., :2 * H], out=rz)
    np.exp(rz, out=rz)  # callers ignore overflow around the loop
    rz += 1.0
    np.reciprocal(rz, out=rz)
    np.multiply(rz[..., :H], hg[..., 2 * H:], out=r_hc)
    np.add(r_hc, xg[..., 2 * H:], out=c)
    np.tanh(c, out=c)
    np.subtract(h, c, out=h_c)
    np.multiply(h_c, rz[..., H:], out=out)
    out += c


def _gate_factors(proj, gates, c):
    """The factors of a recorded call's backward that do not depend on
    the gradient, from the values its steps left: proj (..., 3H) holds
    [r * hc, h - c, spent], gates (..., 2H) [r, z] and c (..., H) c. With
    A = (1-z)(1-c^2), writes E = [A hc r(1-r), (h-c) z(1-z), A r] over
    proj, A over c and 1 - r over r; z stays."""
    H = c.shape[-1]
    e_r, e_z, e_c = proj[..., :H], proj[..., H:2 * H], proj[..., 2 * H:]
    r, z = gates[..., :H], gates[..., H:]
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
    h = 0. All P passes step in one time loop (_gru_cell): at loop step k
    the forward pass reads position k and a reverse pass position T-1-k.
    Their weights are stacked per call into (P, ., .) arrays, r and z
    negated, so each product is one stacked matmul, which runs the gemm
    or gemv of the 2-d product on every pass. Pass p's states fill
    columns p*H .. (p+1)*H of the output.

    A recorded call takes every whole-sequence buffer from one allocation
    (up to _BLOCK_BYTES, see _split), or inside a reuse_buffers scope from
    the spares of an earlier call (_take): (T, B, P, .) arrays in step
    order, so that a step's rows are contiguous and a pass's T*B rows are
    one strided matrix. They hold the inputs, their projections
    x_t @ W_x + b (one stacked matmul before the loop, whose (step, pass)
    slices are the per-step products), the gates r | z, c and the states.
    After the loop, _gate_factors turns them into the factors of the
    backward that do not depend on the gradient, so the backward loop
    runs only the dh recurrence,
    gt = G_k + dh, D_k = E_k * gt, dh = D_k @ W_h^T + gt * z, with gt
    written over the spent r gates and D_k over E_k. The W_h, W_x, b and
    input gradients are then one product or sum per pass over all T*B
    rows. The backward gives the buffers back as spares (_give_back). An
    unrecorded call runs the same step loop on per-step buffers and keeps
    nothing but its output.
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
    Wx = np.stack([_negate_rz(dp.w_x.data, H) for dp in dps])
    Wh = np.stack([_negate_rz(dp.w_h.data, H) for dp in dps])
    bias = np.concatenate([_negate_rz(dp.b.data.reshape(1, 3 * H), H)
                           for dp in dps])  # (P, 3H)
    record = ad._recording((x, *weights))
    Xt = x.data.swapaxes(0, 1)
    out = np.empty((B, T, P, H))
    hg = np.empty((B, P, 3 * H))
    h = np.zeros((B, P, H))
    if record:
        layout = ((T, B, P), (n, 3 * H, 2 * H, H, H))
        buffers = _take(layout)
        xs, proj, gates, cs, states = buffers
        for p, reverse in enumerate(reverses):
            np.copyto(xs[:, :, p], Xt[::-1] if reverse else Xt)
        np.matmul(xs.transpose(2, 0, 1, 3), Wx[:, None],
                  out=proj.transpose(2, 0, 1, 3))
        proj += bias
    else:
        # the positions each pass reads at each loop step
        pos = [[T - 1 - k if reverse else k for reverse in reverses]
               for k in range(T)]
        at = np.array(pos)
        xg, rz, c = (np.empty((B, P, w)) for w in (3 * H, 2 * H, H))
        ws = (hg, rz, c, c, h)
    with np.errstate(over="ignore"):  # the gate sigmoids of _gru_cell
        for k in range(T):
            if record:
                xg, h_new = proj[k], states[k]
                ws = (hg, gates[k], cs[k], xg[..., :H], xg[..., H:2 * H])
            else:
                np.matmul(Xt[at[k]], Wx, out=xg.swapaxes(0, 1))
                xg += bias
                h_new = h
            _gru_cell(xg, h, Wh, h_new, ws)
            if not record:
                for p, t in enumerate(pos[k]):
                    out[:, t, p] = h[:, p]
            h = h_new
    if not record:
        return Tensor(out.reshape(B, T, P * H))
    for p, reverse in enumerate(reverses):
        np.copyto(out[:, :, p], (states[::-1, :, p] if reverse
                                 else states[:, :, p]).swapaxes(0, 1))
    _gate_factors(proj, gates, cs)

    def backward(g):
        wanted = [t._tracked() for t in (x, *weights)]
        # which of w_x, w_h and b some pass wants
        stacked = [any(wanted[1 + i::3]) for i in range(3)]
        # gt in step order, over the spent 1 - r
        gt, z = gates[..., :H], gates[..., H:]
        G = g.reshape(B, T, P, H).swapaxes(0, 1)
        for p, reverse in enumerate(reverses):
            np.copyto(gt[:, :, p], G[::-1, :, p] if reverse else G[:, :, p])
        E = proj.reshape(T, B, P, 3, H)
        WhT = np.stack([dp.w_h.data.T for dp in dps])
        dh, gz = np.empty((B, P, H)), np.empty((B, P, H))
        for k in range(T - 1, -1, -1):
            if k < T - 1:
                gt[k] += dh
            E[k] *= gt[k, :, :, None]
            if k > 0:  # h before the first step is a constant zero
                np.matmul(proj[k].swapaxes(0, 1), WhT,
                          out=dh.swapaxes(0, 1))
                np.multiply(gt[k], z[k], out=gz)
                dh += gz

        def rows(a, lo=0):
            """a's steps from lo as (P, rows, width), one matrix a pass."""
            return a[lo:].reshape(-1, P, a.shape[-1]).swapaxes(0, 1)

        gw = [None] * 3  # w_x, w_h, b of every pass, stacked
        if stacked[1]:
            gw[1] = rows(states)[:, :(T - 1) * B].swapaxes(1, 2) \
                @ rows(proj, 1)
        # D's c gate, gt A r, becomes d_xg's, gt A
        np.multiply(gt, cs, out=proj[..., 2 * H:])
        d_xg = rows(proj)
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
        _give_back(layout, buffers)

    return ad._record(Tensor(out.reshape(B, T, P * H)), (x, *weights),
                      backward)


# the most bytes a recorded gru_forward call takes in one allocation. glibc
# raises its mmap threshold to the size of an unmapped block and its heap
# trim threshold to twice that, so from the second call on, blocks of one
# size come from the heap, and up to twice their size stays resident after
# the loop that made them. Inside a reuse_buffers scope a call allocates
# only on a miss, so the cap matters only for the calls outside one:
# classifier training and one-off calls. There, one block per call keeps a
# loop free of page faults, and past this size the memory it leaves behind
# outweighs that: on 2 cores, one 10.7 MiB block per training batch raised
# the peak RSS of the occlusion_icu benchmark by 8-11%
_BLOCK_BYTES = 10 * 2**20


def _split(lead, widths):
    """Arrays of shape lead + (w,) for w in widths: consecutive views of one
    allocation, or one allocation each when they take more than
    _BLOCK_BYTES in all."""
    size = int(np.prod(lead))
    if size * sum(widths) * 8 > _BLOCK_BYTES:
        return [np.empty(lead + (w,)) for w in widths]
    block = np.empty(size * sum(widths))
    ends = np.cumsum(widths) * size
    return [block[e - w * size:e].reshape(lead + (w,))
            for w, e in zip(widths, ends)]


class _Spares(threading.local):
    """The current thread's open reuse_buffers scopes and the spare
    buffers that recorded gru_forward calls gave back inside them."""

    def __init__(self):
        self.depth = 0
        self.spares = []  # (layout, buffers)


_SPARES = _Spares()


@contextlib.contextmanager
def reuse_buffers():
    """Let the recorded gru_forward calls of this thread reuse each other's
    whole-sequence buffers inside the block.

    A call takes the buffers that an earlier call of the same layout gave
    back at the end of its backward, instead of allocating them, so a loop
    that tapes the same shapes every iteration allocates once and glibc
    does not hand the pages back to the system and fault them in again
    each time. A miss means the shapes changed (rows froze): it drops
    every spare before allocating, so the spares are only the last
    iteration's working set. A call whose tape is dropped without a
    backward never gives its buffers back. Scopes nest, and leaving the
    outermost drops every spare. Every buffer is written before it is
    read, so no byte of any result depends on the scope."""
    _SPARES.depth += 1
    try:
        yield
    finally:
        _SPARES.depth -= 1
        if not _SPARES.depth:
            _SPARES.spares.clear()


def _take(layout):
    """gru_forward's buffers for layout (lead, widths), laid out by _split:
    the spares of an earlier call of that layout, or else new ones, after
    dropping every spare."""
    spares = _SPARES.spares
    for i, (key, _) in enumerate(spares):
        if key == layout:
            return spares.pop(i)[1]
    spares.clear()
    return _split(*layout)


def _give_back(layout, buffers):
    """Keep a backwarded call's buffers as spares inside a reuse_buffers
    scope."""
    if _SPARES.depth:
        _SPARES.spares.append((layout, buffers))


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
    h's rows; x and W (_step_weights) have r and z negated, as in
    _gru_cell. Negation is exact, so the gate sums are exactly the negated
    ones of the plain cell and the sigmoid skips its negation pass; ws
    (_restep_buffers) takes every result, each ufunc runs on contiguous
    blocks, and nothing is allocated. The step has _gru_cell's bits.
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
                          repeats=1, map_blocks=None):
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
    The states are gru_forward's, the projections one stacked product over
    the steps, and every re-step is _restep, which has _gru_cell's bits;
    each copy's logits are one matrix-vector product over the rows of
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
    states = gru_forward(Tensor(Xc), params.gru).data[:B].swapaxes(0, 1)
    # (W_x, W_h, b, reverse, projections, states), r and z negated (see
    # _restep), the projections (3, T, B, H) gate blocks, contiguous for
    # the re-steps, the states (T, B, H)
    passes = []
    for p, (dp, reverse) in enumerate(_passes(params.gru)):
        Wx, bias = (_negate_rz(a.data, H) for a in (dp.w_x, dp.b))
        xg = np.ascontiguousarray(_gates(Xc.swapaxes(0, 1) @ Wx, H)[:, :, :B])
        xg += _gates(bias, H)[:, None, None]
        passes.append((Wx, _step_weights(dp.w_h.data, H), bias, reverse, xg,
                       states[..., p * H:(p + 1) * H]))
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
                ad._sigmoid_unguarded(probs, probs)
                scores[t - t0, k0:k0 + c] = \
                    probs.sum(axis=-1) if per_t else probs
            for p, (_, _, _, reverse, _, states) in enumerate(passes):
                if not reverse and t >= first:
                    cat[..., t - first, p * H:(p + 1) * H] = \
                        states[t][:, None]
        return scores

    bounds = step_blocks(T, params)
    parts = list(map_blocks(block, bounds)) if map_blocks is not None \
        else [block(*b) for b in bounds]
    return np.concatenate(parts)


# rows per minibatch of train_classifier
BATCH_SIZE = 64


@dataclass
class TrainConfig:
    epochs: int = 50
    lr: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if not self.lr > 0:  # a rate <= 0 trains uphill or not at all
            raise ValueError(f"lr must be > 0, got {self.lr}")


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
        for lo in range(0, N, BATCH_SIZE):
            idx = order[lo:lo + BATCH_SIZE]
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
