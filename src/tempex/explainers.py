"""Attribution methods.

The learned-perturbation explainer jointly optimizes a per-sample mask and
one perturbation generator per row block against a frozen classifier:

    preservation:  l1 * mean(m) + l2 * mean(|nn(x)|) + CE(f(x), f(phi))
    deletion:      l1 * mean(1 - m) + l2 * mean(|nn(x)|) + CE(f(0), f(phi))

Baselines: a fixed-perturbation mask explainer with the sorted-mask area
regularizer (Dynamask), Occlusion, Augmented Occlusion, and Integrated
Gradients. Mask methods emit the mask itself as the saliency map; gradient
and occlusion scores are min-max normalized into [0, 1] per sample.

Each method runs one fixed objective: the stopping rule of both mask
explainers, Dynamask's objective and the occlusion and integration
baselines are the module constants below, read at call time.

Every classifier has one logit, so every method explains the positive
class: the mask losses, the occlusion scores and the normalized gradient
scores do not change under p -> 1 - p, which would explain the other one.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import os
import sys
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nets import ClassifierParams, classifier_forward, \
    perturbed_step_scores, predict_proba, reuse_buffers, target_score
from .perturbation import (
    BIDIRECTIONAL,
    GENERATORS,
    Mask,
    PerturbationGenerator,
    apply_fixed,
    apply_learned,
    window_average,
)

PRESERVATION = "preservation"
DELETION = "deletion"
# the mask explainers optimize max(1, B // BLOCK_ROWS) contiguous row
# blocks, each on its own tape (see _optimize_blocks)
BLOCK_ROWS = 24
# both mask explainers freeze a row once its loss has not dropped
# EARLY_STOP_TOL below its best for EARLY_STOP_PATIENCE iterations
EARLY_STOP_TOL = 1e-6
EARLY_STOP_PATIENCE = 10
# Dynamask's objective: the half-width of the window_average surrogate, the
# area a of the sorted-mask regularizer and its weight, and the mask's Adam
# learning rate
DYNAMASK_WINDOW = 2
DYNAMASK_AREA = 0.1
DYNAMASK_REG_WEIGHT = 1.0
DYNAMASK_LR = 0.01
# the value occlusion sets a cell to, and integrated gradients' path start
OCCLUSION_BASELINE = 0.0
IG_BASELINE = 0.0


class FrozenModelError(RuntimeError):
    pass


class DivergenceError(RuntimeError):
    pass


@dataclass
class ExplainerConfig:
    lambda1: float = 1.0
    lambda2: float = 1.0
    mode: str = PRESERVATION
    generator: str = BIDIRECTIONAL
    generator_hidden: int = 32
    mask_lr: float = 0.01
    generator_lr: float = 0.001
    iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be finite and >= 0, got "
                                 f"{value}")
        if self.mode not in (PRESERVATION, DELETION):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.generator_hidden < 1:
            raise ValueError("generator_hidden must be >= 1")
        _check_steps(self.iterations, mask_lr=self.mask_lr,
                     generator_lr=self.generator_lr)


def _check_steps(iterations, **rates):
    """Raise ValueError unless each learning rate in `rates` is finite and
    > 0 (else the mask steps uphill, not at all or into NaN) and iterations
    is an integer >= 0."""
    for name, rate in rates.items():
        if not 0 < rate < np.inf:  # NaN fails every comparison
            raise ValueError(f"{name} must be finite and > 0, got {rate}")
    if not isinstance(iterations, (int, np.integer)):
        raise ValueError(f"iterations must be an integer, got {iterations!r}")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")


@dataclass
class SaliencyMap:
    scores: np.ndarray  # (N, T, n) in [0, 1]
    method: str
    metadata: dict = field(default_factory=dict)


def _as_batch(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim in (2, 3):
        return x.reshape((-1,) + x.shape[-2:])
    raise ad.ShapeError(f"expected (T, n) or (B, T, n) input, got {x.shape}")


def _check_frozen(classifier: ClassifierParams):
    if any(t.requires_grad for t in classifier.tensors()):
        raise FrozenModelError(
            "classifier must be frozen before explanation (call .freeze())"
        )


def _reference_probs(X, classifier, mode):
    if mode == PRESERVATION:
        return predict_proba(X, classifier)
    zero = np.zeros((1,) + X.shape[1:])
    p0 = predict_proba(zero, classifier)
    return np.broadcast_to(p0, (X.shape[0],) + p0.shape[1:]).copy()


def _per_sample_ce(logits, ref_probs):
    ce = ad.cross_entropy_with_logits(logits, Tensor(ref_probs))
    if ce.ndim == 2:
        return ad.tmean(ce, axis=1)
    return ce


def _minmax_per_sample(raw):
    lo = raw.min(axis=(1, 2), keepdims=True)
    hi = raw.max(axis=(1, 2), keepdims=True)
    span = hi - lo
    out = np.zeros_like(raw)
    ok = (span > 0).ravel()
    out[ok] = (raw[ok] - lo[ok]) / span[ok]
    return out


def _optimize_mask(mask, lr, iterations, loss, inputs, shared=()):
    """The optimization loop of both mask explainers, for at most
    `iterations` iterations.

    Each iteration tapes `loss(*inputs)`, which returns the per-row loss
    Tensor of the mask's rows and a dict of per-row loss terms, and steps
    the mask's Adam (learning rate lr) and the `shared` optimizers, whose
    parameters carry no row axis. A row freezes once its loss
    has not dropped EARLY_STOP_TOL below its best for EARLY_STOP_PATIENCE
    iterations: its mask row goes into the scores, and the row leaves the
    mask, its Adam moments (Adam.keep_rows) and `inputs`, the loss's
    row-led arrays, so the loss only ever sees live rows; `shared` goes on
    training on them. A frozen row's loss history repeats its last
    computed loss, and its terms are those of its last computed iteration.
    The iterations run in one nets.reuse_buffers scope, so each taped GRU
    reuses the last iteration's sequence buffers until rows freeze.

    Returns (scores, iterations_run, iterations_per_row, history, terms),
    where iterations_per_row[b] is the iteration count at which row b froze
    (the run's count for a row that never froze).
    """
    B = mask.data.shape[0]
    mask_opt = ad.Adam([mask.values], lr=lr)
    optimizers = [mask_opt, *shared]
    scores = np.empty_like(mask.data)
    live = np.arange(B)  # the block rows still optimized, in order
    best = np.full(B, np.inf)
    stall = np.zeros(B, dtype=np.int64)
    per_row = np.zeros(B, dtype=np.int64)
    history = np.empty((iterations, B))
    last = np.zeros(B)
    terms = {}
    iterations_run = 0
    with reuse_buffers():
        for it in range(iterations):
            with ad.Tape():
                loss_b, row_terms = loss(*inputs)
                vals = loss_b.data.copy()
                if not np.all(np.isfinite(vals)):
                    raise DivergenceError(f"non-finite loss at iteration {it}")
                ad.tsum(loss_b).backward()
            last[live] = vals
            history[it] = last
            for name, value in row_terms.items():
                terms.setdefault(name, np.zeros(B))[live] = value
            for opt in optimizers:
                opt.step()
            mask.project()
            for opt in optimizers:
                opt.zero_grad()
            iterations_run = per_row[live] = it + 1
            improved = vals < best - EARLY_STOP_TOL
            stall = np.where(improved, 0, stall + 1)
            best = np.minimum(best, vals)
            keep = stall < EARLY_STOP_PATIENCE
            if not keep.all():
                scores[live[~keep]] = mask.data[~keep]
                live, best, stall = live[keep], best[keep], stall[keep]
                mask_opt.keep_rows(keep)
                inputs = [a[keep] for a in inputs]
            if not live.size:
                break
    scores[live] = mask.data
    return scores, iterations_run, per_row, history[:iterations_run], terms


def _row_blocks(B):
    """(lo, hi) bounds of max(1, B // BLOCK_ROWS) near-equal contiguous
    row blocks. They depend on B alone, never on the worker count."""
    k = max(1, B // BLOCK_ROWS)
    edges = [B * i // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _openblas_threads(kind):
    """OpenBLAS's `kind`_num_threads function ("get" or "set") of the BLAS
    numpy loaded, or None (see _openblas)."""
    return _openblas(f"{kind}_num_threads")


def blas_core():
    """The name of the kernel the OpenBLAS of numpy runs (OPENBLAS_CORETYPE,
    or else the one it detected), or "unknown" (see _openblas). The kernel
    decides the last bits of some products, so results repeat bitwise only
    under the same one."""
    fn = _openblas("get_corename")
    if fn is None:
        return "unknown"
    fn.argtypes, fn.restype = [], ctypes.c_char_p
    return fn().decode()


def _openblas(name):
    """OpenBLAS's function `name` of the BLAS numpy loaded, through ctypes,
    or None where it exports it under none of the names below (another
    BLAS, or an unknown build)."""
    umath = sys.modules.get("numpy._core._multiarray_umath") \
        or sys.modules.get("numpy.core._multiarray_umath")
    try:
        lib = ctypes.CDLL(umath.__file__)  # its symbols and its BLAS's
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if fn is not None:
                return fn
    return None


_pin_lock = threading.Lock()
_pins = 0  # single_blas_thread blocks running in this process
_unpinned_threads = None  # the count before the first of them


@contextlib.contextmanager
def single_blas_thread():
    """Run OpenBLAS on one thread inside the block, and give the caller's
    count back once the process's last such block returns, so blocks may
    nest and run in several threads at once; where numpy's BLAS exports no
    thread functions (see _openblas_threads), the block keeps the
    library's count. Every public explainer runs under it, and the workers
    it forks inherit the one thread, so an explainer's bytes depend
    neither on `workers` nor on the caller's thread count."""
    global _pins, _unpinned_threads
    get, set_threads = _openblas_threads("get"), _openblas_threads("set")
    if get is None or set_threads is None:
        yield
        return
    with _pin_lock:
        if not _pins:
            _unpinned_threads = get()
            set_threads(1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if not _pins:
                set_threads(_unpinned_threads)


def usable_cpus():
    """The CPUs this process may run on: the explainers' default worker
    count and the default job count of a run."""
    return len(os.sched_getaffinity(0))


_worker_block = None  # a forked worker's block function (_set_worker_block)


def _set_worker_block(fn):
    """A forked worker's initializer: keep the block function."""
    global _worker_block
    _worker_block = fn


def _run_worker_block(args):
    return _worker_block(*args)


def _map_blocks(block, tasks, workers):
    """Yield block(*args) for args in tasks, lazily and in task order, so
    the caller can use each result before the later tasks finish. With
    min(len(tasks), workers) above 1 (workers None: the usable CPUs), the
    tasks run on a fork pool of that many processes, each with the
    parent's OpenBLAS thread count (one inside an explainer or a run, see
    single_blas_thread); else they run here. The pool hands the tasks out
    in order, so list the longest first. block reaches the workers by
    fork, not by pickling, and a worker's exception is raised here as
    itself. This is the package's only process pool."""
    if workers is None:
        workers = usable_cpus()
    procs = min(len(tasks), workers)
    if procs <= 1:
        yield from (block(*args) for args in tasks)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    # fork hands block (a closure over the batch and the classifier) to the
    # workers without pickling it; the pool forks before it starts a thread
    with ProcessPoolExecutor(
            procs, mp_context=multiprocessing.get_context("fork"),
            initializer=_set_worker_block, initargs=(block,)) as pool:
        yield from pool.map(_run_worker_block, tasks)


def _optimize_blocks(shape, block, workers):
    """Run block(lo, hi) over the row blocks of a batch of `shape` and join
    their (scores, iterations_run, iterations_per_row, history, terms) into
    one call's: the run's count is the longest block's, a block that
    stopped earlier repeats each row's last loss, and each term is the mean
    over all rows. A batch of no rows runs no iteration and has no terms.
    Returns (scores, metadata)."""
    if not shape[0]:
        return np.empty(shape), {
            "iterations_run": 0,
            "iterations_per_row": np.zeros(0, dtype=np.int64),
            "loss_history": np.empty((0, 0))}
    parts = _map_blocks(block, _row_blocks(shape[0]), workers)
    scores, counts, per_row, histories, terms = zip(*parts)
    its = max(counts)
    history = np.concatenate(
        [np.pad(h, ((0, its - len(h)), (0, 0)), mode="edge")
         for h in histories], axis=1)
    meta = {"iterations_run": its,
            "iterations_per_row": np.concatenate(per_row),
            "loss_history": history,
            **{name: float(np.mean(np.concatenate([t[name] for t in terms])))
               for name in terms[0]}}
    return np.concatenate(scores), meta


def _learned_block(X, ref, classifier, config):
    """_optimize_mask for the rows of X, with their own mask and one
    generator (seeded by config.seed) shared by the rows; returns
    _optimize_blocks' block tuple."""
    snap = classifier.snapshot()
    B, T, n = X.shape
    mask = Mask(B, T, n)
    gen = PerturbationGenerator(config.generator, n,
                                hidden=config.generator_hidden,
                                seed=config.seed)

    def loss(x, ref):
        m = mask.values
        phi, nn_x = apply_learned(x, m, gen)
        logits = classifier_forward(phi, classifier)
        ce_b = _per_sample_ce(logits, ref)
        m_flat = ad.reshape(m, (len(x), T * n))
        if config.mode == PRESERVATION:
            m_term = ad.tmean(m_flat, axis=1)
        else:
            m_term = ad.tmean(ad.sub(1.0, m_flat), axis=1)
        nn_term = ad.tmean(
            ad.reshape(ad.tabs(nn_x), (len(x), T * n)), axis=1)
        loss_b = ad.add(
            ad.add(ad.mul(m_term, config.lambda1),
                   ad.mul(nn_term, config.lambda2)), ce_b)
        return loss_b, {"mask_term": m_term.data,
                        "generator_term": nn_term.data,
                        "ce_term": ce_b.data}

    out = _optimize_mask(
        mask, config.mask_lr, config.iterations, loss, (X, ref),
        shared=[ad.Adam(gen.parameters(), lr=config.generator_lr)])
    classifier.check_unchanged(snap)
    return out


@single_blas_thread()
def explain_learned(x, classifier: ClassifierParams,
                    config: ExplainerConfig = None,
                    workers=None) -> SaliencyMap:
    """Optimize a mask per sample and a generator per row block (a sample
    freezes once its loss stops improving, and the block's generator goes
    on training on the rest).

    The rows are optimized in the blocks of _row_blocks, on `workers`
    processes (None: the usable CPUs); the worker count never changes a
    bit. Every block's generator starts from config.seed, so a call on
    the rows of one block reproduces that block of a larger call. The
    metadata holds iterations_run, iterations_per_row (the iteration count
    at which each row froze), the (iterations_run, B) loss_history, in
    which a frozen row repeats its last computed loss, and mask_term,
    generator_term and ce_term: means over all rows of each row's terms
    at its last computed iteration.
    """
    config = config or ExplainerConfig()
    X = _as_batch(x)
    _check_frozen(classifier)
    ref = _reference_probs(X, classifier, config.mode)
    scores, meta = _optimize_blocks(
        X.shape, lambda lo, hi: _learned_block(
            X[lo:hi], ref[lo:hi], classifier, config),
        workers)
    meta.update(mode=config.mode, generator=config.generator)
    return SaliencyMap(scores=scores, method=f"learned_{config.generator}",
                       metadata=meta)


def area_target(total_cells, area):
    """(1 - a) * cells zeros followed by a * cells ones."""
    ones = int(round(area * total_cells))
    r = np.zeros(total_cells)
    if ones:
        r[-ones:] = 1.0
    return r


def _dynamask_block(X, ref, classifier, iterations):
    """_optimize_mask for the rows of X with their own mask and Adam;
    returns _optimize_blocks' block tuple."""
    snap = classifier.snapshot()
    B, T, n = X.shape
    mask = Mask(B, T, n)
    r_a = Tensor(area_target(T * n, DYNAMASK_AREA))
    # the surrogate does not depend on the mask: one per block
    mu = window_average(X, DYNAMASK_WINDOW)

    def loss(x, ref, mu):
        m = mask.values
        phi = apply_fixed(x, m, mu)
        logits = classifier_forward(phi, classifier)
        ce_b = _per_sample_ce(logits, ref)
        sorted_m = ad.sort_last_axis(ad.reshape(m, (len(x), T * n)))
        d = ad.sub(sorted_m, r_a)
        reg_b = ad.tmean(ad.mul(d, d), axis=1)
        return ad.add(ad.mul(reg_b, DYNAMASK_REG_WEIGHT), ce_b), {}

    out = _optimize_mask(mask, DYNAMASK_LR, iterations, loss, (X, ref, mu))
    classifier.check_unchanged(snap)
    return out


@single_blas_thread()
def explain_dynamask(x, classifier: ClassifierParams, iterations=500,
                     workers=None) -> SaliencyMap:
    """Fixed-perturbation mask baseline: optimizes the mask alone, for at
    most `iterations` iterations, under the preservation objective with the
    sorted-mask area regularizer, in the row blocks, on the workers and
    with the stopping rule of explain_learned. The blend's surrogate is
    window_average(x, DYNAMASK_WINDOW), the regularizer pulls the sorted
    mask towards area_target(cells, DYNAMASK_AREA) with weight
    DYNAMASK_REG_WEIGHT, and Adam steps at DYNAMASK_LR; the metadata
    records the area and the window."""
    _check_steps(iterations)
    X = _as_batch(x)
    _check_frozen(classifier)
    ref = _reference_probs(X, classifier, PRESERVATION)
    scores, meta = _optimize_blocks(
        X.shape, lambda lo, hi: _dynamask_block(
            X[lo:hi], ref[lo:hi], classifier, iterations),
        workers)
    meta.update(area=DYNAMASK_AREA, window=DYNAMASK_WINDOW)
    return SaliencyMap(scores=scores, method="dynamask", metadata=meta)


@single_blas_thread()
def occlusion(x, classifier: ClassifierParams, workers=None) -> SaliencyMap:
    """Score of each cell: |f(x) - f(x with the cell set to
    OCCLUSION_BASELINE)|, f being target_score.

    Copy i of the batch sets feature i to the baseline. All copies of one
    step go through perturbed_step_scores, which reuses the classifier's
    states on the unchanged side of that step. Its step blocks run on
    `workers` processes (None: the usable CPUs), and like every explainer
    on one OpenBLAS thread each, so the worker count moves no bit.
    """
    X = _as_batch(x)
    _check_frozen(classifier)
    B, T, n = X.shape
    cells = np.arange(n)

    def replacements(t):
        rows = np.repeat(X[None, :, t], n, axis=0)
        rows[cells, :, cells] = OCCLUSION_BASELINE
        return rows

    base = target_score(X, classifier)
    sc = perturbed_step_scores(
        X, classifier, replacements,
        map_blocks=partial(_map_blocks, workers=workers))
    raw = np.ascontiguousarray(np.abs(base - sc).transpose(2, 0, 1))
    return SaliencyMap(scores=_minmax_per_sample(raw), method="occlusion",
                       metadata={"raw": raw})


@single_blas_thread()
def augmented_occlusion(x, classifier: ClassifierParams,
                        reference: np.ndarray, draws=10, seed=0,
                        workers=None) -> SaliencyMap:
    """Occlusion with cell values resampled from the feature's empirical
    distribution across the reference dataset; scores average |delta|
    over the draws.

    Copy i of the batch repeats each sample `draws` times and resamples
    feature i, one draw per row. All draws are made up front, in the
    order t, then i, then row, and are the values rng.choice(pool[:, i],
    size=B * draws) gives for each t and i in turn. So the step blocks of
    perturbed_step_scores can run in any order, on `workers` processes and
    one OpenBLAS thread each, as in occlusion. The reference's last axis
    holds x's n features.
    """
    X = _as_batch(x)
    _check_frozen(classifier)
    reference = np.asarray(reference, dtype=np.float64)
    if reference.size == 0:
        raise ValueError("augmented_occlusion: empty reference dataset")
    if draws < 1:
        raise ValueError("augmented_occlusion: draws must be >= 1")
    B, T, n = X.shape
    if reference.shape[-1] != n:
        raise ValueError(f"augmented_occlusion: reference {reference.shape} "
                         f"has another feature count than x {X.shape}")
    pool = reference.reshape(-1, n)  # (N*T, n)
    picks = np.random.default_rng(seed).integers(
        0, len(pool), size=(T, n, B * draws))  # pool rows
    cells = np.arange(n)

    def replacements(t):
        rows = np.repeat(np.repeat(X[None, :, t], draws, axis=1), n, axis=0)
        rows[cells, :, cells] = pool[picks[t], cells[:, None]]
        return rows

    base = target_score(X, classifier)
    sc = perturbed_step_scores(
        X, classifier, replacements, repeats=draws,
        map_blocks=partial(_map_blocks, workers=workers)
    ).reshape(T, n, B, draws)
    raw = np.abs(base[:, None] - sc).mean(axis=-1).transpose(2, 0, 1)
    raw = np.ascontiguousarray(raw)
    return SaliencyMap(scores=_minmax_per_sample(raw),
                       method="augmented_occlusion", metadata={"raw": raw})


@single_blas_thread()
def integrated_gradients(x, classifier: ClassifierParams,
                         steps=128) -> SaliencyMap:
    """Midpoint-rule path integral of the gradients of the positive-class
    probabilities, from the constant input IG_BASELINE to x. Raw
    attributions live in metadata; scores are min-max normalized."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    X = _as_batch(x)
    _check_frozen(classifier)
    baseline = np.full_like(X, IG_BASELINE)
    diff = X - baseline
    avg_grad = np.zeros_like(X)
    with reuse_buffers():  # every step tapes the same shapes
        for k in range(steps):
            alpha = (k + 0.5) / steps
            point = Tensor(baseline + alpha * diff, requires_grad=True)
            with ad.Tape():
                logits = classifier_forward(point, classifier)
                ad.tsum(ad.sigmoid(logits)).backward()
            avg_grad += point.grad
    raw = diff * (avg_grad / steps)
    return SaliencyMap(scores=_minmax_per_sample(np.abs(raw)),
                       method="integrated_gradients",
                       metadata={"raw": raw, "steps": steps})


# ---------------------------------------------------------------------------
# serialization


def save_saliency_csv(saliency: SaliencyMap, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample_id", "t", "feature", "score"])
        N, T, n = saliency.scores.shape
        for b in range(N):
            for t in range(T):
                for i in range(n):
                    w.writerow([b, t, i, repr(float(saliency.scores[b, t, i]))])


def load_saliency_csv(path):
    """The map save_saliency_csv wrote; ValueError if the header lacks one
    of its columns, a line does not parse, the file has no rows, a row
    has a negative index or a score that is not finite, or there is other
    than one row for each (sample, t, feature) cell of its grid."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for name in ("sample_id", "t", "feature", "score"):
            if name not in (reader.fieldnames or ()):
                raise ValueError(f"the header lacks the column {name!r}")
        for rec in reader:
            try:  # a short line leaves its last fields None
                rows.append((int(rec["sample_id"]), int(rec["t"]),
                             int(rec["feature"]), float(rec["score"])))
            except (TypeError, ValueError):
                raise ValueError(
                    f"line {reader.line_num} does not hold an integer "
                    "sample_id, t and feature and a score") from None
    if not rows:
        raise ValueError("no saliency rows")
    for b, t, i, s in rows:
        if min(b, t, i) < 0:
            raise ValueError(f"sample {b}, t {t}, feature {i} has a "
                             "negative index")
        if not np.isfinite(s):
            raise ValueError(f"sample {b}, t {t}, feature {i} has the "
                             f"non-finite score {s}")
    N = max(r[0] for r in rows) + 1
    T = max(r[1] for r in rows) + 1
    n = max(r[2] for r in rows) + 1
    scores = np.zeros((N, T, n))
    counts = np.zeros((N, T, n), dtype=np.int64)
    for b, t, i, s in rows:
        scores[b, t, i] = s
        counts[b, t, i] += 1
    if (counts != 1).any():
        b, t, i = np.argwhere(counts != 1)[0]
        k = counts[b, t, i]
        raise ValueError(f"sample {b}, t {t}, feature {i} has "
                         + ("no row" if k == 0 else f"{k} rows"))
    return SaliencyMap(scores=scores, method="loaded")
