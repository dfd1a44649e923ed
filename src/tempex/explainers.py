"""Attribution methods.

The learned-perturbation explainer jointly optimizes a per-sample mask and
a per-sample perturbation generator against a frozen classifier:

    preservation:  l1 * mean(m) + l2 * mean(|nn(x)|) + CE(f(x), f(phi))
    deletion:      l1 * mean(1 - m) + l2 * mean(|nn(x)|) + CE(f(0), f(phi))

Baselines: a fixed-perturbation mask explainer with the sorted-mask area
regularizer, Occlusion, Augmented Occlusion, and Integrated Gradients.
Mask methods emit the mask itself as the saliency map; gradient and
occlusion scores are min-max normalized into [0, 1] per sample.
"""

from __future__ import annotations

import contextlib
import csv
import os
import sys
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nets import ClassifierParams, classifier_forward, \
    perturbed_step_scores, predict_proba, target_score
from .perturbation import (
    BIDIRECTIONAL,
    FixedPerturbationConfig,
    Mask,
    PerturbationGenerator,
    apply_fixed,
    apply_learned,
    blend,
    fixed_surrogate,
)

PRESERVATION = "preservation"
DELETION = "deletion"
# the mask explainers optimize max(1, B // BLOCK_ROWS) contiguous row
# blocks, each on its own tape (see _optimize_blocks)
BLOCK_ROWS = 24


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
    early_stop_tol: float = 1e-6
    early_stop_patience: int = 10
    target: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda weights must be >= 0")
        if self.mode not in (PRESERVATION, DELETION):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


@dataclass
class DynamaskConfig:
    perturbation: FixedPerturbationConfig = field(
        default_factory=FixedPerturbationConfig)
    area: float = 0.1
    reg_weight: float = 1.0
    lr: float = 0.01
    iterations: int = 500
    early_stop_tol: float = 1e-6
    early_stop_patience: int = 10
    target: int = 1

    def __post_init__(self):
        if not 0 < self.area <= 1:
            raise ValueError("area must be in (0, 1]")
        if self.iterations < 0:
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


def _reference_probs(X, classifier, mode, target):
    if mode == PRESERVATION:
        p = predict_proba(X, classifier)
    else:
        zero = np.zeros((1,) + X.shape[1:])
        p0 = predict_proba(zero, classifier)
        p = np.broadcast_to(p0, (X.shape[0],) + p0.shape[1:]).copy()
    return p if target == 1 else 1.0 - p


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


def _optimize_mask(mask, optimizers, config, loss, inputs):
    """The optimization loop of both mask explainers.

    Each iteration tapes `loss(*inputs)`, which returns the per-row loss
    Tensor of the mask's rows and a dict of per-row loss terms, and steps
    the optimizers, one of which holds the mask. A row freezes once its
    loss has not dropped early_stop_tol below its best for
    early_stop_patience iterations: its mask row goes into the scores, and
    the row leaves the optimizers (Adam.keep_rows) and `inputs`, the
    loss's row-led arrays, so the loss only ever sees live rows. A frozen
    row's loss history repeats its last computed loss, and its terms are
    those of its last computed iteration.

    Returns (scores, iterations_run, iterations_per_row, history, terms),
    where iterations_per_row[b] is the iteration count at which row b froze
    (the run's count for a row that never froze).
    """
    B = mask.data.shape[0]
    scores = np.empty_like(mask.data)
    live = np.arange(B)  # the block rows still optimized, in order
    best = np.full(B, np.inf)
    stall = np.zeros(B, dtype=np.int64)
    per_row = np.zeros(B, dtype=np.int64)
    history = np.empty((config.iterations, B))
    last = np.zeros(B)
    terms = {}
    iterations_run = 0
    for it in range(config.iterations):
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
        improved = vals < best - config.early_stop_tol
        stall = np.where(improved, 0, stall + 1)
        best = np.minimum(best, vals)
        keep = stall < config.early_stop_patience
        if not keep.all():
            scores[live[~keep]] = mask.data[~keep]
            live, best, stall = live[keep], best[keep], stall[keep]
            for opt in optimizers:
                opt.keep_rows(keep)
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
    numpy loaded, through ctypes, or None where it exports none of the
    names below (another BLAS, or an unknown build)."""
    import ctypes
    umath = sys.modules.get("numpy._core._multiarray_umath") \
        or sys.modules.get("numpy.core._multiarray_umath")
    try:
        lib = ctypes.CDLL(umath.__file__)  # its symbols and its BLAS's
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_{kind}_num_threads{suffix}", None)
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


def _learned_block(X, ref, classifier, config, seeds):
    """_optimize_mask for the rows of X, with their own mask, generator
    (seeded by `seeds`) and Adam; returns _optimize_blocks' block tuple."""
    snap = classifier.snapshot()
    B, T, n = X.shape
    mask = Mask(B, T, n, init=0.5)
    gen = PerturbationGenerator(config.generator, B, n,
                                hidden=config.generator_hidden,
                                seed=config.seed, row_seeds=seeds)
    optimizers = [ad.Adam([mask.values], lr=config.mask_lr)]
    if gen.parameters():
        optimizers.append(ad.Adam(gen.parameters(), lr=config.generator_lr))

    def loss(x, ref):
        m = mask.values
        phi, nn_x = apply_learned(x, m, gen)
        logits = classifier_forward(phi, classifier)
        if config.target == 0:
            logits = ad.neg(logits)
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

    out = _optimize_mask(mask, optimizers, config, loss, (X, ref))
    classifier.check_unchanged(snap)
    return out


@single_blas_thread()
def explain_learned(x, classifier: ClassifierParams,
                    config: ExplainerConfig = None,
                    sample_seeds=None, workers=None) -> SaliencyMap:
    """Optimize mask + generator for each sample (rows are independent,
    and a sample freezes once its loss stops improving).

    The rows are optimized in the blocks of _row_blocks, on `workers`
    processes (None: the usable CPUs); the worker count never changes a
    bit. sample_seeds optionally pins the per-row generator init streams
    so a single-sample run can reproduce one row of a batched run. The
    metadata holds iterations_run, iterations_per_row (the iteration count
    at which each row froze), the (iterations_run, B) loss_history, in
    which a frozen row repeats its last computed loss, and mask_term,
    generator_term and ce_term: means over all rows of each row's terms
    at its last computed iteration.
    """
    config = config or ExplainerConfig()
    X = _as_batch(x)
    _check_frozen(classifier)
    if sample_seeds is None:
        sample_seeds = np.random.SeedSequence(config.seed).spawn(X.shape[0])
    ref = _reference_probs(X, classifier, config.mode, config.target)
    scores, meta = _optimize_blocks(
        X.shape, lambda lo, hi: _learned_block(
            X[lo:hi], ref[lo:hi], classifier, config, sample_seeds[lo:hi]),
        workers)
    meta.update(mode=config.mode, generator=config.generator)
    return SaliencyMap(scores=scores, method=f"learned_{config.generator}",
                       metadata=meta)


def vecsort(m):
    """Ascending sort of the flattened mask values (plain arrays)."""
    return np.sort(np.asarray(m).ravel())


def area_target(total_cells, area):
    """(1 - a) * cells zeros followed by a * cells ones."""
    ones = int(round(area * total_cells))
    r = np.zeros(total_cells)
    if ones:
        r[-ones:] = 1.0
    return r


def _dynamask_block(X, ref, classifier, config):
    """_optimize_mask for the rows of X with their own mask and Adam;
    returns _optimize_blocks' block tuple."""
    snap = classifier.snapshot()
    B, T, n = X.shape
    mask = Mask(B, T, n, init=0.5)
    r_a = Tensor(area_target(T * n, config.area))
    # a window kind's surrogate does not depend on the mask: one per block
    mu = fixed_surrogate(X, config.perturbation)

    def loss(x, ref, mu=None):
        m = mask.values
        phi = apply_fixed(x, m, config.perturbation) if mu is None \
            else blend(Tensor(x), m, Tensor(mu))
        logits = classifier_forward(phi, classifier)
        if config.target == 0:
            logits = ad.neg(logits)
        ce_b = _per_sample_ce(logits, ref)
        sorted_m = ad.sort_last_axis(ad.reshape(m, (len(x), T * n)))
        d = ad.sub(sorted_m, r_a)
        reg_b = ad.tmean(ad.mul(d, d), axis=1)
        return ad.add(ad.mul(reg_b, config.reg_weight), ce_b), {}

    inputs = (X, ref) if mu is None else (X, ref, mu)
    out = _optimize_mask(mask, [ad.Adam([mask.values], lr=config.lr)],
                         config, loss, inputs)
    classifier.check_unchanged(snap)
    return out


@single_blas_thread()
def explain_dynamask(x, classifier: ClassifierParams,
                     config: DynamaskConfig = None,
                     workers=None) -> SaliencyMap:
    """Fixed-perturbation mask baseline: optimizes the mask alone under the
    preservation objective with the sorted-mask area regularizer, in the
    row blocks and on the workers of explain_learned."""
    config = config or DynamaskConfig()
    X = _as_batch(x)
    _check_frozen(classifier)
    ref = _reference_probs(X, classifier, PRESERVATION, config.target)
    scores, meta = _optimize_blocks(
        X.shape, lambda lo, hi: _dynamask_block(
            X[lo:hi], ref[lo:hi], classifier, config),
        workers)
    meta.update(area=config.area, perturbation=config.perturbation.kind)
    return SaliencyMap(scores=scores, method="dynamask", metadata=meta)


@single_blas_thread()
def occlusion(x, classifier: ClassifierParams, baseline=0.0,
              target=1, workers=None) -> SaliencyMap:
    """Score of each cell: |f_c(x) - f_c(x with the cell set to baseline)|.

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
        rows[cells, :, cells] = baseline
        return rows

    base = target_score(X, classifier, target)
    sc = perturbed_step_scores(
        X, classifier, replacements, target,
        map_blocks=partial(_map_blocks, workers=workers))
    raw = np.ascontiguousarray(np.abs(base - sc).transpose(2, 0, 1))
    return SaliencyMap(scores=_minmax_per_sample(raw), method="occlusion",
                       metadata={"raw": raw})


@single_blas_thread()
def augmented_occlusion(x, classifier: ClassifierParams,
                        reference: np.ndarray, draws=10, seed=0,
                        target=1, workers=None) -> SaliencyMap:
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

    base = target_score(X, classifier, target)
    sc = perturbed_step_scores(
        X, classifier, replacements, target, repeats=draws,
        map_blocks=partial(_map_blocks, workers=workers)
    ).reshape(T, n, B, draws)
    raw = np.abs(base[:, None] - sc).mean(axis=-1).transpose(2, 0, 1)
    raw = np.ascontiguousarray(raw)
    return SaliencyMap(scores=_minmax_per_sample(raw),
                       method="augmented_occlusion", metadata={"raw": raw})


@single_blas_thread()
def integrated_gradients(x, classifier: ClassifierParams, baseline=None,
                         steps=50, target=1) -> SaliencyMap:
    """Midpoint-rule path integral of gradients from baseline to x. Raw
    attributions live in metadata; scores are min-max normalized."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    X = _as_batch(x)
    _check_frozen(classifier)
    B, T, n = X.shape
    if baseline is None:
        baseline = np.zeros_like(X)
    else:
        baseline = np.broadcast_to(
            np.asarray(baseline, dtype=np.float64), X.shape).copy()
    diff = X - baseline
    avg_grad = np.zeros_like(X)
    for k in range(steps):
        alpha = (k + 0.5) / steps
        point = Tensor(baseline + alpha * diff, requires_grad=True)
        with ad.Tape():
            logits = classifier_forward(point, classifier)
            p = ad.sigmoid(logits)
            if target == 0:
                p = ad.sub(1.0, p)
            total = ad.tsum(p)
            total.backward()
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


def load_saliency_csv(path, method="loaded"):
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append((int(rec["sample_id"]), int(rec["t"]),
                         int(rec["feature"]), float(rec["score"])))
    N = max(r[0] for r in rows) + 1
    T = max(r[1] for r in rows) + 1
    n = max(r[2] for r in rows) + 1
    scores = np.zeros((N, T, n))
    for b, t, i, s in rows:
        scores[b, t, i] = s
    return SaliencyMap(scores=scores, method=method)
