import multiprocessing
import os

import numpy as np
import pytest

from tempex import autodiff as ad
from tempex import explainers as ex
from tempex import nets


def finite_difference_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * h)
    return g


def analytic_grad(build, x):
    """Gradient of the scalar produced by `build` (Tensor -> Tensor)."""
    leaf = ad.Tensor(np.asarray(x, dtype=np.float64).copy(),
                     requires_grad=True)
    with ad.Tape():
        out = build(leaf)
        out.backward()
    return leaf.grad


def assert_gradcheck(build, x, rtol=1e-4, h=1e-5):
    got = analytic_grad(build, x)

    def scalar_fn(arr):
        with_no_tape = build(ad.Tensor(arr))
        return float(with_no_tape.data)

    want = finite_difference_grad(scalar_fn, np.asarray(x, dtype=np.float64),
                                  h=h)
    denom = np.maximum(np.abs(want), 1.0)
    err = np.max(np.abs(got - want) / denom)
    assert err < rtol, f"gradcheck failed: max rel err {err:.3e}"


def classifier_or_refusal(rng, n, hidden, direction,
                          readout=nets.PER_TIMESTEP):
    """init_classifier(rng, n, hidden, readout) for a forward GRU. The
    classifier is a forward GRU only: for any other direction, check that
    building one is refused with the direction named, and return None."""
    if direction == nets.FORWARD:
        return nets.init_classifier(rng, n, hidden, readout)
    with pytest.raises(ValueError, match=repr(direction)):
        # init_gru knows no backward pass, and ClassifierParams takes no
        # bidirectional GRU
        gru = nets.init_gru(rng, n, hidden, direction)
        nets.ClassifierParams(
            gru, ad.Tensor(np.zeros((gru.output_size, 1))),
            ad.Tensor(np.zeros(1)), readout)
    return None


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test that leaves a child process running: every pool of
    the package must be closed, and its workers joined, by the time the
    call that started it returns."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def diverges_in_workers(monkeypatch):
    """Mask explainer losses turn non-finite in forked worker processes
    only, and the blocks have two rows."""
    monkeypatch.setattr(ex, "BLOCK_ROWS", 2)
    parent, ce = os.getpid(), ex._per_sample_ce
    monkeypatch.setattr(
        ex, "_per_sample_ce", lambda logits, ref: ad.mul(
            ce(logits, ref), 1.0 if os.getpid() == parent else np.nan))


@pytest.fixture
def short_draws_in_workers(monkeypatch):
    """augmented_occlusion's replacements (the copies with repeats > 1)
    come out one row short in forked worker processes only."""
    parent, scores = os.getpid(), ex.perturbed_step_scores

    def patched(x, params, replacements, repeats=1, **kw):
        def short(t):
            rows = replacements(t)
            return rows if repeats == 1 or os.getpid() == parent \
                else rows[:, 1:]
        return scores(x, params, short, repeats, **kw)

    monkeypatch.setattr(ex, "perturbed_step_scores", patched)
