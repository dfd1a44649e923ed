import ast
import inspect
import math
import os
import warnings

import numpy as np
import pytest

from tempex import autodiff as ad
from tempex import nets
from tempex import perturbation as pert
from tempex.autodiff import Tensor

from conftest import assert_gradcheck


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(0.0)).item() == 0.5


def _sigmoid_reference(x):
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


class TestSigmoidKernel:
    def test_matches_math_exp_reference(self):
        x = np.linspace(-800.0, 800.0, 160_001)
        want = np.array([_sigmoid_reference(v) for v in x])
        # below x = -708 the true value is subnormal, and the kernel gives 0
        np.testing.assert_allclose(ad._sigmoid(x), want, rtol=1e-15,
                                   atol=np.finfo(np.float64).tiny)

    def test_zero_dimensional_input(self):
        out = ad._sigmoid(np.float64(2.0))
        assert out.shape == ()
        assert out == pytest.approx(_sigmoid_reference(2.0), rel=1e-15)

    def test_in_place_matches_fresh_output(self, rng):
        x = rng.normal(scale=10.0, size=(7, 5))
        before = x.copy()
        fresh = ad._sigmoid(x)
        np.testing.assert_array_equal(x, before)
        assert ad._sigmoid(x, out=x) is x
        np.testing.assert_array_equal(x, fresh)

    def test_no_overflow_warning_at_800(self):
        x = np.array([-800.0, 800.0])
        model = nets.init_classifier(np.random.default_rng(0), 2, 3).freeze()
        model.w_out.data[:] = 0.0
        logits = Tensor(x, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            np.testing.assert_array_equal(ad._sigmoid(x), [0.0, 1.0])
            for b in x:
                # the gate sums and the readout both overflow at -800:
                # through the GRU op's time loop, and through the cache
                # and the step blocks of perturbed_step_scores
                model.gru.fwd.b.data[:] = b
                model.b_out.data[:] = b
                p = nets.predict_proba(np.zeros((1, 4, 2)), model)
                np.testing.assert_array_equal(p, np.full((1, 4), b > 0))
                sc = nets.perturbed_step_scores(
                    np.zeros((2, 4, 2)), model,
                    lambda t: np.ones((3, 2, 2)))
                # per-timestep scores sum the 4 positions
                np.testing.assert_array_equal(sc, np.full((4, 3, 2),
                                                          4.0 * (b > 0)))
            with ad.Tape():
                ad.tsum(ad.cross_entropy_with_logits(
                    logits, Tensor([0.0, 1.0]))).backward()
        np.testing.assert_array_equal(logits.grad, [0.0, 0.0])


def _names_used_by_package(module):
    """Names that the package modules other than `module` take from it, as
    `alias.name` (any alias of the module) or `from .module import name`."""
    pkg = os.path.dirname(module.__file__)
    short = module.__name__.split(".")[-1]
    used = set()
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname == f"{short}.py":
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for a in node.names if a.name == short}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[-1] == short:
                used.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in aliases:
                used.add(node.attr)
    return used


def _public_functions(module):
    """The functions of `module`'s __all__, or, without one, the functions
    it defines under a name without a leading underscore."""
    names = getattr(module, "__all__", None) or [
        name for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__]
    return [name for name in names
            if inspect.isfunction(getattr(module, name))]


def test_exported_ops_exist_and_package_uses_them():
    namespace = {}
    exec("from tempex.autodiff import *", namespace)
    assert set(ad.__all__) <= set(namespace)
    for module in (ad, pert):
        used = _names_used_by_package(module)
        unused = [name for name in _public_functions(module)
                  if name not in used]
        assert not unused, \
            f"no other package module calls {module.__name__}.{unused}"


def test_bce_uniform_prediction():
    out = ad.cross_entropy_with_logits(Tensor(0.0), Tensor(1.0))
    assert out.item() == pytest.approx(np.log(2), abs=1e-12)


def test_sigmoid_grad_at_zero():
    x = Tensor(0.0, requires_grad=True)
    with ad.Tape():
        ad.sigmoid(x).backward()
    assert x.grad == pytest.approx(0.25, abs=1e-15)


def test_non_scalar_loss_rejected():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape():
        y = ad.mul(x, x)
        with pytest.raises(ad.ShapeError):
            y.backward()


def test_detached_leaf_has_no_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    z = Tensor([3.0, 4.0])  # detached
    with ad.Tape():
        loss = ad.tsum(ad.mul(x, z))
        loss.backward()
    assert x.grad is not None
    assert z.grad is None


def test_tape_cannot_be_reused():
    x = Tensor(1.0, requires_grad=True)
    with ad.Tape() as tape:
        y = ad.mul(x, x)
        y.backward()
    with pytest.raises(ad.TapeError):
        tape.backward(y)


def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ad.ShapeError) as exc:
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


PRIMITIVES = {
    "add": lambda x: ad.tsum(ad.add(x, ad.mul(x, 0.5))),
    "sub": lambda x: ad.tsum(ad.sub(x, ad.mul(x, 2.0))),
    "mul": lambda x: ad.tsum(ad.mul(x, x)),
    "matmul": lambda x: ad.tsum(ad.matmul(x, _const_mat(x))),
    "sigmoid": lambda x: ad.tsum(ad.sigmoid(x)),
    "sum": lambda x: ad.tsum(ad.mul(ad.tsum(x, axis=0), 2.0)),
    "mean": lambda x: ad.tmean(ad.mul(x, x)),
    "abs": lambda x: ad.tsum(ad.tabs(x)),
    "slice": lambda x: ad.tsum(ad.mul(x[1:, :2], x[1:, :2])),
    "cross_entropy_with_logits": lambda x: ad.tsum(
        ad.cross_entropy_with_logits(x, Tensor(np.full(x.shape, 0.3)))),
    "sort": lambda x: ad.tsum(ad.mul(ad.sort_last_axis(x),
                                     Tensor(_ramp(x.shape)))),
    "reshape": lambda x: ad.tsum(ad.mul(ad.reshape(x, (-1,)), 2.0)),
}


def _const_mat(x):
    rng = np.random.default_rng(7)
    return Tensor(rng.uniform(-1, 1, (x.shape[-1], 4)))


def _ramp(shape):
    return np.arange(np.prod(shape), dtype=np.float64).reshape(shape) + 1.0


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_gradcheck_primitives(name, rng):
    # values away from the abs kink at 0 so finite differences are clean
    x = rng.uniform(-2.0, 2.0, (3, 4))
    x[np.abs(x) < 0.05] += 0.1
    assert_gradcheck(PRIMITIVES[name], x)


def test_gradcheck_batched_matmul(rng):
    b = Tensor(rng.uniform(-1, 1, (5, 4, 3)))

    def build(x):
        return ad.tsum(ad.mul(ad.matmul(x, b), 0.7))

    assert_gradcheck(build, rng.uniform(-2, 2, (5, 2, 4)))


def test_chain_consistency_unrolled_recurrence(rng):
    """Backward through a 10-step unrolled recurrence equals backward
    through the equivalent flattened expression."""
    w = rng.uniform(-0.5, 0.5)
    x0 = rng.uniform(-1, 1)

    def unrolled(x):
        h = x
        for _ in range(10):
            h = ad.sigmoid(ad.mul(h, w))
        return h

    def flattened(x):
        s = ad.sigmoid
        return s(ad.mul(s(ad.mul(s(ad.mul(s(ad.mul(s(ad.mul(s(ad.mul(s(
            ad.mul(s(ad.mul(s(ad.mul(s(ad.mul(x, w)), w)), w)), w)), w)), w)),
            w)), w)), w)), w))

    ga = _scalar_grad(unrolled, x0)
    gb = _scalar_grad(flattened, x0)
    va = unrolled(Tensor(x0)).item()
    vb = flattened(Tensor(x0)).item()
    assert va == pytest.approx(vb, abs=0)
    assert ga == pytest.approx(gb, abs=1e-10)


def _scalar_grad(fn, x0):
    leaf = Tensor(x0, requires_grad=True)
    with ad.Tape():
        fn(leaf).backward()
    return float(leaf.grad)


def test_forward_ops_finite_on_finite_inputs(rng):
    x = Tensor(rng.uniform(-50, 50, (4, 4)))
    for out in [ad.sigmoid(x),
                ad.cross_entropy_with_logits(x, Tensor(np.full((4, 4), 0.5)))]:
        assert np.all(np.isfinite(out.data))


def test_grad_accumulates_across_reuse(rng):
    x = Tensor([1.5], requires_grad=True)
    with ad.Tape():
        y = ad.mul(x, x)  # x^2
        z = ad.add(y, ad.mul(x, 3.0))  # x^2 + 3x
        ad.tsum(z).backward()
    assert x.grad[0] == pytest.approx(2 * 1.5 + 3.0, abs=1e-12)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = Tensor(np.ones(4), requires_grad=True)
        opt = ad.Adam([p], lr=0.05)
        before = p.data.copy()
        for _ in range(10):
            p.grad = np.zeros(4)
            opt.step()
        assert np.max(np.abs(p.data - before)) < 1e-12

    def test_constant_gradient_moves_against_sign(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = ad.Adam([p], lr=0.01)
        g = np.array([1.0, -2.0])
        for _ in range(50):
            p.grad = g.copy()
            opt.step()
        assert p.data[0] < 0 and p.data[1] > 0

    def test_quadratic_bowl_convergence(self):
        w = Tensor([1.0], requires_grad=True)
        opt = ad.Adam([w], lr=0.05)
        for _ in range(500):
            with ad.Tape():
                loss = ad.mul(w, w)
                ad.tsum(loss).backward()
            opt.step()
            opt.zero_grad()
        assert abs(w.data[0]) < 1e-3

    def test_missing_grad_names_parameter(self):
        p = Tensor(np.zeros(3), requires_grad=True, name="mask")
        opt = ad.Adam([p])
        with pytest.raises(ValueError, match="mask"):
            opt.step()

    def test_dropped_row_matches_separate_runs(self, rng):
        # a two-row parameter that drops row 1 after 10 steps equals two
        # independent one-row optimizers, bit for bit: row 0 runs on for
        # 20 steps, row 1 stops at its 10th
        full = Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
        a = Tensor(full.data[0:1].copy(), requires_grad=True)
        b = Tensor(full.data[1:2].copy(), requires_grad=True)
        opt_full = ad.Adam([full], lr=0.02)
        opt_a, opt_b = ad.Adam([a], lr=0.02), ad.Adam([b], lr=0.02)
        for it in range(20):
            g = rng.uniform(-1, 1, full.shape)
            full.grad = g.copy()
            opt_full.step()
            a.grad = g[0:1].copy()
            opt_a.step()
            if it < 10:
                b.grad = g[1:2].copy()
                opt_b.step()
            if it == 9:
                np.testing.assert_array_equal(full.data[1:2], b.data)
                opt_full.keep_rows(np.array([True, False]))
            opt_full.zero_grad()
        np.testing.assert_array_equal(full.data, a.data)
        np.testing.assert_array_equal(opt_full.m[0], opt_a.m[0])
        np.testing.assert_array_equal(opt_full.v[0], opt_a.v[0])
        assert opt_full.t == opt_a.t == 20
