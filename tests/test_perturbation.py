import numpy as np
import pytest

from tempex import autodiff as ad
from tempex import nets
from tempex import perturbation as pert
from tempex.autodiff import Tensor

from conftest import assert_gradcheck


class TestWindowAverages:
    def test_centered_mean(self):
        x = np.array([[1.0], [2.0], [3.0]])
        out = pert.window_average(x, 1)
        assert out[1, 0] == 2.0

    def test_zero_window_is_identity(self, rng):
        x = rng.uniform(-1, 1, (6, 2))
        np.testing.assert_array_equal(pert.window_average(x, 0), x)

    def test_boundary_truncation_centered(self):
        x = np.array([[1.0], [2.0], [3.0]])
        out = pert.window_average(x, 1)
        assert out[0, 0] == 1.5
        assert out[2, 0] == 2.5

    def test_large_window_equals_series_mean(self, rng):
        x = rng.uniform(-1, 1, (7, 3))
        out = pert.window_average(x, 100)
        np.testing.assert_allclose(
            out, np.broadcast_to(x.mean(axis=0), x.shape), atol=1e-12)


class TestApplyFixed:
    def test_full_mask_returns_input(self, rng):
        x = rng.uniform(-1, 1, (6, 2))
        m = Tensor(np.ones((6, 2)))
        out = pert.apply_fixed(x, m, pert.window_average(x, 2))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_mask_returns_window_average(self, rng):
        x = rng.uniform(-1, 1, (6, 2))
        m = Tensor(np.zeros((6, 2)))
        mu = pert.window_average(x, 2)
        out = pert.apply_fixed(x, m, mu)
        np.testing.assert_allclose(out.data, mu, atol=1e-15)

    def test_half_mask_blend(self):
        # window 0 makes mu = x, so the blend is x again; force mu = 0 via
        # an antisymmetric series instead
        x = np.array([[2.0], [-2.0], [2.0], [-2.0]])
        mu = pert.window_average(x, 1)
        out = pert.apply_fixed(x, Tensor(np.full((4, 1), 0.5)), mu)
        np.testing.assert_allclose(out.data, 0.5 * x + 0.5 * mu, atol=1e-15)

    def test_shape_mismatch_rejected(self, rng):
        x = rng.uniform(size=(4, 2))
        with pytest.raises(ad.ShapeError, match="mask"):
            pert.apply_fixed(x, Tensor(np.ones((5, 2))), np.zeros((4, 2)))
        with pytest.raises(ad.ShapeError, match=r"surrogate \(5, 2\)"):
            pert.apply_fixed(x, Tensor(np.ones((4, 2))), np.zeros((5, 2)))


class TestLearned:
    def _xm(self, rng, B=2, T=5, n=3):
        x = rng.uniform(-1, 1, (B, T, n))
        return x

    def test_full_mask_exact_input(self, rng):
        x = self._xm(rng)
        gen = pert.PerturbationGenerator(pert.BIDIRECTIONAL, 3, hidden=4)
        m = Tensor(np.ones(x.shape))
        phi, _ = pert.apply_learned(x, m, gen)
        np.testing.assert_array_equal(phi.data, x)

    def test_zero_mask_exact_generator_output(self, rng):
        x = self._xm(rng)
        gen = pert.PerturbationGenerator(pert.UNIDIRECTIONAL, 3, hidden=4)
        m = Tensor(np.zeros(x.shape))
        phi, nn_x = pert.apply_learned(x, m, gen)
        np.testing.assert_array_equal(phi.data, nn_x.data)

    def test_zero_generator_half_mask(self):
        x = np.full((1, 4, 2), 2.0)
        gen = pert.PerturbationGenerator(pert.ZERO, 2)
        phi, _ = pert.apply_learned(x, Tensor(np.full(x.shape, 0.5)), gen)
        np.testing.assert_array_equal(phi.data, np.full(x.shape, 1.0))

    def test_interpolation_property(self, rng):
        x = self._xm(rng)
        gen = pert.PerturbationGenerator(pert.BIDIRECTIONAL, 3, hidden=4,
                                         seed=5)
        m = Tensor(rng.uniform(0, 1, x.shape))
        phi, nn_x = pert.apply_learned(x, m, gen)
        lo = np.minimum(x, nn_x.data) - 1e-12
        hi = np.maximum(x, nn_x.data) + 1e-12
        assert np.all(phi.data >= lo) and np.all(phi.data <= hi)

    def test_generator_output_shape(self, rng):
        x = self._xm(rng, B=3, T=6, n=2)
        for kind in (pert.ZERO, pert.UNIDIRECTIONAL, pert.BIDIRECTIONAL):
            gen = pert.PerturbationGenerator(kind, 2, hidden=4)
            assert gen.forward(Tensor(x)).shape == x.shape

    def test_phi_gradcheck_wrt_mask_and_generator(self, rng):
        x = self._xm(rng, B=1, T=4, n=2)
        gen = pert.PerturbationGenerator(pert.UNIDIRECTIONAL, 2, hidden=3,
                                         seed=2)

        def build_mask(m):
            phi, _ = pert.apply_learned(x, m, gen)
            return ad.tsum(ad.mul(phi, 0.4))

        assert_gradcheck(build_mask, rng.uniform(0.1, 0.9, x.shape))

        # gradcheck one generator weight tensor through phi
        w = gen.gru.fwd.w_x

        def scalar_of_weights(wdata):
            w.data = wdata
            phi, _ = pert.apply_learned(x, Tensor(np.full(x.shape, 0.3)), gen)
            return float(ad.tsum(ad.mul(phi, 0.4)).data)

        w0 = w.data.copy()
        for p in gen.parameters():
            p.zero_grad()
        with ad.Tape():
            phi, _ = pert.apply_learned(x, Tensor(np.full(x.shape, 0.3)), gen)
            ad.tsum(ad.mul(phi, 0.4)).backward()
        got = w.grad.copy()
        from conftest import finite_difference_grad
        want = finite_difference_grad(scalar_of_weights, w0.copy())
        w.data = w0
        err = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))
        assert err < 1e-4

    @pytest.mark.parametrize("kind, direction", [
        (pert.UNIDIRECTIONAL, nets.FORWARD),
        (pert.BIDIRECTIONAL, nets.BIDIRECTIONAL)])
    def test_one_parameter_set_for_every_row(self, rng, kind, direction):
        gen = pert.PerturbationGenerator(kind, 3, hidden=4, seed=6)
        gru = nets.init_gru(np.random.default_rng(6), 3, 4, direction)
        D = gru.output_size
        assert [p.shape for p in gen.parameters()] == \
            [t.shape for t in gru.tensors()] + [(D, 3), (3,)]
        for got, want in zip(gen.parameters(), gru.tensors()):
            np.testing.assert_array_equal(got.data, want.data)
        # batches of any size run through the same network, row by row
        x = rng.uniform(-1, 1, (5, 6, 3))
        out = gen.forward(Tensor(x)).data
        for b in range(5):
            np.testing.assert_allclose(
                gen.forward(Tensor(x[b:b + 1])).data[0], out[b],
                rtol=0, atol=1e-14)

    def test_mask_projection(self):
        m = pert.Mask(1, 3, 2)
        m.values.data += 5.0
        m.project()
        assert np.all(m.data <= 1.0) and np.all(m.data >= 0.0)
