import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from tempex import autodiff as ad
from tempex import nets
from tempex.autodiff import Tensor
from tempex.data import TimeSeriesDataset

from conftest import assert_gradcheck


def _zero_direction(n, H):
    return nets.GruDirectionParams(
        w_x=Tensor(np.zeros((n, 3 * H))),
        w_h=Tensor(np.zeros((H, 3 * H))),
        b=Tensor(np.zeros(3 * H)),
    )


def _one_pass(dp, n, H, reverse=False):
    """GruParams of the single pass dp, run in reverse if asked."""
    return nets.GruParams(n, H, nets.BACKWARD if reverse else nets.FORWARD,
                          fwd=dp)


def test_zero_weights_fixed_point():
    dp = _zero_direction(3, 4)
    h = nets.gru_forward(Tensor(np.ones((1, 3, 3))), _one_pass(dp, 3, 4))
    np.testing.assert_array_equal(h.data, np.zeros((1, 3, 4)))


def test_saturated_candidate_stays_in_tanh_range():
    dp = _zero_direction(2, 3)
    dp.b = Tensor(np.concatenate([np.zeros(6), np.full(3, 50.0)]))
    h = nets.gru_forward(Tensor(np.ones((1, 3, 2))), _one_pass(dp, 2, 3))
    assert np.all(np.abs(h.data) < 1.0)


def test_cell_matches_scalar_recomputation(rng):
    n, H, T = 3, 4, 3
    p = nets.init_gru(rng, n, H)
    x = rng.uniform(-1, 1, (1, T, n))

    # independent scalar re-computation of the gate equations
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    wx, wh, b = p.fwd.w_x.data, p.fwd.w_h.data, p.fwd.b.data
    for reverse in (False, True):
        got = nets.gru_forward(Tensor(x), _one_pass(p.fwd, n, H, reverse))
        want = np.empty((T, H))
        h_prev = np.zeros(H)
        for t in (range(T - 1, -1, -1) if reverse else range(T)):
            xt = x[0, t]
            for j in range(H):
                xr = sum(xt[a] * wx[a, j] for a in range(n)) + b[j]
                hr = sum(h_prev[a] * wh[a, j] for a in range(H))
                xz = sum(xt[a] * wx[a, H + j] for a in range(n)) + b[H + j]
                hz = sum(h_prev[a] * wh[a, H + j] for a in range(H))
                xc = sum(xt[a] * wx[a, 2 * H + j]
                         for a in range(n)) + b[2 * H + j]
                hc = sum(h_prev[a] * wh[a, 2 * H + j] for a in range(H))
                r, z = sig(xr + hr), sig(xz + hz)
                c = np.tanh(xc + r * hc)
                want[t, j] = (1 - z) * c + z * h_prev[j]
            h_prev = want[t]
        np.testing.assert_allclose(got.data[0], want, atol=1e-12)


@pytest.mark.parametrize("reverse", [False, True],
                         ids=["shared-forward", "shared-reverse"])
@pytest.mark.parametrize("wrt", ["x", "w_x", "w_h", "b"])
def test_gradcheck_gru_direction(rng, wrt, reverse):
    B, T, n, H = 3, 4, 2, 3
    arrays = {"w_x": rng.normal(0, 0.4, (n, 3 * H)),
              "w_h": rng.normal(0, 0.4, (H, 3 * H)),
              "b": rng.normal(0, 0.1, 3 * H),
              "x": rng.normal(0, 1, (B, T, n))}
    weight = Tensor(rng.normal(0, 1, (B, T, H)))

    def build(leaf):
        given = {k: leaf if k == wrt else Tensor(v)
                 for k, v in arrays.items()}
        dp = nets.GruDirectionParams(given["w_x"], given["w_h"], given["b"])
        out = nets.gru_forward(given["x"], _one_pass(dp, n, H, reverse))
        return ad.tsum(ad.mul(out, weight))

    assert_gradcheck(build, arrays[wrt], rtol=1e-4)


@pytest.mark.parametrize("wrt", ["x", "fwd.w_x", "fwd.w_h", "fwd.b",
                                 "bwd.w_x", "bwd.w_h", "bwd.b"])
def test_gradcheck_bidirectional_gru(rng, wrt):
    B, T, n, H = 3, 4, 2, 3
    arrays = {"x": rng.normal(0, 1, (B, T, n))}
    for d in ("fwd", "bwd"):
        arrays.update({f"{d}.w_x": rng.normal(0, 0.4, (n, 3 * H)),
                       f"{d}.w_h": rng.normal(0, 0.4, (H, 3 * H)),
                       f"{d}.b": rng.normal(0, 0.1, 3 * H)})
    weight = Tensor(rng.normal(0, 1, (B, T, 2 * H)))

    def build(leaf):
        given = {k: leaf if k == wrt else Tensor(v)
                 for k, v in arrays.items()}
        fwd, bwd = (nets.GruDirectionParams(given[f"{d}.w_x"],
                                            given[f"{d}.w_h"],
                                            given[f"{d}.b"])
                    for d in ("fwd", "bwd"))
        p = nets.GruParams(n, H, nets.BIDIRECTIONAL, fwd=fwd, bwd=bwd)
        return ad.tsum(ad.mul(nets.gru_forward(given["x"], p), weight))

    assert_gradcheck(build, arrays[wrt], rtol=1e-4)


@pytest.mark.parametrize("B", [1, 5])
def test_bidirectional_pass_matches_its_two_directions(rng, B):
    # one op over both passes gives the bits of a FORWARD and a BACKWARD
    # op over the same direction tensors, output and every gradient
    T, n, H = 6, 3, 4
    p = nets.init_gru(rng, n, H, nets.BIDIRECTIONAL)
    X = rng.normal(0, 1, (B, T, n))
    weight = rng.normal(0, 1, (B, T, 2 * H))

    def run(split):
        x = Tensor(X, requires_grad=True)
        for t in p.tensors():
            t.grad = None
        with ad.Tape():
            if split:
                halves = [nets.gru_forward(x, nets.GruParams(n, H, d, fwd=dp))
                          for d, dp in ((nets.FORWARD, p.fwd),
                                        (nets.BACKWARD, p.bwd))]
                out = np.concatenate([h.data for h in halves], axis=2)
                loss = ad.add(*(ad.tsum(ad.mul(h, Tensor(w)))
                                for h, w in zip(halves, (weight[..., :H],
                                                         weight[..., H:]))))
            else:
                whole = nets.gru_forward(x, p)
                out = whole.data
                loss = ad.tsum(ad.mul(whole, Tensor(weight)))
            loss.backward()
        return [out, x.grad] + [t.grad for t in p.tensors()]

    for got, want in zip(run(split=False), run(split=True)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("direction", [nets.FORWARD, nets.BIDIRECTIONAL])
def test_taped_output_matches_untaped(rng, direction):
    p = nets.init_gru(rng, 3, 4, direction)
    x = Tensor(rng.normal(0, 1, (5, 7, 3)))
    untaped = nets.gru_forward(x, p).data
    with ad.Tape():
        taped = nets.gru_forward(x, p)
    assert taped._tape is not None  # the weights are tracked
    np.testing.assert_array_equal(taped.data, untaped)


def test_bidirectional_single_step_uses_same_input(rng):
    p = nets.init_gru(rng, 2, 3, nets.BIDIRECTIONAL)
    x = rng.uniform(-1, 1, (1, 1, 2))
    out = nets.gru_forward(Tensor(x), p)
    assert out.shape == (1, 1, 6)
    fwd_half = nets.gru_forward(Tensor(x), nets.GruParams(2, 3, nets.FORWARD,
                                                          fwd=p.fwd))
    np.testing.assert_array_equal(out.data[..., :3], fwd_half.data)


def test_unidirectional_causality(rng):
    p = nets.init_gru(rng, 2, 4)
    x = rng.uniform(-1, 1, (1, 8, 2))
    out = nets.gru_forward(Tensor(x), p).data
    x2 = x.copy()
    x2[0, 5:, :] += 10.0  # suffix perturbation
    out2 = nets.gru_forward(Tensor(x2), p).data
    np.testing.assert_array_equal(out[:, :5], out2[:, :5])
    assert not np.allclose(out[:, 5:], out2[:, 5:])


def test_bidirectional_sees_the_future(rng):
    p = nets.init_gru(rng, 2, 4, nets.BIDIRECTIONAL)
    x = rng.uniform(-1, 1, (1, 8, 2))
    out = nets.gru_forward(Tensor(x), p).data
    x2 = x.copy()
    x2[0, 6, :] += 1.0
    out2 = nets.gru_forward(Tensor(x2), p).data
    assert not np.allclose(out[:, 2], out2[:, 2])


def test_empty_sequence_rejected(rng):
    p = nets.init_gru(rng, 2, 4)
    with pytest.raises(ad.ShapeError):
        nets.gru_forward(Tensor(np.zeros((1, 0, 2))), p)


def test_gru_gradcheck(rng):
    p = nets.init_gru(rng, 2, 3, nets.BIDIRECTIONAL)

    def build(x):
        return ad.tsum(ad.mul(nets.gru_forward(x, p), 0.3))

    assert_gradcheck(build, rng.uniform(-1, 1, (2, 4, 2)))


def _reference_gradients(X, params, G):
    """The gradients of sum(G * gru_forward(X, params)) by the per-step
    backward gru_forward had before its gate factors moved into the
    forward: [x, then w_x, w_h, b of each pass]. Each pass runs on its
    own, from the plain cell equations; each step of the backward forms
    every gate derivative from the saved r, z, c, hc and h, and adds its
    own products to the weight gradients."""
    B, T, n = X.shape
    H = params.hidden_size
    grads = [np.zeros_like(X)]
    for p, (dp, reverse) in enumerate(nets._passes(params)):
        Wx, Wh, b = dp.w_x.data, dp.w_h.data, dp.b.data.reshape(3 * H)
        order = range(T - 1, -1, -1) if reverse else range(T)
        h, saved = np.zeros((B, H)), []
        for t in order:
            xg, hg = X[:, t] @ Wx + b, h @ Wh
            r, z = (1.0 / (1.0 + np.exp(-(xg[:, i * H:(i + 1) * H]
                                          + hg[:, i * H:(i + 1) * H])))
                    for i in range(2))
            hc = hg[:, 2 * H:]
            c = np.tanh(r * hc + xg[:, 2 * H:])
            saved.append((t, h, r, z, c, hc))
            h = (h - c) * z + c
        gw = [np.zeros_like(Wx), np.zeros_like(Wh), np.zeros(3 * H)]
        dh = np.zeros((B, H))
        for t, h_prev, r, z, c, hc in reversed(saved):
            gt = G[:, t, p * H:(p + 1) * H] + dh
            du = gt * (1.0 - z) * (1.0 - c * c)
            d_ar = du * hc * r * (1.0 - r)
            d_az = gt * (h_prev - c) * z * (1.0 - z)
            d_xg = np.concatenate([d_ar, d_az, du], axis=1)
            d_hg = np.concatenate([d_ar, d_az, du * r], axis=1)
            dh = gt * z + d_hg @ Wh.T
            grads[0][:, t] += d_xg @ Wx.T
            gw[0] += X[:, t].T @ d_xg
            gw[1] += h_prev.T @ d_hg
            gw[2] += d_xg.sum(axis=0)
        grads += [g.reshape(t.shape) for g, t in zip(gw, dp.tensors())]
    return grads


def _op_gradients(X, params, G, wrt_x, wrt_weights):
    """The gradients gru_forward gives sum(G * out), as _reference_gradients
    lists them; None for an input that is not tracked."""
    x = Tensor(X, requires_grad=wrt_x)
    for t in params.tensors():
        t.requires_grad, t.grad = wrt_weights, None
    with ad.Tape():
        ad.tsum(ad.mul(nets.gru_forward(x, params), Tensor(G))).backward()
    return [x.grad] + [t.grad for t in params.tensors()]


def _worst_deviation(got, want):
    """The largest of max |got - want| / max |want| over the arrays, or of
    max |got| where want is all zero (w_h's gradient at T = 1)."""
    return max(np.abs(a - b).max() / (np.abs(b).max() or 1.0)
               for a, b in zip(got, want))


@pytest.mark.parametrize("B, T, n, H, direction, wrt_x, wrt_weights", [
    (24, 50, 3, 32, nets.BIDIRECTIONAL, False, True),
    (24, 50, 3, 32, nets.FORWARD, True, False),
    (64, 48, 8, 64, nets.FORWARD, False, True),
    (1, 9, 3, 5, nets.BIDIRECTIONAL, True, True),
    (4, 1, 3, 5, nets.BIDIRECTIONAL, True, True),
    (5, 9, 2, 20, nets.BACKWARD, True, True),
], ids=["generator", "classifier", "training", "B1", "T1", "reverse"])
def test_gradients_match_the_per_step_backward(B, T, n, H, direction,
                                               wrt_x, wrt_weights):
    # the generator, the frozen classifier (input only) and a training
    # batch, at the shapes the package runs; the gradients move only by
    # reassociated products
    rng = np.random.default_rng(B * T + H)
    p = nets.init_gru(rng, n, H, direction)
    X = rng.normal(0, 1, (B, T, n))
    G = rng.normal(0, 1, (B, T, p.output_size))
    got = _op_gradients(X, p, G, wrt_x, wrt_weights)
    want = _reference_gradients(X, p, G)
    kept = [(a, b) for a, b in zip(got, want) if a is not None]
    assert len(kept) == wrt_x + wrt_weights * len(p.tensors())
    worst = _worst_deviation(*zip(*kept))
    print(f"worst relative deviation from the per-step backward: "
          f"{worst:.2e}")
    assert worst <= 1e-12


def test_two_calls_on_one_tape_give_the_gradient_of_their_sum(rng):
    p = nets.init_gru(rng, 3, 6, nets.BIDIRECTIONAL)
    X1, X2 = rng.normal(0, 1, (4, 7, 3)), rng.normal(0, 1, (2, 5, 3))
    G1, G2 = rng.normal(0, 1, (4, 7, 12)), rng.normal(0, 1, (2, 5, 12))
    x1, x2 = Tensor(X1, requires_grad=True), Tensor(X2, requires_grad=True)
    with ad.Tape():
        ad.add(ad.tsum(ad.mul(nets.gru_forward(x1, p), Tensor(G1))),
               ad.tsum(ad.mul(nets.gru_forward(x2, p), Tensor(G2)))
               ).backward()
    want1, want2 = (_reference_gradients(X, p, G)
                    for X, G in ((X1, G1), (X2, G2)))
    got = [x1.grad, x2.grad] + [t.grad for t in p.tensors()]
    want = [want1[0], want2[0]] + [a + b for a, b in zip(want1[1:],
                                                         want2[1:])]
    assert _worst_deviation(got, want) <= 1e-12


def test_buffers_past_the_block_size_give_the_same_bytes(rng, monkeypatch):
    # a call whose buffers exceed _BLOCK_BYTES allocates them one by one;
    # the arithmetic, and so every byte, stays that of the one block
    p = nets.init_gru(rng, 3, 5, nets.BIDIRECTIONAL)
    X = rng.normal(0, 1, (4, 6, 3))
    G = rng.normal(0, 1, (4, 6, 10))
    one_block = _op_gradients(X, p, G, True, True)
    monkeypatch.setattr(nets, "_BLOCK_BYTES", 0)
    for got, want in zip(_op_gradients(X, p, G, True, True), one_block):
        np.testing.assert_array_equal(got, want)


@pytest.fixture
def splits(monkeypatch):
    """The buffers of every nets._split call, in call order."""
    made, split = [], nets._split

    def spy(lead, widths):
        made.append(split(lead, widths))
        return made[-1]

    monkeypatch.setattr(nets, "_split", spy)
    return made


def _backwarded(X, *params):
    """Recorded gru_forward calls on X, one per params, on one tape (as in
    an iteration of a mask explainer), backwarded."""
    with ad.Tape():
        loss = ad.tsum(nets.gru_forward(Tensor(X), params[0]))
        for p in params[1:]:
            loss = ad.add(loss, ad.tsum(nets.gru_forward(Tensor(X), p)))
        loss.backward()


def _spares():
    return [buffers for _, buffers in nets._SPARES.spares]


def test_a_scope_reuses_a_backwarded_calls_buffers(rng, splits):
    # every buffer is written before it is read, so the reused buffers,
    # which hold the last call's values, give the bytes of new ones
    p = nets.init_gru(rng, 3, 5, nets.BIDIRECTIONAL)
    X = rng.normal(0, 1, (4, 6, 3))
    G = rng.normal(0, 1, (4, 6, 10))
    plain = _op_gradients(X, p, G, True, True)
    assert not _spares()  # outside a scope nothing is kept
    with nets.reuse_buffers():
        for _ in range(3):
            for got, want in zip(_op_gradients(X, p, G, True, True), plain):
                np.testing.assert_array_equal(got, want)
        assert len(splits) == 2  # one call outside the scope, one inside
        assert _spares() == [splits[1]]
    assert not _spares()


def test_calls_of_one_layout_on_one_tape_take_their_own_buffers(rng,
                                                                 splits):
    p = nets.init_gru(rng, 3, 6, nets.BIDIRECTIONAL)
    X1, X2 = rng.normal(0, 1, (2, 4, 7, 3))
    G1, G2 = rng.normal(0, 1, (2, 4, 7, 12))

    def gradients():
        x1, x2 = (Tensor(X, requires_grad=True) for X in (X1, X2))
        for t in p.tensors():
            t.grad = None
        with ad.Tape():
            ad.add(ad.tsum(ad.mul(nets.gru_forward(x1, p), Tensor(G1))),
                   ad.tsum(ad.mul(nets.gru_forward(x2, p), Tensor(G2)))
                   ).backward()
        return [x1.grad, x2.grad] + [t.grad for t in p.tensors()]

    plain = gradients()
    with nets.reuse_buffers():
        for _ in range(3):
            for got, want in zip(gradients(), plain):
                np.testing.assert_array_equal(got, want)
    assert len(splits) == 4  # two calls outside the scope, two inside


def test_a_miss_drops_every_spare(rng, splits):
    p, q = nets.init_gru(rng, 3, 5), nets.init_gru(rng, 3, 4)
    X = rng.normal(0, 1, (4, 6, 3))
    with nets.reuse_buffers():
        for _ in range(2):
            _backwarded(X, p, q)  # the second time, two hits
        assert len(splits) == 2
        assert len(_spares()) == 2
        _backwarded(X[:3], p, q)  # a row froze: a miss, which drops q's
        assert len(splits) == 4
        assert sorted(map(id, _spares())) == sorted(map(id, splits[2:]))
        _backwarded(X, p)  # one call misses after another one's backward
        assert _spares() == [splits[4]]


def test_spares_are_per_thread_and_die_with_the_outermost_scope(rng, splits):
    p = nets.init_gru(rng, 3, 5)
    X = rng.normal(0, 1, (4, 6, 3))
    other = []  # the other thread's spares, on entry and after its call

    def call_in_a_thread():
        other.append(_spares())
        with nets.reuse_buffers():
            _backwarded(X, p)
            other.append(_spares())

    with nets.reuse_buffers():
        with nets.reuse_buffers():
            _backwarded(X, p)
        assert _spares() == [splits[0]]  # an inner scope keeps them
        thread = threading.Thread(target=call_in_a_thread)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(splits) == 2  # the thread allocated its own
        assert other == [[], [splits[1]]]
        assert _spares() == [splits[0]]
    assert not _spares()


def test_a_call_dropped_without_a_backward_never_gives_its_buffers(rng,
                                                                    splits):
    p = nets.init_gru(rng, 3, 5, nets.BIDIRECTIONAL)
    X = rng.normal(0, 1, (4, 6, 3))
    with nets.reuse_buffers():
        with ad.Tape():
            dropped = nets.gru_forward(Tensor(X), p)
        out = dropped.data.copy()
        assert not _spares()
        for _ in range(2):
            _backwarded(X, p)
        assert len(splits) == 2
        assert _spares() == [splits[1]]
        assert not any(np.shares_memory(a, b)
                       for a in splits[0] for b in splits[1])
        np.testing.assert_array_equal(dropped.data, out)


# tracemalloc peak of a recorded forward and backward at (64, 48, 8), H 64,
# weights only, loss = sum of the output, with the per-step backward that
# saved each step's arrays: 16.10 MB
_PARENT_RECORDED_PEAK = 16.10e6


def test_memory_of_recorded_and_unrecorded_calls(rng):
    p = nets.init_gru(rng, 8, 64)
    X = rng.normal(0, 1, (200, 48, 8))
    tracemalloc.start()
    try:
        # unrecorded: nothing but the output is whole-sequence
        out = nets.gru_forward(Tensor(X), p).data
        unrecorded = tracemalloc.get_traced_memory()[1]
        del out
        X = X[:64].copy()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with ad.Tape():
            ad.tsum(nets.gru_forward(Tensor(X), p)).backward()
        recorded = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert unrecorded < 1.5 * 200 * 48 * 64 * 8
    assert recorded <= _PARENT_RECORDED_PEAK


def test_zero_readout_gives_half_probability(rng):
    c = nets.init_classifier(rng, 2, 4)
    c.w_out.data[:] = 0.0
    c.b_out.data[:] = 0.0
    x = rng.uniform(-1, 1, (2, 5, 2))
    logits = nets.classifier_forward(Tensor(x), c)
    np.testing.assert_array_equal(logits.data, np.zeros((2, 5)))
    np.testing.assert_array_equal(nets.predict_proba(x, c), np.full((2, 5), 0.5))


def test_per_timestep_output_length(rng):
    c = nets.init_classifier(rng, 3, 4)
    out = nets.classifier_forward(Tensor(rng.uniform(-1, 1, (2, 7, 3))), c)
    assert out.shape == (2, 7)


def test_final_step_output_shape(rng):
    c = nets.init_classifier(rng, 3, 4, readout=nets.FINAL_STEP)
    out = nets.classifier_forward(Tensor(rng.uniform(-1, 1, (2, 7, 3))), c)
    assert out.shape == (2,)


def _toy_separable(rng, N=60, T=10):
    # label = feature 0 shifted; linearly separable per timestep
    X = rng.uniform(-1, 1, (N, T, 2))
    y = (X[:, :, 0] > 0).astype(np.int64)
    return TimeSeriesDataset(X=X, y=y)


def test_training_reaches_high_accuracy(rng):
    ds = _toy_separable(rng)
    c = nets.init_classifier(np.random.default_rng(1), 2, 8)
    c, history = nets.train_classifier(ds, c, nets.TrainConfig(epochs=100,
                                                               lr=0.02,
                                                               seed=3))
    acc = np.mean((nets.predict_proba(ds.X, c) > 0.5) == ds.y)
    assert acc > 0.95
    assert history[-1] < history[0]


def test_zero_epochs_returns_init_unchanged(rng):
    ds = _toy_separable(rng)
    c = nets.init_classifier(np.random.default_rng(1), 2, 8)
    before = c.snapshot()
    c, _ = nets.train_classifier(ds, c, nets.TrainConfig(epochs=0))
    c.check_unchanged(before)


@pytest.mark.parametrize("lr", [0.0, -1.0])
def test_train_config_rejects_a_rate_that_cannot_descend(lr):
    with pytest.raises(ValueError, match="lr must be > 0"):
        nets.TrainConfig(lr=lr)


def test_training_determinism(rng):
    ds = _toy_separable(rng)
    runs = []
    for _ in range(2):
        c = nets.init_classifier(np.random.default_rng(1), 2, 8)
        c, _ = nets.train_classifier(ds, c, nets.TrainConfig(epochs=5,
                                                             seed=42))
        runs.append(c.snapshot())
    for a, b in zip(*runs):
        np.testing.assert_array_equal(a, b)


def test_gradient_flow_through_every_weight(rng):
    ds = _toy_separable(rng, N=8, T=6)
    c = nets.init_classifier(np.random.default_rng(2), 2, 4,
                             direction=nets.BIDIRECTIONAL)
    with ad.Tape():
        logits = nets.classifier_forward(Tensor(ds.X), c)
        loss = ad.tmean(ad.cross_entropy_with_logits(logits, Tensor(ds.y)))
        loss.backward()
    for t in c.tensors():
        assert t.grad is not None
        assert np.any(t.grad != 0.0)


def test_checkpoint_roundtrip(tmp_path, rng):
    c = nets.init_classifier(rng, 3, 5, direction=nets.BIDIRECTIONAL,
                             readout=nets.FINAL_STEP)
    path = tmp_path / "model.json"
    nets.save_classifier(c, path)
    loaded = nets.load_classifier(path)
    x = rng.uniform(-1, 1, (2, 6, 3))
    np.testing.assert_array_equal(nets.predict_proba(x, c),
                                  nets.predict_proba(x, loaded))



def _cell(xg, h, Wh):
    """The new state of nets._gru_cell from the projection xg and W_h, as
    gru_forward's step loop gives them to it: one pass, r and z negated."""
    H = h.shape[-1]
    xg = nets._negate_rz(xg, H)[:, None]
    out = np.empty_like(h)[:, None]
    c = np.empty_like(out)
    nets._gru_cell(xg, h[:, None], nets._negate_rz(Wh, H)[None], out,
                   (np.empty_like(xg), np.empty(out.shape[:-1] + (2 * H,)),
                    c, c, out))
    return out[:, 0]


class TestRestepMatchesGruCell:
    """nets._restep, the step of perturbed_step_scores, gives _gru_cell's
    bits on every copy of a batch: h stacks c copies of r draws of B rows,
    draw-major, and each copy is checked against _gru_cell over its own
    rows."""

    @staticmethod
    def _case(rng, h, cached=True, bias=0.0):
        """W_h, the projection as _restep takes it, and the new states."""
        c, r, B, H = h.shape
        Wh = rng.uniform(-1, 1, (H, 3 * H)) / np.sqrt(H)
        # a cached projection per batch row, or a fresh one per copy row
        xg = rng.uniform(-2, 2, (B, 3 * H) if cached else h.shape[:-1]
                         + (3 * H,)) + bias
        rows = np.broadcast_to(xg, (c, r, B, 3 * H))
        with np.errstate(over="ignore"):  # as gru_forward's loop does
            want = np.stack([
                _cell(rows[k].reshape(-1, 3 * H), h[k].reshape(-1, H),
                      Wh).reshape(r, B, H)
                for k in range(c)])
        x = nets._gates(nets._negate_rz(xg, H), H)
        return Wh, x[:, None, None] if cached else x, want

    @staticmethod
    def _restep(x, h, Wh):
        H = h.shape[-1]
        W = nets._step_weights(Wh, H)
        out = np.empty_like(h)
        nets._restep(x, h, W, nets._restep_buffers(h.shape[:-1], H, W), out)
        return out

    # W_h is split into gate blocks at 64 and 200, and stays whole at 1, 5
    # and 20; at 20 three products would give other bits (_step_weights)
    @pytest.mark.parametrize("H", [1, 5, 20, 64, 200])
    @pytest.mark.parametrize("B, r", [(4, 1), (4, 3), (1, 3), (1, 1)])
    @pytest.mark.parametrize("cached", [True, False])
    def test_copies_match_cell(self, rng, H, B, r, cached):
        # (1, 3): a one-row batch whose copies have three rows, which take
        # gemm; (1, 1): one-row copies, which take gemv one copy at a time
        h = rng.uniform(-1, 1, (3, r, B, H))
        Wh, x, want = self._case(rng, h, cached)
        np.testing.assert_array_equal(self._restep(x, h, Wh), want)

    @pytest.mark.parametrize("H", [1, 5, 20, 64, 200])
    @pytest.mark.parametrize("B, r", [(4, 3), (1, 3), (1, 1)])
    def test_gate_products_match_whole_product(self, rng, H, B, r):
        # the products before any nonlinearity, where a last-bit change
        # of BLAS route always shows: the sums and the sigmoid and tanh
        # after them absorb most such changes
        h = rng.uniform(-1, 1, (3, r, B, H))
        Wh = rng.uniform(-1, 1, (H, 3 * H))
        W = nets._step_weights(Wh, H)
        ws = nets._restep_buffers(h.shape[:-1], H, W)
        nets._gate_products(h, W, ws)
        want = np.stack([h[k].reshape(-1, H) @ nets._negate_rz(Wh, H)
                         for k in range(3)])
        np.testing.assert_array_equal(
            ws[0], nets._gates(want.reshape(3, r, B, 3 * H), H))

    @pytest.mark.parametrize("H", [5, 64])
    def test_in_place(self, rng, H):
        # every copy and draw starts from one state per batch row, and
        # perturbed_step_scores steps it in place
        h = np.broadcast_to(rng.uniform(-1, 1, (4, H)), (3, 2, 4, H)).copy()
        Wh, x, want = self._case(rng, h, cached=False)
        W = nets._step_weights(Wh, H)
        nets._restep(x, h, W, nets._restep_buffers(h.shape[:-1], H, W),
                     out=h)
        np.testing.assert_array_equal(h, want)

    @pytest.mark.parametrize("H", [5, 64])
    @pytest.mark.parametrize("bias", [-800.0, 800.0])
    def test_saturated_gates_raise_no_warning(self, rng, H, bias):
        h = rng.uniform(-1, 1, (3, 2, 4, H))
        Wh, x, want = self._case(rng, h, bias=bias)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with np.errstate(over="ignore"):  # as the callers' loops do
                got = self._restep(x, h, Wh)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("B", [1, 2, 5])
@pytest.mark.parametrize("r", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("rows", [1, 2, 4, 12, 192])
def test_step_chunks_cover_every_row(B, r, rows):
    copies, draws = nets._step_chunks(7, B, r, rows)
    # the draw ranges cover each draw once, whole copies or one at a time
    assert [d for lo, hi in draws for d in range(lo, hi)] == list(range(r))
    assert copies == 1 or draws == [(0, r)]
    if B * r > 1:  # a range never takes the one-row route of its copy
        assert min(hi - lo for lo, hi in draws) * B >= 2
