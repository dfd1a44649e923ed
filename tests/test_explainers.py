import contextlib
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from tempex import autodiff as ad
from tempex import data
from tempex import explainers as ex
from tempex import nets
from tempex import perturbation as pert
from tempex.autodiff import Tensor
from tempex.data import TimeSeriesDataset

from conftest import classifier_or_refusal


@pytest.fixture(scope="module")
def toy_model():
    """Small per-timestep classifier trained on a separable toy task."""
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, (80, 8, 2))
    y = (X[:, :, 0] > 0).astype(np.int64)
    c = nets.init_classifier(np.random.default_rng(1), 2, 8)
    c, _ = nets.train_classifier(TimeSeriesDataset(X=X, y=y), c,
                                 nets.TrainConfig(epochs=60, lr=0.02, seed=2))
    return c.freeze()


@pytest.fixture(scope="module")
def seq_model():
    """Sequence-level classifier keyed on the late window of channel 0."""
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, (120, 10, 2))
    y = (X[:, 6:, 0].mean(axis=1) > 0).astype(np.int64)
    c = nets.init_classifier(np.random.default_rng(4), 2, 12,
                             readout=nets.FINAL_STEP)
    c, _ = nets.train_classifier(TimeSeriesDataset(X=X, y=y), c,
                                 nets.TrainConfig(epochs=80, lr=0.02, seed=5))
    return c.freeze()


def _sample(rng, T=8, n=2):
    return rng.uniform(-1, 1, (T, n))


class TestLearned:
    def test_unfrozen_model_rejected(self, rng):
        c = nets.init_classifier(np.random.default_rng(0), 2, 4)
        with pytest.raises(ex.FrozenModelError):
            ex.explain_learned(_sample(rng), c)

    def test_model_params_bitwise_unchanged(self, toy_model, rng):
        before = toy_model.snapshot()
        ex.explain_learned(_sample(rng), toy_model,
                           ex.ExplainerConfig(iterations=20))
        toy_model.check_unchanged(before)

    def test_zero_iterations_keeps_init(self, toy_model, rng):
        cfg = ex.ExplainerConfig(lambda1=0.0, lambda2=0.0,
                                 generator=pert.ZERO, iterations=0)
        out = ex.explain_learned(_sample(rng), toy_model, cfg)
        np.testing.assert_array_equal(out.scores, np.full((1, 8, 2), 0.5))

    def test_huge_lambda1_collapses_mask(self, toy_model, rng):
        cfg = ex.ExplainerConfig(lambda1=100.0, generator=pert.ZERO,
                                 iterations=150)
        out = ex.explain_learned(_sample(rng), toy_model, cfg)
        assert out.scores.mean() < 0.05

    def test_box_constraint_every_iteration(self, toy_model, rng):
        # run with an aggressive lr so raw steps would leave the box
        cfg = ex.ExplainerConfig(mask_lr=0.5, iterations=30,
                                 generator=pert.ZERO)
        out = ex.explain_learned(_sample(rng), toy_model, cfg)
        assert np.all(out.scores >= 0.0) and np.all(out.scores <= 1.0)

    def test_seeded_determinism(self, toy_model, rng):
        x = _sample(rng)
        cfg = ex.ExplainerConfig(iterations=25, seed=7)
        a = ex.explain_learned(x, toy_model, cfg)
        b = ex.explain_learned(x, toy_model, cfg)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_preservation_loss_mostly_decreasing(self, toy_model, rng):
        X = rng.uniform(-1, 1, (2, 8, 2))
        cfg = ex.ExplainerConfig(iterations=500, seed=3)
        out = ex.explain_learned(X, toy_model, cfg)
        hist = out.metadata["loss_history"]
        # Adam jitters around the converged plateau; steps that move up by
        # less than 0.1% of the total loss drop are plateau noise, anything
        # above that counts as a real increase.
        for b in range(hist.shape[1]):
            diffs = np.diff(hist[:, b])
            tol = 1e-3 * (hist[0, b] - hist[:, b].min())
            assert (diffs <= tol).mean() >= 0.95

    def test_divergence_aborts_with_iteration(self, toy_model, rng):
        cfg = ex.ExplainerConfig(mask_lr=1e6, generator_lr=1e6,
                                 iterations=200)
        try:
            ex.explain_learned(_sample(rng), toy_model, cfg)
        except ex.DivergenceError as e:
            assert "iteration" in str(e)
        # an lr this large may still survive thanks to the box projection;
        # either outcome is contract-conform


def stop_rule(monkeypatch, tol, patience):
    """Set the mask explainers' stopping rule for one test; forked workers
    inherit it."""
    monkeypatch.setattr(ex, "EARLY_STOP_TOL", tol)
    monkeypatch.setattr(ex, "EARLY_STOP_PATIENCE", patience)


@pytest.fixture()
def learned_stop(monkeypatch):
    stop_rule(monkeypatch, *TestRowFreezing.LEARNED_STOP)


@pytest.fixture()
def dynamask_stop(monkeypatch):
    stop_rule(monkeypatch, *TestRowFreezing.DYNAMASK_STOP)


class TestRowFreezing:
    """Rows freeze at different iterations and are no longer computed once
    frozen. Dynamask's batch must still match one run per row; the learned
    generator is shared by the rows and goes on training on the live ones.
    Under the (tol, patience) stopping rules LEARNED_STOP and DYNAMASK_STOP,
    the rows of LEARNED and of a Dynamask call of DYNAMASK_ITERATIONS
    freeze at different iterations."""

    LEARNED = ex.ExplainerConfig(iterations=200, seed=11)
    LEARNED_STOP = (1e-2, 3)
    DYNAMASK_ITERATIONS = 200
    DYNAMASK_STOP = (3e-3, 3)

    def test_generator_trains_on_after_a_row_freezes(self, toy_model, rng,
                                                     monkeypatch,
                                                     learned_stop):
        seen = []  # (mask rows, generator parameters) at each iteration

        def spy(x, m, gen):
            seen.append((m.shape[0], [p.data.copy()
                                      for p in gen.parameters()]))
            return pert.apply_learned(x, m, gen)

        monkeypatch.setattr(ex, "apply_learned", spy)
        X = rng.uniform(-1, 1, (4, 8, 2))
        out = ex.explain_learned(X, toy_model, self.LEARNED, workers=1)
        per_row = out.metadata["iterations_per_row"]
        assert len(set(per_row)) >= 3
        # the mask loses each row after its last iteration
        assert [rows for rows, _ in seen] == \
            [int(np.sum(per_row > it)) for it in range(len(seen))]
        # the generator keeps its row-free shapes and changes every step
        H = self.LEARNED.generator_hidden
        want = [(2, 3 * H), (H, 3 * H), (3 * H,)] * 2 + [(2 * H, 2), (2,)]
        for (_, before), (_, after) in zip(seen, seen[1:]):
            assert [p.shape for p in after] == want
            assert all(not np.array_equal(a, b)
                       for a, b in zip(before, after))

    def test_frozen_row_history_repeats_its_last_loss(self, toy_model, rng,
                                                      learned_stop):
        X = rng.uniform(-1, 1, (4, 8, 2))
        out = ex.explain_learned(X, toy_model, self.LEARNED)
        hist = out.metadata["loss_history"]
        per_row = out.metadata["iterations_per_row"]
        assert hist.shape == (out.metadata["iterations_run"], 4)
        assert per_row.max() == out.metadata["iterations_run"]
        assert per_row.min() < per_row.max()
        for b, k in enumerate(per_row):
            assert np.all(hist[k:, b] == hist[k - 1, b])
        # the loss terms are means over all rows, each row's terms taken
        # from its last computed iteration (here both lambdas are 1)
        terms = sum(out.metadata[name] for name in
                    ("mask_term", "generator_term", "ce_term"))
        assert terms == pytest.approx(hist[-1].mean(), abs=1e-12)

    def test_dynamask_batched_equals_per_sample(self, toy_model, rng,
                                                dynamask_stop):
        X = rng.uniform(-1, 1, (4, 8, 2))
        its = self.DYNAMASK_ITERATIONS
        batched = ex.explain_dynamask(X, toy_model, its)
        per_row = batched.metadata["iterations_per_row"]
        assert len(set(per_row)) >= 3
        for b in range(4):
            single = ex.explain_dynamask(X[b], toy_model, its)
            np.testing.assert_allclose(batched.scores[b], single.scores[0],
                                       atol=1e-9)
            assert single.metadata["iterations_run"] == per_row[b]


class TestRowBlocks:
    """The rows run in max(1, B // BLOCK_ROWS) contiguous blocks, each its
    own _optimize_mask; the worker count never changes a bit."""

    @pytest.fixture()
    def two_row_blocks(self, monkeypatch):
        monkeypatch.setattr(ex, "BLOCK_ROWS", 2)

    @pytest.mark.parametrize("B, bounds", [
        (0, [(0, 0)]), (47, [(0, 47)]), (48, [(0, 24), (24, 48)]),
        (150, [(25 * i, 25 * i + 25) for i in range(6)]),
    ])
    def test_partition_depends_on_batch_size_only(self, B, bounds):
        assert ex._row_blocks(B) == bounds

    @staticmethod
    def _assert_same(a, b):
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.metadata.keys() == b.metadata.keys()
        for key, value in a.metadata.items():
            np.testing.assert_array_equal(value, b.metadata[key])

    @staticmethod
    def _assert_block(whole, part, lo, hi):
        """Rows lo:hi of a blocked call against a call on those rows; the
        whole call repeats each row's last loss after the block stops."""
        np.testing.assert_array_equal(whole.scores[lo:hi], part.scores)
        np.testing.assert_array_equal(
            whole.metadata["iterations_per_row"][lo:hi],
            part.metadata["iterations_per_row"])
        k = part.metadata["iterations_run"]
        hist = whole.metadata["loss_history"][:, lo:hi]
        np.testing.assert_array_equal(hist[:k], part.metadata["loss_history"])
        assert np.all(hist[k:] == hist[k - 1])

    def test_learned_blocks_on_two_workers(self, toy_model, rng,
                                           two_row_blocks, learned_stop):
        X = rng.uniform(-1, 1, (5, 8, 2))
        cfg = TestRowFreezing.LEARNED
        one = ex.explain_learned(X, toy_model, cfg, workers=1)
        two = ex.explain_learned(X, toy_model, cfg, workers=2)
        self._assert_same(one, two)
        parts = [ex.explain_learned(X[lo:hi], toy_model, cfg, workers=1)
                 for lo, hi in ex._row_blocks(5)]
        # the blocks stop at different iterations, so one is padded
        assert len({p.metadata["iterations_run"] for p in parts}) == 2
        for (lo, hi), part in zip(ex._row_blocks(5), parts):
            self._assert_block(two, part, lo, hi)
        for name in ("mask_term", "generator_term", "ce_term"):
            rows = [p.metadata[name] * len(p.scores) for p in parts]
            assert two.metadata[name] == pytest.approx(sum(rows) / 5,
                                                       abs=1e-12)

    def test_dynamask_blocks_on_two_workers(self, toy_model, rng,
                                            two_row_blocks, dynamask_stop):
        X = rng.uniform(-1, 1, (5, 8, 2))
        its = TestRowFreezing.DYNAMASK_ITERATIONS
        two = ex.explain_dynamask(X, toy_model, its, workers=2)
        self._assert_same(ex.explain_dynamask(X, toy_model, its, workers=1),
                          two)
        parts = [ex.explain_dynamask(X[lo:hi], toy_model, its, workers=1)
                 for lo, hi in ex._row_blocks(5)]
        assert len({p.metadata["iterations_run"] for p in parts}) == 2
        for (lo, hi), part in zip(ex._row_blocks(5), parts):
            self._assert_block(two, part, lo, hi)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("generator", [pert.ZERO, pert.UNIDIRECTIONAL,
                                           pert.BIDIRECTIONAL, "dynamask"])
    def test_empty_batch(self, toy_model, generator):
        X = np.zeros((0, 8, 2))
        if generator == "dynamask":
            out = ex.explain_dynamask(X, toy_model)
        else:
            out = ex.explain_learned(
                X, toy_model, ex.ExplainerConfig(generator=generator))
        assert out.scores.shape == (0, 8, 2)
        assert out.metadata["iterations_run"] == 0
        assert out.metadata["iterations_per_row"].shape == (0,)
        assert out.metadata["loss_history"].shape == (0, 0)

    @pytest.mark.parametrize("explain", [ex.explain_learned,
                                         ex.explain_dynamask])
    def test_worker_error_keeps_type_and_message(self, toy_model, rng,
                                                 diverges_in_workers,
                                                 explain):
        with pytest.raises(ex.DivergenceError,
                           match="non-finite loss at iteration 0"):
            explain(rng.uniform(-1, 1, (4, 8, 2)), toy_model, workers=2)


class TestDynamask:
    def test_regularizer_zero_on_matching_sorted_mask(self):
        r = ex.area_target(10, 0.3)
        m = Tensor(r[None])  # already sorted 0/1 vector equal to r_a
        assert float(((ad.sort_last_axis(m).data[0] - r) ** 2).sum()) == 0.0

    def test_area_one_pushes_mask_to_ones(self, toy_model, rng, monkeypatch):
        # pure-regularizer descent: constant classifier output keeps CE flat
        x = np.zeros((4, 2))
        monkeypatch.setattr(ex, "DYNAMASK_AREA", 1.0)
        monkeypatch.setattr(ex, "DYNAMASK_LR", 0.05)
        monkeypatch.setattr(ex, "DYNAMASK_REG_WEIGHT", 50.0)
        out = ex.explain_dynamask(x, toy_model, iterations=400)
        assert out.scores.mean() > 0.9
        assert out.metadata["area"] == 1.0

    def test_scores_in_box(self, toy_model, rng):
        out = ex.explain_dynamask(_sample(rng), toy_model, iterations=30)
        assert np.all(out.scores >= 0.0) and np.all(out.scores <= 1.0)

    def test_model_unchanged(self, toy_model, rng):
        before = toy_model.snapshot()
        ex.explain_dynamask(_sample(rng), toy_model, iterations=10)
        toy_model.check_unchanged(before)

    def test_loss_blends_through_apply_fixed(self, toy_model, rng,
                                             monkeypatch):
        calls = []

        def counted(x, m, surrogate):
            calls.append(m.shape)
            return pert.apply_fixed(x, m, surrogate)

        monkeypatch.setattr(ex, "apply_fixed", counted)
        out = ex.explain_dynamask(rng.uniform(-1, 1, (3, 8, 2)), toy_model,
                                  iterations=5, workers=1)
        assert len(calls) == out.metadata["iterations_run"] > 0
        assert out.metadata["window"] == 2

    def test_window_sets_the_surrogate(self, toy_model, rng, monkeypatch):
        # window 0 makes the surrogate x itself, so phi = x for every mask
        x = _sample(rng)
        a = ex.explain_dynamask(x, toy_model, iterations=5)
        monkeypatch.setattr(ex, "DYNAMASK_WINDOW", 0)
        b = ex.explain_dynamask(x, toy_model, iterations=5)
        assert not np.array_equal(a.scores, b.scores)
        assert b.metadata["window"] == 0


class TestOcclusion:
    def test_constant_model_all_zero(self, rng):
        c = nets.init_classifier(np.random.default_rng(0), 2, 4)
        c.w_out.data[:] = 0.0
        c.b_out.data[:] = 0.0
        c.freeze()
        out = ex.occlusion(_sample(rng), c)
        np.testing.assert_array_equal(out.scores, np.zeros((1, 8, 2)))

    def test_brute_force_equivalence(self, toy_model, rng):
        X = rng.uniform(-1, 1, (2, 3, 2))  # T*n = 6 <= 12
        out = ex.occlusion(X, toy_model)
        raw = out.metadata["raw"]
        base = nets.target_score(X, toy_model)
        for b in range(2):
            for t in range(3):
                for i in range(2):
                    mod = X.copy()
                    mod[b, t, i] = 0.0
                    want = abs(base[b] -
                               nets.target_score(mod, toy_model)[b])
                    assert raw[b, t, i] == pytest.approx(want, abs=1e-12)

    def test_augmented_requires_reference(self, toy_model, rng):
        with pytest.raises(ValueError):
            ex.augmented_occlusion(_sample(rng), toy_model,
                                   np.zeros((0, 8, 2)))

    @pytest.mark.parametrize("features", [1, 3])
    def test_augmented_reference_has_the_feature_count(self, toy_model, rng,
                                                       features):
        with pytest.raises(ValueError, match=rf"reference \(4, 8, "
                           rf"{features}\) .* x \(1, 8, 2\)"):
            ex.augmented_occlusion(_sample(rng), toy_model,
                                   rng.uniform(-1, 1, (4, 8, features)))

    def test_augmented_requires_a_draw(self, toy_model, rng):
        with pytest.raises(ValueError, match="draws"):
            ex.augmented_occlusion(_sample(rng), toy_model,
                                   rng.uniform(-1, 1, (4, 8, 2)), draws=0)

    def test_augmented_determinism(self, toy_model, rng):
        X = rng.uniform(-1, 1, (2, 8, 2))
        ref = rng.uniform(-1, 1, (10, 8, 2))
        a = ex.augmented_occlusion(X, toy_model, ref, seed=3)
        b = ex.augmented_occlusion(X, toy_model, ref, seed=3)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_scores_normalized(self, toy_model, rng):
        out = ex.occlusion(_sample(rng), toy_model)
        assert out.scores.min() >= 0.0 and out.scores.max() <= 1.0


def reference_occlusion(X, classifier, baseline=0.0):
    """Raw occlusion scores from one full forward per cell."""
    B, T, n = X.shape
    base = nets.target_score(X, classifier)
    raw = np.empty((B, T, n))
    for t in range(T):
        for i in range(n):
            mod = X.copy()
            mod[:, t, i] = baseline
            raw[:, t, i] = np.abs(base - nets.target_score(mod, classifier))
    return raw


def reference_augmented_occlusion(X, classifier, reference, draws=10,
                                  seed=0):
    """Raw augmented-occlusion scores from one full forward per cell, the
    draws folded into the batch axis."""
    B, T, n = X.shape
    pool = reference.reshape(-1, reference.shape[-1])
    rng = np.random.default_rng(seed)
    tiled = np.repeat(X, draws, axis=0)  # (B*draws, T, n)
    base = nets.target_score(X, classifier)
    raw = np.empty((B, T, n))
    for t in range(T):
        for i in range(n):
            mod = tiled.copy()
            mod[:, t, i] = rng.choice(pool[:, i], size=B * draws)
            sc = nets.target_score(mod, classifier).reshape(B, draws)
            raw[:, t, i] = np.abs(base[:, None] - sc).mean(axis=1)
    return raw


class TestOcclusionMatchesPerCellLoops:
    """The batched occlusions give the per-cell loops' raw scores bit for
    bit, for every readout. The classifier is a forward GRU: one of any
    other direction is refused when built, before it can be explained."""

    @staticmethod
    def _model(readout, hidden=5):
        return nets.init_classifier(np.random.default_rng(7), 3, hidden,
                                    readout).freeze()

    @staticmethod
    def _check(X, model, ref, **kw):
        """Both occlusions against their loops, with the step blocks in
        this process and on two workers."""
        Xb = X if X.ndim == 3 else X[None]
        occ = reference_occlusion(Xb, model, ex.OCCLUSION_BASELINE)
        aug = reference_augmented_occlusion(Xb, model, ref, **kw)
        for workers in (1, 2):
            np.testing.assert_array_equal(
                ex.occlusion(X, model, workers=workers).metadata["raw"], occ)
            np.testing.assert_array_equal(
                ex.augmented_occlusion(X, model, ref, workers=workers,
                                       **kw).metadata["raw"], aug)

    @pytest.mark.parametrize("readout", [nets.PER_TIMESTEP, nets.FINAL_STEP])
    @pytest.mark.parametrize("direction", [nets.FORWARD, "backward",
                                           nets.BIDIRECTIONAL])
    def test_every_direction_and_readout(self, rng, direction, readout):
        model = classifier_or_refusal(np.random.default_rng(7), 3, 5,
                                      direction, readout)
        if model is None:
            return
        X = rng.uniform(-1, 1, (3, 5, 3))
        ref = rng.uniform(-1, 1, (6, 5, 3))
        self._check(X, model.freeze(), ref, draws=3, seed=4)

    @pytest.mark.parametrize("direction", [nets.FORWARD, nets.BIDIRECTIONAL])
    def test_nonzero_baseline(self, rng, monkeypatch, direction):
        model = classifier_or_refusal(np.random.default_rng(7), 3, 5,
                                      direction)
        if model is None:
            return
        X = rng.uniform(-1, 1, (2, 6, 3))
        ref = rng.uniform(-1, 1, (4, 6, 3))
        monkeypatch.setattr(ex, "OCCLUSION_BASELINE", 0.7)
        self._check(X, model.freeze(), ref, draws=2, seed=1)

    @pytest.mark.parametrize("readout", [nets.PER_TIMESTEP, nets.FINAL_STEP])
    def test_single_sample(self, rng, readout):
        # a one-row batch takes numpy's gemv route, unlike its copies
        X = rng.uniform(-1, 1, (6, 3))
        ref = rng.uniform(-1, 1, (4, 6, 3))
        self._check(X, self._model(readout, hidden=32), ref, draws=3, seed=2)

    def test_empty_batch(self, rng):
        self._check(np.zeros((0, 5, 3)),
                    self._model(nets.PER_TIMESTEP),
                    rng.uniform(-1, 1, (4, 5, 3)), draws=2)

    def test_icu_full_hidden_size(self, rng):
        # at H = 200 the step products are large enough for OpenBLAS to
        # split them over threads in the loops, which run on the caller's
        # count, and not in the explainers, which run on one thread
        X = rng.uniform(-1, 1, (8, 6, 3))
        ref = rng.uniform(-1, 1, (4, 6, 3))
        self._check(X, self._model(nets.FINAL_STEP, hidden=200), ref,
                    draws=4, seed=3)

    @pytest.mark.parametrize("hidden", [20, 64])
    def test_gate_block_routes(self, rng, hidden):
        # the re-steps multiply by W_h whole at H = 20 and in three gate
        # blocks at the bench's H = 64 (nets._step_weights)
        X = rng.uniform(-1, 1, (3, 5, 3))
        ref = rng.uniform(-1, 1, (4, 5, 3))
        self._check(X, self._model(nets.PER_TIMESTEP, hidden=hidden), ref,
                    draws=3, seed=6)
        self._check(X[0], self._model(nets.FINAL_STEP, hidden=hidden), ref,
                    draws=2, seed=7)

    def test_copies_split_by_draws(self, rng, monkeypatch):
        # at 2 rows a step, augmented occlusion's copies of 5 draws of one
        # row go through in draw ranges of 2 and 3 rows (nets._step_chunks)
        monkeypatch.setattr(nets, "_CHUNK_ROWS", 2)
        X = rng.uniform(-1, 1, (6, 3))
        ref = rng.uniform(-1, 1, (4, 6, 3))
        self._check(X, self._model(nets.PER_TIMESTEP, hidden=32), ref,
                    draws=5, seed=8)

    @pytest.mark.parametrize("chunk_rows", [4, 12])
    def test_last_chunk_partly_filled(self, rng, monkeypatch, chunk_rows):
        # occlusion's 3 copies of 2 rows and augmented occlusion's 3 of 6
        # rows leave a partial last chunk at one of the two sizes
        monkeypatch.setattr(nets, "_CHUNK_ROWS", chunk_rows)
        X = rng.uniform(-1, 1, (2, 5, 3))
        ref = rng.uniform(-1, 1, (4, 5, 3))
        self._check(X, self._model(nets.PER_TIMESTEP), ref, draws=3, seed=5)


class TestStepBlocks:
    """perturbed_step_scores runs its steps in step_blocks blocks, through
    the explainers' worker pool, whose workers, like every process of an
    explainer, run OpenBLAS on one thread."""

    @pytest.mark.parametrize("readout", [nets.PER_TIMESTEP, nets.FINAL_STEP])
    @pytest.mark.parametrize("direction", [nets.FORWARD, "backward",
                                           nets.BIDIRECTIONAL])
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 8, 48, 200])
    def test_partition_covers_each_step_once(self, T, direction, readout):
        bounds = nets.step_blocks(T)
        assert len(bounds) == min(T, nets.STEP_BLOCKS)
        assert bounds[0][0] == 0 and bounds[-1][1] == T
        assert all(lo < hi for lo, hi in bounds)
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        # each block's re-step cost is within one step of an equal share:
        # step t re-runs the steps t .. T-1, plus one for its projection
        cost = T + 1 - np.arange(T)
        for lo, hi in bounds:
            share = cost.sum() / len(bounds)
            assert abs(cost[lo:hi].sum() - share) <= cost.max()
        # perturbed_step_scores runs these blocks for a classifier of this
        # readout; one of another direction is refused when built
        model = classifier_or_refusal(np.random.default_rng(0), 3, 5,
                                      direction, readout)
        if model is None:
            return
        ran = []

        def map_blocks(block, given):
            ran.extend(given)
            return [block(lo, hi) for lo, hi in given]

        scores = nets.perturbed_step_scores(
            np.zeros((1, T, 3)), model.freeze(),
            lambda t: np.ones((1, 1, 3)), map_blocks=map_blocks)
        assert ran == bounds and scores.shape == (T, 1, 1)

    def test_early_steps_take_shorter_blocks(self):
        # an early step re-steps the most, so the blocks grow with t
        assert nets.step_blocks(48) == [(0, 7), (7, 14), (14, 25), (25, 48)]

    def test_step_workers_run_one_blas_thread(self, toy_model, rng,
                                              monkeypatch):
        # an explainer's own process and the workers it forks, the
        # occlusions' step blocks and the mask explainers' row blocks, all
        # run on one thread; the caller's count comes back afterwards
        get = ex._openblas_threads("get")
        set_threads = ex._openblas_threads("set")
        assert get is not None and set_threads is not None
        seen = []  # (map_blocks call, pid, OpenBLAS threads)
        map_blocks = ex._map_blocks

        def spy(block, tasks, workers):
            call = len({c for c, _, _ in seen})
            seen.append((call, os.getpid(), get()))
            for pid, threads, out in map_blocks(
                    lambda *a: (os.getpid(), get(), block(*a)), tasks,
                    workers):
                seen.append((call, pid, threads))
                yield out

        monkeypatch.setattr(ex, "_map_blocks", spy)
        monkeypatch.setattr(ex, "BLOCK_ROWS", 2)
        X = rng.uniform(-1, 1, (4, 8, 2))
        before = get()
        set_threads(2)
        try:
            ex.occlusion(X, toy_model, workers=2)
            ex.augmented_occlusion(X, toy_model, X, draws=2, workers=2)
            ex.explain_learned(X, toy_model, ex.ExplainerConfig(
                iterations=3), workers=2)
            ex.explain_dynamask(X, toy_model, iterations=3, workers=2)
            assert get() == 2
        finally:
            set_threads(before)
        assert {threads for _, _, threads in seen} == {1}
        for call in range(4):
            pids = {pid for c, pid, _ in seen if c == call}
            # this process and its workers (a fast worker may take every
            # task, so only one may show)
            assert os.getpid() in pids and len(pids) >= 2

    def test_worker_shape_error_keeps_type(self, toy_model, rng,
                                           short_draws_in_workers):
        X = rng.uniform(-1, 1, (2, 8, 2))
        ref = rng.uniform(-1, 1, (4, 8, 2))
        # the parent computes its own rows right
        ex.augmented_occlusion(X, toy_model, ref, draws=3, workers=1)
        with pytest.raises(ad.ShapeError,
                           match=r"replacements\(\d+\): \(2, 5, 2\), "
                                 r"expected \(m, 6, 2\)"):
            ex.augmented_occlusion(X, toy_model, ref, draws=3, workers=2)


def test_bytes_depend_on_neither_blas_threads_nor_workers():
    # at H = 200 the classifier's backward multiplies over 3H = 600, where
    # OpenBLAS gives other last bits on two threads than on one; 48 rows
    # make two row blocks
    ds = data.generate_icu_like(48, n_steps=12, seed=0)
    model = nets.init_classifier(np.random.default_rng(0), ds.X.shape[2],
                                 200, readout=nets.FINAL_STEP).freeze()
    cfg = ex.ExplainerConfig(iterations=15, generator=pert.ZERO)
    get = ex._openblas_threads("get")
    set_threads = ex._openblas_threads("set")
    before = get()
    runs = {}  # (caller's threads, workers): arrays
    try:
        for threads in (1, 2):
            set_threads(threads)
            ig = ex.integrated_gradients(ds.X[:24], model, steps=4)
            for workers in (1, 2):
                learned = ex.explain_learned(ds.X, model, cfg,
                                             workers=workers)
                runs[threads, workers] = (learned.scores,
                                          learned.metadata["loss_history"],
                                          ig.metadata["raw"])
    finally:
        set_threads(before)
    for key, arrays in runs.items():
        for got, want in zip(arrays, runs[1, 1]):
            np.testing.assert_array_equal(got, want, err_msg=str(key))


def test_threads_give_the_callers_blas_count_back():
    # a block that returns while another thread's block still runs leaves
    # that one on one thread, and the last one out restores the count
    get = ex._openblas_threads("get")
    set_threads = ex._openblas_threads("set")
    before = get()
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    inside = []

    def first():
        with ex.single_blas_thread():
            first_in.set()
            second_in.wait(timeout=30)
        first_out.set()

    def second():
        first_in.wait(timeout=30)
        with ex.single_blas_thread():
            second_in.set()
            first_out.wait(timeout=30)
            inside.append(get())

    set_threads(2)
    try:
        threads = [threading.Thread(target=f) for f in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert inside == [1] and get() == 2
    finally:
        set_threads(before)


def test_tapes_of_threads_stay_apart(toy_model, rng):
    X = rng.uniform(-1, 1, (4, 3, 8, 2))
    cfg = ex.ExplainerConfig(iterations=40, seed=1)
    serial = [ex.explain_learned(x, toy_model, cfg, workers=1) for x in X]
    barrier = threading.Barrier(len(X))

    def explain(x):
        barrier.wait(timeout=60)
        return ex.explain_learned(x, toy_model, cfg, workers=1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' tapes often
    try:
        with ThreadPoolExecutor(len(X)) as pool:
            threaded = list(pool.map(explain, X, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.metadata["loss_history"],
                                      b.metadata["loss_history"])


class TestBufferReuse:
    """The mask loops and integrated gradients run in one
    nets.reuse_buffers scope: each taped GRU allocates its sequence buffers
    once, in the first iteration, since later iterations run the same rows
    or fewer, and no byte of any result moves."""

    # 25 iterations in which no row freezes
    FOREVER = ex.ExplainerConfig(iterations=25)
    FOREVER_STOP = (ex.EARLY_STOP_TOL, 10**6)

    @pytest.fixture()
    def allocations(self, monkeypatch):
        """(rows, nets._allocate calls so far) at each classifier_forward
        call of an explainer: one per iteration or integration step. Every
        allocation must happen inside a reuse_buffers scope."""
        calls, seen = [], []
        allocate, forward = nets._allocate, ex.classifier_forward

        def count(lead, widths):
            assert nets._SPARES.depth > 0
            calls.append(lead)
            return allocate(lead, widths)

        def mark(x, params):
            out = forward(x, params)
            seen.append((x.shape[0], len(calls)))
            return out

        monkeypatch.setattr(nets, "_allocate", count)
        monkeypatch.setattr(ex, "classifier_forward", mark)
        return seen

    # (explain, stopping rule, GRU layouts, live-row counts at least)
    @pytest.mark.parametrize("explain, stop, layouts, counts", [
        (partial(ex.explain_learned, config=FOREVER), FOREVER_STOP, 2, 1),
        (partial(ex.explain_learned, config=TestRowFreezing.LEARNED),
         TestRowFreezing.LEARNED_STOP, 2, 3),
        *((partial(ex.explain_learned, config=replace(
            TestRowFreezing.LEARNED, mode=ex.DELETION, generator=generator)),
           TestRowFreezing.LEARNED_STOP, 1 if generator == pert.ZERO else 2,
           2) for generator in pert.GENERATORS),
        (partial(ex.explain_dynamask,
                 iterations=TestRowFreezing.DYNAMASK_ITERATIONS),
         TestRowFreezing.DYNAMASK_STOP, 1, 3),
    ], ids=["no-row-freezes", "rows-freeze",
            *(f"deletion-{g}" for g in pert.GENERATORS), "dynamask"])
    def test_one_allocation_per_gru_layout_whatever_rows_freeze(
            self, toy_model, rng, monkeypatch, allocations, explain, stop,
            layouts, counts):
        # the generator's GRU, if it has one, and the classifier's, in the
        # first iteration; after rows froze, each takes views of its first
        # buffers
        X = rng.uniform(-1, 1, (4, 8, 2))
        stop_rule(monkeypatch, *stop)
        explain(X, toy_model, workers=1)
        rows = [r for r, _ in allocations]
        if stop == self.FOREVER_STOP:
            assert rows == [4] * 25
        assert len(set(rows)) >= counts
        assert [n for _, n in allocations] == [layouts] * len(rows)
        assert not nets._SPARES.spares

    def test_integrated_gradients_allocates_once(self, toy_model, rng,
                                                 allocations):
        X = rng.uniform(-1, 1, (4, 8, 2))
        ex.integrated_gradients(X, toy_model, steps=16)
        assert allocations == [(4, 1)] * 16
        assert not nets._SPARES.spares

    @pytest.mark.parametrize("explain, stop", [
        *((partial(ex.explain_learned, config=replace(
            TestRowFreezing.LEARNED, mode=mode, generator=generator)),
           TestRowFreezing.LEARNED_STOP)
          for mode in (ex.PRESERVATION, ex.DELETION)
          for generator in pert.GENERATORS),
        (partial(ex.explain_dynamask,
                 iterations=TestRowFreezing.DYNAMASK_ITERATIONS),
         TestRowFreezing.DYNAMASK_STOP),
        (partial(ex.integrated_gradients, steps=16), None),
    ], ids=[f"{m}-{g}" for m in ("preservation", "deletion")
            for g in pert.GENERATORS] + ["dynamask", "ig"])
    def test_reuse_moves_no_byte(self, toy_model, rng, monkeypatch, explain,
                                 stop):
        X = rng.uniform(-1, 1, (4, 8, 2))
        if stop is not None:
            stop_rule(monkeypatch, *stop)
        pooled = explain(X, toy_model)
        monkeypatch.setattr(ex, "reuse_buffers", contextlib.nullcontext)
        TestRowBlocks._assert_same(pooled, explain(X, toy_model))

    def test_spares_go_when_the_loop_raises(self, rng):
        p = nets.init_gru(rng, 2, 4)
        mask = pert.Mask(3, 5, 2)
        X = rng.uniform(-1, 1, (3, 5, 2))
        spares = []

        def loss(x):
            with ad.Tape():  # a call that gives its buffers back
                ad.tsum(nets.gru_forward(Tensor(x), p)).backward()
            spares.append(len(nets._SPARES.spares))
            m = ad.tmean(ad.reshape(mask.values, (3, 10)), axis=1)
            return ad.mul(m, np.nan if len(spares) == 3 else 1.0), {}

        with pytest.raises(ex.DivergenceError, match="at iteration 2"):
            ex._optimize_mask(mask, 0.01, 500, loss, (X,))
        assert spares == [1, 1, 1]
        assert not nets._SPARES.spares and not nets._SPARES.depth


class TestIntegratedGradients:
    def test_zero_at_baseline(self, toy_model):
        x = np.zeros((4, 2))
        out = ex.integrated_gradients(x, toy_model, steps=8)
        np.testing.assert_array_equal(out.metadata["raw"],
                                      np.zeros((1, 4, 2)))

    def test_completeness(self, seq_model, rng):
        X = rng.uniform(-1, 1, (3, 10, 2))
        out = ex.integrated_gradients(X, seq_model, steps=512)
        raw = out.metadata["raw"]
        want = nets.target_score(X, seq_model) - nets.target_score(
            np.zeros_like(X), seq_model)
        got = raw.sum(axis=(1, 2))
        # the small recurrent toy is fairly curvy; the midpoint rule needs
        # a few hundred steps here, far more than on smoother models
        np.testing.assert_allclose(got, want, rtol=0.025, atol=1e-3)

    def test_determinism(self, seq_model, rng):
        X = rng.uniform(-1, 1, (2, 10, 2))
        a = ex.integrated_gradients(X, seq_model, steps=16)
        b = ex.integrated_gradients(X, seq_model, steps=16)
        np.testing.assert_array_equal(a.scores, b.scores)


def test_ig_linear_function_exactness(rng):
    """IG of a linear scalar function recovers w * x for any step count.

    Uses the autodiff engine directly with the same midpoint accumulation
    as the production path; a linear readout over one GRU-free layer is
    emulated by a hand-built linear 'classifier'."""
    w = rng.uniform(-1, 1, (5, 2))
    x = rng.uniform(-1, 1, (5, 2))

    def f(arr):
        return float((w * arr).sum())

    # midpoint IG with analytic gradient w (constant): attribution = w*x
    steps = 3
    avg = np.zeros_like(x)
    for k in range(steps):
        alpha = (k + 0.5) / steps
        point = Tensor(alpha * x, requires_grad=True)
        with ad.Tape():
            ad.tsum(ad.mul(point, Tensor(w))).backward()
        avg += point.grad
    raw = x * avg / steps
    np.testing.assert_allclose(raw, w * x, atol=1e-12)
    assert raw.sum() == pytest.approx(f(x) - f(np.zeros_like(x)), abs=1e-10)


def test_saliency_csv_roundtrip(tmp_path, rng):
    sal = ex.SaliencyMap(scores=rng.uniform(0, 1, (2, 3, 2)), method="m")
    p = tmp_path / "sal.csv"
    ex.save_saliency_csv(sal, p)
    back = ex.load_saliency_csv(p)
    np.testing.assert_array_equal(back.scores, sal.scores)


@pytest.mark.parametrize("config", [
    ex.ExplainerConfig,
    partial(ex.explain_dynamask, np.zeros((0, 8, 2)), nets.init_classifier(
        np.random.default_rng(0), 2, 4).freeze()),
], ids=["ExplainerConfig", "explain_dynamask"])
def test_config_rejects_negative_iterations(config):
    config(iterations=0)
    with pytest.raises(ValueError, match="iterations must be >= 0"):
        config(iterations=-1)
    # a fraction fails here, not in the mask loop
    with pytest.raises(ValueError, match="iterations must be an integer"):
        config(iterations=2.5)


@pytest.mark.parametrize("config, key, value, message", [
    (ex.ExplainerConfig, "mask_lr", -1, "mask_lr must be finite and > 0"),
    (ex.ExplainerConfig, "mask_lr", 0, "mask_lr must be finite and > 0"),
    (ex.ExplainerConfig, "generator_lr", 0,
     "generator_lr must be finite and > 0"),
    # an infinite rate steps the mask or the generator into NaN
    (ex.ExplainerConfig, "mask_lr", np.inf,
     "mask_lr must be finite and > 0, got inf"),
    (ex.ExplainerConfig, "generator_lr", np.inf,
     "generator_lr must be finite and > 0, got inf"),
    (ex.ExplainerConfig, "generator_hidden", 0,
     "generator_hidden must be >= 1"),
    (ex.ExplainerConfig, "generator", "foo", "unknown generator 'foo'"),
    (ex.ExplainerConfig, "lambda1", -1.0,
     "lambda1 must be finite and >= 0, got -1.0"),
    # NaN fails every comparison, so `< 0` alone let it through to a
    # non-finite loss at the first iteration
    (ex.ExplainerConfig, "lambda1", np.nan,
     "lambda1 must be finite and >= 0, got nan"),
    (ex.ExplainerConfig, "lambda2", np.inf,
     "lambda2 must be finite and >= 0, got inf"),
])
def test_config_rejects_settings_that_cannot_work(config, key, value,
                                                  message):
    with pytest.raises(ValueError, match=message):
        config(**{key: value})
