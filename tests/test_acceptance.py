"""Acceptance gate.

The heavy benchmark checks read the artifacts of the deterministic
experiment runs checked under runs/ at the repo root. Reproduce them with:

    tempex run --experiment hmm --profile full --out runs/hmm_full
    tempex run --experiment hmm --profile fast --ablation lambda \
        --out runs/hmm_grid
    tempex run --experiment icu_like --profile full --compare-generators \
        --out runs/icu_full

Adding `--jobs 2` runs two folds at a time with byte-identical output. On a
2-core machine the icu_full command took 59 min of wall time with
`--jobs 2` (2 h 57 min before the fused GRU op, batched occlusion and the
numpy sigmoid); the two hmm commands have not been run to completion.
Only the CSVs, config.ini and charts are committed; models/ is
regenerated by the same command. Compare the [environment] section of
config.ini before comparing bytes: the BLAS thread count moves last bits.

Missing artifacts fail the corresponding tests outright (no skips): the
gate stays red until the runs exist. The fast property checks at the bottom
retrain tiny models in-process and must finish in under a minute total.
"""

import os
import time

import numpy as np
import pytest

from tempex import autodiff as ad
from tempex import data, experiment as xp, explainers as ex
from tempex import metrics as mt, nets, perturbation as pert
from tempex.autodiff import Tensor

from conftest import assert_gradcheck

RUNS = os.path.join(os.path.dirname(__file__), os.pardir, "runs")
HMM_FULL = os.path.join(RUNS, "hmm_full")
HMM_GRID = os.path.join(RUNS, "hmm_grid")
ICU_FULL = os.path.join(RUNS, "icu_full")


def _load(run_dir, experiment, per_fold=False):
    name = f"{experiment}_{'results' if per_fold else 'aggregated'}.csv"
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        pytest.fail(f"missing run artifact {path}; see module docstring "
                    "for the command that produces it")
    return xp.load_results(path)


def _agg(run_dir, experiment):
    """(method, metric, fraction, substitution) -> (mean, std)."""
    out = {}
    for r in _load(run_dir, experiment):
        key = (r["method"], r["metric"], r["fraction"], r["substitution"])
        out[key] = (r["mean"], r["std"])
    return out


def _fold_values(run_dir, experiment, method, metric, fraction, subst):
    vals = {}
    for r in _load(run_dir, experiment, per_fold=True):
        if (r["method"] == method and r["metric"] == metric
                and r["fraction"] == fraction
                and r["substitution"] == subst):
            vals[int(r["fold"])] = r["mean"]
    return np.array([vals[f] for f in sorted(vals)])


# ---------------------------------------------------------------------------
# HMM benchmark (full profile, 5 folds)


def test_hmm_full_learned_aup_aur():
    agg = _agg(HMM_FULL, xp.HMM)
    aup, _ = agg[("learned_preservation", "aup", None, "")]
    aur, _ = agg[("learned_preservation", "aur", None, "")]
    assert aup >= 0.80, f"aup {aup:.3f} < 0.80"
    assert aur >= 0.70, f"aur {aur:.3f} < 0.70"


def test_hmm_full_beats_dynamask():
    agg = _agg(HMM_FULL, xp.HMM)

    def get(method, metric):
        return agg[(method, metric, None, "")][0]

    assert get("learned_preservation", "aup") > get("dynamask", "aup")
    assert get("learned_preservation", "information") \
        > get("dynamask", "information")
    assert get("learned_preservation", "entropy") \
        < get("dynamask", "entropy")
    assert get("learned_preservation", "aur") >= get("dynamask", "aur") - 0.05


def test_hmm_full_deletion_vs_preservation():
    agg = _agg(HMM_FULL, xp.HMM)

    def get(method, metric):
        return agg[(method, metric, None, "")][0]

    assert get("learned_deletion", "aur") > get("learned_preservation", "aur")
    assert get("learned_preservation", "aup") \
        - get("learned_deletion", "aup") >= 0.3


def test_lambda_grid_sweet_spot():
    agg = _agg(HMM_GRID, xp.HMM)
    cells = {}
    for l1 in xp.LAMBDAS:
        for l2 in xp.LAMBDAS:
            method = f"learned_l1={l1:g}_l2={l2:g}"
            aup = agg[(method, "aup", None, "")][0]
            aur = agg[(method, "aur", None, "")][0]
            cells[(l1, l2)] = (aup, aur)
    best_l1, best_l2 = max(cells, key=lambda k: cells[k][0] * cells[k][1])
    assert best_l1 == 1.0, f"best aup*aur at l1={best_l1:g}, not 1"
    assert best_l2 >= 1.0, f"best aup*aur at l2={best_l2:g} < 1"
    for (l1, _l2), (_aup, aur) in cells.items():
        if l1 in (10.0, 100.0):
            assert aur < 0.3, f"l1={l1:g}: aur {aur:.3f} >= 0.3"


# ---------------------------------------------------------------------------
# ICU-like benchmark (full profile, 5 folds)

BASELINES = ("occlusion", "augmented_occlusion", "integrated_gradients")


def test_icu_orderings_at_20pct():
    agg = _agg(ICU_FULL, xp.ICU)
    for subst in xp.SUBSTITUTIONS:
        def get(method, metric):
            return agg[(method, metric, 0.2, subst)][0]

        for other in BASELINES:
            ours = "learned_preservation"
            tag = f"{other}/{subst}"
            assert get(ours, "cross_entropy") > get(other, "cross_entropy"), \
                f"ce not higher vs {tag}"
            assert get(ours, "comprehensiveness") \
                > get(other, "comprehensiveness"), f"comp not higher vs {tag}"
            assert get(ours, "sufficiency") < get(other, "sufficiency"), \
                f"suff not lower vs {tag}"
            assert get(ours, "accuracy") < get(other, "accuracy"), \
                f"acc not lower vs {tag}"


def test_icu_generator_ablation_ce():
    # GRU >= Bi-GRU >= Zeros on CE at 20% masking, ties within one std
    # of the per-fold differences
    for subst in xp.SUBSTITUTIONS:
        def folds(method):
            v = _fold_values(ICU_FULL, xp.ICU, method, "cross_entropy",
                             0.2, subst)
            assert v.size >= 5, f"need >= 5 folds for {method}, got {v.size}"
            return v

        gru = folds("learned_gru")
        bigru = folds("learned_preservation")
        zeros = folds("learned_zeros")
        for hi, lo, tag in ((gru, bigru, "gru vs bigru"),
                            (bigru, zeros, "bigru vs zeros")):
            diff = hi - lo
            tol = diff.std(ddof=1)
            assert diff.mean() >= -tol, \
                f"{tag} ({subst}): mean diff {diff.mean():.4f} < -{tol:.4f}"


def test_icu_late_masking_dominates():
    agg = _agg(ICU_FULL, xp.ICU)

    def rate(metric, frac):
        return agg[("masking_curve", metric, frac, mt.ZEROS)][0]

    base = rate("positive_rate_mask_first", 0.0)
    assert base == 1.0
    drop_first = base - rate("positive_rate_mask_first", 0.25)
    drop_last = base - rate("positive_rate_mask_last", 0.25)
    assert drop_last > 0
    assert drop_last >= 3.0 * drop_first, \
        f"late drop {drop_last:.3f} < 3x early drop {drop_first:.3f}"


# ---------------------------------------------------------------------------
# property suite (self-contained, must finish in < 60 s)

_t0 = None


@pytest.fixture(scope="class")
def clock():
    global _t0
    if _t0 is None:
        _t0 = time.monotonic()
    return _t0


@pytest.fixture(scope="module")
def tiny_model():
    """Small trained per-timestep classifier on a short HMM sample."""
    ds = data.generate_hmm(data.HmmConfig(n_series=60, n_steps=16, seed=3))
    model = nets.init_classifier(np.random.default_rng(3), 3, 8)
    model, _ = nets.train_classifier(
        ds, model, nets.TrainConfig(epochs=15, seed=3))
    return ds, model.freeze()


@pytest.mark.usefixtures("clock")
class TestProperties:
    def test_gradcheck_gru_cell(self, rng):
        # the cell runs inside the sequence-level op; T = 3 steps
        w_x = Tensor(rng.normal(0, 0.4, (2, 9)), requires_grad=True)
        w_h = Tensor(rng.normal(0, 0.4, (3, 9)), requires_grad=True)
        b = Tensor(rng.normal(0, 0.1, (1, 9)), requires_grad=True)

        def build(x):
            h = nets.gru_direction(x, nets.GruDirectionParams(w_x, w_h, b),
                                   3)
            return ad.tsum(ad.mul(h, h))

        assert_gradcheck(build, rng.normal(0, 1, (4, 3, 2)), rtol=1e-4)

    def test_gradcheck_learned_loss_wrt_mask(self, rng, tiny_model):
        ds, model = tiny_model
        x = ds.X[:2]
        gen = pert.PerturbationGenerator(pert.BIDIRECTIONAL, 2, 3,
                                         hidden=4, seed=0)
        ref = nets.predict_proba(x, model)

        def build(m):
            phi, _nn = pert.apply_learned(Tensor(x), m, gen)
            logits = nets.classifier_forward(phi, model)
            ce = ex._per_sample_ce(logits, ref)
            reg = ad.tmean(ad.tabs(m))
            return ad.add(ad.tmean(ce), reg)

        assert_gradcheck(build, rng.uniform(0.2, 0.8, (2, 16, 3)),
                         rtol=1e-4, h=1e-6)

    def test_phi_limits_exact(self, rng):
        x = rng.normal(0, 1, (3, 10, 4))
        gen = pert.PerturbationGenerator(pert.UNIDIRECTIONAL, 3, 4,
                                         hidden=5, seed=1)
        nn_x = gen.forward(Tensor(x)).data
        ones, _ = pert.apply_learned(Tensor(x), Tensor(np.ones_like(x)), gen)
        zeros, _ = pert.apply_learned(Tensor(x), Tensor(np.zeros_like(x)),
                                      gen)
        assert np.array_equal(ones.data, x)
        assert np.array_equal(zeros.data, nn_x)

    def test_blur_kernel_normalized(self, rng):
        m = Tensor(rng.uniform(0, 1, (2, 12, 3)))
        w = pert._blur_weights(m, sigma_max=2.0, T=12).data
        sums = w.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_occlusion_brute_force(self, tiny_model):
        ds, model = tiny_model
        x = ds.X[:2, :4, :]  # T*n = 12
        got = ex.occlusion(x, model).metadata["raw"]
        base = nets.target_score(x, model)
        for t in range(4):
            for i in range(3):
                mod = x.copy()
                mod[:, t, i] = 0.0
                want = np.abs(base - nets.target_score(mod, model))
                assert np.allclose(got[:, t, i], want, rtol=0, atol=1e-12)

    def test_ig_completeness_within_1pct(self, tiny_model):
        ds, model = tiny_model
        x = ds.X[:8]
        out = ex.integrated_gradients(x, model, steps=128)
        total = out.metadata["raw"].sum(axis=(1, 2))
        want = nets.target_score(x, model) \
            - nets.target_score(np.zeros_like(x), model)
        err = np.abs(total - want) / np.abs(want)
        assert err.max() < 0.01, f"completeness err {err.max():.4f}"

    def test_ig_near_linear_exactness(self, rng, tiny_model):
        # in a vanishing neighbourhood the path integral collapses to
        # gradient times difference; checks the integrator itself
        _, model = tiny_model
        x0 = rng.normal(0, 1, (2, 6, 3))
        eps = 1e-4
        base = x0 * (1 - eps)
        out = ex.integrated_gradients(x0, model, baseline=base, steps=8)
        raw = out.metadata["raw"]
        point = Tensor(x0.copy(), requires_grad=True)
        with ad.Tape():
            ad.tsum(ad.sigmoid(nets.classifier_forward(point, model))) \
                .backward()
        want = point.grad * (x0 - base)
        assert np.allclose(raw, want, rtol=1e-3, atol=1e-10)

    def test_information_entropy_closed_forms(self):
        truth = np.array([[True, False]])
        half = np.array([[0.5, 0.9]])
        assert np.isclose(mt.information(half, truth), np.log(2))
        assert np.isclose(mt.entropy(half, truth), np.log(2))
        sat = np.array([[1.0, 0.3]])
        assert np.isclose(mt.information(sat, truth), -np.log(mt.EPS))
        assert mt.entropy(sat, truth) == 0.0
        off = np.array([[0.0, 0.3]])
        assert mt.information(off, truth) < 2e-6
        assert mt.entropy(off, truth) == 0.0

    def test_vecsort_closed_form(self):
        got = ex.vecsort(np.array([0.3, 0.9, 0.1]))
        assert np.array_equal(got, [0.1, 0.3, 0.9])

    def test_aup_aur_closed_forms(self):
        truth = np.array([[True, False], [False, True]])
        perfect = truth.astype(float)
        assert mt.aup_aur(perfect, truth) == (1.0, 1.0)
        allon = np.ones((2, 2))
        aup, aur = mt.aup_aur(allon, truth)
        assert aur == 1.0 and aup == 0.5

    def test_mask_box_constraint_every_step(self, tiny_model, monkeypatch):
        ds, model = tiny_model
        seen = []
        orig = pert.Mask.project

        def spy(self):
            orig(self)
            seen.append((self.data.min(), self.data.max()))

        monkeypatch.setattr(pert.Mask, "project", spy)
        ex.explain_learned(ds.X[:2], model,
                           ex.ExplainerConfig(lambda1=50.0, iterations=12,
                                              mask_lr=0.5, seed=0))
        assert len(seen) >= 12
        for lo, hi in seen:
            assert lo >= 0.0 and hi <= 1.0

    def test_bitwise_determinism(self, tiny_model):
        ds, model = tiny_model
        cfg = ex.ExplainerConfig(iterations=10, seed=7)
        a = ex.explain_learned(ds.X[:3], model, cfg)
        b = ex.explain_learned(ds.X[:3], model, cfg)
        assert np.array_equal(a.scores, b.scores)
        ds2 = data.generate_hmm(data.HmmConfig(n_series=5, n_steps=8, seed=9))
        ds3 = data.generate_hmm(data.HmmConfig(n_series=5, n_steps=8, seed=9))
        assert np.array_equal(ds2.X, ds3.X) and np.array_equal(ds2.y, ds3.y)

    def test_property_suite_under_60s(self, clock):
        assert time.monotonic() - clock < 60.0
