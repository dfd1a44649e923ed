"""Acceptance gate.

The paper's claims and their thresholds live in one table,
`tempex.experiment.CLAIMS`; `experiment.evaluate_claims` checks them
against a run directory, and `tempex report --dir <run>` prints a
`violation:` line for exactly the claims that fail here. Each claim names
the test below that asserts it, and a test fails listing every one of its
claims that failed or whose rows the run lacks.

The claim tests read the artifacts of the deterministic experiment runs
checked in under runs/ at the repo root. Reproduce them with:

    tempex run --experiment hmm --profile full --out runs/hmm_full
    tempex run --experiment hmm --profile fast --ablation lambda \
        --out runs/hmm_grid
    tempex run --experiment icu_like --profile full --compare-generators \
        --out runs/icu_full

By default they run as many folds at a time as there are usable CPUs,
each process on one OpenBLAS thread; `--jobs` never changes a byte. On a
2-core machine, with the GRU backward cut down to the dh recurrence, the
commands took 6 min 35 s (hmm_full), 5 min 50 s (hmm_grid) and 8 min 40 s
(icu_full) of wall time, in single runs whose times varied by up to a
third from run to run. icu_full took 10 min 48 s before that change,
25 min 41 s with one perturbation generator per row, 85 min with two BLAS
threads per fold worker, and 2 h 57 min before the fused GRU op, batched
occlusion and the numpy sigmoid. Only the CSVs, config.ini and charts are
committed; models/ is regenerated by the same command. Compare the
[environment] section of config.ini before comparing bytes: the BLAS
library and kernel (blas, blas_core) move last bits.

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


def _assert_claims(run_dir, experiment, test):
    """Every claim of CLAIMS that `test` owns passes on run_dir."""
    for kind in ("aggregated", "results"):
        path = os.path.join(run_dir, f"{experiment}_{kind}.csv")
        if not os.path.exists(path):
            pytest.fail(f"missing run artifact {path}; see module docstring "
                        "for the command that produces it")
    verdicts = [v for v in xp.evaluate_claims(run_dir) if v.test == test]
    assert verdicts, f"experiment.CLAIMS has no claim for {test}"
    failed = [f"{v.id} ({v.verdict}): {v.message}" for v in verdicts
              if v.verdict != xp.PASS]
    assert not failed, (f"{len(failed)} of {len(verdicts)} claims fail:\n"
                        + "\n".join(failed))


# ---------------------------------------------------------------------------
# HMM benchmark (full profile, 5 folds; the lambda grid at the fast profile)


def test_hmm_full_learned_aup_aur(request):
    _assert_claims(HMM_FULL, xp.HMM, request.node.name)


def test_hmm_full_beats_dynamask(request):
    _assert_claims(HMM_FULL, xp.HMM, request.node.name)


def test_hmm_full_deletion_vs_preservation(request):
    _assert_claims(HMM_FULL, xp.HMM, request.node.name)


def test_lambda_grid_sweet_spot(request):
    _assert_claims(HMM_GRID, xp.HMM, request.node.name)


# ---------------------------------------------------------------------------
# ICU-like benchmark (full profile, 5 folds)


def test_icu_orderings_at_20pct(request):
    _assert_claims(ICU_FULL, xp.ICU, request.node.name)


def test_icu_generator_ablation_ce(request):
    _assert_claims(ICU_FULL, xp.ICU, request.node.name)


def test_icu_late_masking_dominates(request):
    _assert_claims(ICU_FULL, xp.ICU, request.node.name)


def test_claim_thresholds_pinned():
    # each claim's threshold at the value the paper reproduction fixed;
    # a change here changes what the gate accepts
    got = {}
    for c in xp.CLAIMS:
        got.setdefault(c.test, {})[c.id] = c.threshold
    grid_aur = {f"hmm_grid.aur_l1={l1}_l2={l2}": 0.3
                for l1 in ("10", "100")
                for l2 in ("0.01", "0.1", "1", "10", "100")}
    orderings = {f"icu.{m}_vs_{o}.{s}": 0.0
                 for s in ("time_average", "zeros")
                 for o in ("occlusion", "augmented_occlusion",
                           "integrated_gradients")
                 for m in ("cross_entropy", "comprehensiveness",
                           "sufficiency", "accuracy")}
    assert got == {
        "test_hmm_full_learned_aup_aur": {
            "hmm.learned_aup": 0.80, "hmm.learned_aur": 0.70},
        "test_hmm_full_beats_dynamask": {
            "hmm.beats_dynamask.aup": 0.0,
            "hmm.beats_dynamask.information": 0.0,
            "hmm.beats_dynamask.entropy": 0.0,
            "hmm.dynamask_aur_margin": -0.05},
        "test_hmm_full_deletion_vs_preservation": {
            "hmm.deletion_aur_above": 0.0, "hmm.deletion_aup_gap": 0.3},
        "test_lambda_grid_sweet_spot": {
            "hmm_grid.best_aup_aur": 1.0, **grid_aur},
        "test_icu_orderings_at_20pct": orderings,
        "test_icu_generator_ablation_ce": {
            "icu.ablation_learned_gru_vs_learned_preservation.time_average":
                1.0,
            "icu.ablation_learned_preservation_vs_learned_zeros."
            "time_average": 1.0,
            "icu.ablation_learned_gru_vs_learned_preservation.zeros": 1.0,
            "icu.ablation_learned_preservation_vs_learned_zeros.zeros": 1.0},
        "test_icu_late_masking_dominates": {"icu.late_masking": 3.0},
    }


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
            dp = nets.GruDirectionParams(w_x, w_h, b)
            h = nets.gru_forward(x, nets.GruParams(2, 3, fwd=dp))
            return ad.tsum(ad.mul(h, h))

        assert_gradcheck(build, rng.normal(0, 1, (4, 3, 2)), rtol=1e-4)

    def test_gradcheck_learned_loss_wrt_mask(self, rng, tiny_model):
        ds, model = tiny_model
        x = ds.X[:2]
        gen = pert.PerturbationGenerator(pert.BIDIRECTIONAL, 3,
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
        gen = pert.PerturbationGenerator(pert.UNIDIRECTIONAL, 4,
                                         hidden=5, seed=1)
        nn_x = gen.forward(Tensor(x)).data
        ones, _ = pert.apply_learned(Tensor(x), Tensor(np.ones_like(x)), gen)
        zeros, _ = pert.apply_learned(Tensor(x), Tensor(np.zeros_like(x)),
                                      gen)
        assert np.array_equal(ones.data, x)
        assert np.array_equal(zeros.data, nn_x)

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
        # (from the zero baseline to an input within 1e-4 of it)
        _, model = tiny_model
        x0 = 1e-4 * rng.uniform(-1, 1, (2, 6, 3))
        out = ex.integrated_gradients(x0, model, steps=8)
        raw = out.metadata["raw"]
        point = Tensor(x0.copy(), requires_grad=True)
        with ad.Tape():
            ad.tsum(ad.sigmoid(nets.classifier_forward(point, model))) \
                .backward()
        want = point.grad * x0
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
