import numpy as np
import pytest

from tempex import data
from tempex.data import HmmConfig


class TestHmm:
    def test_saliency_marks_generating_feature(self):
        ds = data.generate_hmm(HmmConfig(n_series=5, n_steps=30, seed=1))
        state0 = ds.states == 0
        np.testing.assert_array_equal(ds.true_saliency[:, :, 0],
                                      np.zeros_like(state0))
        np.testing.assert_array_equal(ds.true_saliency[:, :, 1], state0)
        np.testing.assert_array_equal(ds.true_saliency[:, :, 2], ~state0)

    def test_saliency_cardinality_one_per_step(self):
        ds = data.generate_hmm(HmmConfig(n_series=4, n_steps=25, seed=2))
        np.testing.assert_array_equal(ds.true_saliency.sum(axis=2),
                                      np.ones((4, 25)))

    def test_label_probability_half_at_zero_driver(self):
        # regenerate the Bernoulli parameter from stored X and states:
        # driver 0 -> p = 0.5; also checks label consistency statistically
        ds = data.generate_hmm(HmmConfig(n_series=50, n_steps=100, seed=3))
        driver = np.where(ds.states == 0, ds.X[:, :, 1], ds.X[:, :, 2])
        p = 1.0 / (1.0 + np.exp(-driver))
        # bin by p and compare observed label frequency
        near_half = np.abs(p - 0.5) < 0.05
        assert near_half.sum() > 50
        freq = ds.y[near_half].mean()
        assert abs(freq - 0.5) < 0.1
        strong = p > 0.9
        assert ds.y[strong].mean() > 0.85

    def test_occupancy_matches_stationary_distribution(self, monkeypatch):
        trans = np.array([[0.8, 0.2], [0.1, 0.9]])
        monkeypatch.setattr(data, "HMM_TRANSITION", trans)
        ds = data.generate_hmm(HmmConfig(n_series=500, n_steps=200, seed=4))
        pi = data.hmm_stationary_distribution(trans)
        occupancy = (ds.states == 0).mean()
        assert abs(occupancy - pi[0]) < 0.01

    def test_seeded_determinism(self):
        a = data.generate_hmm(HmmConfig(n_series=3, n_steps=20, seed=9))
        b = data.generate_hmm(HmmConfig(n_series=3, n_steps=20, seed=9))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)


def two_branch_sigmoid(x):
    """The logistic the labels were drawn with before data shared autodiff's
    _sigmoid, which differs from it by up to 1 ulp; the labels must not
    move."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                    np.exp(np.minimum(x, 0)) / (1.0 + np.exp(np.minimum(x, 0))))


def reference_hmm(config):
    """generate_hmm's X, y and states with one rng.choice per state draw."""
    N, T = config.n_series, config.n_steps
    transition, mu = data.HMM_TRANSITION, data.HMM_MU
    chol = [np.linalg.cholesky(data.HMM_SIGMA[s]) for s in range(2)]
    X = np.empty((N, T, 3))
    y = np.empty((N, T), dtype=np.int64)
    states = np.empty((N, T), dtype=np.int64)
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(config.seed).spawn(N)]
    pi0 = data.hmm_stationary_distribution(transition)
    for i, rng in enumerate(streams):
        s = rng.choice(2, p=pi0)
        for t in range(T):
            if t > 0:
                s = rng.choice(2, p=transition[s])
            states[i, t] = s
            X[i, t] = mu[s] + chol[s] @ rng.standard_normal(3)
            driver = X[i, t, 1] if s == 0 else X[i, t, 2]
            y[i, t] = rng.random() < two_branch_sigmoid(driver)
    return X, y, states


@pytest.mark.parametrize("seed", [0, 11])
@pytest.mark.parametrize("transition", [None, [[0.7, 0.3], [0.05, 0.95]]])
def test_hmm_matches_choice_reference(seed, transition, monkeypatch):
    if transition is not None:  # an asymmetric chain
        monkeypatch.setattr(data, "HMM_TRANSITION", np.array(transition))
    cfg = HmmConfig(n_series=6, n_steps=40, seed=seed)
    ds = data.generate_hmm(cfg)
    X, y, states = reference_hmm(cfg)
    np.testing.assert_array_equal(ds.X, X)
    np.testing.assert_array_equal(ds.y, y)
    np.testing.assert_array_equal(ds.states, states)


class TestIcuLike:
    def test_default_window_is_48(self):
        ds = data.generate_icu_like(10, seed=0)
        assert ds.n_steps == 48

    def test_channels_standardized(self):
        ds = data.generate_icu_like(3000, n_steps=48, seed=1)
        flat = ds.X.reshape(-1, ds.n_features)
        assert flat.shape[0] >= 1e5
        assert np.all(np.abs(flat.mean(axis=0)) < 0.05)
        assert np.all(np.abs(flat.std(axis=0) - 1.0) < 0.05)

    def test_label_depends_only_on_planted_channels(self):
        # shuffling the planted channels across samples destroys the label
        # signal; an optimal-bayes-style probe drops to chance
        ds = data.generate_icu_like(2000, seed=2)
        T = ds.n_steps
        late = slice(T - T // 3, T)

        def probe_auroc(X, y):
            score = X[:, late, 0].mean(axis=1) + X[:, late, 1].mean(axis=1)
            order = np.argsort(score)
            ranks = np.empty(len(score))
            ranks[order] = np.arange(len(score))
            pos, neg = ranks[y == 1], ranks[y == 0]
            return (pos[:, None] > neg[None, :]).mean()

        assert probe_auroc(ds.X, ds.y) > 0.85
        rng = np.random.default_rng(0)
        shuffled = ds.X.copy()
        for c in data.ICU_SIGNAL_CHANNELS:
            shuffled[:, :, c] = shuffled[rng.permutation(len(shuffled)), :, c]
        assert abs(probe_auroc(shuffled, ds.y) - 0.5) < 0.05

    @pytest.mark.parametrize("n_steps", [0, 1, 2])
    def test_rejects_fewer_than_three_steps(self, n_steps):
        # the label's late window, the last T // 3 steps, would be empty
        with pytest.raises(ValueError, match=f"n_steps is {n_steps}; .* "
                           "must be >= 3"):
            data.generate_icu_like(10, n_steps=n_steps)

    def test_three_steps_plant_the_last_one(self):
        ds = data.generate_icu_like(10, n_steps=3, seed=0)
        truth = np.zeros((10, 3, 8), dtype=bool)
        truth[:, 2, list(data.ICU_SIGNAL_CHANNELS)] = True
        np.testing.assert_array_equal(ds.true_saliency, truth)

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_labels_match_the_two_branch_logistic(self, seed, monkeypatch):
        ds = data.generate_icu_like(400, n_steps=24, seed=seed)
        monkeypatch.setattr(data, "_sigmoid", two_branch_sigmoid)
        want = data.generate_icu_like(400, n_steps=24, seed=seed)
        np.testing.assert_array_equal(ds.y, want.y)

    def test_seeded_determinism(self):
        a = data.generate_icu_like(5, seed=3)
        b = data.generate_icu_like(5, seed=3)
        np.testing.assert_array_equal(a.X, b.X)


class TestArchive:
    def test_roundtrip(self, tmp_path):
        ds = data.generate_hmm(HmmConfig(n_series=3, n_steps=10, seed=5))
        path = tmp_path / "ds.zip"
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.true_saliency, ds.true_saliency)
        assert back.feature_names == ds.feature_names
