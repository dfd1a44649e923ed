"""Generate the 2-state HMM benchmark and train the classifier under
explanation.

Each timestep's label is drawn from a sigmoid of feature 1 (state 0) or
feature 2 (state 1), so the generating cell is the known-true saliency.

Run: python3 demos/hmm_benchmark.py
"""

import numpy as np

from tempex import data, nets

cfg = data.HmmConfig(n_series=200, n_steps=100, seed=0)
ds = data.generate_hmm(cfg)
print("X", ds.X.shape, "y", ds.y.shape)
print("true salient cells per step:", ds.true_saliency.sum(axis=(0, 2))[:5],
      "... (exactly one per timestep)")

pi = data.hmm_stationary_distribution(data.HMM_TRANSITION)
occ = np.bincount(ds.states.ravel(), minlength=2) / ds.states.size
print("stationary distribution:", pi, "empirical occupancy:", occ)

model = nets.init_classifier(np.random.default_rng(0), 3, 32)
model, history = nets.train_classifier(
    ds, model, nets.TrainConfig(epochs=20, seed=0))
p = nets.predict_proba(ds.X, model)
acc = np.mean((p > 0.5) == ds.y)

# the labels are stochastic, so the Bayes rate (predicting from the true
# generating probability) bounds what any classifier can reach
gen = np.where(ds.states == 0, ds.X[:, :, 1], ds.X[:, :, 2])
bayes = np.mean(((1 / (1 + np.exp(-gen))) > 0.5) == ds.y)
print(f"train loss {history[-1]:.4f}, accuracy {acc:.3f} "
      f"(Bayes rate {bayes:.3f})")
