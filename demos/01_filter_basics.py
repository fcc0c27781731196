"""Tour of the core filter: beliefs, predict/update, and rank effects.

Runs the diagonal-plus-low-rank filter on a small nonlinear regression
stream at several ranks and compares each trajectory against the
full-covariance EKF, which is exact up to linearization. Prints a table
and, when matplotlib is present, saves rank_sweep.png.
"""

import numpy as np

from lrkf.baselines import dense_update, dense_predict
from lrkf.belief import DenseCovBelief, DlrBelief, dlr_to_dense
from lrkf.diagonal import DynamicsConfig, LowRankConfig, step
from lrkf.models import GaussianFamily, MlpModel, MlpSpec, initialize_mean, linearize

rng = np.random.default_rng(0)

model = MlpModel(MlpSpec((2, 8, 1), activation="tanh"), GaussianFamily(0.04))
P = model.parameter_count
print(f"observation model: 2-8-1 tanh MLP, {P} parameters")


def make_stream(n):
    xs = rng.uniform(-2, 2, size=(n, 2))
    ys = np.sin(xs[:, 0]) * np.cos(xs[:, 1]) + 0.2 * rng.standard_normal(n)
    return xs, ys.reshape(-1, 1)


xs, ys = make_stream(400)
dyn = DynamicsConfig(gamma=1.0, process_noise=1e-4, initial_precision=1.0)

# dense EKF reference, carried on the covariance
theta0 = initialize_mean(model.spec, 7)
ref = DenseCovBelief(theta0, np.eye(P))
ref_errs = []
for x, y in zip(xs, ys):
    pred = dense_predict(ref, dyn)
    ref_errs.append((model.forward(x, pred.mean)[0] - y[0]) ** 2)
    ref = dense_update(pred, linearize(model, x, pred.mean), y)
print(f"full-covariance EKF final RMSE (last 100): "
      f"{np.sqrt(np.mean(ref_errs[-100:])):.4f}")

results = {}
for rank in (0, 1, 2, 5, 10, P):
    cfg = LowRankConfig(rank=rank, dynamics=dyn)
    belief = DlrBelief(theta0, np.ones(P), np.zeros((P, rank)))
    errs = []
    for x, y in zip(xs, ys):
        belief, y_hat = step(belief, x, y, model, cfg)
        errs.append((y_hat[0] - y[0]) ** 2)
    cov = np.linalg.inv(dlr_to_dense(belief).precision)
    gap = np.linalg.norm(cov - ref.cov) / np.linalg.norm(ref.cov)
    results[rank] = (np.sqrt(np.mean(errs[-100:])), gap)
    print(f"rank {rank:3d}: trailing RMSE {results[rank][0]:.4f}   "
          f"covariance gap to dense EKF {gap:.2e}")

print("\nrank P reproduces the dense EKF; rank 0 is the variational diagonal EKF.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ranks = sorted(results)
    fig, ax = plt.subplots(1, 2, figsize=(9, 3.2))
    ax[0].plot(ranks, [results[r][0] for r in ranks], "o-")
    ax[0].axhline(np.sqrt(np.mean(ref_errs[-100:])), ls="--", c="k", label="dense EKF")
    ax[0].set_xlabel("rank")
    ax[0].set_ylabel("trailing RMSE")
    ax[0].legend()
    ax[1].semilogy(ranks, [max(results[r][1], 1e-17) for r in ranks], "o-")
    ax[1].set_xlabel("rank")
    ax[1].set_ylabel("relative covariance gap")
    fig.tight_layout()
    fig.savefig("rank_sweep.png", dpi=120)
    print("wrote rank_sweep.png")
except ImportError:
    print("matplotlib not installed; skipping the figure")
