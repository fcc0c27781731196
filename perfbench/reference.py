"""A gauge of the machine's speed, timed between the benchmark's calls.

The benchmark runs on a few cores of a shared host. When other tenants
load it, everything in this process runs slower, for stretches from under
a second to several minutes, and the process cannot see it: CPU time keeps
pace with wall time and no steal is reported. A fixed reference kernel,
timed right after every entry-point call, measures that slowdown: the
benchmark divides each call's duration by the kernel time next to it and
converts back to seconds with the kernel's time :data:`NOMINAL_S` on a
quiet machine. ``setup_s`` is treated the same way, with the ``small``
kernel timed before each set-up probe.

Each workload has a kernel of its own kind, because interference slows
small interpreted numpy calls and large BLAS products by different
amounts:

* ``small``: a P = 151 low-rank step in the style of the ``sine`` and
  ``sampling`` events (a small MLP forward, a Gram eigendecomposition of
  an 11-column factor, a short Python loop), 40 times.
* ``blas``: one thin SVD of a 12,010 x 30 factor by the Gram route, the
  shape of a ``wide`` update.

The kernels use only numpy and fixed data, so no change to ``lrkf`` can
change their time.
"""

import statistics
import time

import numpy as np

# Kernel time, in seconds, on an Intel Xeon at 2.1 GHz (2 vCPUs, one BLAS
# thread) in a quiet stretch. It only scales the results.
NOMINAL_S = {"small": 1.77e-3, "blas": 3.91e-3}


def _kernels():
    rng = np.random.default_rng(0)
    factor = rng.standard_normal((12010, 30))
    diag = rng.random(12010) + 1.0

    def blas():
        gram = factor.T @ (factor / diag[:, None])
        _, vecs = np.linalg.eigh(gram)
        u = factor @ vecs
        return (u * u).sum(axis=0)

    w1 = rng.standard_normal((50, 1))
    w2 = rng.standard_normal((1, 50))
    u0 = rng.standard_normal((151, 10))
    d0 = rng.random(151) + 1.0

    def small():
        u = u0
        for k in range(40):
            x = np.array([k * 0.01])
            h = np.tanh(w1 @ x)
            w2 @ h
            jac = np.concatenate([h * 0.5, w1[:, 0] * (1 - h * h), np.ones(51)])
            w_ext = np.hstack([u, (jac / np.sqrt(d0))[:, None]])
            _, vecs = np.linalg.eigh(w_ext.T @ w_ext)
            u = (w_ext @ vecs)[:, 1:] * 0.99
            s = 0
            for i in range(50):
                s += i
        return u

    return {"small": small, "blas": blas}


class Gauge:
    """Times one reference kernel on demand."""

    def __init__(self, kind):
        self.kind = kind
        self.nominal_s = NOMINAL_S[kind]
        self._kernel = _kernels()[kind]
        self._kernel()  # first call pays for page faults and lazy imports

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def slowdown(self, samples):
        """The median sample over the nominal time."""
        return statistics.median(samples) / self.nominal_s
