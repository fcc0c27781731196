"""Differentiable observation models and likelihood moment matching.

An observation model maps an input ``x`` and a flat parameter vector
``theta`` to a C-dimensional output. The package ships a multilayer
perceptron whose Jacobian is accumulated layer by layer (no autodiff
framework), plus a thin wrapper for handwritten test models.

``theta`` may carry a leading draw axis: ``logits`` and ``forward`` map
parameters of shape (P,) to outputs of shape (C,), and a stack of S draws
of shape (S, P) to (S, C) in one pass, each row bit-identical to its
single-draw result. Jacobians take a single (P,) vector. Their forward
pass also yields the output, so a linearization costs one network pass.

Every pass runs one layer loop, ``MlpModel._pass``. An ``MlpSpec``
caches what that loop and the Jacobian's backward pass need besides the
parameters, built on first use: the weight and bias slices and shapes of
each layer, the activation and its derivative (looked up by name once),
and the read-only C x C identity the backward pass starts from.

Likelihood families:

* ``GaussianFamily(obs_variance)`` for regression. ``obs_variance`` may be
  a scalar (isotropic) or a full C x C covariance. R, its Cholesky factor
  and the whitener are fixed, so each is built once per family and output
  size and then shared read only.
* ``CategoricalFamily()`` for classification. The model output passes
  through a softmax and the conditional covariance is moment matched as
  ``diag(p) - p p^T``, which has rank C - 1.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import NumericalDegeneracyError
from .linalg import cholesky, eigh, inv

# Probabilities are clamped away from exact 0/1 before moment matching so
# the whitened observation never becomes exactly singular.
PROB_CLAMP = 1e-7

# Eigenvalues of the moment-matched covariance at or below this threshold
# are treated as the kernel when forming the pseudo-inverse whitener.
WHITENER_EIG_FLOOR = 1e-10

_FLOAT = np.dtype(float)


@dataclass(frozen=True)
class GaussianFamily:
    """Gaussian observation noise with known (co)variance."""

    obs_variance: object = 1.0  # scalar or (C, C) array

    kind = "gaussian"

    def _fixed(self, name, dim, build):
        """Read-only term ``name`` for C = dim, built on first use."""
        cache = self.__dict__.setdefault("_fixed_terms", {})
        value = cache.get((name, dim))
        if value is None:
            value = build(dim)
            value.flags.writeable = False
            cache[name, dim] = value
        return value

    def _build_cov(self, dim):
        r = np.array(self.obs_variance, dtype=float)
        if r.ndim == 0:
            return float(r) * np.eye(dim)
        if r.shape != (dim, dim):
            raise ValueError(f"obs_variance shape {r.shape} does not match C={dim}")
        return r

    def obs_cov(self, dim):
        """R as a C x C matrix."""
        return self._fixed("cov", dim, self._build_cov)

    def obs_chol(self, dim):
        """Lower Cholesky factor L of R."""
        return self._fixed(
            "chol", dim, lambda d: cholesky(self.obs_cov(d), "Cholesky of observation covariance")
        )

    def obs_whitener(self, dim):
        """L^-1, so that ``A.T @ A`` is R^-1."""
        return self._fixed("whitener", dim, lambda d: inv(self.obs_chol(d), "observation whitener"))


@dataclass(frozen=True)
class CategoricalFamily:
    """Categorical likelihood via softmax outputs."""

    kind = "categorical"


@dataclass(frozen=True)
class Linearization:
    """First-order Gaussian approximation of the likelihood at one input.

    Attributes
    ----------
    y_hat : ndarray, shape (C,)
        Predicted observation mean (probabilities for classification).
    jacobian : ndarray, shape (C, P)
        Jacobian of the observation mean in theta.
    obs_cov : ndarray, shape (C, C)
        Moment-matched observation covariance R (PSD; rank C-1 for
        classification).
    whitener : ndarray, shape (C, C)
        A with ``A.T @ A`` equal to R^-1, or to the pseudo-inverse R^+
        when R is singular.
    """

    y_hat: np.ndarray
    jacobian: np.ndarray
    obs_cov: np.ndarray
    whitener: np.ndarray

    @cached_property
    def whitened_jacobian_t(self):
        """``(whitener @ jacobian).T`` (P, C), column-contiguous: the
        whitened Jacobian columns a low-rank update appends to its factor,
        built once."""
        return (self.whitener @ self.jacobian).T

    def apply_r_inv(self, v):
        """R^-1 v (pseudo-inverse when R is singular)."""
        return self.whitener.T @ (self.whitener @ v)

    def innovation(self, y):
        """``y - y_hat``; raises NumericalDegeneracyError unless every
        entry is finite. Every filter update checks its innovation here,
        so a NaN target or a NaN prediction fails the step that met it."""
        innov = np.atleast_1d(np.asarray(y, dtype=float)) - self.y_hat
        if not np.isfinite(innov).all():
            raise NumericalDegeneracyError(f"non-finite innovation {innov}")
        return innov


def softmax(z):
    """Softmax over the last axis of (C,) or (S, C) logits."""
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _link(family, logits):
    """Observation mean from raw outputs: softmax for categorical."""
    return softmax(logits) if family.kind == "categorical" else logits


def _softmax_cov(p):
    """``diag(p) - p p^T``: softmax Jacobian and categorical covariance."""
    return np.diag(p) - np.outer(p, p)


def _link_jacobian(family, logits, jac):
    """Observation mean and its Jacobian from the raw output and its
    Jacobian."""
    mean = _link(family, logits)
    if family.kind == "categorical":
        jac = _softmax_cov(mean) @ jac
    return mean, jac


def _relu(z):
    return np.maximum(z, 0.0)


def _tanh_grad(z, a):
    return 1.0 - a**2


def _relu_grad(z, a):
    return (z > 0).astype(float)


# activation name -> (activation, its derivative from the pre- and
# post-activation values); an MlpSpec resolves its pair once
_ACTIVATIONS = {"tanh": (np.tanh, _tanh_grad), "relu": (_relu, _relu_grad)}


@dataclass(frozen=True)
class MlpSpec:
    """Fully connected network shape.

    ``layer_widths`` lists input, hidden and output widths, e.g.
    ``[8, 50, 1]``. Parameters are flattened layer by layer, weights in
    row-major order followed by the layer's biases, so
    ``P = sum((w_in + 1) * w_out)`` over consecutive width pairs.
    """

    layer_widths: tuple
    activation: str = "tanh"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        if len(widths) < 2 or any(w <= 0 for w in widths):
            raise ValueError("layer_widths needs >= 2 positive entries")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "layer_widths", widths)

    @cached_property
    def parameter_count(self):
        return self._layout[-1][1].stop

    @cached_property
    def _layout(self):
        """Per layer: (weight slice, bias slice, weight shape (n_out, n_in))
        of the flat parameters."""
        layout, pos = [], 0
        w = self.layer_widths
        for n_in, n_out in zip(w[:-1], w[1:]):
            mid = pos + n_in * n_out
            layout.append((slice(pos, mid), slice(mid, mid + n_out), (n_out, n_in)))
            pos = mid + n_out
        return tuple(layout)

    @cached_property
    def activation_fns(self):
        """``(activation, derivative)``; the derivative takes the pre- and
        post-activation values."""
        return _ACTIVATIONS[self.activation]

    @cached_property
    def output_eye(self):
        """Read-only C x C identity: d(output)/d(output layer's z)."""
        eye = np.eye(self.out_dim)
        eye.flags.writeable = False
        return eye

    @property
    def in_dim(self):
        return self.layer_widths[0]

    @property
    def out_dim(self):
        return self.layer_widths[-1]

    def unpack(self, theta):
        """Split flat parameters into (weight, bias) pairs.

        ``theta`` of shape (P,) gives weights (out, in) and biases (out,);
        a stack (S, P) gives views of shape (S, out, in) and (S, out).
        """
        theta = np.asarray(theta, dtype=float)
        if theta.ndim not in (1, 2) or theta.shape[-1] != self.parameter_count:
            raise ValueError(
                f"theta has length {theta.shape}, expected {self.parameter_count}"
            )
        lead = theta.shape[:-1]
        return [(theta[..., w].reshape(lead + shape), theta[..., b])
                for w, b, shape in self._layout]


def _act_grad(spec, z, a):
    """The derivative of ``spec``'s activation at ``z``, where it gave ``a``."""
    return spec.activation_fns[1](z, a)


@dataclass(frozen=True)
class MlpModel:
    """An MLP observation model paired with a likelihood family."""

    spec: MlpSpec
    family: object = field(default_factory=GaussianFamily)

    @property
    def parameter_count(self):
        return self.spec.parameter_count

    @property
    def out_dim(self):
        return self.spec.out_dim

    def _pass(self, x, layers):
        """Pre- and post-activation values of every layer, input first in
        the latter; a leading draw axis of the weights carries through."""
        act = self.spec.activation_fns[0]
        acts = [x]
        pre = []
        a = x
        last = len(layers) - 1
        for i, (weight, bias) in enumerate(layers):
            # matrix-column product: bit-identical to ``weight @ a`` per draw
            z = (weight @ a[..., None])[..., 0] + bias
            pre.append(z)
            a = z if i == last else act(z)
            acts.append(a)
        return pre, acts

    def _input(self, x):
        """``x`` itself when it is already a float64 vector of the input
        width, else converted and checked."""
        if type(x) is np.ndarray and x.dtype is _FLOAT and x.shape == self.spec.layer_widths[:1]:
            return x
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.spec.in_dim,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.spec.in_dim},)")
        return x

    def logits(self, x, theta, keep=None):
        """Raw network output before any link function, (C,) or (S, C); a
        dict ``keep`` receives the pass (``x``'s bytes, ``theta`` itself, the
        unpacked layers, and ``pre`` and ``acts`` of every layer)."""
        x, layers = self._input(x), self.spec.unpack(theta)
        pre, acts = self._pass(x, layers)
        if keep is not None:
            keep.update(x=x.tobytes(), theta=theta, layers=layers, pre=pre, acts=acts)
        return pre[-1]

    def forward(self, x, theta, keep=None):
        """Observation mean: raw outputs, or softmax probabilities; ``keep``
        records the pass as in :meth:`logits`, for a linearization to reuse."""
        return _link(self.family, self.logits(x, theta, keep))

    def logit_jacobian(self, x, theta, kept=None):
        """Raw output and its C x P Jacobian in the flat parameters, as
        ``(logits, jacobian)`` from one pass: the pass ``kept`` that
        :meth:`forward` recorded if it was made at ``x``'s bytes and at this
        very ``theta`` array, else a fresh one (the same bits either way)."""
        if np.ndim(theta) != 1:
            raise ValueError("the Jacobian takes a single parameter vector")
        x = self._input(x)
        if kept and kept["theta"] is theta and kept["x"] == x.tobytes():
            layers, pre, acts = kept["layers"], kept["pre"], [x, *kept["acts"][1:]]
        else:
            layers = self.spec.unpack(theta)
            pre, acts = self._pass(x, layers)
        spec = self.spec
        c, last = spec.out_dim, len(layers) - 1
        jac = np.empty((c, spec.parameter_count))  # every entry is written below
        # backward pass: g holds d(output)/d(z_layer), shape (C, width); at
        # the output layer it is the identity, so the step back from there
        # is W_out * act'(pre), with no product by the identity (same bits)
        g = spec.output_eye
        for i in range(last, -1, -1):
            w_slice, b_slice, shape = spec._layout[i]
            jac[:, b_slice] = g
            block = jac[:, w_slice].reshape(c, *shape)  # a view of jac
            np.multiply(g[:, :, None], acts[i], out=block)
            if i > 0:
                weight = layers[i][0]
                g = (weight if i == last else g @ weight) * _act_grad(spec, pre[i - 1], acts[i])
        return pre[-1], jac

    def jacobian(self, x, theta, kept=None):
        """Observation mean (softmax output for categorical) and its
        Jacobian, as ``(mean, jacobian)`` from one pass (or ``kept``)."""
        return _link_jacobian(self.family, *self.logit_jacobian(x, theta, kept))


@dataclass(frozen=True)
class FunctionModel:
    """Observation model from explicit forward and Jacobian callables.

    Handy for hand-built test problems such as linear maps or scalar
    polynomials; both callables take (x, theta) for one parameter vector.
    A stack of draws (S, P) is evaluated row by row. It keeps no pass:
    ``keep`` and ``kept`` are accepted and ignored.
    """

    forward_fn: object
    jacobian_fn: object
    family: object = field(default_factory=GaussianFamily)
    parameter_count: int = 0

    def logits(self, x, theta):
        if np.ndim(theta) == 2:
            return np.stack([self.logits(x, row) for row in theta])
        return np.atleast_1d(np.asarray(self.forward_fn(x, theta), dtype=float))

    def forward(self, x, theta, keep=None):
        return _link(self.family, self.logits(x, theta))

    def logit_jacobian(self, x, theta, kept=None):
        jac = np.atleast_2d(np.asarray(self.jacobian_fn(x, theta), dtype=float))
        return self.logits(x, theta), jac

    def jacobian(self, x, theta, kept=None):
        return _link_jacobian(self.family, *self.logit_jacobian(x, theta))


def pseudo_whitener(cov):
    """A with A^T A = pinv(cov), dropping eigenvalues <= the floor; the
    eigenpairs come from LAPACK ``dsyevd`` through :func:`lrkf.linalg.eigh`."""
    vals, vecs = eigh(cov, "pseudo_whitener: eigh of the covariance")
    keep = vals > WHITENER_EIG_FLOOR
    a = np.zeros_like(cov)
    k = int(keep.sum())
    if k:
        a[:k, :] = (vecs[:, keep] / np.sqrt(vals[keep])).T
    return a


def linearize(model, x, mu, kept=None):
    """Linear-Gaussian approximation of the likelihood at parameter mu.

    For regression the covariance is the family's R and the whitener is
    the inverse Cholesky factor of R. For classification the covariance
    is ``diag(p) - p p^T`` at the clamped softmax output and the whitener
    is its eigenvalue pseudo-inverse square root; the kernel of R lies in
    the kernel of ``jacobian.T`` so whitened updates are well defined.
    One network pass yields both the output and the Jacobian, or none when
    ``kept`` holds the pass of ``model.forward(x, mu, keep=kept)``.
    """
    family = model.family
    if family.kind == "categorical":
        logits, logit_jac = model.logit_jacobian(x, mu, kept)
        y_hat = np.clip(softmax(logits), PROB_CLAMP, 1.0 - PROB_CLAMP)
        y_hat = y_hat / y_hat.sum()
        cov = _softmax_cov(y_hat)  # also the softmax Jacobian at y_hat
        return Linearization(y_hat, cov @ logit_jac, cov, pseudo_whitener(cov))
    y_hat, jac = model.jacobian(x, mu, kept)
    c = y_hat.shape[0]
    return Linearization(y_hat, jac, family.obs_cov(c), family.obs_whitener(c))


def initialize_mean(spec, rng_seed):
    """Draw an initial flat parameter vector, LeCun normal: each weight
    from N(0, 1/fan_in), every bias zero. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(rng_seed)
    parts = []
    w = spec.layer_widths
    for i in range(len(w) - 1):
        n_in, n_out = w[i], w[i + 1]
        parts.append(rng.normal(0.0, 1.0 / np.sqrt(n_in), size=n_in * n_out))
        parts.append(np.zeros(n_out))
    return np.concatenate(parts)
