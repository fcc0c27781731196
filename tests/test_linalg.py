import warnings

import numpy as np
import pytest
import scipy.linalg

from lrkf import linalg
from lrkf.exceptions import NumericalDegeneracyError
from lrkf.linalg import fix_column_signs, sym_pinv, symmetrize, thin_svd, woodbury_mean
from lrkf.models import CategoricalFamily, MlpModel, MlpSpec, initialize_mean, linearize


def first_nonzero(col):
    return col[np.flatnonzero(col)[0]]


def assert_valid_thin_svd(w, s, u):
    """s sorted and matching LAPACK, u * s spanning W's columns, live
    columns orthonormal with a positive leading entry, dead columns zero."""
    p, k = w.shape
    assert s.shape == (k,) and u.shape == (p, k)
    assert np.all(np.diff(s) <= 0)
    ref = np.zeros(k)
    ref[: min(p, k)] = np.linalg.svd(w, compute_uv=False)
    ref[ref <= linalg.RANK_EPS * ref[0]] = 0.0
    np.testing.assert_allclose(s, ref, rtol=1e-10, atol=1e-12 * ref[0])
    live = s > 0
    np.testing.assert_array_equal(u[:, ~live], 0.0)
    ul = u[:, live]
    np.testing.assert_allclose(ul.T @ ul, np.eye(ul.shape[1]), atol=1e-10)
    # W = U diag(s) V^T with V = W^T U / s orthonormal
    v = w.T @ ul / s[live]
    np.testing.assert_allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-10)
    np.testing.assert_allclose(u * s @ (u * s).T, w @ w.T, atol=1e-10 * s[0] ** 2)
    for j in np.flatnonzero(live):
        assert first_nonzero(u[:, j]) > 0


class TestThinSvd:
    def test_tall_full_rank_matches_lapack(self):
        w = np.random.default_rng(0).standard_normal((40, 7))
        s, u = thin_svd(w)
        assert_valid_thin_svd(w, s, u)
        u_ref, _, _ = np.linalg.svd(w, full_matrices=False)
        np.testing.assert_allclose(u, u_ref * np.sign(u_ref[0]), atol=1e-10)
        assert np.all(s > 0)

    def test_rank_deficient_zeroes_values_and_columns(self):
        w = np.zeros((40, 6))
        w[:, [0, 2, 5]] = np.random.default_rng(1).standard_normal((40, 3))
        s, u = thin_svd(w)
        assert_valid_thin_svd(w, s, u)
        assert np.count_nonzero(s) == 3

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_rank_three_product_is_zero_past_rank_three(self):
        # the Gram route's noise floor, about 1e-8 s[0], stays live: the
        # values past rank 3 come back as 1.5e-8, 1.0e-8 and 5.6e-9 times s[0]
        rng = np.random.default_rng(0)
        s, u = thin_svd(rng.standard_normal((40, 3)) @ rng.standard_normal((3, 6)))
        np.testing.assert_array_equal(s[3:], 0.0)
        np.testing.assert_array_equal(u[:, 3:], 0.0)

    def test_zero_matrix(self):
        s, u = thin_svd(np.zeros((10, 4)))
        np.testing.assert_array_equal(s, 0.0)
        np.testing.assert_array_equal(u, 0.0)

    @pytest.mark.parametrize("p,k", [(4, 7), (5, 5)])
    def test_wide_or_square_input_is_padded(self, p, k):
        w = np.random.default_rng(2).standard_normal((p, k))
        s, u = thin_svd(w)
        assert_valid_thin_svd(w, s, u)
        np.testing.assert_array_equal(s[p:], 0.0)

    def test_no_columns(self):
        s, u = thin_svd(np.zeros((6, 0)))
        assert s.shape == (0,) and u.shape == (6, 0)

    def test_generic_input_skips_the_sign_fallback(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "fix_column_signs", lambda u: calls.append(u) or u)
        w = np.random.default_rng(3).standard_normal((30, 5))
        thin_svd(w)
        assert calls == []

    def test_zero_leading_entries_take_the_sign_fallback(self, monkeypatch):
        # column 0 lives on rows 0-9, columns 1-3 on rows 10-29, so the
        # Gram matrix is block diagonal and three singular vectors have
        # u[0, j] == 0: their sign comes from a later row
        rng = np.random.default_rng(4)
        w = np.zeros((30, 4))
        w[:10, 0] = rng.standard_normal(10)
        w[10:, 1:] = rng.standard_normal((20, 3))
        calls = []
        real = linalg.fix_column_signs
        monkeypatch.setattr(linalg, "fix_column_signs", lambda u: calls.append(1) or real(u))
        s, u = thin_svd(w)
        assert calls == [1]
        assert_valid_thin_svd(w, s, u)
        assert np.count_nonzero(u[0]) == 1

    def test_zero_first_row_is_signed_by_the_next_rows(self):
        w = np.random.default_rng(5).standard_normal((25, 4))
        w[0] = 0.0
        s, u = thin_svd(w)
        assert_valid_thin_svd(w, s, u)
        np.testing.assert_array_equal(u[0], 0.0)


def argsort_thin_svd(w):
    """thin_svd's Gram route with the stable argsort and the zero-filled
    factor on every call, the route tied eigenvalues still take."""
    p, k = w.shape
    vals, vecs = np.linalg.eigh(w.T @ w)
    vals = np.maximum(vals, 0.0)
    order = np.argsort(-vals, kind="stable")
    s = np.sqrt(vals[order])
    live = np.count_nonzero(s > linalg.RANK_EPS * s[0])
    s[live:] = 0.0
    factor = np.zeros((k, k))
    factor[:, :live] = vecs[:, order[:live]] / s[:live]
    factor[:, w[0] @ factor < 0] *= -1.0
    u = np.matmul(w, factor, out=np.empty((p, k), order="F"))
    return s, u if (u[0, :live] > 0).all() else fix_column_signs(u)


class TestThinSvdWithoutSort:
    """Distinct Gram eigenvalues skip the sort: the result is the argsort
    route's bit for bit, ties still go through the sort, and no route
    divides by zero."""

    @staticmethod
    def assert_argsort_route(w, monkeypatch, sorts):
        calls = []
        real = np.argsort
        with monkeypatch.context() as m:
            m.setattr(np, "argsort", lambda *a, **kw: calls.append(1) or real(*a, **kw))
            s, u = thin_svd(w)
        assert len(calls) == sorts
        s_ref, u_ref = argsort_thin_svd(w)
        assert s.tobytes() == s_ref.tobytes()
        assert u.flags.f_contiguous and u.tobytes(order="F") == u_ref.tobytes(order="F")

    @pytest.mark.filterwarnings("error")
    def test_random_tall_matrices(self, monkeypatch):
        rng = np.random.default_rng(11)
        for trial in range(200):
            p = int(rng.integers(2, 300))
            k = int(rng.integers(1, min(p, 32)))
            w = rng.standard_normal((p, k)) * rng.uniform(0.01, 10.0, k)
            if trial % 2:
                w = np.asfortranarray(w)
            self.assert_argsort_route(w, monkeypatch, sorts=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("zero_columns", [6, 4])
    def test_zero_factor_has_tied_zero_eigenvalues(self, monkeypatch, zero_columns):
        # the factor of the first L events is zero: its Gram eigenvalues tie at 0
        w = np.zeros((40, 6))
        w[:, zero_columns:] = np.random.default_rng(12).standard_normal((40, 6 - zero_columns))
        self.assert_argsort_route(w, monkeypatch, sorts=1)

    @pytest.mark.filterwarnings("error")
    def test_rank_three_product(self, monkeypatch):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 6))
        # one Gram eigenvalue is clamped to 0 and the rest are distinct, so
        # the sort is skipped while a dead value takes the zero-filled factor
        self.assert_argsort_route(w, monkeypatch, sorts=0)
        assert thin_svd(w)[0][-1] == 0.0

    @pytest.mark.filterwarnings("error")
    def test_one_column(self, monkeypatch):
        for w in (np.random.default_rng(14).standard_normal((30, 1)), np.zeros((30, 1))):
            self.assert_argsort_route(w, monkeypatch, sorts=0)


class TestDirectSyevr:
    """thin_svd's Gram eigensolve is np.linalg.eigh bit for bit; scipy's
    eigh (LAPACK dsyevr, a different algorithm) is an independent oracle
    for the eigenvalues. (The names date from a direct dsyevr call.)"""

    @staticmethod
    def tall(k, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((151, k)) * rng.uniform(0.01, 10.0, k)

    @staticmethod
    def assert_near_oracle(vals, gram):
        """Within a few ulp of the largest eigenvalue of scipy's eigh."""
        ref = scipy.linalg.eigh(gram, eigvals_only=True)
        atol = 8 * np.finfo(float).eps * np.abs(ref).max()
        np.testing.assert_allclose(vals, ref, rtol=0, atol=atol)

    @pytest.mark.parametrize("k", [1, 2, 11, 30])
    def test_gram_eigenpairs_match_scipy_eigh(self, k):
        for seed in range(5):
            w = self.tall(k, seed)
            gram = w.T @ w
            vals, vecs = linalg.eigh(gram, "thin_svd")
            ref_vals, ref_vecs = np.linalg.eigh(gram)
            np.testing.assert_array_equal(vals, ref_vals)
            np.testing.assert_array_equal(vecs, ref_vecs)
            self.assert_near_oracle(vals, gram)

    @classmethod
    def assert_matches_eigh_route(cls, monkeypatch, w):
        s, u = thin_svd(w)
        with monkeypatch.context() as m:
            m.setattr(linalg, "eigh", lambda a, what: np.linalg.eigh(a))
            s_ref, u_ref = thin_svd(w)
        np.testing.assert_array_equal(s, s_ref)
        np.testing.assert_array_equal(u, u_ref)
        cls.assert_near_oracle(s[::-1] ** 2, w.T @ w)

    @pytest.mark.parametrize("k", [1, 2, 11, 30])
    def test_thin_svd_matches_the_eigh_route(self, monkeypatch, k):
        for seed in range(5):
            self.assert_matches_eigh_route(monkeypatch, self.tall(k, seed))

    def test_repeated_singular_values(self, monkeypatch):
        q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((60, 6)))
        w = q * np.array([3.0, 3.0, 2.0, 2.0, 2.0, 0.5])
        self.assert_matches_eigh_route(monkeypatch, w)
        s, u = thin_svd(w)
        assert_valid_thin_svd(w, s, u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(40, 6), (4, 6)])
    def test_non_finite_input_raises(self, bad, shape):
        w = np.random.default_rng(7).standard_normal(shape)
        w[2, 3] = bad
        with pytest.raises(NumericalDegeneracyError, match="thin_svd: non-finite"):
            thin_svd(w)


class TestThinSvdLayout:
    """U comes back column-contiguous on every route, for either input
    layout, with the same values."""

    @pytest.mark.parametrize("shape", [(40, 7), (5, 5), (4, 7)])
    def test_u_is_f_contiguous(self, shape):
        w = np.random.default_rng(8).standard_normal(shape)
        s, u = thin_svd(w)
        s_f, u_f = thin_svd(np.asfortranarray(w))
        assert u.flags.f_contiguous and u_f.flags.f_contiguous
        np.testing.assert_allclose(s_f, s, rtol=1e-13)
        np.testing.assert_allclose(u_f, u, rtol=0, atol=1e-13)

    def test_sign_fallback_keeps_the_layout(self):
        w = np.random.default_rng(5).standard_normal((25, 4))
        w[0] = 0.0
        assert thin_svd(w)[1].flags.f_contiguous


def moment_matched_s(c, seed):
    """``S = H diag(v) H^T + R`` of a categorical MLP with C classes: every
    row of H and of R sums to zero, so S is singular along the ones vector."""
    model = MlpModel(MlpSpec((4, 8, c)), CategoricalFamily())
    rng = np.random.default_rng(seed)
    lin = linearize(model, rng.standard_normal(4), initialize_mean(model.spec, seed))
    var = rng.uniform(0.1, 2.0, model.parameter_count)
    return symmetrize(lin.jacobian @ (var[:, None] * lin.jacobian.T) + lin.obs_cov)


class TestSymPinv:
    @pytest.mark.parametrize("value", [0.37, 2.5e-7, 1.3e5, -0.8, 0.0])
    def test_scalar_matches_numpy_bit_for_bit(self, value):
        a = np.array([[value]])
        np.testing.assert_array_equal(sym_pinv(a), np.linalg.pinv(a, hermitian=True))

    def test_scalar_innovation_covariances_match_numpy_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for a in rng.lognormal(0.0, 4.0, (200, 1, 1)):
            np.testing.assert_array_equal(sym_pinv(a), np.linalg.pinv(a, hermitian=True))

    @pytest.mark.parametrize("c", range(2, 11))
    def test_singular_moment_matched_s_matches_numpy(self, c):
        for seed in range(10):
            s = moment_matched_s(c, seed)
            assert np.linalg.matrix_rank(s) == c - 1
            ref = np.linalg.pinv(s, hermitian=True)
            got = sym_pinv(s)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_non_finite_input_raises(self):
        with pytest.raises(NumericalDegeneracyError, match="sym_pinv: non-finite"):
            sym_pinv(np.array([[1.0, np.nan], [np.nan, 2.0]]))

    def test_scalar_matches_the_eigh_route_bit_for_bit(self):
        # the 1 x 1 input skips eigh; this is the eigenpair route it skips
        def eigh_pinv(a):
            vals, vecs = np.linalg.eigh(a)
            mag = np.abs(vals)
            inv = np.zeros_like(vals)
            live = mag > 1e-15 * mag.max()
            inv[live] = 1.0 / vals[live]
            return (vecs * inv) @ vecs.T

        rng = np.random.default_rng(14)
        values = rng.choice([-1.0, 1.0], 192) * rng.lognormal(0.0, 30.0, 192)
        values = [*values, 0.0, -0.0, 1e-310, -1e-310, 5e-324, 1.0, -1.0, 1e300]
        assert len(values) == 200
        for value in values:
            a = np.array([[value]])
            with np.errstate(over="ignore"):  # 1 / 1e-310 overflows to inf
                ref = eigh_pinv(a)
            got = sym_pinv(a)
            assert got.shape == (1, 1) and got.dtype == np.float64
            assert got.tobytes() == ref.tobytes(), value

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalar_raises(self, value):
        with pytest.raises(NumericalDegeneracyError, match=r"^sym_pinv: non-finite matrix$"):
            sym_pinv(np.array([[value]]))


def assert_same_bits(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


class TestLapackEntries:
    """linalg's eigh, inv, cholesky and solve call numpy.linalg's private
    gufuncs directly. These tests are the guard on that private API: a
    numpy that renames or changes the gufuncs fails here."""

    @staticmethod
    def spd(k, seed, order="C"):
        x = np.random.default_rng(seed).standard_normal((k, k + 2))
        return np.asarray(x @ x.T + 0.1 * np.eye(k), order=order)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 2, 11, 30, 64])
    def test_entries_match_numpy_linalg_bit_for_bit(self, k, order):
        a = self.spd(k, k, order)
        vals, vecs = linalg.eigh(a, "op")
        ref_vals, ref_vecs = np.linalg.eigh(a)
        assert_same_bits(vals, ref_vals)
        assert_same_bits(vecs, ref_vecs)
        assert_same_bits(linalg.inv(a, "op"), np.linalg.inv(a))
        assert_same_bits(linalg.cholesky(a, "op"), np.linalg.cholesky(a))
        rng = np.random.default_rng(k + 100)
        general = np.asarray(rng.standard_normal((k, k)) + k * np.eye(k), order=order)
        # one right-hand side, a matrix of them and a stack of single ones
        for b in (rng.standard_normal(k), rng.standard_normal((k, 3)),
                  rng.standard_normal((5, k, 1))):
            assert_same_bits(linalg.solve(general, b, "op"), np.linalg.solve(general, b))

    SINGULAR = np.array([[1.0, 2.0], [2.0, 4.0]])
    INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("call, reason", [
        (lambda: linalg.inv(TestLapackEntries.SINGULAR, "op"), "Singular matrix"),
        (lambda: linalg.solve(TestLapackEntries.SINGULAR, np.ones(2), "op"), "Singular matrix"),
        (lambda: linalg.solve(TestLapackEntries.SINGULAR, np.ones((2, 3)), "op"),
         "Singular matrix"),
        (lambda: linalg.cholesky(TestLapackEntries.INDEFINITE, "op"),
         "Matrix is not positive definite"),
        (lambda: linalg.cholesky(np.zeros((3, 3)), "op"), "Matrix is not positive definite"),
    ], ids=["inv", "solve1", "solve", "cholesky-indefinite", "cholesky-zero"])
    def test_lapack_failure_raises_naming_the_operation(self, call, reason):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDegeneracyError, match=rf"^op failed: {reason}$"):
                call()

    @pytest.mark.parametrize("at", [(0, 0), (4, 2)])
    @pytest.mark.parametrize("entry", ["eigh", "inv", "cholesky", "solve"])
    def test_nan_input_does_what_numpy_does_without_a_warning(self, entry, at):
        # LAPACK may or may not fail on a NaN. Where np.linalg raises, the
        # entry raises NumericalDegeneracyError with its reason; where it
        # returns, the entry returns the same bits. A caller that must
        # reject every non-finite matrix checks it (thin_svd and sym_pinv
        # do, below).
        a = self.spd(11, 3)
        a[at] = a[at[::-1]] = np.nan
        args = (a, np.ones(11)) if entry == "solve" else (a,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ref = getattr(np.linalg, entry)(*args)
            except np.linalg.LinAlgError as exc:
                with pytest.raises(NumericalDegeneracyError, match=rf"^op failed: {exc}$"):
                    getattr(linalg, entry)(*args, "op")
                return
            got = getattr(linalg, entry)(*args, "op")
        for g, r in zip(got, ref) if entry == "eigh" else [(got, ref)]:
            assert_same_bits(g, r)

    @pytest.mark.parametrize("call, what", [
        (lambda a: thin_svd(np.vstack([a, a])), "thin_svd: non-finite Gram matrix"),
        (sym_pinv, "sym_pinv: non-finite matrix"),
    ])
    def test_eigh_callers_reject_nan_naming_themselves(self, call, what):
        a = self.spd(11, 4)
        a[4, 2] = a[2, 4] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalDegeneracyError, match=rf"^{what}$"):
                call(a)


class TestFixColumnSigns:
    def test_leading_zeros_and_zero_column(self):
        u = np.array([
            [0.0, 0.0, 1.0, 0.0],
            [0.0, -2.0, -1.0, 0.0],
            [-3.0, 1.0, 2.0, 0.0],
        ])
        got = fix_column_signs(u)
        expected = np.array([
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 2.0, -1.0, 0.0],
            [3.0, -1.0, 2.0, 0.0],
        ])
        np.testing.assert_array_equal(got, expected)
        assert u[2, 0] == -3.0  # input untouched

    def test_empty_input(self):
        assert fix_column_signs(np.zeros((0, 3))).shape == (0, 3)
        assert fix_column_signs(np.zeros((3, 0))).shape == (3, 0)


class TestWoodburyMean:
    """``mean + (diag(d) + W W^T)^-1 rhs`` against a dense solve."""

    @staticmethod
    def dense(diag, w):
        return np.diag(np.broadcast_to(diag, (w.shape[0],))) + w @ w.T

    @pytest.mark.parametrize("rank", [0, 1, 5])
    @pytest.mark.parametrize("spherical", [False, True])
    def test_matches_dense_solve(self, rank, spherical):
        rng = np.random.default_rng(rank)
        p = 30
        diag = 1.7 if spherical else rng.uniform(0.5, 2.0, p)
        w = rng.standard_normal((p, rank))
        mean, rhs = rng.standard_normal(p), rng.standard_normal(p)
        got = woodbury_mean(mean, diag, w, rhs)
        expected = mean + np.linalg.solve(self.dense(diag, w), rhs)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spherical", [False, True])
    def test_ill_conditioned_factor(self, spherical):
        # singular values of W span 1 to 1e6, so the precision's condition
        # number is about 1e12; the dense reference itself is only good to
        # about cond * eps, which bounds the comparison
        rng = np.random.default_rng(11)
        p, rank = 30, 4
        left, _ = np.linalg.qr(rng.standard_normal((p, rank)))
        right, _ = np.linalg.qr(rng.standard_normal((rank, rank)))
        w = (left * np.logspace(0, 6, rank)) @ right.T
        assert np.linalg.cond(w) == pytest.approx(1e6)
        diag = 1.3 if spherical else rng.uniform(0.5, 2.0, p)
        rhs = rng.standard_normal(p)
        prec = self.dense(diag, w)
        expected = np.linalg.solve(prec, rhs)
        got = woodbury_mean(np.zeros(p), diag, w, rhs)
        err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
        assert err <= np.linalg.cond(prec) * np.finfo(float).eps

    def test_failed_core_solve_raises(self):
        # with d = -1 and W = e1 the core I + W^T d^-1 W is exactly 0
        w = np.zeros((3, 1))
        w[0, 0] = 1.0
        with pytest.raises(NumericalDegeneracyError, match="Woodbury core"):
            woodbury_mean(np.zeros(3), -np.ones(3), w, np.ones(3))

    @pytest.mark.parametrize("bad", [-2.0, np.nan])
    @pytest.mark.parametrize("spherical", [False, True])
    def test_negative_or_nan_diagonal_raises(self, bad, spherical):
        # d^-1/2 of such a d is NaN, not a singular core
        w = np.ones((3, 2))
        diag = bad if spherical else np.array([1.0, bad, 1.0])
        with pytest.raises(NumericalDegeneracyError, match="Woodbury core"):
            woodbury_mean(np.zeros(3), diag, w, np.ones(3))

    @pytest.mark.parametrize("rank", [0, 1, 5])
    @pytest.mark.parametrize("spherical", [False, True])
    def test_whitened_form_matches_dense_solve(self, rank, spherical, monkeypatch):
        monkeypatch.setattr(linalg, "WHITENED_MIN_SIZE", 0)
        self.test_matches_dense_solve(rank, spherical)
        self.test_ill_conditioned_factor(spherical)
        self.test_failed_core_solve_raises()

    @pytest.mark.parametrize("spherical", [False, True])
    def test_forms_agree_across_the_switch(self, spherical, monkeypatch):
        # wide's update is on the whitened side of the switch and sine's on
        # the other; on one input the two forms agree to rounding
        assert 151 * 11 < linalg.WHITENED_MIN_SIZE <= 12010 * 30
        rng = np.random.default_rng(7)
        p, rank = 6000, 30
        w = np.asfortranarray(rng.standard_normal((p, rank)) * rng.uniform(0.1, 3.0, rank))
        diag = 2.5 if spherical else rng.uniform(0.5, 40.0, p)
        mean, rhs = rng.standard_normal(p), rng.standard_normal(p)
        whitened = woodbury_mean(mean, diag, w, rhs)
        monkeypatch.setattr(linalg, "WHITENED_MIN_SIZE", p * rank + 1)
        other = woodbury_mean(mean, diag, w, rhs)
        assert not np.array_equal(whitened, other)  # the two forms did run
        np.testing.assert_allclose(whitened, other, rtol=1e-12, atol=1e-12 * np.abs(other).max())
