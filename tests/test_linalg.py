import numpy as np
import pytest

from lrkf import linalg
from lrkf.linalg import fix_column_signs, thin_svd


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
