from types import SimpleNamespace

import numpy as np
import pytest

from lrkf.belief import (
    DlrBelief,
    SphericalBelief,
    dlr_to_dense,
    load_belief,
    sample_parameters,
    save_belief,
)
from lrkf.exceptions import NumericalDegeneracyError

from conftest import random_dlr, random_spherical


def test_dlr_to_dense_scalar():
    b = DlrBelief(np.array([0.0]), np.array([2.0]), np.array([[1.0]]))
    assert dlr_to_dense(b).precision == pytest.approx(np.array([[3.0]]))


def test_dlr_to_dense_zero_columns():
    b = DlrBelief(np.zeros(3), np.array([1.0, 2.0, 3.0]), np.zeros((3, 0)))
    assert dlr_to_dense(b).precision == pytest.approx(np.diag([1.0, 2.0, 3.0]))


def test_dlr_to_dense_matches_elementwise_recompute():
    b = random_dlr(4, 2, seed=47)
    dense = dlr_to_dense(b).precision
    # independent elementwise oracle
    expected = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            expected[i, j] = (b.diag_precision[i] if i == j else 0.0) + sum(
                b.low_rank[i, k] * b.low_rank[j, k] for k in range(2)
            )
    assert dense == pytest.approx(expected, abs=1e-14)


def test_dlr_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        DlrBelief(np.zeros(3), np.ones(3), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        DlrBelief(np.zeros(2), np.array([1.0, 0.0]), np.zeros((2, 0)))
    with pytest.raises(ValueError):
        DlrBelief(np.zeros(2), np.array([1.0, np.inf]), np.zeros((2, 0)))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="mean entries must be finite"):
            DlrBelief(np.array([0.0, bad]), np.ones(2), np.zeros((2, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -2.0])
def test_dlr_rejects_each_bad_diagonal_entry(bad):
    with pytest.raises(ValueError, match="diag_precision entries must be finite and > 0"):
        DlrBelief(np.zeros(3), np.array([1.0, bad, 2.0]), np.zeros((3, 1)))


def test_dlr_accepts_zero_parameters():
    assert DlrBelief(np.zeros(0), np.zeros(0), np.zeros((0, 2))).dim == 0


def test_dense_oracle_limit_enforced():
    b = random_dlr(5, 1, seed=0)
    with pytest.raises(ValueError):
        dlr_to_dense(b, limit=4)


def test_spherical_to_dense_identity():
    b = SphericalBelief(np.zeros(2), 1.0, np.zeros((2, 0)), np.zeros(0))
    assert dlr_to_dense(b).precision == pytest.approx(np.eye(2))


def test_spherical_to_dense_axis_aligned():
    b = SphericalBelief(np.zeros(2), 2.0, np.array([[1.0], [0.0]]), np.array([3.0]))
    assert dlr_to_dense(b).precision == pytest.approx(np.array([[11.0, 0.0], [0.0, 2.0]]))


def test_spherical_to_dense_random():
    b = random_spherical(5, 2, seed=3)
    w = b.basis * b.singular_values
    expected = b.eta * np.eye(5) + w @ w.T
    assert dlr_to_dense(b).precision == pytest.approx(expected, abs=1e-12)


def test_spherical_invariants_enforced():
    with pytest.raises(ValueError):
        SphericalBelief(np.zeros(3), 1.0, np.full((3, 2), 0.5), np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        SphericalBelief(np.zeros(3), 1.0, np.eye(3)[:, :2], np.array([0.5, 1.0]))  # increasing
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((20, 3)))[0]
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="singular_values must be finite"):
            SphericalBelief(np.zeros(20), 1.0, q, [2.0, bad, 1.0])
    with pytest.raises(ValueError, match="singular_values must be finite"):
        SphericalBelief(np.zeros(20), 1.0, q, [np.inf, 2.0, 1.0])
    with pytest.raises(ValueError, match="singular_values must be finite"):
        SphericalBelief(np.zeros(20), 1.0, q[:, :1], [np.nan])
    for bad in (np.nan, np.inf, -np.inf):
        mean = np.zeros(20)
        mean[3] = bad
        with pytest.raises(ValueError, match="mean entries must be finite"):
            SphericalBelief(mean, 1.0, q, [2.0, 1.0, 0.0])
    b = SphericalBelief(np.zeros(20), 1.0, q, [2.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="mean entries must be finite"):
        b.on_same_basis(np.full(20, np.nan), b.eta, b.singular_values)  # the drift's check


def test_spherical_checks_only_its_live_columns():
    # a column whose singular value is 0 adds nothing to the precision and
    # goes unchecked; a live one (lam > 0) is checked
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 2)))[0]
    basis = np.column_stack([q, np.full(6, 3.0)])  # the last column neither unit nor orthogonal
    b = SphericalBelief(np.zeros(6), 1.0, basis, [2.0, 1.0, 0.0])
    w = q * [2.0, 1.0]
    assert dlr_to_dense(b).precision == pytest.approx(np.eye(6) + w @ w.T, abs=1e-12)
    with pytest.raises(ValueError, match="basis columns are not orthonormal"):
        SphericalBelief(np.zeros(6), 1.0, basis, [2.0, 1.0, 1e-300])


def test_caller_built_spherical_belief_checks_the_basis_it_is_given():
    # the basis of an already-checked belief, skewed in place afterwards:
    # only on_same_basis trusts a checked basis, the constructor does not
    b = random_spherical(6, 2, seed=5)
    b.basis[:, 1] += 1e-6 * b.basis[:, 0]
    with pytest.raises(ValueError, match="basis columns are not orthonormal"):
        SphericalBelief(b.mean, b.eta, b.basis, b.singular_values)
    moved = b.on_same_basis(2.0 * b.mean, 3.0, 0.5 * b.singular_values)
    assert moved.basis is b.basis and moved.eta == 3.0
    with pytest.raises(ValueError, match="singular_values must be finite"):
        b.on_same_basis(b.mean, b.eta, np.array([1.0, np.nan]))


def test_roundtrip_eigendecomposition():
    b = random_dlr(8, 3, seed=9)
    dense = dlr_to_dense(b).precision
    vals, vecs = np.linalg.eigh(dense)
    rebuilt = (vecs * vals) @ vecs.T
    assert np.max(np.abs(rebuilt - dense)) < 1e-10


class TestSampling:
    def test_standard_normal_case(self):
        b = DlrBelief(np.zeros(3), np.ones(3), np.zeros((3, 0)))
        draws = sample_parameters(b, 200_000, rng_seed=0)
        cov = np.cov(draws.T)
        assert np.max(np.abs(cov - np.eye(3))) < 0.02

    def test_scalar_transform_matches_seed(self):
        b = DlrBelief(np.array([1.0]), np.array([4.0]), np.zeros((1, 0)))
        z = np.random.default_rng(123).standard_normal((1, 1))[0, 0]
        draw = sample_parameters(b, 1, rng_seed=123)[0, 0]
        assert draw == pytest.approx(1.0 + z / 2.0)

    @pytest.mark.parametrize("p, rank, seed, n, rng_seed", [
        (3, 1, 11, 100_000, 5), (8, 2, 21, 200_000, 7),
    ], ids=["P3-L1", "P8-L2"])
    def test_covariance_matches_dense_inverse(self, p, rank, seed, n, rng_seed):
        b = random_dlr(p, rank, seed=seed)
        target = np.linalg.inv(dlr_to_dense(b).precision)
        draws = sample_parameters(b, n, rng_seed=rng_seed)
        rel = np.linalg.norm(np.cov(draws.T) - target) / np.linalg.norm(target)
        assert rel < 0.05

    def test_lowrank_path_scales_to_huge_p(self):
        # a P x P array at this size would need ~byte counts in the 100s of GB
        p = 200_000
        rng = np.random.default_rng(0)
        b = DlrBelief(np.zeros(p), np.ones(p), 0.1 * rng.standard_normal((p, 2)))
        draws = sample_parameters(b, 3, rng_seed=1)
        assert draws.shape == (3, p)
        assert np.all(np.isfinite(draws))

    def test_spherical_belief_sampling(self):
        b = random_spherical(4, 2, seed=2)
        target = np.linalg.inv(dlr_to_dense(b).precision)
        draws = sample_parameters(b, 150_000, rng_seed=3)
        rel = np.linalg.norm(np.cov(draws.T) - target) / np.linalg.norm(target)
        assert rel < 0.05


def _projected_cov_gap(draws, mean, dirs, target):
    """Largest gap between the sample and target covariance of the
    projections ``(draws - mean) @ dirs``, each entry scaled by the target
    standard deviations of its pair (a correlation-sized error)."""
    proj = (draws - mean) @ dirs
    sample = proj.T @ proj / proj.shape[0]
    sd = np.sqrt(np.diag(target))
    return np.max(np.abs(sample - target) / np.outer(sd, sd))


class TestPerturbAndSolveSampler:
    """The default sampler against the dense inverse, on fixed directions."""

    # the sizes the benchmark samples at: NLPD scoring at P = 151 and
    # Thompson sampling at P = 229, past dlr_to_dense's default limit
    @pytest.mark.parametrize("p", [151, 229])
    def test_projected_covariance_matches_dense_inverse(self, p):
        b = random_dlr(p, 6, seed=p, factor_scale=0.6)
        rng = np.random.default_rng(1)
        # the factor's own columns carry the largest variance reduction
        dirs = np.hstack([b.low_rank, rng.standard_normal((p, 3))])
        target = dirs.T @ np.linalg.inv(dlr_to_dense(b, limit=p).precision) @ dirs
        draws = sample_parameters(b, 20_000, rng_seed=[p, 2])
        assert _projected_cov_gap(draws, b.mean, dirs, target) < 0.05

    def test_ill_conditioned_factor(self):
        # M = D^-1/2 W has singular values from 1 to 1e6, so the whitened
        # variances along its left singular vectors run from 1/2 to 1e-12
        p, rank = 300, 6
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((p, rank + 2)))
        v, _ = np.linalg.qr(rng.standard_normal((rank, rank)))
        s = np.logspace(0, 6, rank)
        diag = rng.uniform(0.5, 2.0, p)
        w = np.sqrt(diag)[:, None] * ((q[:, :rank] * s) @ v.T)
        b = DlrBelief(rng.standard_normal(p), diag, w)
        # whitened directions: the singular vectors and two orthogonal to them
        dirs = np.sqrt(diag)[:, None] * q
        target = np.diag(np.concatenate([1.0 / (1.0 + s**2), [1.0, 1.0]]))
        draws = sample_parameters(b, 20_000, rng_seed=5)
        assert _projected_cov_gap(draws, b.mean, dirs, target) < 0.05

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_non_positive_diagonal_raises(self, bad):
        # the belief types reject this on construction; the sampler checks again
        b = SimpleNamespace(mean=np.zeros(2), diag_precision=np.array([1.0, bad]),
                            low_rank=np.ones((2, 1)))
        with pytest.raises(NumericalDegeneracyError, match="diagonal"):
            sample_parameters(b, 1, rng_seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_failed_core_solve_raises(self, bad):
        low = np.ones((3, 2))
        low[1, 0] = bad
        b = DlrBelief(np.zeros(3), np.ones(3), low)
        with pytest.raises(NumericalDegeneracyError, match="sampler core"):
            sample_parameters(b, 4, rng_seed=0)


class TestCheckpointing:
    def test_dlr_roundtrip(self, tmp_path):
        b = random_dlr(6, 2, seed=4)
        path = tmp_path / "belief.bin"
        save_belief(path, b)
        back = load_belief(path)
        assert back.mean == pytest.approx(b.mean)
        assert back.diag_precision == pytest.approx(b.diag_precision)
        assert back.low_rank == pytest.approx(b.low_rank)

    def test_spherical_roundtrip_preserves_precision(self, tmp_path):
        b = random_spherical(5, 2, seed=8)
        path = tmp_path / "belief.bin"
        save_belief(path, b)
        back = load_belief(path)
        assert isinstance(back, SphericalBelief)
        assert back.eta == pytest.approx(b.eta)
        orig = dlr_to_dense(b).precision
        assert dlr_to_dense(back).precision == pytest.approx(orig, abs=1e-10)

    def test_f_ordered_factor_roundtrips_bit_for_bit(self, tmp_path):
        b = random_dlr(7, 3, seed=12)
        b = DlrBelief(b.mean, b.diag_precision, np.asfortranarray(b.low_rank))
        path = tmp_path / "belief.bin"
        save_belief(path, b)
        rec = np.fromfile(path, dtype=np.float64)
        np.testing.assert_array_equal(rec[3 + 2 * 7:], b.low_rank.ravel(order="C"))  # row-major on disk
        back = load_belief(path)
        np.testing.assert_array_equal(back.mean, b.mean)
        np.testing.assert_array_equal(back.diag_precision, b.diag_precision)
        np.testing.assert_array_equal(back.low_rank, b.low_rank)
        assert back.low_rank.flags.f_contiguous

    @staticmethod
    def write(path, values):
        np.asarray(values, dtype=np.float64).tofile(path)
        return path

    @pytest.mark.parametrize("cut", [8, 3, 2 * 8])
    def test_truncated_record_names_the_path(self, tmp_path, cut):
        path = tmp_path / "belief.bin"
        save_belief(path, random_dlr(5, 2, seed=1))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=f"{path}: .* 3 \\+ 2P \\+ P\\*L = 23"):
            load_belief(path)

    def test_extra_values_are_rejected(self, tmp_path):
        path = tmp_path / "belief.bin"
        save_belief(path, random_dlr(5, 2, seed=1))
        path.write_bytes(path.read_bytes() + np.zeros(1).tobytes())
        with pytest.raises(ValueError, match=str(path)):
            load_belief(path)

    @pytest.mark.parametrize("kind", [2.0, -1.0, 0.5, np.nan])
    def test_unknown_kind_names_the_path(self, tmp_path, kind):
        path = self.write(tmp_path / "belief.bin", [kind, 1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=f"{path}: belief kind .* is neither 0"):
            load_belief(path)

    @pytest.mark.parametrize("p, rank", [(2.5, 0.0), (1.0, 0.5), (-1.0, -2.0), (np.inf, 1.0)])
    def test_non_integral_sizes_name_the_path(self, tmp_path, p, rank):
        path = self.write(tmp_path / "belief.bin", [0.0, p, rank, 0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match=f"{path}: sizes .* are not whole numbers"):
            load_belief(path)

    def test_empty_file_names_the_path(self, tmp_path):
        path = tmp_path / "belief.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match=f"{path}: not a belief record"):
            load_belief(path)

    def test_record_layout_is_flat_float64(self, tmp_path):
        b = DlrBelief(np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([[5.0], [6.0]]))
        path = tmp_path / "belief.bin"
        save_belief(path, b)
        rec = np.fromfile(path, dtype=np.float64)
        assert rec == pytest.approx([0.0, 2.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
