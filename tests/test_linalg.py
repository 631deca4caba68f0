"""The two kernel paths of the symmetric factors: the bandwidth that picks
them, and the gate, solves and triangular solve of the banded one against
the dense one on the same matrix."""
import numpy as np
import pytest
import scipy.linalg

import exitlab._linalg as linalg
from exitlab import DomainMask, RecurrentRestrictionError, SingularSystemError
from exitlab._linalg import RefinedCholesky, RefinedSPD, _banded, _bandwidth, _tridiagonal
from exitlab.poisson import DomainSystem


def _reference_bandwidth(a) -> int:
    rows, cols = np.nonzero(a)
    return int(np.abs(rows - cols).max(initial=0))


def _band_matrix(m, b, rng):
    """A symmetric diagonally dominant (so positive definite) matrix of bandwidth b."""
    a = np.zeros((m, m))
    for k in range(1, b + 1):
        v = -rng.uniform(0.1, 1.0, m - k)
        a[np.arange(k, m), np.arange(m - k)] = v
        a[np.arange(m - k), np.arange(k, m)] = v
    a[np.diag_indices(m)] = 1.0 - a.sum(axis=1)
    return a


@pytest.fixture
def dense_kernels(monkeypatch):
    """Every factor built while this is active takes the dense kernels."""
    monkeypatch.setattr(linalg, "_banded", lambda b, m: False)


def _cases():
    rng = np.random.default_rng(1)
    dense = rng.uniform(0.5, 1.0, (9, 9))
    corners_zero = dense.copy()
    corners_zero[0, -1] = corners_zero[-1, 0] = 0.0
    zero_row = _band_matrix(9, 1, rng)
    zero_row[4, :] = zero_row[:, 4] = 0.0
    return {
        "b0": (np.diag(rng.uniform(1.0, 2.0, 9)), 0),
        "b1": (_band_matrix(9, 1, rng), 1),
        "b2": (_band_matrix(9, 2, rng), 2),
        "dense": (dense, 8),
        "dense_zero_corners": (corners_zero, 7),
        "zero_row": (zero_row, 1),
        "zero": (np.zeros((9, 9)), 0),
        "one_state": (np.array([[2.0]]), 0),
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_bandwidth(name):
    a, expected = _cases()[name]
    assert _bandwidth(a) == expected == _reference_bandwidth(a)


@pytest.mark.parametrize("b", [1, 2, 5])
def test_band_predicate_at_the_crossover(b):
    assert linalg.BAND_FRACTION == 8
    assert _banded(b, 8 * b + 1)
    assert not _banded(b, 8 * b)
    assert not _banded(b, 8 * b - 1)
    # the tridiagonal eigensolvers need the same predicate and b <= 1
    assert _tridiagonal(b, 8 * b + 1) == (b <= 1)
    assert not _tridiagonal(b, 8 * b)


@pytest.mark.parametrize("b", [0, 1, 3])
def test_banded_factor_matches_the_dense_one(b, dense_kernels, monkeypatch):
    rng = np.random.default_rng(b)
    a = _band_matrix(40, b, rng)
    rhs = rng.standard_normal(40)
    block = rng.standard_normal((40, 5))
    dense = RefinedSPD(a)
    monkeypatch.undo()
    band = RefinedSPD(a)
    assert band._is_band and not dense._is_band
    assert band._norm == pytest.approx(dense._norm, rel=1e-15)
    # two estimates of the same 1-norm condition number
    assert band.cond == pytest.approx(dense.cond, rel=0.5)
    np.testing.assert_allclose(band.solve(rhs), dense.solve(rhs), rtol=1e-13, atol=0.0)
    # lower_solve: tbtrs on the band against trsm on the dense factor
    np.testing.assert_allclose(
        band.lower_solve(block.copy()), dense.lower_solve(block.copy()), rtol=1e-13, atol=1e-15
    )
    np.testing.assert_allclose(
        band.lower_solve(block.copy()),
        scipy.linalg.solve_triangular(np.linalg.cholesky(a), block, lower=True),
        rtol=1e-13,
        atol=1e-15,
    )


def test_banded_restricted_cholesky_matches_the_dense_one(dense_kernels, monkeypatch):
    rng = np.random.default_rng(5)
    m = 48
    q = -_band_matrix(m, 2, rng)
    q[np.diag_indices(m)] = 0.0
    q[np.diag_indices(m)] = -q.sum(axis=1) - 0.1  # symmetric, with killing
    root = np.ones(m)
    dense = RefinedCholesky(-q, 0.5, root, q)
    monkeypatch.undo()
    band = RefinedCholesky(-q, 0.5, root, q, "solve", 2)
    assert band._is_band and not dense._is_band
    assert band._norm == pytest.approx(dense._norm, rel=1e-15)
    rhs = rng.standard_normal(m)
    for trans in (False, True):
        np.testing.assert_allclose(band.solve(rhs, trans), dense.solve(rhs, trans), rtol=1e-13)


def test_non_positive_definite_band_raises_as_the_dense_kernel_does(dense_kernels, monkeypatch):
    a = _band_matrix(32, 1, np.random.default_rng(2))
    a[7, 7] = -1.0
    with pytest.raises(SingularSystemError) as dense:
        RefinedSPD(a, "inner saddle")
    monkeypatch.undo()
    with pytest.raises(SingularSystemError, match="inner saddle") as band:
        RefinedSPD(a, "inner saddle")
    assert band.value.cond_estimate == np.inf == dense.value.cond_estimate
    assert str(band.value) == str(dense.value)
    assert "matrix of size 32 is not numerically positive definite" in str(band.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_band_is_rejected(bad):
    a = _band_matrix(32, 1, np.random.default_rng(3))
    a[10, 11] = a[11, 10] = bad
    assert _banded(_bandwidth(a), 32)
    with pytest.raises(SingularSystemError):
        RefinedSPD(a)


def test_conservative_tridiagonal_block_is_recurrent():
    m = 32
    rates = np.random.default_rng(4).uniform(0.5, 2.0, m - 1)
    q_d = np.diag(rates, 1) + np.diag(rates, -1)
    q_d[np.diag_indices(m)] = -q_d.sum(axis=1)
    system = DomainSystem.from_restricted(DomainMask.from_states(range(m), m + 8), q_d, np.ones(m))
    assert system.sym_bandwidth == 1 and _banded(1, m)
    with pytest.raises(RecurrentRestrictionError):
        system.mean()
