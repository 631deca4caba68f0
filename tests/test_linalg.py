"""The two kernel paths of the symmetric factors: the bandwidth that picks
them, and the gate, solves and triangular solve of the banded one against
the dense one on the same matrix."""
import numpy as np
import pytest
import scipy.linalg

import exitlab._linalg as linalg
from conftest import random_reversible_chain
from exitlab import Chain, DomainMask, Generator, Measure, RecurrentRestrictionError, SingularSystemError
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


def _killed_restriction(banded: bool, seed: int = 21) -> DomainSystem:
    """A reversible chain with killing on a domain of 40 states: a random
    dense chain, or a birth-death chain whose restriction is tridiagonal."""
    rng = np.random.default_rng(seed)
    n = 60
    if banded:
        m = rng.uniform(0.5, 2.0, n)
        c = rng.uniform(0.5, 2.0, n - 1)
        q = np.diag(c / m[:-1], 1) + np.diag(c / m[1:], -1)
        q[np.diag_indices(n)] = -q.sum(axis=1) - rng.uniform(0.0, 0.2, n)
        chain = Chain(Generator(q), Measure(m))
        mask = DomainMask.from_states(range(10, 50), n)
    else:
        chain = random_reversible_chain(rng, n, killing=True)
        mask = DomainMask.from_states(rng.permutation(n)[:40], n)
    system = DomainSystem(chain, mask)
    assert _banded(system.sym_bandwidth, mask.size) == banded
    return system


@pytest.mark.parametrize("seed", [21, 22])
@pytest.mark.parametrize("banded", [False, True])
@pytest.mark.parametrize("where", ["half_lambda0_below", "zero", "half"])
def test_restricted_cholesky_condition_is_the_exact_one_norm_condition(seed, banded, where):
    system = _killed_restriction(banded, seed)
    shift = {"half_lambda0_below": -system.dirichlet.lambda0 / 2.0, "zero": 0.0, "half": 0.5}[where]
    s = system.sym_d + shift * np.eye(system.mask.size)
    exact = np.linalg.cond(s, 1)
    # by the cached sums of the system, and from sym and q alone
    for factors in (
        system._factor(shift),
        RefinedCholesky(system.sym_d, shift, np.sqrt(system.mu_d), system.q_d),
    ):
        assert isinstance(factors, RefinedCholesky) and factors._is_band == banded
        assert factors._norm == pytest.approx(np.linalg.norm(s, 1), rel=1e-13)
        assert factors.cond == pytest.approx(exact, rel=1e-10)


def _non_finite_sym(where: str, m: int = 40) -> np.ndarray:
    sym = _band_matrix(m, 1, np.random.default_rng(6))
    if where == "nan_off_diagonal":
        sym[20, 21] = sym[21, 20] = np.nan
    elif where == "minus_inf_off_diagonal":
        sym[20, 21] = sym[21, 20] = -np.inf
    elif where == "nan_diagonal":
        sym[20, 20] = np.nan
    else:  # an infinite last pivot: Cholesky succeeds, and S^{-1} 1 is finite
        sym[m - 1, m - 1] = np.inf
    return sym


@pytest.mark.parametrize("banded", [False, True])
@pytest.mark.parametrize("where", ["nan_off_diagonal", "minus_inf_off_diagonal", "nan_diagonal", "inf_last_pivot"])
def test_non_finite_sym_is_rejected_by_the_restricted_cholesky(banded, where, monkeypatch):
    if not banded:
        monkeypatch.setattr(linalg, "_banded", lambda b, m: False)
    sym = _non_finite_sym(where)
    with pytest.raises(SingularSystemError, match="not numerically positive definite"):
        RefinedCholesky(sym, 0.5, np.ones(sym.shape[0]), -sym, "solve", 1)


def test_conservative_dense_block_is_recurrent():
    rng = np.random.default_rng(9)
    m = 30
    c = rng.uniform(0.5, 2.0, (m, m))
    q_d = c + c.T
    q_d[np.diag_indices(m)] = 0.0
    q_d[np.diag_indices(m)] = -q_d.sum(axis=1)
    system = DomainSystem.from_restricted(DomainMask.from_states(range(m), m + 8), q_d, np.ones(m))
    assert not _banded(system.sym_bandwidth, m)
    with pytest.raises(SingularSystemError, match="not numerically positive definite"):
        RefinedCholesky(system.sym_d, 0.0, np.ones(m), q_d)
    with pytest.raises(RecurrentRestrictionError):
        system.mean()


@pytest.mark.parametrize("banded", [False, True])
def test_restricted_cholesky_asks_lapack_for_no_condition_estimator(banded, monkeypatch):
    requested = []
    get = linalg.get_lapack_funcs

    def spy(names, arrays=()):
        requested.extend(names)
        return get(names, arrays)

    monkeypatch.setattr(linalg, "get_lapack_funcs", spy)
    system = _killed_restriction(banded)
    RefinedCholesky(system.sym_d, 0.5, np.sqrt(system.mu_d), system.q_d)
    assert requested and not {"pocon", "lange", "gbtrf", "gbcon"} & set(requested)
    # the symmetric factor of a general matrix keeps its estimator
    requested.clear()
    RefinedSPD(system.sym_d + 0.5 * np.eye(system.mask.size))
    assert ({"gbtrf", "gbcon"} if banded else {"pocon", "lange"}) <= set(requested)
