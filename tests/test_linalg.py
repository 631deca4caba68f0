"""The factors: the bandwidth that picks the kernels of a Z-matrix
Cholesky, the gate, solves and triangular solve of its banded kernels
against the dense ones on the same matrix, the gate of each factor class
and the M-matrix certificate of the Z-matrix gates, the refinement stop,
and conditions that heap layout does not move."""
import numpy as np
import pytest
import scipy.linalg

import exitlab._linalg as linalg
import exitlab.forms
import exitlab.variational
from conftest import random_nonsymmetric_chain, random_reversible_chain
from exitlab import Chain, DomainMask, Generator, Measure, RecurrentRestrictionError, SingularSystemError
from exitlab._linalg import RefinedCholesky, RefinedLU, RefinedSPD, _banded, _bandwidth, _tridiagonal
from exitlab.forms import _sector_sigma
from exitlab.poisson import DomainSystem
from exitlab.variational import exp_moment_inf, symmetric_inf


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
    dense = RefinedCholesky(a)
    monkeypatch.undo()
    band = RefinedCholesky(a)
    assert band._is_band and not dense._is_band
    assert band._norm == dense._norm == pytest.approx(np.linalg.norm(a, 1), rel=1e-15)
    # the same exact 1-norm condition number, from one solve on each factor
    assert band.cond == pytest.approx(dense.cond, rel=1e-12)
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
        RefinedCholesky(a, context="sector constant")
    monkeypatch.undo()
    with pytest.raises(SingularSystemError, match="sector constant") as band:
        RefinedCholesky(a, context="sector constant")
    assert band.value.cond_estimate == np.inf == dense.value.cond_estimate
    assert str(band.value) == str(dense.value)
    assert "matrix of size 32 is not numerically positive definite" in str(band.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_band_is_rejected(bad):
    a = _band_matrix(32, 1, np.random.default_rng(3))
    a[10, 11] = a[11, 10] = bad
    assert _banded(_bandwidth(a), 32)
    with pytest.raises(SingularSystemError):
        RefinedCholesky(a)


def test_conservative_tridiagonal_block_is_recurrent():
    m = 32
    rates = np.random.default_rng(4).uniform(0.5, 2.0, m - 1)
    q_d = np.diag(rates, 1) + np.diag(rates, -1)
    q_d[np.diag_indices(m)] = -q_d.sum(axis=1)
    system = DomainSystem.from_restricted(DomainMask.from_states(range(m), m + 8), q_d, np.ones(m), reversible=True)
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
    # through the system, with its cached bandwidth, and from sym and q alone
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
    system = DomainSystem.from_restricted(DomainMask.from_states(range(m), m + 8), q_d, np.ones(m), reversible=True)
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
    # the symmetric factor of a general matrix is dense at any bandwidth and
    # gates on the eigenvalue bound it is given, with no estimator either
    requested.clear()
    s = system.sym_d + 0.5 * np.eye(system.mask.size)
    RefinedSPD(s, np.linalg.eigvalsh(s)[0])
    assert "lange" in requested
    assert not {"pocon", "pbtrf", "gbtrf", "gbcon"} & set(requested)


def _tridiagonal_drift_chain(m: int = 40) -> Chain:
    """A killed nearest-neighbour chain under the counting measure with
    unequal up and down rates: not reversible, and its form is tridiagonal."""
    rng = np.random.default_rng(12)
    q = np.diag(rng.uniform(0.5, 2.0, m - 1), 1) + np.diag(rng.uniform(0.1, 0.4, m - 1), -1)
    q[np.diag_indices(m)] = -q.sum(axis=1) - rng.uniform(0.0, 0.2, m)
    return Chain(Generator(q), Measure(np.ones(m)))


def _z_matrix_route(route: str, banded: bool):
    """A call that factors one symmetric Z-matrix through ``route``."""
    if route == "sector_constant":
        chain = _tridiagonal_drift_chain() if banded else random_nonsymmetric_chain(np.random.default_rng(3), 60)
        assert not chain.reversible
        return lambda: _sector_sigma(chain, chain.beta0 + 0.5)
    system = _killed_restriction(banded)
    if route == "symmetric_minimum":
        return lambda: symmetric_inf(system.chain, system.mask, 0.5, np.ones(system.mask.size))
    # a probability measure with the same generator, so still reversible
    mu = system.chain.mu
    chain = Chain(system.chain.generator, Measure(mu / mu.sum()))
    lambda0 = DomainSystem(chain, system.mask).dirichlet.lambda0
    return lambda: exp_moment_inf(chain, system.mask, lambda0 / 2.0)


@pytest.mark.parametrize("banded", [False, True])
@pytest.mark.parametrize("route", ["symmetric_minimum", "exp_moment_minimum", "sector_constant"])
def test_z_matrix_factors_take_the_exact_one_solve_condition(route, banded, monkeypatch):
    call = _z_matrix_route(route, banded)
    built, requested = [], []
    get = linalg.get_lapack_funcs

    class Recorded(RefinedCholesky):
        def __init__(self, sym, *args, **kwargs):
            super().__init__(sym, *args, **kwargs)
            built.append((np.array(sym) + self.shift * np.eye(sym.shape[0]), self))

    def spy(names, arrays=()):
        requested.extend(names)
        return get(names, arrays)

    monkeypatch.setattr(exitlab.variational, "RefinedCholesky", Recorded)
    monkeypatch.setattr(exitlab.forms, "RefinedCholesky", Recorded)
    monkeypatch.setattr(linalg, "get_lapack_funcs", spy)
    call()
    assert len(built) == 1
    s, factors = built[0]
    assert factors._is_band == banded
    assert factors.cond == pytest.approx(np.linalg.cond(s, 1), rel=1e-10)
    assert requested and not {"pocon", "lange", "gbtrf", "gbcon"} & set(requested)


def test_refined_spd_rejects_a_tiny_eigenvalue_that_one_solve_cannot_see():
    # eigenvalues 2 - 2^-53 on (1, 1) and 2^-53 on (1, -1): positive definite,
    # Cholesky succeeds, but the positive off-diagonal entry makes it no
    # Z-matrix, and S^{-1} 1 never meets the tiny eigenvalue
    off = 1.0 - 2.0**-53
    s = np.array([[1.0, off], [off, 1.0]])
    assert np.linalg.eigvalsh(s)[0] > 0
    one_solve = np.linalg.norm(s, 1) * np.abs(np.linalg.solve(s, np.ones(2))).max()
    assert one_solve < 2.0
    with pytest.raises(SingularSystemError, match="inner saddle") as err:
        RefinedSPD(s, np.linalg.eigvalsh(s)[0], "inner saddle")
    assert 1e16 < err.value.cond_estimate < np.inf


def _grid_block(width: int, height: int) -> np.ndarray:
    """The 5-point generator block of a width x height grid in row order,
    killed at its edges: exactly symmetric, of bandwidth ``width``."""
    m = width * height
    q = np.zeros((m, m))
    right = np.arange(m - 1)[np.arange(m - 1) % width != width - 1]
    q[right, right + 1] = q[right + 1, right] = 1.0
    q[np.arange(m - width), np.arange(width, m)] = q[np.arange(width, m), np.arange(m - width)] = 1.0
    q[np.diag_indices(m)] = -4.0
    return q


@pytest.mark.parametrize("width", [6, 7, 8])
def test_negated_band_is_the_band_of_minus_q(width):
    # a band of 8 rows (width 7) strides its rows by 64 bytes, where numpy
    # 2.4's in-place negative reads the wrong addresses
    q = _grid_block(width, 10)
    m = q.shape[0]
    band = linalg._lower_band(q, width, negate=True)
    for k in range(width + 1):
        np.testing.assert_array_equal(band[k, : m - k], -np.diagonal(q, -k))
    system = DomainSystem.from_restricted(DomainMask.full(m), q, np.ones(m), reversible=True)
    assert system.sym_d is None and _banded(system.sym_bandwidth, m)
    factors = system._factor(0.5)
    assert isinstance(factors, RefinedCholesky) and factors._is_band
    assert factors.cond == pytest.approx(np.linalg.cond(0.5 * np.eye(m) - q, 1), rel=1e-12)


@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("scale", [1.0, 1e-20, 1e20])
def test_refinement_stop_is_relative_at_every_scale_of_b(scale, trans):
    # the factor is of the unperturbed symmetrization, so the direct solve
    # is off by about 1e-9 and only refinement against q brings it back; the
    # stop reads max|r| against ||a|| max|x|, with no floor that would pass
    # the first residual of a tiny b
    rng = np.random.default_rng(7)
    system = DomainSystem(random_reversible_chain(rng, 50, killing=True, normalized=False), DomainMask.full(50))
    q = system.q_d * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, (50, 50)))
    factors = RefinedCholesky(system.sym_d, 0.5, np.sqrt(system.mu_d), q)
    a = 0.5 * np.eye(50) - q
    b = scale * rng.uniform(0.5, 1.5, 50)
    want = np.linalg.solve(a.T if trans else a, b)
    assert np.abs(factors.solve(b, trans) - want).max() <= 1e-13 * np.abs(want).max()


def test_conditions_and_solves_do_not_move_with_heap_layout():
    # the recipe on which pocon's estimate took two values; each pad shifts
    # the small allocations LAPACK's work arrays come from
    a = np.random.default_rng(5).standard_normal((400, 400))
    s = a @ a.T / 400 + 0.05 * np.eye(400)
    block = s[1:, 1:]  # s >= 0.05 I, and so is the block
    z = -np.abs(s)
    np.fill_diagonal(z, 0.0)
    np.fill_diagonal(z, 0.05 - z.sum(axis=1))
    b = np.linspace(-1.0, 1.0, 400)
    seen = {"spd": set(), "cholesky": set(), "solves": set()}
    for k in range(0, 130, 13):
        pad = np.empty(k * 1024 + 7, np.uint8)
        spd, chol = RefinedSPD(block, 0.05), RefinedCholesky(z)
        seen["spd"].add(repr(spd.cond))
        seen["cholesky"].add(repr(chol.cond))
        seen["solves"].add(spd.solve(b[1:]).tobytes() + chol.solve(b).tobytes())
        del pad
    assert {key: len(values) for key, values in seen.items()} == {"spd": 1, "cholesky": 1, "solves": 1}


@pytest.mark.parametrize(
    "y, edge_gap",
    [(None, 0.0), ([0.0, 1.0], 0.0), ([-1e-300, 1.0], 0.0), ([np.nan, 1.0], 0.0), ([1.0, np.inf], 0.0),
     ([1e15, 2e15], 1e-15)],
)
def test_a_certificate_is_finite_positive_and_strong(y, edge_gap):
    # y = A^{-T} 1 certifies a nonsingular M-matrix only when finite and > 0;
    # one too weak for the gate carries 1/min y, its bound on lambda_min(A)
    with pytest.raises(SingularSystemError) as err:
        linalg._certify("probe", "a Z-matrix", 2, 1.0, None if y is None else np.array(y))
    assert err.value.edge_gap == edge_gap
    assert linalg._certify("probe", "a Z-matrix", 2, 4.0, np.array([0.5, 2.0])) == 8.0


def test_the_lu_condition_is_exact_and_does_not_move_with_heap_layout():
    a = np.random.default_rng(5).standard_normal((400, 400))
    w = -np.abs(a)  # a Z-matrix, not symmetric
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(w, 0.05 - w.sum(axis=1))
    seen = set()
    for k in range(0, 130, 13):
        pad = np.empty(k * 1024 + 7, np.uint8)
        seen.add(repr(RefinedLU(w).cond))
        del pad
    assert len(seen) == 1
    assert float(seen.pop()) == pytest.approx(np.linalg.cond(w, 1), rel=1e-12)
