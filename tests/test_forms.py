import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from exitlab import (
    Chain,
    DomainMask,
    Generator,
    GridModelSpec,
    Measure,
    antisym_perturb,
    birth_death,
    cycle_flow,
    discretize_jump_diffusion,
    dual_generator,
    eval_form,
    exit_mean,
    spectral_gap,
    validate_assumption_a,
)
from exitlab.forms import _SYMMETRY_TILE, _is_symmetric, _off_diagonal, _sector_constant, _sector_sigma, form_matrix
from exitlab.defaults import STRUCTURAL_TOL
from conftest import make_chain, random_nonsymmetric_chain, random_reversible_chain, traced_peak


def test_dual_is_transpose_under_uniform_measure():
    chain = make_chain([[-3.0, 2.0], [0.0, -3.0]], [1.0, 1.0])
    dual = dual_generator(chain)
    np.testing.assert_allclose(dual.matrix, [[-3.0, 0.0], [2.0, -3.0]], atol=1e-15)


def test_dual_of_reversible_chain_is_itself(rng):
    chain = random_reversible_chain(rng, 5)
    dual = dual_generator(chain)
    np.testing.assert_allclose(dual.matrix, chain.q, atol=1e-12)


def test_dual_matches_inner_product_pairing():
    # oracle: direct evaluation of <L e_i, e_j>_mu and <e_i, L~ e_j>_mu.
    # mu = (2, 1) makes the similarity produce [[-1, 0], [2, 0]] and the
    # nonzero basis pairing equal to 2.
    chain = make_chain([[-1.0, 1.0], [0.0, 0.0]], [2.0, 1.0])
    dual = dual_generator(chain).matrix
    np.testing.assert_allclose(dual, [[-1.0, 0.0], [2.0, 0.0]], atol=1e-15)
    mu, q = chain.mu, chain.q
    e0, e1 = np.eye(2)
    lhs = float(np.sum(mu * (q @ e1) * e0))
    rhs = float(np.sum(mu * e1 * (dual @ e0)))
    assert lhs == pytest.approx(2.0, abs=1e-15)
    assert rhs == pytest.approx(2.0, abs=1e-15)


def test_duality_identity_on_basis_pairs(rng):
    for _ in range(5):
        chain = random_nonsymmetric_chain(rng, 6)
        dual = dual_generator(chain).matrix
        mu, q = chain.mu, chain.q
        for i in range(6):
            for j in range(6):
                ei, ej = np.eye(6)[i], np.eye(6)[j]
                lhs = np.sum(mu * (q @ ei) * ej)
                rhs = np.sum(mu * ei * (dual @ ej))
                assert lhs == pytest.approx(rhs, abs=1e-12)


def test_double_dual_returns_original(rng):
    chain = random_nonsymmetric_chain(rng, 7)
    dual = dual_generator(chain)
    dual_chain = Chain(dual, chain.measure)
    back = dual_generator(dual_chain)
    np.testing.assert_allclose(back.matrix, chain.q, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    rates=st.lists(st.floats(0.05, 3.0), min_size=6, max_size=6),
    weights=st.lists(st.floats(0.2, 5.0), min_size=3, max_size=3),
)
def test_double_dual_property(rates, weights):
    q = np.zeros((3, 3))
    q[np.triu_indices(3, 1)] = rates[:3]
    q[np.tril_indices(3, -1)] = rates[3:]
    np.fill_diagonal(q, -q.sum(axis=1))
    chain = Chain(Generator(q), Measure(np.array(weights)))
    dual = dual_generator(chain)
    back = dual_generator(Chain(dual, chain.measure))
    np.testing.assert_allclose(back.matrix, q, atol=1e-10)


def test_eval_form_zero_and_single_state():
    chain = make_chain([[-2.0]], [1.0])
    assert eval_form(chain, 1.0, [0.0], [0.0]) == 0.0
    # (beta + q) * f * g by hand
    assert eval_form(chain, 1.0, [1.0], [1.0]) == pytest.approx(3.0, abs=1e-15)


def test_eval_form_symmetric_on_reversible(rng):
    chain = random_reversible_chain(rng, 6)
    for _ in range(10):
        f = rng.standard_normal(6)
        g = rng.standard_normal(6)
        assert eval_form(chain, 0.7, f, g) == pytest.approx(eval_form(chain, 0.7, g, f), rel=1e-12, abs=1e-12)


def test_eval_form_rejects_dimension_mismatch():
    chain = make_chain([[-2.0]], [1.0])
    with pytest.raises(ValueError):
        eval_form(chain, 1.0, [1.0, 2.0], [1.0])


def test_validate_symmetric_chain_unit_sector(rng):
    chain = random_reversible_chain(rng, 5)
    report = validate_assumption_a(chain, beta_probe=1.0)
    assert report.beta0_estimate == pytest.approx(0.0, abs=1e-12)
    assert report.sector_constant == pytest.approx(1.0, abs=1e-9)
    assert report.primal_markov_ok and report.dual_markov_ok


def test_validate_upper_triangular_example():
    # symmetric part of L is [[-3, 1], [1, -3]], negative definite, so the
    # unshifted form is already positive semidefinite
    chain = make_chain([[-3.0, 2.0], [0.0, -3.0]], [1.0, 1.0])
    report = validate_assumption_a(chain, beta_probe=1.0)
    assert report.beta0_estimate == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(report.sector_constant)
    assert report.sector_constant >= 1.0


def test_validate_flags_non_submarkov_dual():
    # oracle: M^{-1} L^T M has first row sum 49 > 0
    chain = make_chain([[-1.0, 1.0], [5.0, -5.0]], [1.0, 10.0])
    dual = dual_generator(chain).matrix
    assert dual.min() >= 0.0 - 1e-15 or (np.diag(dual) < 0).all()
    assert dual.sum(axis=1).max() > 1.0
    report = validate_assumption_a(chain, beta_probe=2.0)
    assert not report.dual_markov_ok
    assert report.primal_markov_ok


def test_validate_probe_at_or_below_beta0_reports_infinite_sector():
    chain = make_chain([[-1.0, 1.0], [5.0, -5.0]], [1.0, 10.0])
    beta0 = validate_assumption_a(chain, 10.0).beta0_estimate
    report = validate_assumption_a(chain, beta_probe=beta0)
    assert report.sector_constant == float("inf")
    assert any(name.startswith("sector") for name, _ in report.violations)


def test_lower_boundedness_at_estimated_shift(rng):
    for _ in range(5):
        chain = random_nonsymmetric_chain(rng, 8)
        beta0 = validate_assumption_a(chain, 1.0).beta0_estimate
        for _ in range(20):
            f = rng.standard_normal(8)
            f /= np.linalg.norm(f)
            assert eval_form(chain, beta0 + 1e-9, f, f) >= -1e-9


def test_generator_rejects_bad_sign_structure():
    with pytest.raises(ValueError):
        Generator(np.array([[-1.0, -0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Generator(np.array([[1.0, 1.0], [0.0, -1.0]]))
    # relaxed mode accepts positive row sums but never negative rates
    Generator(np.array([[1.0, 1.0], [0.0, -1.0]]), require_submarkov=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rates_and_weights_are_rejected(bad):
    q = np.array([[bad, 1.0], [1.0, -1.0]])
    with pytest.raises(ValueError, match="finite"):
        Generator(q)
    with pytest.raises(ValueError, match="finite"):
        Generator(q.T, require_submarkov=False)
    with pytest.raises(ValueError, match="finite"):
        Chain.from_dict({"Q": q.tolist(), "mu": [0.5, 0.5]})
    with pytest.raises(ValueError, match="finite"):
        Chain.from_dict({"Q": [[-1.0, 1.0], [1.0, -1.0]], "mu": [bad, 0.5]})


def test_measure_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        Measure(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        Measure(np.array([0.3, -0.3]))


def test_chain_json_round_trip(rng):
    chain = random_nonsymmetric_chain(rng, 4)
    back = Chain.from_json(chain.to_json())
    np.testing.assert_allclose(back.q, chain.q, atol=0)
    np.testing.assert_allclose(back.mu, chain.mu, atol=0)
    assert back.state_labels() == chain.state_labels()


def test_types_are_immutable(rng):
    chain = random_reversible_chain(rng, 3)
    with pytest.raises(ValueError):
        chain.q[0, 1] = 5.0
    with pytest.raises(ValueError):
        chain.mu[0] = 5.0


@pytest.mark.parametrize("n", [100, 200, 800])
def test_normalized_chains_build_at_scale(n):
    # rates of a probability-measure chain grow like n / mu and so does the
    # rounding of their row sums; the row-sum check scales with |q_xx|
    for seed in range(5):
        chain = random_reversible_chain(np.random.default_rng(seed), n)
        assert chain.is_conservative()
        assert spectral_gap(chain) > 0.0


def test_row_sum_check_scales_with_the_diagonal_only():
    # 1e-8 of excess mass is beyond STRUCTURAL_TOL * |q_xx| = 1e-9
    with pytest.raises(ValueError, match="row sums"):
        Generator(np.array([[-1e3, 1e3 + 1e-8], [0.0, 0.0]]))
    Generator(np.array([[-1e3, 1e3 + 1e-10], [0.0, 0.0]]))
    leaky = make_chain([[-1e3, 1e3 - 1e-8], [0.0, 0.0]], [1.0, 1.0])
    assert not leaky.is_conservative()


@pytest.mark.parametrize("c", [1.0, 1e-12])
def test_row_sums_read_killing_at_any_time_scale(c):
    # kills at 10% of its rate; a row-sum scale floored at 1 read c*Q as
    # conservative at c = 1e-12 and its exit as impossible
    chain = make_chain(c * np.array([[-1.1, 1.0], [1.0, -1.0]]), [0.5, 0.5])
    assert not chain.is_conservative()
    np.testing.assert_allclose(exit_mean(chain, DomainMask.full(2)), [20.0 / c, 21.0 / c], rtol=1e-9)


@pytest.mark.parametrize("c", [1.0, 1e-12])
def test_negative_rates_are_rejected_at_any_time_scale(c):
    # -0.1 is 10% of the diagonal, not rounding, however small c is
    q = c * np.array([[-1.0, 1.1, -0.1], [0.5, -1.0, 0.5], [0.5, 0.5, -1.0]])
    with pytest.raises(ValueError, match="off-diagonal"):
        Generator(q)


@pytest.mark.parametrize("c", [1.0, 1e-12])
def test_dual_sign_check_follows_the_time_scale(c):
    # the dual Q^T has a row sum of +c: a violation at every time scale
    chain = make_chain(c * np.array([[-1.0, 1.0], [2.0, -2.0]]), [0.5, 0.5])
    report = validate_assumption_a(chain, beta_probe=1.0)
    assert report.primal_markov_ok
    assert not report.dual_markov_ok


def _sector_by_eigh_and_norm(chain, probe):
    # reference: S^{-1/2} A0 S^{-1/2} through a full eigh of S, then the
    # spectral norm (a full SVD)
    a0 = form_matrix(chain.q, chain.mu, 0.0)
    lam, vec = scipy.linalg.eigh((a0 + a0.T) / 2.0 + probe * np.diag(chain.mu))
    inv_root = (vec / np.sqrt(lam)[None, :]) @ vec.T
    return np.linalg.norm(inv_root @ a0 @ inv_root, 2)


@pytest.mark.parametrize(
    "chain",
    [antisym_perturb(*cycle_flow(6, 1.0), 0.9), random_nonsymmetric_chain(np.random.default_rng(3), 200)],
    ids=["cycle6", "random200"],
)
@pytest.mark.parametrize("offset", [1e-3, 0.5])
def test_non_reversible_sector_matches_the_eigh_route(chain, offset, monkeypatch):
    assert not chain.reversible
    probe = chain.beta0 + offset
    expected = _sector_by_eigh_and_norm(chain, probe)
    diag = np.diag

    def extract_only(v, k=0):
        if np.ndim(v) == 1:
            raise AssertionError("the sector built an n x n diagonal matrix")
        return diag(v, k)

    monkeypatch.setattr(np, "diag", extract_only)
    assert _sector_sigma(chain, probe) == pytest.approx(expected, rel=1e-12)
    assert _sector_constant(chain, probe) == pytest.approx(max(1.0, expected), rel=1e-12)


def test_sector_constant_factors_through_the_package_cholesky(monkeypatch):
    chain = antisym_perturb(*cycle_flow(6), 0.9)
    probe = chain.beta0 + 0.5
    expected = max(1.0, _sector_by_eigh_and_norm(chain, probe))

    def forbidden(*args, **kwargs):
        raise AssertionError("the sector constant bypassed RefinedCholesky")

    monkeypatch.setattr(scipy.linalg, "cholesky", forbidden)
    monkeypatch.setattr(scipy.linalg, "solve_triangular", forbidden)
    report = validate_assumption_a(chain, beta_probe=probe)
    assert report.sector_constant > 1.0
    assert report.sector_constant == pytest.approx(expected, rel=1e-12)


def test_sector_reads_infinite_when_its_factor_fails_the_gate():
    chain = antisym_perturb(*cycle_flow(6), 0.9)
    # just above beta0 the shifted symmetric part still factors, but its
    # reciprocal condition, about 1e-15, is below SINGULAR_RCOND
    report = validate_assumption_a(chain, beta_probe=chain.beta0 + 3e-15)
    assert report.sector_constant == float("inf")


def test_reversible_validation_makes_no_eigensolve(rng, monkeypatch):
    # the form of a reversible chain is a Dirichlet form: beta0 is 0 and the
    # sector constant 1 by theorem, so fresh chains, dense or tridiagonal,
    # are validated with no decomposition at all
    chains = [
        random_reversible_chain(rng, 30),
        birth_death(up=np.linspace(0.5, 2.0, 11), down=np.linspace(1.5, 0.7, 11)),
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("validation of a reversible chain decomposed a matrix")

    for module, name in [
        (scipy.linalg, "eigh"),
        (scipy.linalg, "eigvalsh_tridiagonal"),
        (scipy.linalg, "svd"),
        (scipy.linalg, "svdvals"),
        (scipy.linalg, "cholesky"),
        (np.linalg, "eigh"),
        (np.linalg, "eigvalsh"),
        (np.linalg, "svd"),
        (np.linalg, "norm"),
    ]:
        monkeypatch.setattr(module, name, forbidden)
    for chain in chains:
        report = validate_assumption_a(chain, beta_probe=0.5)
        assert report.sector_constant == 1.0
        assert report.beta0_estimate == 0.0
        assert "form_spectrum" not in vars(chain)


DRIFT_GRID = GridModelSpec(dimension=1, domain_box=((0.0, 1.0),), mesh_h=0.125, b=(1.0,), k=1.0)


@pytest.mark.parametrize(
    "build",
    [lambda: antisym_perturb(*cycle_flow(40), 0.5), lambda: antisym_perturb(*cycle_flow(200), 0.5),
     lambda: discretize_jump_diffusion(DRIFT_GRID)],
    ids=["ring40", "ring200", "drift_grid"],
)
def test_beta0_reads_the_eigensolves_rounding_as_zero(build):
    # a ring's flow keeps mu invariant, so sym(A0) 1 = 0 and nu_0 = 0 exactly,
    # which the eigensolve returns as about -1e-15; the drift grid's nu_0 is
    # positive, so its form is nonnegative with no shift
    chain = build()
    assert not chain.reversible
    assert chain.beta0 == 0.0
    assert validate_assumption_a(chain, 1.0).beta0_estimate == 0.0


def test_form_spectrum_is_cached_read_only_and_gives_beta0():
    chain = make_chain([[-1.0, 1.0], [5.0, -5.0]], [1.0, 10.0])
    nu = chain.form_spectrum
    assert chain.form_spectrum is nu
    assert np.all(np.diff(nu) >= 0)
    with pytest.raises(ValueError):
        nu[0] = 0.0
    assert chain.beta0 == max(0.0, -nu[0])
    # the pencil sym(A0) v = nu M v, solved independently
    a0 = form_matrix(chain.q, chain.mu, 0.0)
    m = np.diag(chain.mu)
    expected = np.linalg.eigvals(np.linalg.solve(m, (a0 + a0.T) / 2.0)).real
    np.testing.assert_allclose(nu, np.sort(expected), rtol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
def test_off_diagonal_view_holds_exactly_the_off_diagonal_entries(n):
    q = np.arange(float(n * n)).reshape(n, n)
    off = _off_diagonal(q)
    assert off.shape == (n - 1, n)
    assert n == 1 or np.shares_memory(off, q)
    assert sorted(off.ravel()) == sorted(q[~np.eye(n, dtype=bool)])
    # a non-contiguous input gets a copy, with the same entries
    assert sorted(_off_diagonal(q.T).ravel()) == sorted(q.T[~np.eye(n, dtype=bool)])


def test_generator_copies_its_matrix_once():
    n = 400
    q = np.full((n, n), 1.0)
    np.fill_diagonal(q, -(n - 1.0))
    tracemalloc.start()
    try:
        Generator(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the frozen copy is n^2 doubles; a second n^2 copy for the sign test
    # would reach 2 n^2
    assert peak < 1.5 * n * n * 8


@pytest.mark.parametrize("fact", ["form_spectrum", "reversible"])
@pytest.mark.parametrize("make", [random_reversible_chain, random_nonsymmetric_chain])
def test_cached_chain_facts_hold_at_most_two_copies_of_the_chain(fact, make):
    n = 400
    chain = make(np.random.default_rng(11), n)
    fresh = Chain(chain.generator, chain.measure)  # no cached facts yet
    tracemalloc.start()
    try:
        getattr(fresh, fact)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # two n^2 buffers plus eigh's blocked workspace, O(64 n); the pencil
    # with a0, sym0 and the mass matrix alive together read 5 n^2, detailed
    # balance with mq, mq - mq.T and its absolute value 3 n^2
    assert peak < 2.5 * n * n * 8


@pytest.mark.parametrize(
    "chain",
    [birth_death(up=np.linspace(0.5, 2.0, 11), down=np.linspace(1.5, 0.7, 11)),
     random_reversible_chain(np.random.default_rng(2), 9, killing=True),
     random_nonsymmetric_chain(np.random.default_rng(4), 12)],
    ids=["birth_death12", "reversible9", "nonsymmetric12"],
)
@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0])
def test_form_matrix_of_a_block_is_the_block_of_the_form_matrix(chain, beta):
    n = chain.n_states
    idx = np.flatnonzero(np.random.default_rng(n).uniform(size=n) < 0.6)
    ix = np.ix_(idx, idx)
    whole = form_matrix(chain.q, chain.mu, beta)
    # bit for bit, signed zeros included: the (beta*I - Q)^T M of the definition
    assert whole.tobytes() == ((beta * np.eye(n) - chain.q).T * chain.mu[None, :]).tobytes()
    block = form_matrix(chain.q[ix], chain.mu[idx], beta)
    assert block.tobytes() == whole[ix].tobytes()
    assert not np.signbit(block[block == 0.0]).any()


def test_dual_generator_is_c_ordered_and_unchanged(rng):
    chain = random_reversible_chain(rng, 30)
    mu = chain.mu
    dual = dual_generator(chain).matrix
    assert dual.flags.c_contiguous
    np.testing.assert_array_equal(dual, (chain.q.T * mu[None, :]) / mu[:, None])


def test_validation_holds_at_most_two_copies_of_the_chain(rng):
    n = 400
    chain = random_reversible_chain(rng, n)
    chain.beta0, chain.reversible  # cached facts of the chain, read by every validation
    tracemalloc.start()
    try:
        report = validate_assumption_a(chain, beta_probe=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.dual_markov_ok
    # one n^2 dual buffer whose off-diagonal entries are a view; wrapping it
    # in a Generator (an F-ordered product, its sign-test copy and the
    # frozen copy) reached 3 n^2
    assert peak <= 2 * n * n * 8


def _read_only(a):
    a.setflags(write=False)
    return a


@pytest.mark.parametrize(
    "make",
    [
        lambda base: base,
        lambda base: _read_only(base[:]),
        lambda base: _read_only(base.astype(np.float32)),
    ],
    ids=["writable", "read_only_view_of_writable_base", "read_only_float32"],
)
def test_generator_copies_an_array_others_can_write_or_of_another_dtype(make):
    base = np.array([[-1.0, 1.0], [2.0, -2.0]])
    q = make(base)
    g = Generator(q)
    assert g.matrix.dtype == np.float64 and not g.matrix.flags.writeable
    assert not np.shares_memory(g.matrix, q) and not np.shares_memory(g.matrix, base)
    base[0, 1] = 5.0  # a later write to the caller's array does not reach the generator
    assert g.matrix[0, 1] == 1.0


def test_generator_validates_an_adopted_array():
    q = _read_only(np.array([[-1.0, -1.0], [2.0, -2.0]]))
    with pytest.raises(ValueError, match="nonnegative"):
        Generator(q)


def test_generator_adopts_an_owned_read_only_array_without_a_copy():
    n = 400
    q = np.full((n, n), 1.0)
    np.fill_diagonal(q, -(n - 1.0))
    g, peak = traced_peak(lambda: Generator(_read_only(q)))
    assert np.shares_memory(g.matrix, q)
    assert peak < 0.1 * n * n * 8


def _dense_reversible(chain) -> bool:
    """Detailed balance over the whole matrix at once, pair by pair, the
    formula the tiled check must reproduce."""
    return _dense_is_symmetric(chain.q, chain.mu, anti=False)


def _unbalanced(chain, x, y, ratio):
    """The chain with q_xy raised (and q_xx lowered) so that
    |mu_x q_xy - mu_y q_yx| grows by ``ratio`` times the pair's own
    detailed-balance threshold; x and y lie in different row tiles."""
    d_xy, d_yx = chain.mu[x] * chain.q[x, y], chain.mu[y] * chain.q[y, x]
    delta = ratio * STRUCTURAL_TOL * max(abs(d_xy), abs(d_yx)) / chain.mu[x]
    q = chain.q.copy()
    q[x, y] += delta
    q[x, x] -= delta
    return Chain(Generator(q), chain.measure)


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_reversible_chain(np.random.default_rng(5), 150),
        lambda: random_nonsymmetric_chain(np.random.default_rng(6), 150),
        lambda: _unbalanced(random_reversible_chain(np.random.default_rng(7), 150), 3, 140, 0.5),
        lambda: _unbalanced(random_reversible_chain(np.random.default_rng(7), 150), 3, 140, 2.0),
        lambda: _unbalanced(random_reversible_chain(np.random.default_rng(7), 150), 140, 3, 0.999),
        lambda: _unbalanced(random_reversible_chain(np.random.default_rng(7), 150), 140, 3, 1.001),
    ],
    ids=["reversible", "nonsymmetric", "below_threshold", "above_threshold", "just_below", "just_above"],
)
def test_tiled_detailed_balance_matches_the_dense_formula(build):
    chain = build()
    assert chain.reversible == _dense_reversible(chain)


def test_near_threshold_chains_fall_on_both_sides():
    base = random_reversible_chain(np.random.default_rng(7), 150)
    assert _unbalanced(base, 3, 140, 0.5).reversible
    assert not _unbalanced(base, 3, 140, 2.0).reversible


def test_detailed_balance_check_holds_no_n_by_n_temporary():
    n = 1024
    chain = random_reversible_chain(np.random.default_rng(8), n)
    fresh = Chain(chain.generator, chain.measure)  # no cached verdict yet
    verdict, peak = traced_peak(lambda: fresh.reversible)
    assert verdict
    # two square tiles of 128 x 128; the whole-matrix formula held 3 n^2
    assert peak <= 0.3 * n * n * 8


def _dense_is_symmetric(m, mu, anti) -> bool:
    """The symmetry test over the whole matrix at once: every off-diagonal
    pair against its own size, max(|d_xy|, |d_yx|)."""
    d = m if mu is None else mu[:, None] * m
    diff = np.abs(d + d.T if anti else d - d.T)
    size = np.maximum(np.abs(d), np.abs(d.T))
    off = ~np.eye(d.shape[0], dtype=bool)
    return bool(np.all(diff[off] <= STRUCTURAL_TOL * size[off]))


def _pair_threshold(m, mu, i, j) -> float:
    """STRUCTURAL_TOL times the size of pair (i, j) of diag(mu) m."""
    w = np.ones(m.shape[0]) if mu is None else mu
    return STRUCTURAL_TOL * max(abs(w[i] * m[i, j]), abs(w[j] * m[j, i]))


@pytest.mark.parametrize("n", [63, 64, 65, 129])
@pytest.mark.parametrize("anti", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("ratio", [0.5, 2.0])
def test_tiled_symmetry_test_matches_the_dense_formula(n, anti, weighted, ratio):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    d = a - a.T if anti else a + a.T
    mu = rng.uniform(0.5, 2.0, n) if weighted else None
    m = d if mu is None else d / mu[:, None]
    # move one entry of the last row tile, mirrored in the first, by
    # ``ratio`` times its pair's threshold
    m[n - 1, 0] += ratio * _pair_threshold(m, mu, n - 1, 0) / (1.0 if mu is None else mu[n - 1])
    verdict = _is_symmetric(m, mu, anti)
    assert verdict == _dense_is_symmetric(m, mu, anti)
    assert verdict == (ratio < 1.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 2 * _SYMMETRY_TILE + 40).filter(lambda n: n % _SYMMETRY_TILE),
    seed=st.integers(0, 2**32 - 1),
    anti=st.booleans(),
    weighted=st.booleans(),
    ratio=st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0]) | st.floats(0.5, 2.0),
    moved=st.integers(1, 4),
)
def test_tiled_symmetry_test_agrees_with_the_whole_matrix(n, seed, anti, weighted, ratio, moved):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    d = a - a.T if anti else a + a.T
    mu = rng.uniform(0.5, 2.0, n) if weighted else None
    m = d if mu is None else d / mu[:, None]
    # move a few entries, anywhere, by about ``ratio`` times their pair's threshold
    for i, j in rng.integers(0, n, (moved, 2)):
        m[i, j] += rng.choice([-1.0, 1.0]) * ratio * _pair_threshold(m, mu, i, j) / (1.0 if mu is None else mu[i])
    assert _is_symmetric(m, mu, anti) == _dense_is_symmetric(m, mu, anti)


@pytest.mark.parametrize("anti", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_symmetry_test_reads_each_pair_alone(anti, weighted):
    # a diagonal 1e6 times the off-diagonal entries takes no part, one weak
    # pair asymmetric by 2x is seen at 1e-20 of the rest, and a diagonal
    # similarity over ten decades moves no verdict
    rng = np.random.default_rng(11)
    n = _SYMMETRY_TILE + 2
    a = rng.uniform(0.5, 1.0, (n, n))
    d = a - a.T if anti else a + a.T
    np.fill_diagonal(d, 1e6)
    weak = d.copy()
    weak[0, n - 1], weak[n - 1, 0] = 2e-20, -1e-20 if anti else 1e-20
    mu = rng.uniform(0.5, 2.0, n) if weighted else None
    scale = 10.0 ** rng.uniform(-5, 5, n)
    for dm, verdict in ((d, True), (weak, False)):
        m = dm if mu is None else dm / mu[:, None]
        assert _is_symmetric(m, mu, anti) is verdict
        assert _is_symmetric(scale[:, None] * m * scale, mu, anti) is verdict
