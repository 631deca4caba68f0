import numpy as np
import pytest

from exitlab import (
    DomainMask,
    ExitImpossibleError,
    SingularSystemError,
    NonReversibleError,
    RecurrentRestrictionError,
    complete_graph,
    dirichlet_pair,
    dual_generator,
    eval_form,
    exit_exp_moment,
    exit_functionals,
    exit_laplace,
    exit_mean,
    solve_poisson,
)
from exitlab._linalg import RefinedCholesky, RefinedLU
from exitlab.poisson import DomainSystem
from conftest import (
    example_cases,
    make_chain,
    mu_dot,
    random_nonsymmetric_chain,
    random_proper_mask,
    random_reversible_chain,
    single_state_chain,
    two_state_killed_chain,
)

UPPER = make_chain([[-3.0, 2.0], [0.0, -3.0]], [1.0, 1.0])
FULL2 = DomainMask.full(2)


def test_single_state_resolvent():
    chain = single_state_chain()
    mask = DomainMask.full(1)
    u = solve_poisson(chain, mask, 1.0, [1.0])
    assert u[0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_two_state_primal_and_dual_solves():
    # oracle: independent 2x2 solves of (I - L) u = 1 and (I - L^T) u = 1
    u_ref = np.linalg.solve(np.eye(2) - UPPER.q, np.ones(2))
    ut_ref = np.linalg.solve(np.eye(2) - UPPER.q.T, np.ones(2))
    u = solve_poisson(UPPER, FULL2, 1.0, np.ones(2), side="primal")
    ut = solve_poisson(UPPER, FULL2, 1.0, np.ones(2), side="dual")
    np.testing.assert_allclose(u, u_ref, atol=1e-14)
    np.testing.assert_allclose(u, [3.0 / 8.0, 1.0 / 4.0], atol=1e-14)
    np.testing.assert_allclose(ut, ut_ref, atol=1e-14)
    np.testing.assert_allclose(ut, [1.0 / 4.0, 3.0 / 8.0], atol=1e-14)
    assert mu_dot(UPPER, u) == pytest.approx(5.0 / 8.0, abs=1e-14)
    assert mu_dot(UPPER, ut) == pytest.approx(5.0 / 8.0, abs=1e-14)


def test_weak_solution_identity(rng):
    for _ in range(5):
        chain = random_nonsymmetric_chain(rng, 9)
        mask = random_proper_mask(rng, 9)
        beta = 1.3
        xi = rng.uniform(0.2, 1.0, mask.size)
        u = solve_poisson(chain, mask, beta, xi)
        u_full = np.zeros(9)
        u_full[mask.indices] = u
        xi_full = np.zeros(9)
        xi_full[mask.indices] = xi
        for _ in range(20):
            f = np.zeros(9)
            f[mask.indices] = rng.standard_normal(mask.size)
            lhs = eval_form(chain, beta, u_full, f)
            rhs = float(np.sum(chain.mu * xi_full * f))
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_primal_dual_pairing_identity(rng):
    for _ in range(5):
        chain = random_nonsymmetric_chain(rng, 8)
        mask = random_proper_mask(rng, 8)
        beta = 0.9
        xi = rng.uniform(0.2, 1.0, mask.size)
        u = solve_poisson(chain, mask, beta, xi)
        ut = solve_poisson(chain, mask, beta, xi, side="dual")
        # the dual comes from the transposed primal factors; pin it against
        # an explicit solve with the restricted dual generator M^{-1} Q^T M
        idx = mask.indices
        dual_d = dual_generator(chain).matrix[np.ix_(idx, idx)]
        ut_ref = np.linalg.solve(beta * np.eye(mask.size) - dual_d, xi)
        np.testing.assert_allclose(ut, ut_ref, rtol=1e-12, atol=0)
        mu_d = chain.mu[mask.indices]
        pair_u = float(np.sum(mu_d * xi * u))
        pair_ut = float(np.sum(mu_d * xi * ut))
        u_full = np.zeros(8)
        u_full[mask.indices] = u
        ut_full = np.zeros(8)
        ut_full[mask.indices] = ut
        form_u_ut = eval_form(chain, beta, u_full, ut_full)
        assert pair_u == pytest.approx(pair_ut, abs=1e-10)
        assert form_u_ut == pytest.approx(pair_u, abs=1e-10)


def test_exit_laplace_values():
    chain = single_state_chain()
    assert exit_laplace(chain, DomainMask.full(1), 1.0)[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
    # symmetric pair with killing: u = (1/3, 1/3) by the 2x2 solve
    lap = exit_laplace(two_state_killed_chain(), FULL2, 1.0)
    np.testing.assert_allclose(lap, [2.0 / 3.0, 2.0 / 3.0], atol=1e-14)


def test_exit_laplace_outside_states_are_one():
    chain = complete_graph(3, 1.0)
    lap = exit_laplace(chain, DomainMask.from_states([0, 1], 3), 1.0)
    assert lap[2] == 1.0


def test_exit_laplace_small_beta_tends_to_one():
    lap = exit_laplace(two_state_killed_chain(), FULL2, 1e-9)
    np.testing.assert_allclose(lap, 1.0, atol=1e-8)


def test_exit_laplace_monotone_in_beta(rng):
    chain = random_nonsymmetric_chain(rng, 7)
    mask = random_proper_mask(rng, 7)
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    laps = [exit_laplace(chain, mask, b) for b in grid]
    for prev, cur in zip(laps, laps[1:]):
        assert np.all(cur <= prev + 1e-12)


def test_exit_mean_values():
    assert exit_mean(single_state_chain(), DomainMask.full(1))[0] == pytest.approx(0.5, abs=1e-14)
    mean = exit_mean(two_state_killed_chain(), FULL2)
    np.testing.assert_allclose(mean, [0.5, 0.5], atol=1e-14)
    mean3 = exit_mean(complete_graph(3, 1.0), DomainMask.from_states([0, 1], 3))
    np.testing.assert_allclose(mean3, [1.0, 1.0, 0.0], atol=1e-14)


def test_exit_mean_rejects_recurrent_restriction():
    # two conservative components; the domain covers one entirely
    q = np.zeros((4, 4))
    q[0, 1] = q[1, 0] = 1.0
    q[2, 3] = q[3, 2] = 1.0
    np.fill_diagonal(q, -q.sum(axis=1))
    chain = make_chain(q, np.ones(4))
    with pytest.raises(RecurrentRestrictionError) as err:
        exit_mean(chain, DomainMask.from_states([0, 1], 4))
    assert err.value.cond_estimate > 1e12


def test_full_domain_on_conservative_chain_rejected():
    chain = complete_graph(3, 1.0)
    with pytest.raises(ExitImpossibleError):
        exit_mean(chain, DomainMask.full(3))
    with pytest.raises(ExitImpossibleError):
        exit_laplace(chain, DomainMask.full(3), 1.0)


def test_exit_exp_moment_values():
    chain = single_state_chain()
    mask = DomainMask.full(1)
    lam0 = dirichlet_pair(chain, mask)[0]
    assert lam0 == pytest.approx(2.0, abs=1e-12)
    assert exit_exp_moment(chain, mask, 1.0, lam0)[0] == pytest.approx(2.0, abs=1e-12)

    pair = two_state_killed_chain()
    lam0 = dirichlet_pair(pair, FULL2)[0]
    assert lam0 == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(exit_exp_moment(pair, FULL2, 1.0, lam0), [2.0, 2.0], atol=1e-12)
    assert np.all(np.isinf(exit_exp_moment(pair, FULL2, 2.0, lam0)))


def test_exit_exp_moment_rejects_non_reversible(rng):
    chain = random_nonsymmetric_chain(rng, 5)
    mask = random_proper_mask(rng, 5)
    with pytest.raises(NonReversibleError):
        exit_exp_moment(chain, mask, 0.5, 1.0)


def test_resolvent_positivity(rng):
    for _ in range(5):
        chain = random_nonsymmetric_chain(rng, 8)
        mask = random_proper_mask(rng, 8)
        xi = rng.uniform(0.1, 1.0, mask.size)
        u = solve_poisson(chain, mask, 0.8, xi)
        assert np.all(u >= -1e-12)


def test_limit_identity_small_beta():
    for name, chain, mask in example_cases():
        mean_pi = mu_dot(chain, exit_mean(chain, mask))
        lap_pi = mu_dot(chain, exit_laplace(chain, mask, 1e-6))
        total = chain.mu.sum()
        approx = (total - lap_pi) / 1e-6
        assert approx == pytest.approx(mean_pi, rel=1e-4), name


def test_exit_functionals_container():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    lam0 = dirichlet_pair(chain, mask)[0]
    fns = exit_functionals(chain, mask, 0.5, lambda0=lam0)
    np.testing.assert_allclose(fns.u_beta, (1.0 - fns.laplace) / 0.5, atol=1e-14)
    assert np.all((fns.laplace >= 0) & (fns.laplace <= 1))
    assert np.all(fns.mean >= 0)
    assert np.all(fns.exp_moment[np.isfinite(fns.exp_moment)] >= 1.0)
    assert fns.aggregate_mu == pytest.approx(mu_dot(chain, fns.u_beta), abs=1e-14)
    doc = fns.to_dict(labels=chain.state_labels())
    assert len(doc["laplace"]) == 3
    csv_text = fns.to_csv(labels=chain.state_labels())
    assert csv_text.splitlines()[0] == "state,laplace,mean,exp_moment"
    assert len(csv_text.splitlines()) == 4


def test_exit_functionals_infinite_moment_serializes():
    chain = two_state_killed_chain()
    fns = exit_functionals(chain, FULL2, 3.0, lambda0=2.0)
    assert np.all(np.isinf(fns.exp_moment))
    assert "inf" in fns.to_csv()
    assert fns.to_dict()["exp_moment"] == ["inf", "inf"]


def test_exit_functionals_identity_holds_at_tiny_beta():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    fns = exit_functionals(chain, mask, 1e-6)
    np.testing.assert_array_equal(fns.u_beta, (1.0 - fns.laplace) / 1e-6)
    # at vanishing shift the aggregate approaches the mean
    assert fns.aggregate_mu == pytest.approx(2.0 / 3.0, rel=1e-4)


def test_solve_poisson_singular_at_resolvent_pole():
    # -L has eigenvalues {2, 4}; the shifted restriction is singular at -2
    chain = two_state_killed_chain()
    with pytest.raises(SingularSystemError) as err:
        solve_poisson(chain, FULL2, -2.0, np.ones(2))
    assert err.value.cond_estimate > 1e12


def test_solve_poisson_rejects_bad_source_length():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    with pytest.raises(ValueError):
        solve_poisson(chain, mask, 1.0, np.ones(5))
    # full-length sources must vanish outside the domain
    with pytest.raises(ValueError):
        solve_poisson(chain, mask, 1.0, np.ones(3))


def _lu_route(system, shift, xi_d):
    """The restricted solves through a general LU of shift*I - Q_D."""
    lu = RefinedLU(shift * np.eye(system.mask.size) - system.q_d)
    return lu.solve(xi_d), lu.solve(system.mu_d * xi_d, trans=True) / system.mu_d


def _rel(x, ref) -> float:
    return float(np.abs(x - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("n", [50, 400])
@pytest.mark.parametrize("fraction", [0.0, 0.5, 2.0, -0.9])
def test_cholesky_route_matches_the_lu_route(n, fraction):
    rng = np.random.default_rng(n)
    chain = random_reversible_chain(rng, n)
    assert np.ptp(chain.mu) > 0.5 * chain.mu.max()  # a non-uniform measure
    mask = DomainMask.from_states(rng.permutation(n)[: 2 * n // 3], n)
    system = DomainSystem(chain, mask)
    # shifts 0, 0.5 and 2, and -0.9*lambda0
    shift = fraction * system.dirichlet.lambda0 if fraction < 0 else fraction
    assert isinstance(system._factor(shift), RefinedCholesky)
    xi_d = rng.uniform(0.2, 1.0, mask.size)
    u, ut = system.solve(shift, xi_d, ("primal", "dual"))
    u_lu, ut_lu = _lu_route(system, shift, xi_d)
    assert _rel(u, u_lu) <= 1e-12
    assert _rel(ut, ut_lu) <= 1e-12


def test_shift_below_minus_lambda0_falls_back_to_lu():
    rng = np.random.default_rng(7)
    chain = random_reversible_chain(rng, 50)
    mask = DomainMask.from_states(range(30), 50)
    system = DomainSystem(chain, mask)
    lam = np.linalg.eigvalsh(system.sym_d)
    shift = -(lam[0] + lam[1]) / 2.0  # below -lambda0, between two eigenvalues
    assert isinstance(system._factor(shift), RefinedLU)
    xi_d = rng.uniform(0.2, 1.0, mask.size)
    u, ut = system.solve(shift, xi_d, ("primal", "dual"))
    u_lu, ut_lu = _lu_route(system, shift, xi_d)
    np.testing.assert_array_equal(u, u_lu)
    np.testing.assert_array_equal(ut, ut_lu)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrices_are_rejected(bad):
    a = np.eye(3) * 2.0
    a[1, 2] = bad
    with pytest.raises(SingularSystemError):
        RefinedLU(a)
    # a reversible restricted system tries Cholesky first, then falls back
    q_d = -a
    system = DomainSystem.from_restricted(DomainMask.full(3), q_d, np.ones(3))
    with pytest.raises(SingularSystemError):
        system.solve(1.0, np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("reversible", [True, False])
@pytest.mark.parametrize("side", ["primal", "dual"])
def test_non_finite_source_is_rejected(bad, reversible, side):
    rng = np.random.default_rng(3)
    chain = (random_reversible_chain if reversible else random_nonsymmetric_chain)(rng, 6)
    mask = DomainMask.full(6)
    assert isinstance(DomainSystem(chain, mask)._factor(0.5), RefinedCholesky if reversible else RefinedLU)
    xi = np.ones(6)
    xi[2] = bad
    with pytest.raises(ValueError, match="finite"):
        solve_poisson(chain, mask, 0.5, xi, side=side)
