import csv
import io

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from exitlab import (
    DomainMask,
    GridModelSpec,
    McConfig,
    SingularSystemError,
    RecurrentRestrictionError,
    antisym_perturb,
    birth_death,
    bounds_report,
    complete_graph,
    cycle_flow,
    dirichlet_pair,
    discretize_jump_diffusion,
    dual_generator,
    eval_form,
    exit_exp_moment,
    exit_functionals,
    exit_laplace,
    exit_mean,
    exp_moment_inf,
    grid_points,
    lyapunov_delta,
    saddle_value,
    simulate_exit_times,
    solve_poisson,
    symmetric_inf,
)
from exitlab._linalg import RefinedCholesky, RefinedLU, RefinedSPD
from exitlab.forms import _symmetrized
import exitlab.poisson
from exitlab.poisson import DomainSystem
from conftest import (
    chain_of,
    example_cases,
    make_chain,
    mu_dot,
    random_nonsymmetric_chain,
    random_proper_mask,
    random_reversible_chain,
    single_state_chain,
    traced_peak,
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


@pytest.mark.parametrize("n, s, seed", [(60, 10, 1), (60, 10, 2), (80, 14, 1)])
def test_ill_conditioned_chain_that_exits_surely_is_not_called_recurrent(n, s, seed):
    # every inside state reaches an end of the domain, so exit is almost
    # sure; the solve's gate fails on the condition number alone
    with pytest.raises(SingularSystemError) as err:
        exit_mean(chain_of(n, s, seed), DomainMask.from_states(range(1, n - 1), n))
    assert not isinstance(err.value, RecurrentRestrictionError)
    assert "condition estimate" in str(err.value) and "almost sure" not in str(err.value)


def test_one_way_edge_into_a_closed_class_is_recurrent():
    # state 0 exits, but state 1 only feeds state 2, which cannot leave
    q = np.array([[-2.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
    system = DomainSystem(make_chain(q, np.ones(3)), DomainMask.full(3))
    assert not system.exits_surely()
    assert DomainSystem(make_chain(q, np.ones(3)), DomainMask.from_states([0, 1], 3)).exits_surely()


@pytest.mark.parametrize("states", [[0.5, 2.9], [True], [1, True], np.array([True, False]), ["1"]])
def test_domain_states_must_be_integers(states):
    # a float or a bool was cast to an index: [0.5, 2.9] gave {0, 2}, [True] gave {1}
    with pytest.raises(ValueError, match="integer indices"):
        DomainMask.from_states(states, 4)


@pytest.mark.parametrize("inside", [np.array([0, 2, 3, 1]), [0.5, 0.0, 2.0, 0.0]])
def test_domain_indicator_must_be_boolean(inside):
    # a non-boolean indicator was cast to truth values: [0, 2, 3, 1] gave
    # {1, 2, 3} and [0.5, 0.0, 2.0, 0.0] gave {0, 2}
    with pytest.raises(ValueError, match="from_states"):
        DomainMask(inside)


def test_domain_states_of_any_integer_kind():
    for states in ([3, 1], range(1, 4, 2), np.array([1, 3], dtype=np.int32), [np.int64(3), 1]):
        assert DomainMask.from_states(states, 4).indices.tolist() == [1, 3]
    with pytest.raises(ValueError, match="at least one state"):
        DomainMask.from_states([], 4)


# every entry point that takes a chain and a mask, on complete_graph(4, 1.0)
# with D = {0, 1}
MASKED_CALLS = {
    "solve_poisson": lambda chain, mask: solve_poisson(chain, mask, 0.5, [1.0, 1.0]),
    "exit_laplace": lambda chain, mask: exit_laplace(chain, mask, 0.5),
    "exit_mean": exit_mean,
    "exit_exp_moment": lambda chain, mask: exit_exp_moment(chain, mask, 0.5),
    "exit_functionals": lambda chain, mask: exit_functionals(chain, mask, 0.5),
    "dirichlet_pair": dirichlet_pair,
    "saddle_value": lambda chain, mask: saddle_value(chain, mask, 0.5, [1.0, 1.0]),
    "symmetric_inf": lambda chain, mask: symmetric_inf(chain, mask, 0.5, [1.0, 1.0]),
    "exp_moment_inf": lambda chain, mask: exp_moment_inf(chain, mask, 0.5),
    "bounds_report": lambda chain, mask: bounds_report(chain, mask, [0.5]),
    "lyapunov_delta": lambda chain, mask: lyapunov_delta(chain, mask, [1.0, 1.0, 0.0, 0.0]),
    "simulate_exit_times": lambda chain, mask: simulate_exit_times(chain, mask, McConfig(n_paths=10, seed=1, start=0)),
}


@pytest.mark.parametrize("n_mask", [3, 6])
@pytest.mark.parametrize("name", list(MASKED_CALLS))
def test_a_mask_must_have_the_chains_length(name, n_mask):
    chain, mask = complete_graph(4, 1.0), DomainMask.from_states([0, 1], n_mask)
    with pytest.raises(ValueError, match=f"domain mask has length {n_mask}, but the chain has 4 states"):
        MASKED_CALLS[name](chain, mask)


def test_full_domain_on_conservative_chain_never_exits():
    # a closed domain like any other: the Laplace transform is 0, the
    # exponential moment infinite (lambda0 = 0), and the mean does not exist
    chain = complete_graph(3, 1.0)
    full = DomainMask.full(3)
    assert np.all(exit_laplace(chain, full, 1.0) <= 4 * np.finfo(float).eps)
    assert np.all(exit_exp_moment(chain, full, 0.5) == np.inf)
    with pytest.raises(RecurrentRestrictionError, match="exit from the domain is not almost sure"):
        exit_mean(chain, full)


def test_exit_exp_moment_values():
    chain = single_state_chain()
    mask = DomainMask.full(1)
    lam0 = dirichlet_pair(chain, mask)[0]
    assert lam0 == pytest.approx(2.0, abs=1e-12)
    assert exit_exp_moment(chain, mask, 1.0)[0] == pytest.approx(2.0, abs=1e-12)

    pair = two_state_killed_chain()
    lam0 = dirichlet_pair(pair, FULL2)[0]
    assert lam0 == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(exit_exp_moment(pair, FULL2, 1.0), [2.0, 2.0], atol=1e-12)
    assert np.all(np.isinf(exit_exp_moment(pair, FULL2, 2.0)))


def _dense_moment(q_d: np.ndarray, beta: float) -> np.ndarray:
    """1 + beta*u for (-beta*I - Q_D) u = 1, by numpy.linalg.solve."""
    return 1.0 + beta * np.linalg.solve(-beta * np.eye(q_d.shape[0]) - q_d, np.ones(q_d.shape[0]))


def test_exit_exp_moment_of_a_non_reversible_chain_matches_a_dense_solve(rng):
    cases = [(random_nonsymmetric_chain(rng, 8), random_proper_mask(rng, 8)) for _ in range(5)]
    # a flow ring, far from reversible: on states 0-7 the Perron root of -Q_D
    # is 1.7349, and its symmetrized part's lambda0, 0.1206, is no edge
    ring, ring_mask = antisym_perturb(*cycle_flow(12), 0.99), DomainMask.from_states(range(8), 12)
    cases.append((ring, ring_mask))
    for chain, mask in cases:
        assert not chain.reversible
        system = DomainSystem(chain, mask)
        q_d, edge = system.q_d, _edge(system)
        for beta in (0.5 * edge, 0.99 * edge) + ((0.9277,) if chain is ring else ()):
            moment = exit_exp_moment(chain, mask, beta)
            assert np.isfinite(moment).all() and (moment >= 1.0).all()
            assert _rel(moment[mask.indices], _dense_moment(q_d, beta)) <= 1e-12
            np.testing.assert_array_equal(moment[~mask.inside], 1.0)
        assert np.isinf(exit_exp_moment(chain, mask, 1.01 * edge)[mask.indices]).all()
    ring_system = DomainSystem(ring, ring_mask)
    assert _edge(ring_system) == pytest.approx(1.7349, abs=1e-4)
    assert np.linalg.eigvalsh(_symmetrized(ring_system.q_d, ring_system.mu_d))[0] == pytest.approx(0.1206, abs=1e-4)
    assert 150.0 < exit_exp_moment(ring, ring_mask, 0.9277).max() < 160.0


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
    fns = exit_functionals(chain, mask, 0.5)
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


def test_exit_functionals_make_no_eigensolve(monkeypatch):
    # the factor at -beta certifies the moment's edge, so neither a moment
    # below lambda0 nor one past it reads a Dirichlet eigensolve
    rng = np.random.default_rng(30)
    chain, mask = random_reversible_chain(rng, 30), DomainMask.from_states(range(20), 30)
    lam0 = dirichlet_pair(chain, mask)[0]

    def forbidden(*args, **kwargs):
        raise AssertionError("exit_functionals made an eigensolve")

    for name in ("eigh", "eigh_tridiagonal", "eigvalsh_tridiagonal"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    below, past = exit_functionals(chain, mask, 0.5 * lam0), exit_functionals(chain, mask, 2.0 * lam0)
    assert np.isfinite(below.exp_moment).all() and np.isinf(past.exp_moment[mask.inside]).all()


def test_exit_functionals_infinite_moment_serializes():
    chain = two_state_killed_chain()
    fns = exit_functionals(chain, FULL2, 3.0)
    assert np.all(np.isinf(fns.exp_moment))
    assert "inf" in fns.to_csv()
    assert fns.to_dict()["exp_moment"] == ["inf", "inf"]


def _csv_row_by_row(fns, labels=None) -> str:
    """``ExitFunctionals.to_csv`` as one ``writerow`` per state."""
    n = fns.laplace.shape[0]
    names = list(labels) if labels is not None else [str(i) for i in range(n)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["state", "laplace", "mean", "exp_moment"])
    for i in range(n):
        x = fns.exp_moment[i]
        exp_cell = "inf" if np.isinf(x) else repr(float(x))
        writer.writerow([names[i], repr(float(fns.laplace[i])), repr(float(fns.mean[i])), exp_cell])
    return buf.getvalue()


def test_functionals_csv_equals_the_row_by_row_writer():
    spec = GridModelSpec(dimension=2, domain_box=((0.0, 1.0), (0.0, 1.0)), mesh_h=0.25, epsilon=0.0)
    chain = discretize_jump_diffusion(spec)
    mask = DomainMask(chain.mu > 0)
    labels = chain.state_labels()
    assert "," in labels[0]  # "(x,y)" labels are quoted
    lam0 = dirichlet_pair(chain, mask)[0]
    for beta in (0.5, 0.5 * lam0, 2.0 * lam0):
        fns = exit_functionals(chain, mask, beta)
        for names in (labels, None):
            assert fns.to_csv(labels=names) == _csv_row_by_row(fns, names)
    assert np.isinf(fns.exp_moment).all()
    assert fns.to_csv().splitlines()[1].endswith(",inf")
    # a drift grid is not reversible; its moments below the Perron root
    # 10.57 are finite, and past it infinite, like any other chain's
    drift = discretize_jump_diffusion(
        GridModelSpec(dimension=1, domain_box=((0.0, 1.0),), mesh_h=0.125, b=(1.0,), k=1.0)
    )
    assert not drift.reversible
    for beta in (0.5, 11.0):
        fns = exit_functionals(drift, DomainMask.full(drift.n_states), beta)
        for names in (drift.state_labels(), None):
            assert fns.to_csv(labels=names) == _csv_row_by_row(fns, names)
        cells = [float(line.rsplit(",", 1)[1]) for line in fns.to_csv().splitlines()[1:]]
        assert all(1.0 < x < np.inf for x in cells) if beta < 10.57 else cells == [np.inf] * drift.n_states


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


@pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
@pytest.mark.parametrize("check", ["xi", "varphi"])
def test_vanishing_outside_is_judged_at_the_vectors_own_scale(check, c):
    # an outside entry at 1e-3 of the scale is data, one at 1e-15 rounding
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    judge = {
        "xi": lambda v: solve_poisson(chain, mask, 1.0, v),
        "varphi": lambda v: lyapunov_delta(chain, mask, v),
    }[check]
    with pytest.raises(ValueError, match="vanish outside the domain"):
        judge(c * np.array([1.0, 1.0, 1e-3]))
    judge(c * np.array([1.0, 1.0, 1e-15]))


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


@pytest.mark.parametrize("reversible", [True, False])
def test_a_shift_below_minus_lambda0_is_refused_with_no_certificate(monkeypatch, reversible):
    # past -lambda0 shift*I - Q_D is no M-matrix: a Cholesky fails, and an LU
    # solves, but a^{-T} 1 has an entry <= 0; a failed Cholesky tries no LU
    rng = np.random.default_rng(7)
    chain = (random_reversible_chain if reversible else random_nonsymmetric_chain)(rng, 50)
    system = DomainSystem(chain, DomainMask.from_states(range(30), 50))
    if reversible:
        monkeypatch.setattr(exitlab.poisson, "RefinedLU", None)
    lam = np.sort(np.linalg.eigvals(-system.q_d).real)
    shift = -(lam[0] + lam[1]) / 2.0  # below -lambda0, between two eigenvalues
    with pytest.raises(SingularSystemError, match="beta=-") as err:
        system._factor(shift)
    assert err.value.edge_gap == 0.0 and err.value.cond_estimate == np.inf
    with pytest.raises(SingularSystemError):
        system.solve(shift, np.ones(30))


def test_a_weak_certificate_below_the_edge_is_raised_not_read_as_infinite():
    # lambda0 is 8.9e-11, and at (1 - 1e-6) * lambda0 the restriction's
    # condition is near 1e16: the Cholesky factor certifies an M-matrix, but
    # too weakly to solve, and its bound lambda0 <= beta + edge_gap lies far
    # above beta, so the moment can be certified neither finite nor infinite
    n = 40
    chain, mask = chain_of(n, 6, 1), DomainMask.from_states(range(1, n - 1), n)
    lam0 = dirichlet_pair(chain, mask)[0]
    with pytest.raises(SingularSystemError) as err:
        exit_exp_moment(chain, mask, (1.0 - 1e-6) * lam0)
    assert err.value.edge_gap > 1e-3 * lam0


def _restricted_cholesky_inputs(n=600, m=400):
    rng = np.random.default_rng(12)
    chain = random_reversible_chain(rng, n, killing=True)
    system = DomainSystem(chain, DomainMask.from_states(rng.permutation(n)[:m], n))
    return system.sym_d, np.sqrt(system.mu_d), system.q_d


@pytest.mark.parametrize("shift", [0.0, 0.5, -0.05])
def test_restricted_cholesky_norms_are_those_of_the_shifted_matrix(shift):
    sym, root, q_d = _restricted_cholesky_inputs()
    factors = RefinedCholesky(sym, shift, root, q_d)
    a = shift * np.eye(q_d.shape[0]) - q_d
    np.testing.assert_allclose(factors._anorm(False), np.linalg.norm(a, 1), rtol=1e-13)
    np.testing.assert_allclose(factors._anorm(True), np.linalg.norm(a, np.inf), rtol=1e-13)


def test_restricted_cholesky_holds_no_buffer_besides_its_factor():
    sym, root, q_d = _restricted_cholesky_inputs()
    m = q_d.shape[0]
    _, peak = traced_peak(lambda: RefinedCholesky(sym, 0.5, root, q_d))
    # the factor is m^2 doubles; a buffer of |q| beside it read 2 m^2, and a
    # boolean finiteness mask of the factor 1.125 m^2
    assert peak <= 1.05 * m * m * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrices_are_rejected(bad):
    a = np.eye(3) * 2.0
    a[1, 2] = bad
    with pytest.raises(SingularSystemError):
        RefinedLU(a)
    # nor does a reversible restricted system's Cholesky certify it
    q_d = -a
    system = DomainSystem.from_restricted(DomainMask.full(3), q_d, np.ones(3), reversible=True)
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


def test_refined_spd_names_its_context_and_condition():
    with pytest.raises(SingularSystemError, match="outer saddle") as err:
        RefinedSPD(np.diag([1.0, -1.0]), -1.0, "outer saddle")
    assert err.value.cond_estimate == np.inf
    with pytest.raises(SingularSystemError, match="inner saddle") as err:
        RefinedSPD(np.diag([1.0, 1e-17]), 1e-17, "inner saddle")
    assert 1e14 < err.value.cond_estimate < np.inf
    with pytest.raises(SingularSystemError):
        RefinedSPD(np.array([[2.0, np.nan], [np.nan, 2.0]]), 1.0)


def test_refined_spd_solves_on_a_view_without_changing_it():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((9, 9))
    whole = x @ x.T + 9.0 * np.eye(9)
    before = whole.copy()
    block = whole[1:, 1:]
    spd = RefinedSPD(block, np.linalg.eigvalsh(block)[0])
    b = rng.standard_normal(8)
    y = spd.solve(b)
    np.testing.assert_array_equal(whole, before)
    assert np.abs(block @ y - b).max() <= 1e-14 * np.abs(b).max()
    lower = np.linalg.cholesky(block)
    rhs = rng.standard_normal((8, 3))
    x = spd.lower_solve(rhs.copy())
    np.testing.assert_allclose(lower @ x, rhs, rtol=0.0, atol=1e-13)
    assert 1.0 <= spd.cond < 1e3


@pytest.mark.parametrize(
    "spec",
    [
        GridModelSpec(2, ((0.0, 1.0), (0.0, 1.0)), 0.125, alpha=1.0, kappa=1.0, epsilon=1.0),
        GridModelSpec(1, ((0.0, 1.0),), 1 / 64, kappa=1.0, epsilon=0.0),  # banded and tridiagonal
    ],
)
def test_a_uniform_measure_grid_system_keeps_no_symmetrized_copy(spec):
    chain = discretize_jump_diffusion(spec)
    mask = DomainMask.from_states(range(5, chain.n_states - 7), chain.n_states)
    system = DomainSystem(chain, mask)
    answers = [system.laplace(0.5), system.mean(), system.exp_moment(0.5), *system.dirichlet[:2]]
    assert vars(system)["sym_d"] is None
    # the same bits as the route through M^{1/2}(-Q_D)M^{-1/2}, made and kept
    ref = DomainSystem(chain, mask)
    ref.__dict__["sym_d"] = _symmetrized(ref.q_d, ref.mu_d)
    expected = [ref.laplace(0.5), ref.mean(), ref.exp_moment(0.5), *ref.dirichlet[:2]]
    for got, want in zip(answers, expected):
        np.testing.assert_array_equal(got, want)
    assert system._factor(0.5).cond == ref._factor(0.5).cond
    assert system.sym_bandwidth == ref.sym_bandwidth


def _mirror_chain(seed: int, m: int, reversible: bool):
    """A chain on m states, with killing, whose generator and measure are
    exactly invariant under the mirror i -> m-1-i: a random one averaged with
    its reflection. The average keeps detailed balance, since the measure is
    invariant before it."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.5, 2.0, m)
    mu = (mu + mu[::-1]) / 2.0
    c = rng.uniform(0.2, 1.0, (m, m)) * (rng.random((m, m)) < 0.7)
    if reversible:
        q = (c + c.T) / mu[:, None]
    else:
        q = c / mu[:, None]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1) - rng.uniform(0.1, 0.6, m))
    return make_chain((q + q[::-1, ::-1]) / 2.0, mu)


def _edge(system: DomainSystem) -> float:
    """The bottom of the real parts of the spectrum of -Q_D, by a dense eigensolve."""
    return float(np.linalg.eigvals(-system.q_d).real.min())


def _functionals(system: DomainSystem, beta: float) -> list:
    """Laplace, the mean, the resolvent of 1 at minus half the edge and the
    exponential moment there."""
    below = 0.5 * _edge(system)
    return [system.laplace(beta), system.mean(), system.resolvent_one(-below), system.exp_moment(below)]


def _from_solves(system: DomainSystem, beta: float) -> list:
    """What ``_functionals`` reads, from full-size solves of (s*I - Q_D) u = 1."""
    ones, below = np.ones(system.mask.size), 0.5 * _edge(system)
    (lap,) = system.solve(beta, ones)
    (mean,) = system.solve(0.0, ones)
    (u,) = system.solve(-below, ones)
    return [np.clip(1.0 - beta * lap, 0.0, 1.0), np.maximum(mean, 0.0), u, 1.0 + below * u]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 17),
    reversible=st.booleans(),
    beta=st.sampled_from([1e-3, 0.5, 4.0]),
    broken=st.sampled_from(["q", "mu"]),
)
def test_a_mirror_invariant_system_solves_on_its_lumped_half(seed, m, reversible, beta, broken):
    reversible = reversible or m == 2  # a mirror-invariant pair is symmetric
    chain = _mirror_chain(seed, m, reversible)
    assert chain.reversible is reversible  # the Cholesky route, or LU
    system = DomainSystem(chain, DomainMask.full(m))
    lumped = system.lumped
    assert lumped is not None and lumped.mask.size == (m + 1) // 2
    for x, ref in zip(_functionals(system, beta), _from_solves(system, beta), strict=True):
        assert _rel(x, ref) <= 1e-12
        np.testing.assert_array_equal(x, x[::-1])
    # one ulp off the mirror, in Q_D or mu_D, and every solve is full-size
    q, mu = chain.q.copy(), chain.mu.copy()
    if broken == "q":
        j = np.random.default_rng(seed).integers(m)
        q[0, j] = np.nextafter(q[0, j], np.inf)
    else:
        mu[0] = np.nextafter(mu[0], np.inf)
    off = DomainSystem(make_chain(q, mu), DomainMask.full(m))
    assert off.lumped is None
    for x, ref in zip(_functionals(off, beta), _from_solves(off, beta)):
        np.testing.assert_array_equal(x, ref)


def _factored_sizes(monkeypatch) -> list:
    """The order of every matrix that ``RefinedCholesky`` or ``RefinedLU``
    factors through ``exitlab.poisson`` from now on, tagged by route."""
    sizes = []

    def counting(cls, name):
        def factor(a, *args):
            # a restricted Cholesky is given sym = None and q = args[2] on a grid
            sizes.append((name, (a if a is not None else args[2]).shape[0]))
            return cls(a, *args)

        return factor

    monkeypatch.setattr(exitlab.poisson, "RefinedCholesky", counting(RefinedCholesky, "cholesky"))
    monkeypatch.setattr(exitlab.poisson, "RefinedLU", counting(RefinedLU, "lu"))
    return sizes


def test_a_complete_graph_lumps_again_at_each_level(monkeypatch):
    # D = 8 of 9 states: every state leaves D at rate 1, so the mean is 1
    system = DomainSystem(complete_graph(9, 1.0), DomainMask.from_states(range(8), 9))
    sizes = _factored_sizes(monkeypatch)
    np.testing.assert_allclose(system.mean()[:8], 1.0, rtol=1e-15)
    np.testing.assert_allclose(system.laplace(0.5)[:8], 1.0 / 1.5, rtol=1e-15)
    assert sizes == [("cholesky", 1), ("cholesky", 1)]
    level, orders = system, []
    while level is not None:
        orders.append(level.mask.size)
        level = level.lumped
    assert orders == [8, 4, 2, 1]


def test_two_mirror_image_closed_classes_are_still_recurrent():
    q = np.zeros((6, 6))
    q[0, 1] = q[1, 0] = q[1, 2] = q[2, 1] = 1.0
    q[5, 4] = q[4, 5] = q[4, 3] = q[3, 4] = 1.0
    np.fill_diagonal(q, -q.sum(axis=1))
    system = DomainSystem(make_chain(q, np.ones(6)), DomainMask.full(6))
    assert system.lumped is not None
    with pytest.raises(RecurrentRestrictionError, match="exit from the domain is not almost sure"):
        system.mean()


@pytest.mark.parametrize("reversible", [True, False])
def test_a_lumped_system_refuses_past_the_edge_as_the_full_block_does(reversible):
    # the fold F has the Perron root of Q_D: its certificate fails where the
    # full block's does, and on two mirror-image closed classes (lambda0 = 0)
    # at every beta
    chain = _mirror_chain(3, 9, reversible)
    system = DomainSystem(chain, DomainMask.full(9))
    edge = _edge(system)
    assert system.lumped is not None and _edge(system.lumped) == pytest.approx(edge, rel=1e-12)
    for beta in (1.01 * edge, 2.0 * edge):
        assert np.isinf(system.exp_moment(beta)).all()
        with pytest.raises(SingularSystemError) as err:
            system.solve(-beta, np.ones(9))
        assert err.value.edge_gap == 0.0
    q = np.zeros((6, 6))
    q[0, 1] = q[1, 0] = q[1, 2] = q[2, 1] = 1.0
    q[5, 4] = q[4, 5] = q[4, 3] = q[3, 4] = 1.0
    np.fill_diagonal(q, -q.sum(axis=1))
    closed = DomainSystem(make_chain(q, np.ones(6)), DomainMask.full(6))
    assert closed.lumped is not None and np.isinf(closed.exp_moment(1e-3)).all()


def test_a_single_state_block_is_not_lumped():
    system = DomainSystem(single_state_chain(), DomainMask.full(1))
    assert system.lumped is None
    np.testing.assert_array_equal(system.mean(), system.solve(0.0, np.ones(1))[0])
    assert system.mean()[0] == pytest.approx(0.5, rel=1e-15)


def _box_mask(spec, box) -> DomainMask:
    pts = grid_points(spec)
    inside = np.ones(pts.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        inside &= (pts[:, axis] > lo) & (pts[:, axis] < hi)
    return DomainMask(inside)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize(
    "grid, box",
    [
        ((1, ((0.0, 1.0),), 1 / 32), [(0.2, 0.8)]),  # 19 states
        ((1, ((0.0, 1.0),), 1 / 32), [(0.1, 0.6)]),  # 16 states
        ((2, ((-1.0, 1.0), (-1.0, 1.0)), 0.125), [(-0.6, 0.9), (-0.3, 0.3)]),  # 12 x 5
        ((2, ((0.0, 1.0), (0.0, 1.0)), 0.125), [(0.1, 0.9), (0.3, 0.9)]),  # 7 x 5
    ],
)
def test_exit_functionals_of_a_box_domain_factor_half_the_block(monkeypatch, alpha, grid, box):
    spec = GridModelSpec(*grid, alpha=alpha, kappa=1.0, epsilon=1.0)
    chain = discretize_jump_diffusion(spec)
    mask = _box_mask(spec, box)
    system = DomainSystem(chain, mask)
    lam0 = system.dirichlet.lambda0
    sizes = _factored_sizes(monkeypatch)
    system.laplace(0.5), system.mean(), system.exp_moment(0.5 * lam0)
    assert sizes == [("cholesky", (mask.size + 1) // 2)] * 3


def _l_shaped():
    """The states of a 9 x 9 grid in the two arms of an L, three wide."""
    ij = np.indices((9, 9)).reshape(2, -1)
    return np.flatnonzero(((ij[0] < 3) | (ij[1] < 3)) & (ij[0] > 0) & (ij[1] > 0))


@pytest.mark.parametrize(
    "case",
    ["l-shaped list", "callable a", "random birth-death"],
)
def test_exit_functionals_without_a_mirror_factor_the_whole_block(monkeypatch, case):
    if case == "random birth-death":
        chain = birth_death(*np.random.default_rng(5).uniform(0.5, 2.0, (2, 39)))
        mask = DomainMask.from_states(range(1, 39), 40)
    else:
        a = 1.0 if case == "l-shaped list" else (lambda x, y: 1.0 + 0.5 * x**2)
        spec = GridModelSpec(2, ((0.0, 1.0), (0.0, 1.0)), 0.1, a=a, kappa=1.0, epsilon=1.0)
        chain = discretize_jump_diffusion(spec)
        if case == "l-shaped list":
            mask = DomainMask.from_states(_l_shaped(), chain.n_states)
        else:
            mask = _box_mask(spec, [(0.1, 0.9), (0.1, 0.9)])
    system = DomainSystem(chain, mask)
    lam0 = system.dirichlet.lambda0
    sizes = _factored_sizes(monkeypatch)
    system.laplace(0.5), system.mean(), system.exp_moment(0.5 * lam0)
    assert system.lumped is None
    assert sizes == [("cholesky", mask.size)] * 3
