import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exitlab import (
    DegenerateSourceError,
    DomainMask,
    GridModelSpec,
    Measure,
    NonReversibleError,
    SingularSystemError,
    antisym_perturb,
    birth_death,
    complete_graph,
    construct_optimizers,
    dirichlet_pair,
    discretize_jump_diffusion,
    eval_form,
    exit_exp_moment,
    exit_laplace,
    exp_moment_inf,
    flow_from_cycles,
    saddle_value,
    solve_poisson,
    symmetric_inf,
    weighted_graph,
)
from exitlab._linalg import RefinedSPD
from exitlab.cli import _agree
from exitlab.defaults import SADDLE_CHECK_DIRECTIONS, SADDLE_CHECK_SEED
from exitlab.forms import form_matrix
from exitlab.poisson import DomainSystem
from exitlab.variational import _sampled_saddle_check, closed_form_route, nested_route, saddle_form, symmetric_route
from conftest import (
    chain_of,
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


def test_construct_optimizers_worked_example():
    u = np.array([3.0 / 8.0, 1.0 / 4.0])
    ut = np.array([1.0 / 4.0, 3.0 / 8.0])
    f_star, g_star = construct_optimizers(u, ut, np.ones(2), Measure(np.ones(2)))
    np.testing.assert_allclose(f_star, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(g_star, [0.1, -0.1], atol=1e-15)
    assert float(np.sum(g_star)) == pytest.approx(0.0, abs=1e-15)


def test_construct_optimizers_symmetric_collapses_dual(rng):
    chain = random_reversible_chain(rng, 5)
    mask = random_proper_mask(rng, 5)
    xi = rng.uniform(0.3, 1.0, mask.size)
    u = solve_poisson(chain, mask, 1.0, xi)
    ut = solve_poisson(chain, mask, 1.0, xi, side="dual")
    u_full = np.zeros(5)
    u_full[mask.indices] = u
    ut_full = np.zeros(5)
    ut_full[mask.indices] = ut
    xi_full = np.zeros(5)
    xi_full[mask.indices] = xi
    f_star, g_star = construct_optimizers(u_full, ut_full, xi_full, chain.measure)
    np.testing.assert_allclose(g_star, 0.0, atol=1e-12)
    assert float(np.sum(chain.mu * xi_full * f_star)) == pytest.approx(1.0, abs=1e-12)


def test_construct_optimizers_rejects_degenerate_source():
    with pytest.raises(DegenerateSourceError):
        construct_optimizers(
            np.array([1.0, -1.0]), np.array([1.0, -1.0]), np.ones(2), Measure(np.ones(2))
        )


def test_saddle_value_single_state():
    chain = single_state_chain()
    sol = saddle_value(chain, DomainMask.full(1), 1.0, np.ones(1))
    assert sol.value == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("mode", ["closed_form", "iterative"])
def test_saddle_value_worked_example(mode):
    sol = saddle_value(UPPER, FULL2, 1.0, np.ones(2), mode=mode)
    assert sol.value == pytest.approx(8.0 / 5.0, abs=1e-12)
    np.testing.assert_allclose(sol.f_star, [0.5, 0.5], atol=1e-10)
    np.testing.assert_allclose(sol.g_star, [0.1, -0.1], atol=1e-10)
    assert sol.method == mode
    assert sol.residuals["constraint_f"] <= 1e-10
    assert sol.residuals["constraint_g"] <= 1e-10


def test_modes_agree_on_random_chains(rng):
    for _ in range(20):
        n = int(rng.integers(3, 31))
        chain = random_nonsymmetric_chain(rng, n)
        mask = random_proper_mask(rng, n)
        xi = rng.uniform(0.2, 1.0, mask.size)
        closed = saddle_value(chain, mask, 1.0, xi, mode="closed_form")
        iterative = saddle_value(chain, mask, 1.0, xi, mode="iterative")
        assert closed.value == pytest.approx(iterative.value, rel=1e-9)
        np.testing.assert_allclose(closed.f_star, iterative.f_star, atol=1e-8)
        np.testing.assert_allclose(closed.g_star, iterative.g_star, atol=1e-8)


def test_saddle_matches_laplace_aggregate(rng):
    for _ in range(10):
        n = int(rng.integers(3, 21))
        chain = random_nonsymmetric_chain(rng, n)
        mask = random_proper_mask(rng, n)
        beta = float(rng.uniform(0.5, 2.0))
        sol = saddle_value(chain, mask, beta, np.ones(mask.size))
        lap = exit_laplace(chain, mask, beta)
        denominator = float(np.sum(chain.mu * (1.0 - lap)))
        assert sol.value == pytest.approx(beta / denominator, rel=1e-9)


def test_saddle_inequalities_under_perturbation(rng):
    chain = random_nonsymmetric_chain(rng, 10)
    mask = random_proper_mask(rng, 10)
    xi = rng.uniform(0.2, 1.0, mask.size)
    sol = saddle_value(chain, mask, 1.0, xi)
    idx = mask.indices
    c = np.zeros(10)
    c[idx] = chain.mu[idx] * xi
    proj = np.eye(10) - np.outer(c, c) / (c @ c)
    keep = np.zeros(10)
    keep[idx] = 1.0
    for _ in range(100):
        g = proj @ (rng.standard_normal(10) * keep)
        g[np.abs(c) == 0] = 0.0
        g = np.where(keep > 0, g, 0.0)
        val_g = eval_form(chain, 1.0, sol.f_star + g, sol.f_star - g)
        assert val_g <= sol.value + 1e-8
        f = sol.f_star + np.where(keep > 0, proj @ (rng.standard_normal(10) * keep), 0.0)
        val_f = eval_form(chain, 1.0, f + sol.g_star, f - sol.g_star)
        assert val_f >= sol.value - 1e-8


def test_saddle_at_zero_shift_is_the_reciprocal_mean_exit_time():
    # beta = 0 is in the identity's range on a transient domain: the value is
    # 1 / <mu, E tau>, with mu = 1/3 per state and E tau = 1 from either state
    chain, mask = complete_graph(3, 1.0), DomainMask.from_states([0, 1], 3)
    for mode in ("closed_form", "iterative"):
        assert saddle_value(chain, mask, 0.0, np.ones(2), mode=mode).value == pytest.approx(1.5, rel=1e-14)
        with pytest.raises(ValueError, match="nonnegative"):
            saddle_value(chain, mask, -0.1, np.ones(2), mode=mode)


# mu = (1, 2, 1) is not excessive for this chain: its beta0 is 1.266. On
# D = {0, 1} with the signed source (1, -1), S^_22, the unit-diagonal
# symmetric part of the form on {c}-orthogonal vectors (c = mu_D xi), is
# (6 beta - 5) / (6 beta + 11): -1/7 at beta = 0.5 and 1/41 at 0.9. The
# symmetric part on all of D, [[beta + 1/2, -4], [-4, 2 beta + 9]], is
# indefinite up to beta = 0.964
INDEFINITE = make_chain([[-0.5, 0.0, 0.5], [4.0, -4.5, 0.5], [1.0, 1.0, -2.0]], [1.0, 2.0, 1.0])
INDEFINITE_D, INDEFINITE_XI = DomainMask.from_states([0, 1], 3), np.array([1.0, -1.0])


def test_both_routes_refuse_a_shift_where_the_subspace_block_is_indefinite():
    for mode in ("closed_form", "iterative"):
        with pytest.raises(SingularSystemError, match="not numerically positive definite"):
            saddle_value(INDEFINITE, INDEFINITE_D, 0.5, INDEFINITE_XI, mode=mode)


def test_both_routes_admit_a_shift_below_beta0_where_only_the_subspace_block_is_definite():
    beta = 0.9
    idx = INDEFINITE_D.indices
    a = form_matrix(INDEFINITE.q[np.ix_(idx, idx)], INDEFINITE.mu[idx], beta)
    assert beta < INDEFINITE.beta0 and np.linalg.eigvalsh((a + a.T) / 2.0)[0] < -0.07
    closed = saddle_value(INDEFINITE, INDEFINITE_D, beta, INDEFINITE_XI)
    iterative = saddle_value(INDEFINITE, INDEFINITE_D, beta, INDEFINITE_XI, mode="iterative")
    assert iterative.residuals["subspace_min_eig"] > 0.0
    # u = (5/7, 13/37.8) solves (0.9 I - Q_D) u = xi, and 1 / <xi, u>_mu = 37.8
    assert closed.value == pytest.approx(37.8, rel=1e-13)
    assert iterative.value == pytest.approx(closed.value, rel=1e-12)


def _non_excessive_chain(rng, n):
    """Random rates, a third of them zero, killing at every state, so that
    every domain exits, and a measure drawn apart from the rates, so that
    mu Q <= 0 fails and beta0 > 0 on most draws."""
    q = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 2.0 / 3.0)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1) - rng.uniform(0.05, 0.2, n))
    return make_chain(q, rng.uniform(0.2, 2.0, n))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 12), seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.0, 1.0, exclude_min=True))
def test_routes_answer_alike_below_beta0(n, seed, fraction):
    # the saddle's range is S^_22 > 0 alone, which both routes certify by a
    # factor of their own; beta0 of the whole chain plays no part
    rng = np.random.default_rng(seed)
    chain = _non_excessive_chain(rng, n)
    assume(not chain.reversible and chain.beta0 > 0.0)
    mask = DomainMask.from_states(rng.permutation(n)[: int(rng.integers(2, n))], n)
    xi = rng.uniform(0.2, 1.0, mask.size)
    beta = fraction * chain.beta0
    values = []
    for mode in ("closed_form", "iterative"):
        try:
            values.append(saddle_value(chain, mask, beta, xi, mode=mode).value)
        except SingularSystemError:
            values.append(None)
    if values[1] is None:
        assert values[0] is None
    else:
        assert values[1] == pytest.approx(values[0], rel=1e-12, abs=0.0)


def test_saddle_value_reads_no_spectrum_of_the_chain(monkeypatch):
    from exitlab.forms import Chain

    def refuse(self):
        raise AssertionError("a saddle route read the chain's form spectrum")

    monkeypatch.setattr(Chain, "form_spectrum", property(refuse))
    chain = random_nonsymmetric_chain(np.random.default_rng(17), 9)
    mask = random_proper_mask(np.random.default_rng(18), 9)
    for mode in ("closed_form", "iterative"):
        assert saddle_value(chain, mask, 0.7, np.ones(mask.size), mode=mode).value > 0.0
    for mode in ("closed_form", "iterative"):
        saddle_value(INDEFINITE, INDEFINITE_D, 0.9, INDEFINITE_XI, mode=mode)


def test_saddle_rejects_zero_source():
    with pytest.raises(ValueError):
        saddle_value(UPPER, FULL2, 1.0, np.zeros(2))


def test_symmetric_inf_values():
    chain1 = single_state_chain()
    assert symmetric_inf(chain1, DomainMask.full(1), 1.0, np.ones(1)) == pytest.approx(3.0, abs=1e-12)
    chain2 = two_state_killed_chain()
    assert symmetric_inf(chain2, FULL2, 1.0, np.ones(2)) == pytest.approx(1.5, abs=1e-12)


def test_symmetric_inf_rejects_non_symmetric():
    with pytest.raises(NonReversibleError):
        symmetric_inf(UPPER, FULL2, 1.0, np.ones(2))


def test_symmetric_inf_equals_saddle_on_reversible(rng):
    for _ in range(20):
        n = int(rng.integers(3, 21))
        chain = random_reversible_chain(rng, n, killing=bool(rng.integers(0, 2)))
        mask = random_proper_mask(rng, n)
        xi = rng.uniform(0.2, 1.0, mask.size)
        sym = symmetric_inf(chain, mask, 1.0, xi)
        sol = saddle_value(chain, mask, 1.0, xi)
        assert sym == pytest.approx(sol.value, rel=1e-9)
        np.testing.assert_allclose(sol.g_star, 0.0, atol=1e-10)


def test_exp_moment_inf_three_state_example():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    lam0 = dirichlet_pair(chain, mask)[0]
    assert lam0 == pytest.approx(1.0, abs=1e-12)
    assert exp_moment_inf(chain, mask, 0.5) == pytest.approx(0.75, abs=1e-12)
    assert exp_moment_inf(chain, mask, 1.5) == 0.0
    assert exp_moment_inf(chain, mask, 1.0) == 0.0


def test_exp_moment_inf_brute_force_two_state():
    # the feasible set {pi(f) = 1, f = 0 outside} for a two-point domain is
    # a line; brute-force the quadratic over it
    chain = random_reversible_chain(np.random.default_rng(7), 4)
    mask = DomainMask.from_states([0, 1], 4)
    lam0 = dirichlet_pair(chain, mask)[0]
    beta = 0.4 * lam0
    value = exp_moment_inf(chain, mask, beta)

    mu = chain.mu
    a0 = -(chain.q.T * mu[None, :])
    pi0, pi1 = mu[0], mu[1]
    base = np.array([1.0 / (2 * pi0), 1.0 / (2 * pi1), 0.0, 0.0])
    direction = np.array([1.0 / pi0, -1.0 / pi1, 0.0, 0.0])

    # every grid point t gives f = base + t*direction; one row of f per point
    f = base[None, :] + np.linspace(-5, 5, 200001)[:, None] * direction[None, :]
    objective = np.einsum("ti,ij,tj->t", f, (a0 + a0.T) / 2.0, f) - beta * (f * f) @ mu
    brute = float(objective.min())
    assert value == pytest.approx(brute, abs=1e-6)


def test_exp_moment_inf_matches_exit_route(rng):
    for _ in range(10):
        n = int(rng.integers(3, 15))
        chain = random_reversible_chain(rng, n)
        mask = random_proper_mask(rng, n)
        lam0 = dirichlet_pair(chain, mask)[0]
        beta = 0.5 * lam0
        value = exp_moment_inf(chain, mask, beta)
        agg = mu_dot(chain, exit_exp_moment(chain, mask, beta))
        assert value == pytest.approx(beta / (agg - 1.0), rel=1e-9)


def test_exp_moment_inf_rejects_non_reversible_and_takes_any_measure(rng):
    chain = random_nonsymmetric_chain(rng, 4)
    with pytest.raises(NonReversibleError):
        exp_moment_inf(chain, DomainMask.from_states([0], 4), 0.5)
    # mu = (1, 1), so pi = (1/2, 1/2); tau ~ Exp(2) from either state, and
    # beta / (pi(E[e^{beta tau}]) - 1) = 2 - beta
    killed = two_state_killed_chain()
    assert exp_moment_inf(killed, FULL2, 0.5) == pytest.approx(1.5, rel=1e-12, abs=0.0)


def test_source_scaling_covariance(rng):
    # replacing xi by c*xi divides the value by c^2: the solution is linear
    # in the source and the value is 1 / <c xi, c u>
    chain = random_nonsymmetric_chain(rng, 6)
    mask = random_proper_mask(rng, 6)
    xi = rng.uniform(0.3, 1.0, mask.size)
    base = saddle_value(chain, mask, 1.0, xi).value
    for c in (0.5, 2.0, 7.0):
        scaled = saddle_value(chain, mask, 1.0, c * xi).value
        assert scaled == pytest.approx(base / c**2, rel=1e-10)


def test_saddle_solution_serializes(rng):
    sol = saddle_value(UPPER, FULL2, 1.0, np.ones(2))
    doc = sol.to_dict()
    assert doc["method"] == "closed_form"
    assert len(doc["f_star"]) == 2
    assert "sampled_check_violation" in doc["residuals"]


def test_iterative_mode_never_touches_the_resolvent(rng, monkeypatch):
    import exitlab.poisson
    import exitlab.variational

    chain = random_nonsymmetric_chain(rng, 7)
    mask = random_proper_mask(rng, 7)
    xi = rng.uniform(0.2, 1.0, mask.size)
    closed = saddle_value(chain, mask, 0.8, xi, mode="closed_form")

    def refuse(*args, **kwargs):
        raise AssertionError("the nested route reached a restricted resolvent solve")

    # both routes read Q_D and mu_D from a DomainSystem; only its solves and
    # factors are the resolvent
    for name in ("solve", "_factor"):
        monkeypatch.setattr(exitlab.poisson.DomainSystem, name, refuse)
    for name in ("RefinedLU", "RefinedCholesky", "solve_poisson"):
        monkeypatch.setattr(exitlab.poisson, name, refuse)
    with pytest.raises(AssertionError, match="resolvent"):
        saddle_value(chain, mask, 0.8, xi, mode="closed_form")
    iterative = saddle_value(chain, mask, 0.8, xi, mode="iterative")
    assert iterative.value == pytest.approx(closed.value, rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_source_is_rejected(bad):
    rng = np.random.default_rng(5)
    chain = random_reversible_chain(rng, 6)
    mask = DomainMask.full(6)
    xi = np.ones(6)
    xi[4] = bad
    for solve in (
        lambda: saddle_value(chain, mask, 0.5, xi),
        lambda: saddle_value(chain, mask, 0.5, xi, mode="iterative"),
        lambda: symmetric_inf(chain, mask, 0.5, xi),
    ):
        with pytest.raises(ValueError, match="finite"):
            solve()


def _saddle_check_by_direction(a, c, f_d, g_d, value):
    """The sampled saddle check one direction at a time, with the dense
    projector I - c c^T / (c^T c)."""
    rng = np.random.default_rng(SADDLE_CHECK_SEED)
    p = np.eye(c.shape[0]) - np.outer(c, c) / (c @ c)
    scale = 1.0 + float(np.abs(f_d).max())
    worst = 0.0
    for _ in range(SADDLE_CHECK_DIRECTIONS):
        g = p @ rng.standard_normal(c.shape[0]) * scale
        worst = max(worst, float((f_d + g) @ a @ (f_d - g) - value))
        f = f_d + p @ rng.standard_normal(c.shape[0]) * scale
        worst = max(worst, float(value - (f + g_d) @ a @ (f - g_d)))
    return worst


@pytest.mark.parametrize("offset", [-1e-9, 1e-9])
def test_batched_saddle_check_matches_the_per_direction_loop(offset):
    chain = random_nonsymmetric_chain(np.random.default_rng(21), 12)
    mask = random_proper_mask(np.random.default_rng(22), 12)
    xi = np.random.default_rng(23).uniform(0.2, 1.0, mask.size)
    sol = saddle_value(chain, mask, 1.0, xi)
    idx = mask.indices
    c = chain.mu[idx] * xi
    # the form scaled by 2^-40 (exactly) puts every direction's margin near
    # 1e-12, so a value 1e-9 below the saddle value violates the g side in
    # every direction, and 1e-9 above violates the f side: worst > 0, set by
    # the direction of least margin, and still under the check tolerance
    tiny = 2.0**-40
    a = form_matrix(chain.q[np.ix_(idx, idx)], chain.mu[idx], 1.0) * tiny
    value = sol.value * tiny + offset
    args = (a, c, sol.f_star[idx], sol.g_star[idx], value)
    expected = _saddle_check_by_direction(*args)
    assert expected > 0.0
    assert _sampled_saddle_check(*args) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_variational_routes_hold_no_n_by_n_array():
    n, m = 800, 40
    chain = random_reversible_chain(np.random.default_rng(9), n)
    mask = DomainMask.from_states(np.random.default_rng(10).permutation(n)[:m], n)
    xi = np.ones(m)
    chain.beta0, chain.reversible  # cached facts of the chain
    lam0, _ = dirichlet_pair(chain, mask)
    routes = {
        "closed_form": lambda: saddle_value(chain, mask, 1.0, xi, mode="closed_form"),
        "iterative": lambda: saddle_value(chain, mask, 1.0, xi, mode="iterative"),
        "symmetric_inf": lambda: symmetric_inf(chain, mask, 1.0, xi),
        "exp_moment_inf": lambda: exp_moment_inf(chain, mask, lam0 / 2.0),
    }
    for name, route in routes.items():
        tracemalloc.start()
        try:
            route()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the form on D is m^2 doubles; an n x n form matrix would be n^2
        assert peak < 0.1 * n * n * 8, name


def _dense_kkt_saddle(a, c):
    """The nested route as two bordered KKT systems, each solved by LU, with
    the subspace eigenvalue from a null-space basis and a full eigh, of the
    symmetric part scaled to unit diagonal, D S D, on {D c}-orthogonal vectors."""
    m = c.shape[0]
    s = (a + a.T) / 2.0
    k = (a - a.T) / 2.0
    inner = np.block([[2.0 * s, c[:, None]], [c[None, :], np.zeros((1, 1))]])
    g_map = scipy.linalg.solve(inner, np.vstack([2.0 * k, np.zeros((1, m))]))[:m]
    h = s + g_map.T @ s @ g_map
    h = (h + h.T) / 2.0
    outer = np.block([[2.0 * h, c[:, None]], [c[None, :], np.zeros((1, 1))]])
    f = scipy.linalg.solve(outer, np.concatenate([np.zeros(m), [1.0]]))[:m]
    d = 1.0 / np.sqrt(np.diag(s))
    scaled = d[:, None] * s * d[None, :]
    if m == 1:
        lam = scaled[0, 0]
    else:
        z = scipy.linalg.null_space((d * c)[None, :])
        lam = scipy.linalg.eigh(z.T @ scaled @ z, eigvals_only=True)[0]
    return float(f @ h @ f), f, g_map @ f, float(lam)


def _ledger_case(seed=1):
    """The birth-death chain, domain and source of the benchmark's ledger
    workload (800 states, 400 on the domain)."""
    rng = np.random.default_rng([seed, 1])
    m = rng.uniform(0.5, 2.0, 800)
    c = rng.uniform(0.5, 2.0, 799)
    domain = np.sort(rng.choice(800, 400, replace=False))
    xi = rng.uniform(0.5, 2.0, 400)
    chain = birth_death(c / m[:-1], c / m[1:])
    return chain, DomainMask.from_states(domain, 800), xi


def _assert_matches_dense_kkt(chain, mask, beta, xi):
    idx = mask.indices
    a = form_matrix(chain.q[np.ix_(idx, idx)], chain.mu[idx], beta)
    value, f, g, lam = _dense_kkt_saddle(a, chain.mu[idx] * xi)
    sol = saddle_value(chain, mask, beta, xi, mode="iterative")
    scale = np.abs(f).max()
    assert sol.value == pytest.approx(value, rel=1e-12, abs=0.0)
    # g vanishes in exact arithmetic where the form is symmetric on D, so
    # both optimizers are compared on the scale of f
    assert np.abs(sol.f_star[idx] - f).max() <= 1e-12 * scale
    assert np.abs(sol.g_star[idx] - g).max() <= 1e-12 * scale
    assert sol.residuals["subspace_min_eig"] == pytest.approx(lam, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 21, 34, 60])
def test_iterative_route_matches_the_dense_kkt_reference(m):
    rng = np.random.default_rng(700 + m)
    n = m + int(rng.integers(2, 6))
    chain = random_nonsymmetric_chain(rng, n)
    mask = DomainMask.from_states(rng.permutation(n)[:m], n)
    xi = rng.uniform(-1.0, 1.0, m)
    xi[0] = 1.0  # a signed source, away from zero on at least one state
    for beta in (0.05, 1.0, 20.0):
        _assert_matches_dense_kkt(chain, mask, beta, xi)


def test_iterative_route_matches_the_dense_kkt_reference_on_the_ledger():
    chain, mask, xi = _ledger_case()
    for beta in (0.005, 0.5):
        _assert_matches_dense_kkt(chain, mask, beta, xi)


def test_iterative_single_state_keeps_its_values():
    sol = saddle_value(single_state_chain(), DomainMask.full(1), 1.0, [1], mode="iterative")
    assert sol.value == 3.0
    # the form scaled to unit diagonal, whatever a_00
    assert sol.residuals["subspace_min_eig"] == 1.0
    np.testing.assert_array_equal(sol.f_star, [1.0])
    np.testing.assert_array_equal(sol.g_star, [0.0])
    # value = a_00 / c^2 with a_00 = mu (beta - q) and c = mu xi
    sol = saddle_value(make_chain([[-2.0]], [2.0]), DomainMask.full(1), 1.0, [0.3], mode="iterative")
    assert sol.value == pytest.approx(6.0 / 0.36, rel=1e-15)
    assert sol.residuals["subspace_min_eig"] == 1.0
    np.testing.assert_array_equal(sol.g_star, [0.0])


def test_iterative_route_makes_no_lu_and_no_null_space(monkeypatch):
    import exitlab._linalg

    def refuse(*args, **kwargs):
        raise AssertionError("the nested route made an LU or a null-space SVD")

    monkeypatch.setattr(exitlab._linalg, "lu_factor", refuse)
    monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
    monkeypatch.setattr(scipy.linalg, "null_space", refuse)
    rng = np.random.default_rng(31)
    chain = random_nonsymmetric_chain(rng, 9)
    mask = random_proper_mask(rng, 9)
    xi = rng.uniform(0.2, 1.0, mask.size)
    sol = saddle_value(chain, mask, 1.0, xi, mode="iterative")
    assert sol.residuals["subspace_min_eig"] > 0.0


def test_nested_route_refuses_a_form_that_overflows_at_unit_diagonal():
    # finite, but scaled to unit diagonal its off-diagonal entries pass the
    # largest double: the eigensolve that feeds both gates fails on the
    # block, and the route still raises its own error for the inner factor
    a = np.array([[1e-300, 1e300, 0.0], [-1e300, 1e-300, 0.0], [0.0, 0.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SingularSystemError, match="inner saddle"):
        nested_route(DomainMask.full(3), a, np.array([1.0, 2.0, 3.0]))


def test_symmetric_nested_route_factors_once(monkeypatch):
    import exitlab.variational

    counts = {"factors": 0, "lower_solves": 0}

    class Counted(RefinedSPD):
        def __init__(self, *args, **kwargs):
            counts["factors"] += 1
            super().__init__(*args, **kwargs)

        def lower_solve(self, b):
            counts["lower_solves"] += 1
            return super().lower_solve(b)

    monkeypatch.setattr(exitlab.variational, "RefinedSPD", Counted)

    def nested(chain, mask, xi):
        counts.update(factors=0, lower_solves=0)
        saddle_value(chain, mask, 0.5, xi, mode="iterative")
        return counts["factors"], counts["lower_solves"]

    # a symmetric form: the sup stage is skipped and the outer solve reuses L
    assert nested(*_ledger_case()) == (1, 0)
    rng = np.random.default_rng(41)
    chain = random_nonsymmetric_chain(rng, 12)
    mask = random_proper_mask(rng, 12)
    assert nested(chain, mask, rng.uniform(0.2, 1.0, mask.size)) == (2, 1)


def test_iterative_route_peak_memory_at_m_400():
    m = 400
    rng = np.random.default_rng(12)
    chain = random_nonsymmetric_chain(rng, m + 20)
    mask = DomainMask.from_states(rng.permutation(m + 20)[:m], m + 20)
    xi = rng.uniform(0.2, 1.0, m)
    chain.beta0  # a cached fact of the chain, not of the route
    tracemalloc.start()
    try:
        saddle_value(chain, mask, 1.0, xi, mode="iterative")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured at 5.01 m^2; holding the restricted block Q_D past building
    # the form adds one m^2
    assert peak <= 5.1 * m * m * 8


def _inner(n):
    """The domain of states 1 to n - 2 of an n-state chain."""
    return DomainMask.from_states(range(1, n - 1), n)


@pytest.mark.parametrize("n, s, seed", [(40, 6, 1), (40, 8, 1), (60, 12, 5)])
def test_form_routes_agree_where_the_measure_spans_many_decades(n, s, seed):
    # the symmetric part of the raw form has 1-norm condition 5.7e16, 2.5e22
    # and 5.3e44 here, and its gates refused it; scaled to unit diagonal it
    # has 1.4, 1.2 and 1.1
    chain, mask, xi = chain_of(n, s, seed), _inner(n), np.ones(n - 2)
    closed = saddle_value(chain, mask, 1.0, xi).value
    assert _agree(saddle_value(chain, mask, 1.0, xi, mode="iterative").value, closed)
    assert _agree(symmetric_inf(chain, mask, 1.0, xi), closed)


@pytest.mark.parametrize("n, s, seed", [(40, 5, 1), (40, 6, 1), (40, 6, 2)])
def test_exp_moment_inf_matches_the_exit_route_where_the_measure_spans_many_decades(n, s, seed):
    chain, mask = chain_of(n, s, seed), _inner(n)
    lam0 = dirichlet_pair(chain, mask)[0]
    beta = lam0 / 2.0
    agg = mu_dot(chain, exit_exp_moment(chain, mask, beta))
    assert _agree(exp_moment_inf(chain, mask, beta), beta / (agg - 1.0))


def _flow_ring(n, s, rng, fraction=None):
    """A non-reversible ring: a measure and conductances log-uniform over s
    decades, each conductance times the smaller measure of its two states so
    that every rate is at most 1, and the unit cycle flow at ``fraction``
    (by default a random one) of its largest admissible strength."""
    mu = 10.0 ** rng.uniform(-s, 0, n)
    ring = (np.arange(n), (np.arange(n) + 1) % n)
    cond = np.zeros((n, n))
    cond[ring] = 10.0 ** rng.uniform(-s, 0, n) * np.minimum(mu, np.roll(mu, -1))
    cond += cond.T
    measure = Measure(mu)
    flow = flow_from_cycles([list(range(n))], measure)
    fraction = rng.uniform(0.2, 0.8) if fraction is None else fraction
    return antisym_perturb(weighted_graph(cond, measure), flow, fraction * cond[ring].min())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    s=st.floats(0.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
    log_fraction=st.floats(-9.0, np.log10(0.8)),
)
def test_every_flow_ring_is_judged_non_reversible(n, s, seed, log_fraction):
    # the circulation is bounded by the weakest conductance, far below the
    # largest rate once rates span many decades; each pair is judged at its
    # own size, so a flow on it is seen whatever the rest of the chain holds
    assert not _flow_ring(n, s, np.random.default_rng(seed), 10.0**log_fraction).reversible


def _dense_graph(n, s, seed):
    """``weighted_graph`` on dense conductances and a measure, each
    log-uniform over s decades."""
    rng = np.random.default_rng(seed)
    c = np.triu(10.0 ** rng.uniform(-s, 0, (n, n)), 1)
    return weighted_graph(c + c.T, 10.0 ** rng.uniform(-s, 0, n))


@settings(max_examples=40, deadline=None)
@given(
    build=st.sampled_from([lambda n, s, seed: chain_of(n, min(s, 14.0), seed), _dense_graph]),
    n=st.integers(2, 30),
    s=st.floats(0.0, 30.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_reversible_builder_is_judged_reversible(build, n, s, seed):
    assert build(n, s, seed).reversible


def _jump_grid(dimension, alpha):
    return discretize_jump_diffusion(GridModelSpec(dimension, ((0.0, 1.0),) * dimension, 1 / 8, alpha=alpha, epsilon=1.0))


@pytest.mark.parametrize(
    "build",
    [lambda: complete_graph(50, 1.0)]
    + [lambda d=d, alpha=alpha: _jump_grid(d, alpha) for d in (1, 2) for alpha in (0.5, 1.0, 1.5)],
    ids=["complete_graph"] + [f"grid{d}d_alpha{alpha}" for d in (1, 2) for alpha in (0.5, 1.0, 1.5)],
)
def test_reversible_grids_and_complete_graph_are_judged_reversible(build):
    assert build().reversible


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 40),
    s=st.floats(0.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from([1e-2, 1.0, 1e2]),
    ring=st.booleans(),
)
def test_form_routes_agree_with_the_closed_form_whatever_the_measure(n, s, seed, beta, ring):
    # a birth-death chain's measure spans up to s*(n-1) decades, a ring's s;
    # every route that factors a form scales it to unit diagonal first
    if ring:
        chain, mask = _flow_ring(n, s, np.random.default_rng(seed)), DomainMask.from_states(range(1, n), n)
    else:
        chain, mask = chain_of(n, s, seed), _inner(n)
    system = DomainSystem(chain, mask)
    a, xi_d, c = saddle_form(system, beta, np.ones(mask.size))
    closed = closed_form_route(system, beta, a, xi_d, c).value
    assert _agree(nested_route(mask, a, c).value, closed)
    if system.reversible:
        assert _agree(symmetric_route(a, c), closed)


def test_symmetric_route_does_not_factor_the_closed_forms_matrix(monkeypatch):
    # on a reversible chain M^{-1/2} S M^{-1/2} is sym_d + beta*I, the
    # matrix of the closed form's Cholesky; a route that factored it would
    # share that factorization's errors
    import exitlab.variational

    factored = []

    class Capturing(exitlab.variational.RefinedCholesky):
        def __init__(self, sym, *args, **kwargs):
            factored.append(np.array(sym))
            super().__init__(sym, *args, **kwargs)

    monkeypatch.setattr(exitlab.variational, "RefinedCholesky", Capturing)
    chain, mask, beta = chain_of(12, 2, 3), _inner(12), 0.5
    system = DomainSystem(chain, mask)
    assert system.reversible and np.ptp(np.log10(system.mu_d)) > 2.0
    a, _xi_d, c = saddle_form(system, beta, np.ones(mask.size))
    symmetric_route(a, c)
    (matrix,) = factored
    np.testing.assert_allclose(np.diag(matrix), 1.0, rtol=1e-15)
    d = 1.0 / np.sqrt(np.diag(a))
    np.testing.assert_allclose(matrix, d[:, None] * (a + a.T) / 2.0 * d[None, :], rtol=1e-14, atol=1e-16)
    closed = system.sym_d + beta * np.eye(mask.size)
    assert np.abs(matrix - closed).max() > 0.1 * np.abs(closed).max()
