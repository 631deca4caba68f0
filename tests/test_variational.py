import tracemalloc

import numpy as np
import pytest

from exitlab import (
    DegenerateSourceError,
    DomainMask,
    Measure,
    NonReversibleError,
    complete_graph,
    construct_optimizers,
    dirichlet_pair,
    eval_form,
    exit_exp_moment,
    exit_laplace,
    exp_moment_inf,
    saddle_value,
    solve_poisson,
    symmetric_inf,
)
from exitlab.defaults import SADDLE_CHECK_DIRECTIONS, SADDLE_CHECK_SEED
from exitlab.forms import form_matrix
from exitlab.variational import _sampled_saddle_check
from conftest import (
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


def test_saddle_rejects_shift_below_lower_bound():
    chain = complete_graph(3, 1.0)
    with pytest.raises(ValueError):
        saddle_value(chain, DomainMask.from_states([0, 1], 3), 0.0, np.ones(2))


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
    assert exp_moment_inf(chain, mask, 0.5, lam0) == pytest.approx(0.75, abs=1e-12)
    assert exp_moment_inf(chain, mask, 1.5, lam0) == 0.0
    assert exp_moment_inf(chain, mask, 1.0, lam0) == 0.0


def test_exp_moment_inf_brute_force_two_state():
    # the feasible set {pi(f) = 1, f = 0 outside} for a two-point domain is
    # a line; brute-force the quadratic over it
    chain = random_reversible_chain(np.random.default_rng(7), 4)
    mask = DomainMask.from_states([0, 1], 4)
    lam0 = dirichlet_pair(chain, mask)[0]
    beta = 0.4 * lam0
    value = exp_moment_inf(chain, mask, beta, lam0)

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
        value = exp_moment_inf(chain, mask, beta, lam0)
        agg = mu_dot(chain, exit_exp_moment(chain, mask, beta, lam0))
        assert value == pytest.approx(beta / (agg - 1.0), rel=1e-9)


def test_exp_moment_inf_rejects_non_reversible_or_unnormalized(rng):
    chain = random_nonsymmetric_chain(rng, 4)
    with pytest.raises(NonReversibleError):
        exp_moment_inf(chain, DomainMask.from_states([0], 4), 0.5, 1.0)
    unnorm = two_state_killed_chain()
    with pytest.raises(ValueError):
        exp_moment_inf(unnorm, FULL2, 0.5, 2.0)


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
        raise AssertionError("the nested-KKT route reached a restricted resolvent solve")

    for name in ("DomainSystem", "RefinedLU", "solve_poisson"):
        monkeypatch.setattr(exitlab.poisson, name, refuse)
    monkeypatch.setattr(exitlab.variational, "DomainSystem", refuse)
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
        "exp_moment_inf": lambda: exp_moment_inf(chain, mask, lam0 / 2.0, lam0),
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
