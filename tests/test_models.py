import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exitlab import (
    DomainMask,
    FlowMatrix,
    Measure,
    GridModelSpec,
    antisym_perturb,
    birth_death,
    build_chain,
    complete_graph,
    cycle_flow,
    discretize_jump_diffusion,
    exit_laplace,
    exit_mean,
    flow_from_cycles,
    grid_points,
    scaled_family,
    weighted_graph,
)
from exitlab.models import _point_labels, fractional_kernel_constant
from conftest import mu_dot, random_reversible_chain, traced_peak


def stable_exit_mean_coefficient(d: int, alpha: float) -> float:
    """Closed-form constant of the stable exit expectation from a ball:
    E_x[tau] = C * (r^2 - |x|^2)^(alpha/2)."""
    return math.gamma(d / 2) / (
        2**alpha * math.gamma(1 + alpha / 2) * math.gamma((d + alpha) / 2)
    )


def test_complete_graph_matrix():
    chain = complete_graph(3, 1.0)
    expected = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
    np.testing.assert_allclose(chain.q, expected, atol=0)
    np.testing.assert_allclose(chain.mu, 1.0 / 3.0, atol=1e-15)
    assert chain.mu.sum() == pytest.approx(1.0, rel=1e-15)


def test_birth_death_detailed_balance():
    chain = birth_death(up=(1.0, 1.0), down=(1.0, 1.0))
    assert chain.reversible
    assert chain.is_conservative()
    mq = chain.mu[:, None] * chain.q
    np.testing.assert_allclose(mq, mq.T, atol=1e-15)


def test_birth_death_matches_the_loop_and_builds_one_n_by_n_array():
    n = 400
    rng = np.random.default_rng(8)
    up, down = rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.5, 2.0, n - 1)
    chain, peak = traced_peak(lambda: birth_death(up, down))
    reference = np.zeros((n, n))
    for i in range(n - 1):
        reference[i, i + 1] = up[i]
        reference[i + 1, i] = down[i]
    np.fill_diagonal(reference, -reference.sum(axis=1))
    assert chain.q.tobytes() == reference.tobytes()
    # q itself, adopted by Generator; a second copy would read 2 n^2
    assert peak <= 1.1 * n * n * 8


@pytest.mark.parametrize(
    "build",
    [lambda n, c: build_chain({"builder": "cycle_flow", "params": {"n": n}}),
     lambda n, c: complete_graph(n, 1.0),
     lambda n, c: weighted_graph(c, np.full(n, 0.5))],
    ids=["cycle_flow_config", "complete_graph", "weighted_graph"],
)
def test_builders_hold_one_copy_of_the_generator(build):
    n = 400
    c = np.random.default_rng(3).uniform(0.0, 1.0, (n, n))
    c += c.T  # the conductances are the builder's input, made before tracing
    chain, peak = traced_peak(lambda: build(n, c))
    assert chain.n_states == n and chain.reversible
    # q is built once and adopted by Generator; the config builder's dropped
    # flow read 5.0 n^2, a copy of a writable q 2.05 n^2
    assert peak <= 1.1 * n * n * 8


def test_weighted_graph_detailed_balance(rng):
    n = 5
    c = rng.uniform(0.0, 1.0, (n, n))
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 0.0)
    mu = rng.uniform(0.5, 2.0, n)
    chain = weighted_graph(c, mu)
    mq = chain.mu[:, None] * chain.q
    np.testing.assert_allclose(mq, mq.T, atol=1e-12)
    for x in range(n):
        for y in range(n):
            if x != y:
                assert chain.mu[x] * chain.q[x, y] == pytest.approx(c[x, y], rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    upper=st.lists(st.floats(0.0, 5.0), min_size=6, max_size=6),
    weights=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4),
)
# c / mu underflows to 0 one way; both rates are subnormal, with their precision lost
@example(upper=[0.0, 0.0, 0.0, 0.0, 0.0, 5e-324], weights=[1.0, 1.0, 1.0, 2.0])
@example(upper=[0.0, 0.0, 0.0, 0.0, 0.0, 1e-320], weights=[1.0, 1.0, 1.0, 3.0])
def test_weighted_graph_reversible_for_any_inputs(upper, weights):
    c = np.zeros((4, 4))
    c[np.triu_indices(4, 1)] = upper
    c = c + c.T
    chain = weighted_graph(c, np.array(weights))
    assert chain.reversible
    assert chain.is_conservative()


def test_builders_reject_nonpositive_rates():
    with pytest.raises(ValueError):
        complete_graph(3, 0.0)
    with pytest.raises(ValueError):
        birth_death(up=(1.0, -1.0), down=(1.0, 1.0))
    with pytest.raises(ValueError):
        weighted_graph(np.array([[0.0, -1.0], [-1.0, 0.0]]), np.ones(2))


def test_build_chain_dispatch():
    chain = build_chain({"builder": "complete_graph", "params": {"n": 3, "rate": 1.0}})
    assert chain.n_states == 3
    with pytest.raises(ValueError, match="unknown builder"):
        build_chain({"builder": "nope"})


def test_pure_diffusion_tridiagonal_stencil():
    spec = GridModelSpec(dimension=1, domain_box=((0.0, 1.0),), mesh_h=0.25, epsilon=0.0)
    chain = discretize_jump_diffusion(spec)
    inv_h2 = 16.0
    expected = inv_h2 * np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
    np.testing.assert_allclose(chain.q, expected, atol=1e-12)
    np.testing.assert_allclose(chain.mu, 0.25, atol=0)


def test_pure_diffusion_exact_on_quadratic_profile():
    # with a = 1 the flux stencil is exact on quadratics, so the discrete
    # mean exit reproduces x(1-x)/2 to rounding at any mesh
    for h in (1 / 8, 1 / 16, 1 / 32):
        spec = GridModelSpec(dimension=1, domain_box=((0.0, 1.0),), mesh_h=h, epsilon=0.0)
        chain = discretize_jump_diffusion(spec)
        xs = grid_points(spec)[:, 0]
        m = exit_mean(chain, DomainMask.full(chain.n_states))
        np.testing.assert_allclose(m, xs * (1 - xs) / 2.0, atol=1e-12)


def test_variable_coefficient_second_order_convergence():
    # -(a u')' = 1 on (0, 1), a(x) = 1 + x/2, u(0) = u(1) = 0 has the
    # closed form u(x) = -2x + (2 / ln 1.5) * ln(1 + x/2)
    def exact(x):
        return -2.0 * x + (2.0 / math.log(1.5)) * np.log(1.0 + x / 2.0)

    errors = []
    for h in (1 / 16, 1 / 32, 1 / 64):
        spec = GridModelSpec(
            dimension=1,
            domain_box=((0.0, 1.0),),
            mesh_h=h,
            a=lambda x: 1.0 + x / 2.0,
            epsilon=0.0,
        )
        chain = discretize_jump_diffusion(spec)
        xs = grid_points(spec)[:, 0]
        m = exit_mean(chain, DomainMask.full(chain.n_states))
        errors.append(np.abs(m - exact(xs)).max())
    assert errors[1] <= errors[0] / 3.0
    assert errors[2] <= errors[1] / 3.0


def test_pure_jump_rows_lose_mass():
    spec = GridModelSpec(
        dimension=1, domain_box=((0.0, 1.0),), mesh_h=1 / 8, kappa=0.0, epsilon=1.0, alpha=1.0
    )
    chain = discretize_jump_diffusion(spec)
    assert chain.q.sum(axis=1).max() < -1e-6


def test_jump_part_detailed_balance():
    spec = GridModelSpec(
        dimension=1, domain_box=((0.0, 1.0),), mesh_h=1 / 16, kappa=0.0, epsilon=1.0, alpha=0.7
    )
    chain = discretize_jump_diffusion(spec)
    assert chain.reversible
    mq = chain.mu[:, None] * chain.q
    np.testing.assert_allclose(mq, mq.T, atol=1e-15)


def test_fractional_kernel_constant_cauchy():
    # d = 1, alpha = 1 is the Cauchy kernel 1 / (pi z^2)
    assert fractional_kernel_constant(1, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-15)


def test_stable_exit_mean_matches_closed_form():
    # E_0[tau] from (-1, 1) for alpha = 1 equals 1 exactly
    coeff = stable_exit_mean_coefficient(1, 1.0)
    assert coeff == pytest.approx(1.0, rel=1e-14)
    spec = GridModelSpec(
        dimension=1, domain_box=((-1.0, 1.0),), mesh_h=1 / 64, kappa=0.0, epsilon=1.0, alpha=1.0
    )
    chain = discretize_jump_diffusion(spec)
    xs = grid_points(spec)[:, 0]
    m = exit_mean(chain, DomainMask.full(chain.n_states))
    center = int(np.argmin(np.abs(xs)))
    assert abs(m[center] - coeff) / coeff < 0.01


def test_stable_exit_mean_other_alpha():
    # alpha = 1.5: independent constant from the closed form
    coeff = stable_exit_mean_coefficient(1, 1.5)
    spec = GridModelSpec(
        dimension=1, domain_box=((-1.0, 1.0),), mesh_h=1 / 128, kappa=0.0, epsilon=1.0, alpha=1.5
    )
    chain = discretize_jump_diffusion(spec)
    xs = grid_points(spec)[:, 0]
    m = exit_mean(chain, DomainMask.full(chain.n_states))
    center = int(np.argmin(np.abs(xs)))
    assert abs(m[center] - coeff) / coeff < 0.02


def test_upwind_drift_keeps_sign_structure():
    spec = GridModelSpec(
        dimension=1,
        domain_box=((0.0, 1.0),),
        mesh_h=1 / 16,
        b=lambda x: 1.0,
        k=50.0,
        epsilon=0.0,
    )
    chain = discretize_jump_diffusion(spec)
    off = chain.q.copy()
    np.fill_diagonal(off, 0.0)
    assert off.min() >= 0.0
    assert chain.q.sum(axis=1).max() <= 1e-12


def test_drift_direction_shifts_exit_profile():
    # velocity -k*b points left for k > 0, b = 1: mass exits faster from
    # the left, so the mean profile peak moves right
    def build(k):
        spec = GridModelSpec(
            dimension=1,
            domain_box=((0.0, 1.0),),
            mesh_h=1 / 32,
            b=lambda x: 1.0,
            k=k,
            epsilon=0.0,
        )
        return discretize_jump_diffusion(spec)

    m_plus = exit_mean(build(8.0), DomainMask.full(31))
    m_zero = exit_mean(build(0.0), DomainMask.full(31))
    assert np.argmax(m_plus) > np.argmax(m_zero)


def test_two_dimensional_single_interior_point():
    spec = GridModelSpec(
        dimension=2, domain_box=((0.0, 1.0), (0.0, 1.0)), mesh_h=0.5, epsilon=0.0
    )
    chain = discretize_jump_diffusion(spec)
    assert chain.n_states == 1
    assert chain.q[0, 0] == pytest.approx(-16.0, abs=1e-12)
    assert chain.mu[0] == pytest.approx(0.25, abs=0)


def test_two_dimensional_jump_grid_structure():
    spec = GridModelSpec(
        dimension=2,
        domain_box=((0.0, 1.0), (0.0, 1.0)),
        mesh_h=0.25,
        kappa=1.0,
        epsilon=0.5,
        alpha=1.2,
    )
    chain = discretize_jump_diffusion(spec)
    assert chain.n_states == 9
    assert chain.reversible
    assert chain.q.sum(axis=1).max() < 0
    off = chain.q.copy()
    np.fill_diagonal(off, 0.0)
    assert off.min() >= 0.0


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridModelSpec(dimension=3, domain_box=((0, 1),) * 3, mesh_h=0.1)
    with pytest.raises(ValueError):
        GridModelSpec(dimension=1, domain_box=((0.0, 1.0),), mesh_h=0.1, alpha=2.0)
    with pytest.raises(ValueError):
        GridModelSpec(dimension=1, domain_box=((0.0, 1.0),), mesh_h=0.1, kappa=0.0, epsilon=0.0)
    with pytest.raises(ValueError):
        GridModelSpec(dimension=1, domain_box=((1.0, 0.0),), mesh_h=0.1)
    with pytest.raises(ValueError):
        discretize_jump_diffusion(
            GridModelSpec(dimension=1, domain_box=((0.0, 1.0),), mesh_h=0.3)
        )


def test_grid_ellipticity_declaration():
    spec = GridModelSpec(
        dimension=1,
        domain_box=((0.0, 1.0),),
        mesh_h=0.25,
        a=lambda x: 1.0 + x,
        epsilon=0.0,
        ellipticity=(1.0, 2.0),
    )
    discretize_jump_diffusion(spec)
    bad = GridModelSpec(
        dimension=1,
        domain_box=((0.0, 1.0),),
        mesh_h=0.25,
        a=lambda x: 1.0 + x,
        epsilon=0.0,
        ellipticity=(1.0, 1.5),
    )
    with pytest.raises(ValueError, match="ellipticity"):
        discretize_jump_diffusion(bad)


def test_flow_from_cycles_structure(rng):
    chain = random_reversible_chain(rng, 6, normalized=False)
    flow = flow_from_cycles([[0, 2, 4], [1, 3, 5, 0]], chain.measure)
    np.testing.assert_allclose(flow.gamma.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.diag(flow.gamma), 0.0, atol=0)
    assert flow.is_antisymmetric_for(chain.measure)


@pytest.mark.parametrize("weights", [[1.0], [1.0, 2.0, 3.0]])
def test_flow_from_cycles_needs_one_weight_per_cycle(rng, weights):
    chain = random_reversible_chain(rng, 6, normalized=False)
    with pytest.raises(ValueError, match=f"{len(weights)} weights for 2 cycles"):
        flow_from_cycles([[0, 1, 2], [1, 2, 3]], chain.measure, weights=weights)


def test_plaquette_flow_on_2d_grid():
    # oriented square plaquettes of flat indices are 4-cycles; on the
    # uniform-cell grid they give admissible divergence-free perturbations
    spec = GridModelSpec(
        dimension=2, domain_box=((0.0, 1.0), (0.0, 1.0)), mesh_h=0.25, epsilon=0.0
    )
    chain = discretize_jump_diffusion(spec)
    ny = 3

    def flat(ix, iy):
        return ix * ny + iy

    plaquettes = [
        [flat(ix, iy), flat(ix + 1, iy), flat(ix + 1, iy + 1), flat(ix, iy + 1)]
        for ix in range(2)
        for iy in range(2)
    ]
    flow = flow_from_cycles(plaquettes, chain.measure)
    np.testing.assert_allclose(flow.gamma.sum(axis=1), 0.0, atol=1e-9)
    assert flow.is_antisymmetric_for(chain.measure)
    mask = DomainMask.full(chain.n_states)
    base_mean = mu_dot(chain, exit_mean(chain, mask))
    for k in (0.2, 0.5):
        plus = antisym_perturb(chain, flow, k)
        minus = antisym_perturb(chain, flow, -k)
        agg_p = mu_dot(plus, exit_mean(plus, mask))
        agg_m = mu_dot(minus, exit_mean(minus, mask))
        assert agg_p == pytest.approx(agg_m, abs=1e-10)
        assert agg_p <= base_mean + 1e-12


def test_cycle_flow_k_max_boundary():
    chain, flow = cycle_flow(3, 1.0)
    np.testing.assert_allclose(
        chain.q, [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]], atol=0
    )
    antisym_perturb(chain, flow, 1.0)
    antisym_perturb(chain, flow, -1.0)
    with pytest.raises(ValueError, match="k_max"):
        antisym_perturb(chain, flow, 1.0001)


def test_antisym_perturb_holds_one_copy_of_the_generator():
    chain, flow = cycle_flow(800)
    n = chain.n_states
    for k in (0.5, 1.0):
        perturbed, peak = traced_peak(lambda: antisym_perturb(chain, flow, k))
        np.testing.assert_array_equal(perturbed.q, chain.q + k * flow.gamma)
        # the rates, a boolean mask at a time and the tiles of the
        # antisymmetry test; a copy of Q or of |Gamma| read 4.4 n^2
        assert peak <= 1.5 * n * n * 8


CYCLE = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


def test_flow_matrix_checks_have_no_floor():
    with pytest.raises(ValueError, match="zero diagonal"):
        FlowMatrix(1e-20 * np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.5]]))
    with pytest.raises(ValueError, match="zero row sums"):
        FlowMatrix(1e-20 * np.array([[0.0, 1.0, -0.5], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]]))


def test_flow_antisymmetry_has_no_floor():
    assert not FlowMatrix(CYCLE).is_antisymmetric_for(Measure(np.array([1.0, 2.0, 1.0])))
    assert not FlowMatrix(1e-20 * CYCLE).is_antisymmetric_for(Measure(np.array([1.0, 2.0, 1.0])))


def test_conductance_check_has_no_floor():
    with pytest.raises(ValueError, match="symmetric"):
        weighted_graph(1e-20 * np.array([[0.0, 1.0], [2.0, 0.0]]), [1.0, 1.0])
    # one pair asymmetric by 2x at 1e-20 of the largest conductance
    with pytest.raises(ValueError, match="symmetric"):
        weighted_graph(np.array([[0.0, 1.0, 1e-20], [1.0, 0.0, 1.0], [2e-20, 1.0, 0.0]]), np.ones(3))


def test_antisym_perturb_zero_is_identity():
    chain, flow = cycle_flow(3, 1.0)
    same = antisym_perturb(chain, flow, 0.0)
    np.testing.assert_allclose(same.q, chain.q, atol=0)


def test_antisym_perturb_resolvent_aggregate_formula():
    # oracle: with the restriction [[-2, 1+k], [1-k, -2]] at beta = 1 the
    # aggregated solution is 8 / (8 + k^2), even in k
    chain, flow = cycle_flow(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    for k in np.linspace(-1.0, 1.0, 9):
        perturbed = antisym_perturb(chain, flow, float(k))
        lap = exit_laplace(perturbed, mask, 1.0)
        agg_u = mu_dot(perturbed, (1.0 - lap)) / 1.0
        assert agg_u == pytest.approx(8.0 / (8.0 + k**2), rel=1e-12)


def test_antisym_perturb_mean_aggregate_formula():
    chain, flow = cycle_flow(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    for k in (0.0, 0.5, 1.0):
        perturbed = antisym_perturb(chain, flow, k)
        agg = mu_dot(perturbed, exit_mean(perturbed, mask))
        assert agg == pytest.approx(6.0 / (3.0 + k**2), rel=1e-12)


def test_flow_aggregates_symmetric_and_monotone():
    chain, flow = cycle_flow(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    ks = np.linspace(0.0, 1.0, 11)
    for beta in (0.5, 1.0, 2.0):
        lap_agg = []
        for k in ks:
            plus = mu_dot(chain, exit_laplace(antisym_perturb(chain, flow, float(k)), mask, beta))
            minus = mu_dot(chain, exit_laplace(antisym_perturb(chain, flow, -float(k)), mask, beta))
            assert plus == pytest.approx(minus, abs=1e-10)
            lap_agg.append(plus)
        assert all(b >= a - 1e-12 for a, b in zip(lap_agg, lap_agg[1:]))
    mean_agg = [
        mu_dot(chain, exit_mean(antisym_perturb(chain, flow, float(k)), mask)) for k in ks
    ]
    assert all(b <= a + 1e-12 for a, b in zip(mean_agg, mean_agg[1:]))


def test_scaled_family_endpoints_and_monotonicity():
    base = dict(dimension=1, domain_box=((0.0, 1.0),), mesh_h=1 / 32, alpha=1.0)
    diff = discretize_jump_diffusion(GridModelSpec(**base, kappa=1.0, epsilon=0.0))
    jump = discretize_jump_diffusion(GridModelSpec(**base, kappa=0.0, epsilon=1.0))
    np.testing.assert_allclose(scaled_family(diff, jump, 1.0, 0.0).q, diff.q, atol=0)
    np.testing.assert_allclose(scaled_family(diff, jump, 0.0, 1.0).q, jump.q, atol=0)
    mask = DomainMask.full(diff.n_states)
    mean_k1 = mu_dot(diff, exit_mean(scaled_family(diff, jump, 1.0, 1.0), mask))
    mean_k2 = mu_dot(diff, exit_mean(scaled_family(diff, jump, 2.0, 1.0), mask))
    assert mean_k2 < mean_k1
    with pytest.raises(ValueError):
        scaled_family(diff, jump, 0.0, 0.0)


def test_scaled_family_rejects_measure_mismatch():
    a = discretize_jump_diffusion(
        GridModelSpec(dimension=1, domain_box=((0.0, 1.0),), mesh_h=0.25, epsilon=0.0)
    )
    b = discretize_jump_diffusion(
        GridModelSpec(dimension=1, domain_box=((0.0, 2.0),), mesh_h=0.5, epsilon=0.0)
    )
    with pytest.raises(ValueError):
        scaled_family(a, b, 1.0, 1.0)


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
def test_scaled_family_measure_check_follows_the_measure_scale(scale):
    rng = np.random.default_rng(9)
    w = scale * rng.uniform(0.5, 2.0, 6)
    cond = rng.uniform(0.2, 1.0, (6, 6))
    cond = cond + cond.T
    a = weighted_graph(cond, w)
    # relative differences of 1e-6 in the weights; a floor of 1 on the
    # tolerance passed them at scale 1e-20
    shifted = w * (1.0 + 1e-6 * np.linspace(-1.0, 1.0, 6))
    with pytest.raises(ValueError, match="parts must share the measure"):
        scaled_family(a, weighted_graph(cond, shifted), 1.0, 1.0)
    # rounding of the weights themselves passes at every scale
    same = weighted_graph(2.0 * cond, w * (1.0 + 2e-16))
    assert scaled_family(a, same, 1.0, 1.0).reversible


def test_scaled_family_checks_keep_their_order():
    a = discretize_jump_diffusion(GridModelSpec(dimension=1, domain_box=((0.0, 1.0),), mesh_h=0.125))
    ring, flow = cycle_flow(3, 1.0)
    flowed = antisym_perturb(ring, flow, 0.5)
    with pytest.raises(ValueError, match="state space"):
        scaled_family(a, flowed, 1.0, 1.0)
    with pytest.raises(ValueError, match="must be reversible"):
        scaled_family(ring, flowed, 1.0, 1.0)
    with pytest.raises(ValueError, match="must be reversible"):
        scaled_family(flowed, ring, 1.0, 1.0)


def test_grid_assembly_holds_one_copy_of_the_generator():
    spec = GridModelSpec(
        dimension=2, domain_box=((-1.0, 1.0), (-1.0, 1.0)), mesh_h=0.05, kappa=1.0, epsilon=1.0
    )
    chain, peak = traced_peak(lambda: discretize_jump_diffusion(spec))
    n = chain.n_states
    assert n == 39 * 39
    # q is assembled once, frozen and adopted by Generator; a copy would
    # read 2 n^2
    assert peak <= 1.1 * n * n * 8


def reference_generator(spec: GridModelSpec) -> np.ndarray:
    """Q entry by entry from the stencil definitions, one state pair at a time."""
    d, h, alpha, eps = spec.dimension, spec.mesh_h, spec.alpha, spec.epsilon
    pts = grid_points(spec)
    n = pts.shape[0]
    c = alpha * 2 ** (alpha - 1) * math.gamma((alpha + d) / 2) / (
        math.pi ** (d / 2) * math.gamma(1 - alpha / 2)
    )
    r_cut = spec.cutoff

    def a(p):
        return np.broadcast_to(np.asarray(spec.a(*p), dtype=float), (d,))

    def velocity(p):
        return -spec.k * np.asarray(spec.b(*p), dtype=float).reshape(d)

    def kernel_rate(offset):
        dist = h * math.sqrt(sum(m * m for m in offset))
        return c * dist ** (-(d + alpha)) * h**d if dist <= r_cut else 0.0

    if d == 1:
        second_moment = 2 * c * (h / 2) ** (2 - alpha) / (2 - alpha)
        tail = 2 * c * r_cut ** (-alpha) / alpha
    else:
        sub = 64
        second_moment = 0.0
        for i in range(sub):
            for j in range(sub):
                zx, zy = ((i + 0.5) / sub - 0.5) * h, ((j + 0.5) / sub - 0.5) * h
                second_moment += zx**2 * c * math.hypot(zx, zy) ** (-(2 + alpha))
        second_moment *= (h / sub) ** 2
        tail = 2 * math.pi * c * r_cut ** (-alpha) / alpha
    nn_fix = second_moment / 2 / h**2
    reach = int(math.ceil(r_cut / h))
    offsets = itertools.product(range(-reach, reach + 1), repeat=d)
    disc = sum(kernel_rate(m) for m in offsets if any(m))

    q = np.zeros((n, n))
    for x in range(n):
        vel = velocity(pts[x])
        for y in range(n):
            if x == y:
                continue
            offset = tuple(int(v) for v in np.rint((pts[y] - pts[x]) / h))
            unit = [k for k in range(d) if abs(offset[k]) == 1 and sum(map(abs, offset)) == 1]
            rate = eps * kernel_rate(offset)
            for k in unit:
                rate += spec.kappa * a((pts[x] + pts[y]) / 2)[k] / h**2
                rate += eps * nn_fix
                if np.sign(vel[k]) == offset[k]:
                    rate += abs(vel[k]) / h
            q[x, y] = rate
        out = 0.0
        for k in range(d):
            for side in (-1, 1):
                face = pts[x].copy()
                face[k] += side * h / 2
                out += spec.kappa * a(face)[k] / h**2
            out += abs(vel[k]) / h
        q[x, x] = -out - eps * (disc + tail + 2 * d * nn_fix)
    return q


@pytest.mark.parametrize(
    "spec",
    [
        GridModelSpec(
            dimension=2,
            domain_box=((0.0, 1.5), (0.0, 1.0)),
            mesh_h=1 / 8,
            a=lambda x, y: (1.0 + x * y, 2.0 + math.sin(3 * x + y)),
            b=lambda x, y: (x - 0.7, 0.5 - x * y),
            k=3.0,
            alpha=1.3,
            kappa=0.8,
            epsilon=0.7,
        ),
        GridModelSpec(
            dimension=1,
            domain_box=((0.0, 1.5),),
            mesh_h=1 / 8,
            a=lambda x: 1.0 + x / 2,
            b=lambda x: x - 0.6,
            k=-2.0,
            alpha=0.7,
            kappa=1.2,
            epsilon=0.6,
        ),
    ],
    ids=["2d-rectangle", "1d"],
)
def test_assembly_matches_the_stencil_definitions(spec):
    # an 11 x 7 grid: a swapped axis or a transposed block would show
    q = discretize_jump_diffusion(spec).q
    ref = reference_generator(spec)
    assert np.abs(q - ref).max() <= 1e-13 * np.abs(ref).max()


def _f_string_labels(pts) -> tuple:
    return tuple("(" + ",".join(f"{v:.10g}" for v in p) + ")" for p in pts)


def test_grid_labels_are_the_formatted_points():
    spec = GridModelSpec(dimension=2, domain_box=((-1.0, 1.0), (-0.5, 1.0)), mesh_h=0.125, epsilon=0.0)
    chain = discretize_jump_diffusion(spec)
    assert chain.labels == _f_string_labels(grid_points(spec))


@pytest.mark.parametrize(
    "pts",
    [
        [[-0.0, 1e-300], [5e300, -5e300], [0.1 + 0.2, 1.0 / 3.0], [123456789012.5, -1e-5]],
        [[-0.0], [1e-300], [5e300]],
        np.zeros((0, 2)),
    ],
)
def test_point_labels_match_the_f_string_formula(pts):
    pts = np.asarray(pts, dtype=float)
    assert _point_labels(pts) == _f_string_labels(pts)


# Diffusion fields of the assembler's property test, by name: constants, a
# smooth isotropic and a per-axis callable, one that vanishes inside the box
# and an infinite one.
A_FIELDS = {
    "one": lambda d: 1.0,
    "axes": lambda d: (0.5, 2.0)[:d],
    "smooth": lambda d: lambda *p: 1.0 + sum(v * v for v in p),
    "per_axis": lambda d: lambda *p: [1.0 + 0.5 * v for v in p],
    "vanishing": lambda d: lambda *p: p[0] - 0.5,
    "infinite": lambda d: lambda *p: math.inf,
}

# Drifts (b, k): none, constant, a callable field, and one twelve decades
# below the rates on the last axis.
DRIFTS = {
    "none": lambda d: (None, 0.0),
    "constant": lambda d: ((1.0,) * d, 0.5),
    "field": lambda d: (lambda *p: [v - 0.5 for v in p], 2.0),
    "weak": lambda d: ((0.0,) * (d - 1) + (1e-11,), 1.0),
}


def _sweep_verdict(step):
    """(exit status, message) of ``exitlab validate``'s handling of one step."""
    from exitlab.cli import ConfigError

    try:
        step()
    except ConfigError as err:
        return 2, str(err)
    except Exception as err:  # noqa: BLE001 - the verdict is what is compared
        return 3, repr(err)
    return 0, None


def _old_sweep_route(spec):
    """The scale sweep's checks made on each part's whole chain: its
    assembly, detailed balance on every pair and the shared measure."""
    from dataclasses import replace

    from exitlab.cli import _at
    from exitlab.models import _check_family_part, _check_shared_measure

    mus = []
    for scales in ({"kappa": 1.0, "epsilon": 0.0}, {"kappa": 0.0, "epsilon": 1.0}):
        with _at("$.model.params"):
            part = discretize_jump_diffusion(replace(spec, **scales))
        with _at("$.sweep"):
            _check_family_part(part)
        mus.append(part.mu)
    with _at("$.sweep"):
        _check_shared_measure(*mus)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_assembly_on_a_domain_is_the_restricted_assembly_bit_for_bit(data):
    from exitlab.cli import ExperimentConfig, SweepConfig, prepare
    from exitlab.models import _assemble

    d = data.draw(st.sampled_from([1, 2]), label="dimension")
    h = data.draw(st.sampled_from([0.25, 0.125] if d == 2 else [0.125, 0.0625]), label="h")
    box = ((0.0, 1.0),) * d if d == 1 else ((0.0, 1.0), data.draw(st.sampled_from([(0.0, 1.0), (0.0, 0.5)])))
    b, k = DRIFTS[data.draw(st.sampled_from(sorted(DRIFTS)), label="drift")](d)
    kappa, epsilon = data.draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.7, 0.3)]), label="scales")
    spec = GridModelSpec(
        dimension=d,
        domain_box=box,
        mesh_h=h,
        a=A_FIELDS[data.draw(st.sampled_from(sorted(A_FIELDS)), label="a")](d),
        b=b,
        k=k,
        alpha=data.draw(st.sampled_from([0.5, 1.0, 1.5]), label="alpha"),
        kappa=kappa,
        epsilon=epsilon,
        jump_cutoff_radius=data.draw(st.sampled_from([None, 0.3]), label="cutoff"),
        ellipticity=data.draw(st.sampled_from([None, (0.1, 10.0), (1.5, 10.0)]), label="ellipticity"),
    )
    pts = grid_points(spec)
    n = pts.shape[0]
    kind = data.draw(st.sampled_from(["all", "box", "states", "one", "apart"]), label="domain")
    if kind == "box":
        lo, hi = data.draw(st.tuples(st.floats(0.0, 0.6), st.floats(0.4, 1.0)).filter(lambda e: e[0] < e[1]))
        omega = {"box": [[lo, hi]] * d}
        inside = ((pts > lo) & (pts < hi)).all(axis=1)
    else:
        chosen = {
            "all": range(n),
            "states": data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)),
            "one": [data.draw(st.integers(0, n - 1))],
            "apart": [0, n - 1],  # disconnected wherever the grid has more than two points
        }[kind]
        inside = np.zeros(n, dtype=bool)
        inside[list(chosen)] = True
        omega = "all" if kind == "all" else sorted(set(chosen))
    if not inside.any():
        return
    states = np.flatnonzero(inside)

    full, block = _sweep_verdict(lambda: _assemble(spec)), _sweep_verdict(lambda: _assemble(spec, states))
    assert full == block  # an assembly that fails, fails alike on the domain
    if full[0] == 0:
        whole, part = _assemble(spec), _assemble(spec, states)
        assert np.array_equal(part.q, whole.q[np.ix_(states, states)])
        assert np.array_equal(part.diag, whole.diag) and np.array_equal(part.near, whole.near)

    cfg = ExperimentConfig(
        model={"builder": "grid_jump_diffusion", "params": {}},
        spec=spec,
        omega=omega,
        betas=(1.0,),
        commands=("sweep",),
        output=None,
        formats=("json",),
        xi=None,
        sweep=SweepConfig("scale", kappa=(1.0,), epsilon=(1.0,)),
        mc=None,
    )
    assert _sweep_verdict(lambda: prepare(cfg)) == _sweep_verdict(lambda: _old_sweep_route(spec))


def test_a_part_on_a_domain_rejects_an_infinite_rate_off_the_domain():
    from exitlab.models import _grid_part

    # the block on states 0-2 is finite; the whole grid's diagonal is not
    spec = GridModelSpec(1, ((0.0, 1.0),), 0.125, a=lambda x: math.inf if x > 0.8 else 1.0)
    for build in (lambda: discretize_jump_diffusion(spec), lambda: _grid_part(spec, [0, 1, 2])):
        with pytest.raises(ValueError, match="generator rates must be finite"):
            build()
