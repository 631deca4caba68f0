"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rA`) to see the
per-criterion lines.
"""
import math
from contextlib import contextmanager

import numpy as np
import pytest

from exitlab import (
    DomainMask,
    GridModelSpec,
    McConfig,
    antisym_perturb,
    complete_graph,
    cycle_flow,
    dirichlet_pair,
    discretize_jump_diffusion,
    estimate_exit_functionals,
    exit_exp_moment,
    exit_laplace,
    exit_mean,
    exp_moment_inf,
    eval_form,
    grid_points,
    saddle_value,
    scaled_family,
    simulate_exit_times,
    solve_poisson,
    spectral_gap,
    symmetric_inf,
)
from conftest import (
    example_cases,
    make_chain,
    mu_dot,
    random_nonsymmetric_chain,
    random_proper_mask,
    random_reversible_chain,
)

RTOL = 1e-9


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL: {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS: {description}")


def test_criterion_01_variational_equals_exact():
    with criterion(1, "inf-sup value equals the exact resolvent pairing (both modes)"):
        rng = np.random.default_rng(101)
        for trial in range(50):
            n = int(rng.integers(3, 31))
            chain = random_nonsymmetric_chain(rng, n)
            mask = random_proper_mask(rng, n)
            xi = rng.uniform(0.2, 1.0, mask.size)
            beta0 = chain.beta0
            for beta in (beta0 + 0.1, 1.0, 5.0):
                u = solve_poisson(chain, mask, beta, xi)
                exact = 1.0 / float(np.sum(chain.mu[mask.indices] * xi * u))
                closed = saddle_value(chain, mask, beta, xi, mode="closed_form")
                iterative = saddle_value(chain, mask, beta, xi, mode="iterative")
                assert closed.value == pytest.approx(exact, rel=RTOL)
                assert iterative.value == pytest.approx(exact, rel=RTOL)
            # unit source ties the value to the aggregated Laplace transform
            beta = 1.0
            sol = saddle_value(chain, mask, beta, np.ones(mask.size))
            lap = exit_laplace(chain, mask, beta)
            assert sol.value == pytest.approx(
                beta / float(np.sum(chain.mu * (1.0 - lap))), rel=RTOL
            )


def test_criterion_02_constructed_pair_is_optimal():
    with criterion(2, "constructed optimizers survive 100 perturbations per side"):
        rng = np.random.default_rng(202)
        for trial in range(10):
            n = int(rng.integers(3, 25))
            chain = random_nonsymmetric_chain(rng, n)
            mask = random_proper_mask(rng, n)
            xi = rng.uniform(0.2, 1.0, mask.size)
            sol = saddle_value(chain, mask, 1.0, xi)
            idx = mask.indices
            c = np.zeros(n)
            c[idx] = chain.mu[idx] * xi
            keep = np.zeros(n)
            keep[idx] = 1.0
            proj = np.eye(n) - np.outer(c, c) / (c @ c)
            for _ in range(100):
                g = np.where(keep > 0, proj @ (rng.standard_normal(n) * keep), 0.0)
                assert sol.value - eval_form(chain, 1.0, sol.f_star + g, sol.f_star - g) >= -1e-8
                f = sol.f_star + np.where(keep > 0, proj @ (rng.standard_normal(n) * keep), 0.0)
                assert eval_form(chain, 1.0, f + sol.g_star, f - sol.g_star) - sol.value >= -1e-8


def test_criterion_03_symmetric_reduction():
    with criterion(3, "symmetric infimum equals the saddle value with vanishing g"):
        rng = np.random.default_rng(303)
        for trial in range(20):
            n = int(rng.integers(3, 25))
            chain = random_reversible_chain(rng, n, killing=bool(rng.integers(0, 2)))
            mask = random_proper_mask(rng, n)
            xi = rng.uniform(0.2, 1.0, mask.size)
            sol = saddle_value(chain, mask, 1.0, xi)
            assert symmetric_inf(chain, mask, 1.0, xi) == pytest.approx(sol.value, rel=RTOL)
            assert np.abs(sol.g_star).max() <= 1e-10


def test_criterion_04_exponential_moment_formula():
    with criterion(4, "exponential-moment infimum matches the exact moment route"):
        chain = complete_graph(3, 1.0)
        mask = DomainMask.from_states([0, 1], 3)
        lam0 = dirichlet_pair(chain, mask)[0]
        value = exp_moment_inf(chain, mask, 0.5, lam0)
        assert value == pytest.approx(0.75, abs=1e-12)
        agg = mu_dot(chain, exit_exp_moment(chain, mask, 0.5, lam0))
        assert agg == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert 0.5 / (agg - 1.0) == pytest.approx(0.75, abs=1e-12)
        for beta in (1.0, 1.5, 4.0):
            assert exp_moment_inf(chain, mask, beta, lam0) == 0.0

        rng = np.random.default_rng(404)
        for trial in range(20):
            n = int(rng.integers(3, 20))
            rchain = random_reversible_chain(rng, n)
            rmask = random_proper_mask(rng, n)
            rlam0 = dirichlet_pair(rchain, rmask)[0]
            beta = 0.5 * rlam0
            left = exp_moment_inf(rchain, rmask, beta, rlam0)
            agg = mu_dot(rchain, exit_exp_moment(rchain, rmask, beta, rlam0))
            assert left == pytest.approx(beta / (agg - 1.0), rel=RTOL)


def test_criterion_05_bounds_ledger():
    with criterion(5, "all eight bound families hold; worked equalities to 1e-12"):
        from exitlab import bounds_report

        chain = complete_graph(3, 1.0)
        mask = DomainMask.from_states([0, 1], 3)
        ledger = bounds_report(chain, mask, [0.5, 1.0])
        by_key = {(e.name, e.beta): e for e in ledger.entries}
        lower_exp = by_key[("exp_moment_lower_eigenfunction", 0.5)]
        assert lower_exp.lhs == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert abs(lower_exp.slack) <= 1e-12
        upper_lap = by_key[("laplace_upper_eigenfunction", 1.0)]
        assert upper_lap.lhs == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert abs(upper_lap.slack) <= 1e-12
        assert ledger.all_satisfied()

        rng = np.random.default_rng(505)
        families = set()
        for trial in range(20):
            n = int(rng.integers(3, 16))
            rchain = random_reversible_chain(rng, n)
            rmask = random_proper_mask(rng, n)
            if trial % 2 == 0:
                # rescale time so lambda0 > 1 and the series bound applies
                lam0 = dirichlet_pair(rchain, rmask)[0]
                rchain = make_chain((1.5 / lam0) * rchain.q, rchain.mu, normalized=True)
            lam0 = dirichlet_pair(rchain, rmask)[0]
            betas = [0.4 * lam0, 0.9 * lam0, 1.5 * lam0]
            lyap = exit_mean(rchain, rmask)
            rledger = bounds_report(rchain, rmask, betas, lyapunov=lyap)
            for entry in rledger.entries:
                if not entry.skipped:
                    assert entry.slack >= -1e-9, (entry.name, entry.beta, entry.slack)
                    families.add(entry.name)
        assert families >= {
            "exp_moment_upper_lambda0",
            "exp_moment_upper_gap",
            "exp_moment_lower_eigenfunction",
            "laplace_lower_lambda0",
            "laplace_upper_eigenfunction",
            "mean_upper_lambda0",
            "mean_lower_eigenfunction",
            "lambda0_vs_gap",
            "odd_moment_series",
            "exp_moment_upper_lyapunov",
            "laplace_lower_lyapunov",
            "mean_upper_lyapunov",
        }


def test_criterion_06_comparison_sweeps():
    with criterion(6, "flow aggregates even in k, closed form 6/(3+k^2); scale sweeps monotone"):
        chain, flow = cycle_flow(3, 1.0)
        mask = DomainMask.from_states([0, 1], 3)
        for k in np.linspace(-1.0, 1.0, 21):
            perturbed = antisym_perturb(chain, flow, float(k))
            agg_mean = mu_dot(perturbed, exit_mean(perturbed, mask))
            assert agg_mean == pytest.approx(6.0 / (3.0 + k**2), abs=1e-10)
        for beta in (0.5, 1.0, 2.0):
            for k in (0.25, 0.5, 0.75, 1.0):
                plus = mu_dot(chain, exit_laplace(antisym_perturb(chain, flow, k), mask, beta))
                minus = mu_dot(chain, exit_laplace(antisym_perturb(chain, flow, -k), mask, beta))
                assert abs(plus - minus) <= 1e-10

        base = dict(dimension=1, domain_box=((0.0, 1.0),), mesh_h=1 / 64, alpha=1.0)
        diff = discretize_jump_diffusion(GridModelSpec(**base, kappa=1.0, epsilon=0.0))
        jump = discretize_jump_diffusion(GridModelSpec(**base, kappa=0.0, epsilon=1.0))
        gmask = DomainMask.full(diff.n_states)
        scales = (0.5, 1.0, 2.0)
        lap = {}
        mean = {}
        for kap in scales:
            for eps in scales:
                ch = scaled_family(diff, jump, kap, eps)
                lap[(kap, eps)] = mu_dot(ch, exit_laplace(ch, gmask, 1.0))
                mean[(kap, eps)] = mu_dot(ch, exit_mean(ch, gmask))
        for fixed in scales:
            lap_k = [lap[(k, fixed)] for k in scales]
            lap_e = [lap[(fixed, e)] for e in scales]
            mean_k = [mean[(k, fixed)] for k in scales]
            mean_e = [mean[(fixed, e)] for e in scales]
            assert all(b >= a - 1e-12 for a, b in zip(lap_k, lap_k[1:]))
            assert all(b >= a - 1e-12 for a, b in zip(lap_e, lap_e[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(mean_k, mean_k[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(mean_e, mean_e[1:]))


def test_criterion_07_stable_exit_mean():
    with criterion(7, "alpha-stable mean exit at the center within 2% of the closed form"):
        # independent oracle, computed before the build:
        # E_x[tau] = C (1 - x^2)^(1/2), C = Gamma(1/2) / (2 Gamma(3/2) Gamma(1)) = 1
        coeff = math.gamma(0.5) / (2.0 * math.gamma(1.5) * math.gamma(1.0))
        assert coeff == pytest.approx(1.0, rel=1e-14)

        def center_mean(h):
            spec = GridModelSpec(
                dimension=1,
                domain_box=((-1.0, 1.0),),
                mesh_h=h,
                kappa=0.0,
                epsilon=1.0,
                alpha=1.0,
            )
            ch = discretize_jump_diffusion(spec)
            xs = grid_points(spec)[:, 0]
            m = exit_mean(ch, DomainMask.full(ch.n_states))
            i0 = int(np.argmin(np.abs(xs)))
            assert abs(xs[i0]) < 1e-12
            return m[i0]

        m_256 = center_mean(1 / 256)
        assert abs(m_256 - coeff) / coeff < 0.02
        m_512 = center_mean(1 / 512)
        assert abs(m_512 - coeff) / coeff < 0.02
        # the fine grid must sit at least as close to the closed form
        assert abs(m_512 - coeff) <= abs(m_256 - coeff)
        assert abs(m_256 - m_512) / coeff < 0.02


def test_criterion_08_monte_carlo_oracle():
    with criterion(8, "Monte Carlo within 3 standard errors of the exact solves"):
        def run_check(chain, mask, seed):
            config = McConfig(n_paths=100_000, seed=seed, start=0, betas=(0.5, 1.0))
            samples = simulate_exit_times(chain, mask, config)
            est = estimate_exit_functionals(samples, config.betas)
            mean_exact = exit_mean(chain, mask)[0]
            checks = [abs(est.mean[0] - mean_exact) <= 3 * est.mean[1] + 1e-12]
            for beta in config.betas:
                exact = exit_laplace(chain, mask, beta)[0]
                got, se = est.laplace[beta]
                checks.append(abs(got - exact) <= 3 * se + 1e-12)
            return all(checks), samples

        for name, chain, mask in example_cases():
            if not mask.inside[0]:
                continue
            ok, samples = run_check(chain, mask, seed=8001)
            if not ok:
                # one rerun with a fixed second seed before declaring failure
                ok, _ = run_check(chain, mask, seed=8002)
            assert ok, name
            again = simulate_exit_times(
                chain, mask, McConfig(n_paths=1000, seed=8001, start=0, betas=(0.5,))
            )
            once = simulate_exit_times(
                chain, mask, McConfig(n_paths=1000, seed=8001, start=0, betas=(0.5,))
            )
            assert np.array_equal(again.tau, once.tau)


def test_criterion_09_spectral_edge():
    with criterion(9, "moment blows up exactly at the Dirichlet eigenvalue"):
        rng = np.random.default_rng(909)
        for trial in range(10):
            n = int(rng.integers(3, 14))
            chain = random_reversible_chain(rng, n)
            mask = random_proper_mask(rng, n)
            lam0 = dirichlet_pair(chain, mask)[0]
            assert lam0 > 1e-3
            below = exit_exp_moment(chain, mask, lam0 - 1e-3, lam0)
            assert np.all(np.isfinite(below))
            at_edge = exit_exp_moment(chain, mask, lam0, lam0)
            assert np.all(np.isinf(at_edge[mask.inside]))
            lam1 = spectral_gap(chain)
            pi_out = float(np.sum(chain.mu[~mask.inside]))
            assert lam0 >= lam1 * pi_out - 1e-10


def test_criterion_10_limit_identity():
    with criterion(10, "small-shift Laplace quotient reproduces the mean"):
        beta = 1e-6
        for name, chain, mask in example_cases():
            mean_pi = mu_dot(chain, exit_mean(chain, mask))
            lap_pi = mu_dot(chain, exit_laplace(chain, mask, beta))
            total = chain.mu.sum()
            quotient = (total - lap_pi) / beta
            assert quotient == pytest.approx(mean_pi, rel=1e-4), name
