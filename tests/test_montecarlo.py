import numpy as np
import pytest

from exitlab import (
    DomainMask,
    McConfig,
    complete_graph,
    estimate_exit_functionals,
    exit_mean,
    simulate_exit_times,
)
from exitlab.montecarlo import ExitSamples
from conftest import single_state_chain


def test_single_state_mean_and_laplace():
    chain = single_state_chain()
    mask = DomainMask.full(1)
    config = McConfig(n_paths=100_000, seed=11, start=0, betas=(1.0,))
    samples = simulate_exit_times(chain, mask, config)
    est = estimate_exit_functionals(samples, config.betas)
    assert abs(est.mean[0] - 0.5) <= 3 * est.mean[1]
    mc_lap, se = est.laplace[1.0]
    assert abs(mc_lap - 2.0 / 3.0) <= 3 * se
    assert est.n_censored == 0


def test_fixed_seed_is_bit_identical():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    config = McConfig(n_paths=2000, seed=42, start=0, betas=(0.5,))
    a = simulate_exit_times(chain, mask, config)
    b = simulate_exit_times(chain, mask, config)
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.censored, b.censored)
    est_a = estimate_exit_functionals(a, config.betas)
    est_b = estimate_exit_functionals(b, config.betas)
    assert est_a.mean == est_b.mean
    assert est_a.laplace == est_b.laplace


def test_path_prefix_does_not_depend_on_path_count():
    # each path draws from its own (seed, path index) stream, so the first k
    # paths of an n-path run are the k-path run
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    start = chain.mu.tolist()
    short = simulate_exit_times(chain, mask, McConfig(n_paths=300, seed=7, start=start))
    full = simulate_exit_times(chain, mask, McConfig(n_paths=5000, seed=7, start=start))
    assert np.array_equal(full.tau[:300], short.tau)
    assert np.array_equal(full.censored[:300], short.censored)
    assert not np.array_equal(full.tau[300:600], short.tau)


def test_three_state_mean_from_state_zero():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    config = McConfig(n_paths=100_000, seed=3, start=0, betas=())
    est = estimate_exit_functionals(simulate_exit_times(chain, mask, config), ())
    exact = exit_mean(chain, mask)[0]
    assert exact == pytest.approx(1.0, abs=1e-12)
    assert abs(est.mean[0] - exact) <= 3 * est.mean[1]


def test_stationary_start_exponential_moment():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    config = McConfig(n_paths=100_000, seed=5, start=chain.mu.tolist(), betas=(0.5,))
    samples = simulate_exit_times(chain, mask, config)
    est = estimate_exit_functionals(samples, config.betas, exp_betas=(0.5,))
    mc_exp, se, heavy = est.exp_moment[0.5]
    assert abs(mc_exp - 5.0 / 3.0) <= 3 * se
    assert not heavy


def test_start_outside_domain_gives_zero_samples():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    config = McConfig(n_paths=50, seed=1, start=2, betas=(1.0,))
    samples = simulate_exit_times(chain, mask, config)
    assert samples.start_off_domain
    assert np.all(samples.tau == 0.0)
    est = estimate_exit_functionals(samples, config.betas)
    assert est.mean[0] == 0.0
    assert est.laplace[1.0][0] == 1.0


def test_censoring_monotone_in_horizon():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    short = McConfig(n_paths=4000, seed=9, start=0, betas=(), max_time=0.5)
    longer = McConfig(n_paths=4000, seed=9, start=0, betas=(), max_time=2.0)
    s_short = simulate_exit_times(chain, mask, short)
    s_long = simulate_exit_times(chain, mask, longer)
    assert s_short.censored.sum() >= s_long.censored.sum()
    uncensored_short = (~s_short.censored).sum()
    uncensored_long = (~s_long.censored).sum()
    assert uncensored_long >= uncensored_short
    est = estimate_exit_functionals(s_short, (), exp_betas=(0.5,))
    assert est.exp_moment_lower_bound


def test_absorbing_inside_state_censors():
    # conservative single state: no exit at all, every path censors at the horizon
    from exitlab import Chain, Generator, Measure

    stuck = Chain(Generator(np.array([[0.0]])), Measure(np.ones(1)))
    config = McConfig(n_paths=10, seed=2, start=0, betas=(), max_time=5.0)
    samples = simulate_exit_times(stuck, DomainMask.full(1), config)
    assert np.all(samples.censored)
    assert np.all(samples.tau == 5.0)


def test_heavy_tail_flag_on_synthetic_samples():
    tau = np.zeros(1000)
    tau[-1] = 40.0
    samples = ExitSamples(tau=tau, censored=np.zeros(1000, dtype=bool))
    est = estimate_exit_functionals(samples, (), exp_betas=(1.0,))
    assert est.exp_moment[1.0][2]


def test_all_zero_samples_edge_case():
    samples = ExitSamples(tau=np.zeros(10), censored=np.zeros(10, dtype=bool))
    est = estimate_exit_functionals(samples, (0.7,))
    assert est.laplace[0.7] == (1.0, 0.0)
    assert est.mean == (0.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_paths=0, seed=1, start=0)
    with pytest.raises(ValueError):
        McConfig(n_paths=10, seed=1, start=0, max_time=0.0)
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    with pytest.raises(ValueError):
        simulate_exit_times(chain, mask, McConfig(n_paths=10, seed=1, start=9))
    with pytest.raises(ValueError):
        simulate_exit_times(
            chain, mask, McConfig(n_paths=10, seed=1, start=[0.5, 0.2, 0.2])
        )


def test_samples_csv():
    samples = ExitSamples(tau=np.array([0.5, 1.25]), censored=np.array([False, True]))
    text = samples.to_csv()
    lines = text.splitlines()
    assert lines[0] == "path,tau,censored"
    assert lines[1] == "0,0.5,0"
    assert lines[2] == "1,1.25,1"
