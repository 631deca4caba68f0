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
from exitlab import montecarlo
from exitlab.montecarlo import BLOCK, HORIZON, ExitSamples
from conftest import make_chain, random_reversible_chain, single_state_chain, two_state_killed_chain


def metastable_chain():
    """Leaves {0, 1, 2} from 0 at once, except that one path in 500 falls
    into the 1 <-> 2 trap and jumps about 2000 times before it exits."""
    q = np.zeros((4, 4))
    for (i, j), r in {(0, 1): 2e-3, (0, 3): 1.0, (1, 2): 1.0, (2, 1): 1.0, (2, 3): 1e-3, (3, 0): 1.0}.items():
        q[i, j] = r
    np.fill_diagonal(q, -q.sum(axis=1))
    return make_chain(q, np.ones(4)), DomainMask.from_states([0, 1, 2], 4)


@pytest.fixture
def stragglers(monkeypatch):
    """Collects the paths that run past the lockstep horizon."""
    seen = []
    finish = montecarlo._finish_paths

    def recording(seed, paths, *args):
        seen.extend(paths)
        return finish(seed, paths, *args)

    monkeypatch.setattr(montecarlo, "_finish_paths", recording)
    return seen


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


def test_path_prefix_holds_across_a_block_boundary():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    short = simulate_exit_times(chain, mask, McConfig(n_paths=BLOCK + 300, seed=7, start=0))
    full = simulate_exit_times(chain, mask, McConfig(n_paths=2 * BLOCK + 7, seed=7, start=0))
    assert np.array_equal(full.tau[: BLOCK + 300], short.tau)
    assert np.array_equal(full.censored[: BLOCK + 300], short.censored)
    # the second block has a stream of its own
    assert not np.array_equal(full.tau[BLOCK : 2 * BLOCK], full.tau[:BLOCK])


def test_metastable_mean_and_prefix_past_the_horizon(stragglers):
    chain, mask = metastable_chain()
    full = simulate_exit_times(chain, mask, McConfig(n_paths=20_000, seed=5, start=0))
    est = estimate_exit_functionals(full, ())
    exact = exit_mean(chain, mask)[0]
    assert abs(est.mean[0] - exact) <= 3 * est.mean[1]

    k = BLOCK + 3000
    stragglers.clear()
    short = simulate_exit_times(chain, mask, McConfig(n_paths=k, seed=5, start=0))
    # paths on both sides of the block boundary ran past the lockstep horizon
    assert min(stragglers) < BLOCK <= max(stragglers) < k
    assert np.array_equal(full.tau[:k], short.tau)
    assert np.array_equal(full.censored[:k], short.censored)


def reference_exit_time(chain, mask, seed, path, start):
    """Path-by-path statement of the stream rule, for a chain without
    killing: steps draw the full block width from the (seed, block) stream,
    and after HORIZON of them the path reads chunks of HORIZON exponentials
    then HORIZON uniforms from its own (seed, path | 2**63) stream."""
    block, col = divmod(path, BLOCK)
    q = chain.q

    def jump(x, t, e, u):
        rates = np.where(np.arange(chain.n_states) == x, 0.0, q[x])
        t += e * (1.0 / -q[x, x])
        j = int(np.searchsorted(np.cumsum(rates) / -q[x, x], u, side="right"))
        return min(j, chain.n_states - 1), t

    g = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
    x, t = start, 0.0
    for _ in range(HORIZON):
        x, t = jump(x, t, g.standard_exponential(BLOCK)[col], g.random(BLOCK)[col])
        if not mask.inside[x]:
            return t
    g = np.random.Generator(np.random.Philox(key=np.array([seed, path | 1 << 63], dtype=np.uint64)))
    while True:
        for e, u in zip(g.standard_exponential(HORIZON), g.random(HORIZON)):
            x, t = jump(x, t, e, u)
            if not mask.inside[x]:
                return t


def test_lockstep_matches_the_path_by_path_reference(stragglers):
    chain, mask = metastable_chain()
    samples = simulate_exit_times(chain, mask, McConfig(n_paths=BLOCK + 2000, seed=5, start=0))
    late = [p for p in stragglers if p >= BLOCK][:2]
    assert late
    for path in [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1] + late:
        assert samples.tau[path] == reference_exit_time(chain, mask, 5, path, 0)


def test_distribution_start_draws_from_the_block_stream():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    start = chain.mu.tolist()
    n_paths = 2 * BLOCK + 7
    samples = simulate_exit_times(chain, mask, McConfig(n_paths=n_paths, seed=13, start=start))
    assert samples.start_off_domain
    # a third of the paths start outside the domain and exit at time zero
    off = samples.tau == 0.0
    assert abs(off.mean() - 1.0 / 3.0) <= 3 * np.sqrt(2.0 / 9.0 / n_paths)
    est = estimate_exit_functionals(samples, ())
    exact = float(chain.mu @ exit_mean(chain, mask))
    assert abs(est.mean[0] - exact) <= 3 * est.mean[1]
    short = simulate_exit_times(chain, mask, McConfig(n_paths=BLOCK + 1, seed=13, start=start))
    assert np.array_equal(samples.tau[: BLOCK + 1], short.tau)


def test_rounding_noise_is_no_killing_branch():
    # a conservative row whose sum is rounding noise has no exit to the cemetery
    chain = random_reversible_chain(np.random.default_rng(0), 40)
    table = montecarlo._jump_table(chain.q, np.ones(40, dtype=bool))
    assert not np.any(table.targets == -1)
    # a real killing rate keeps its branch
    killed = montecarlo._jump_table(two_state_killed_chain().q, np.ones(2, dtype=bool))
    assert np.count_nonzero(killed.targets == -1) == 2


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


@pytest.mark.parametrize("start", [1.9, "1", True])
def test_non_integer_start_state_rejected(start):
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    with pytest.raises(ValueError, match="integer"):
        simulate_exit_times(chain, mask, McConfig(n_paths=10, seed=1, start=start))


def test_samples_csv():
    samples = ExitSamples(tau=np.array([0.5, 1.25]), censored=np.array([False, True]))
    text = samples.to_csv()
    lines = text.splitlines()
    assert lines[0] == "path,tau,censored"
    assert lines[1] == "0,0.5,0"
    assert lines[2] == "1,1.25,1"
    # rows are joined a block of paths at a time
    tau = np.arange(BLOCK + 2) / 4.0
    lines = ExitSamples(tau=tau, censored=tau == BLOCK / 4.0).to_csv().splitlines()
    assert len(lines) == BLOCK + 3
    assert lines[BLOCK : BLOCK + 3] == [f"{BLOCK - 1},{(BLOCK - 1) / 4.0!r},0", f"{BLOCK},{BLOCK / 4.0!r},1", f"{BLOCK + 1},{(BLOCK + 1) / 4.0!r},0"]
