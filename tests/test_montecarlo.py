import bisect
import itertools

import numpy as np
import pytest

from exitlab import (
    DomainMask,
    McConfig,
    birth_death,
    complete_graph,
    estimate_exit_functionals,
    exit_mean,
    simulate_exit_times,
)
from exitlab import montecarlo
from exitlab.defaults import STRUCTURAL_TOL
from exitlab.montecarlo import BLOCK, STRAGGLER_CHUNK, STRAGGLERS, ExitSamples
from conftest import make_chain, random_reversible_chain, single_state_chain, traced_peak, two_state_killed_chain


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
    """Collects the paths handed to the scalar straggler loop."""
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
    config = McConfig(n_paths=100_000, seed=11, start=0)
    samples = simulate_exit_times(chain, mask, config)
    est = estimate_exit_functionals(samples, (1.0,))
    assert abs(est.mean[0] - 0.5) <= 3 * est.mean[1]
    mc_lap, se = est.laplace[1.0]
    assert abs(mc_lap - 2.0 / 3.0) <= 3 * se
    assert est.n_censored == 0


def test_fixed_seed_is_bit_identical():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    config = McConfig(n_paths=2000, seed=42, start=0)
    a = simulate_exit_times(chain, mask, config)
    b = simulate_exit_times(chain, mask, config)
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.censored, b.censored)
    est_a = estimate_exit_functionals(a, (0.5,))
    est_b = estimate_exit_functionals(b, (0.5,))
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


def test_metastable_mean_and_prefix_for_stragglers(stragglers):
    chain, mask = metastable_chain()
    full = simulate_exit_times(chain, mask, McConfig(n_paths=20_000, seed=5, start=0))
    est = estimate_exit_functionals(full, ())
    exact = exit_mean(chain, mask)[0]
    assert abs(est.mean[0] - exact) <= 3 * est.mean[1]

    k = BLOCK + 3000
    stragglers.clear()
    short = simulate_exit_times(chain, mask, McConfig(n_paths=k, seed=5, start=0))
    # paths on both sides of the block boundary finished alone
    assert min(stragglers) < BLOCK <= max(stragglers) < k
    assert np.array_equal(full.tau[:k], short.tau)
    assert np.array_equal(full.censored[:k], short.censored)


def _philox(seed, key):
    return np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))


def reference_block(chain, mask, seed, block, n_real, start):
    """Column-by-column statement of the stream rule, for a start inside the
    domain, states inside that can all move, and paths that exit before
    max_time. Row x's branches are its positive off-diagonal rates in column
    order, then its killing rate if that is above rounding noise; their keys
    are x + (cumulative rate) / (total rate), capped at x + 1, and the last
    is exactly x + 1. A jump with uniform u takes the first branch whose key
    is above x + u, or the last. Block ``block`` runs all BLOCK columns,
    those from ``n_real`` on as phantoms. While more than STRAGGLERS columns
    live, each step draws one exponential per live column, then one uniform
    per live column, from the (seed, block) stream, and hands them out in
    ascending column order. Each real column still live then reads chunks
    of STRAGGLER_CHUNK exponentials, then STRAGGLER_CHUNK uniforms, from its
    own (seed, path | 2**63) stream. Returns the real columns' exit times
    and the paths that finished alone."""
    q, rows = chain.q.tolist(), {}
    for x in np.flatnonzero(mask.inside).tolist():
        rate, kill = -q[x][x], -float(chain.q[x].sum())
        branches = [(y, r) for y, r in enumerate(q[x]) if y != x and r > 0.0]
        if kill > STRUCTURAL_TOL * rate:
            branches.append((-1, kill))
        keys = [min(x + c / rate, x + 1.0) for c in itertools.accumulate(r for _, r in branches)]
        keys[-1] = x + 1.0
        rows[x] = 1.0 / rate, keys, [y for y, _ in branches]
    inside = mask.inside.tolist()

    def jump(x, t, e, u):
        inv_rate, keys, targets = rows[x]
        y = targets[min(bisect.bisect_right(keys, x + u), len(keys) - 1)]
        return y, t + e * inv_rate, y >= 0 and inside[y]

    g = _philox(seed, block)
    xs, ts, tau = [start] * BLOCK, [0.0] * BLOCK, {}
    live = list(range(BLOCK))
    while len(live) > STRAGGLERS:
        draws = zip(g.standard_exponential(len(live)).tolist(), g.random(len(live)).tolist())
        for col, (e, u) in zip(live, draws):
            xs[col], ts[col], stays = jump(xs[col], ts[col], e, u)
            if not stays:
                tau[col] = ts[col]
        live = [col for col in live if col not in tau]
    late = [block * BLOCK + col for col in live if col < n_real]
    for path in late:
        g = _philox(seed, path | 1 << 63)
        col = path % BLOCK
        x, t = xs[col], ts[col]
        while col not in tau:
            for e, u in zip(g.standard_exponential(STRAGGLER_CHUNK).tolist(), g.random(STRAGGLER_CHUNK).tolist()):
                x, t, stays = jump(x, t, e, u)
                if not stays:
                    tau[col] = t
                    break
    return [tau[col] for col in range(n_real)], late


def test_lockstep_matches_the_column_by_column_reference(stragglers):
    # half the paths exit at each step, so a block steps in lockstep about
    # eight times, and the partial block's real paths fall to STRAGGLERS
    # about two steps before its phantoms do
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    n_paths = BLOCK + 2000
    samples = simulate_exit_times(chain, mask, McConfig(n_paths=n_paths, seed=5, start=0))
    tau0, late0 = reference_block(chain, mask, 5, 0, BLOCK, 0)
    tau1, late1 = reference_block(chain, mask, 5, 1, n_paths - BLOCK, 0)
    # stragglers on both sides of the block boundary
    assert late0 and late1
    assert sorted(stragglers) == late0 + late1
    # every path bit for bit: both ends of the partial block, BLOCK and
    # n_paths - 1, and every straggler among them
    assert samples.tau.tolist() == tau0 + tau1


def several_widths_chain():
    """Row x keeps about (x + 1) / n of its neighbours and row 0 none, and
    every row has a killing branch: rows of 1 to n branches."""
    rng = np.random.default_rng(4)
    n = 20
    q = rng.uniform(0.2, 1.0, (n, n)) * (rng.random((n, n)) < np.linspace(0.05, 1.0, n)[:, None])
    q[0] = 0.0
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1) - rng.uniform(0.1, 0.6, n))
    return make_chain(q, np.ones(n)), DomainMask.from_states(range(0, n, 2), n), 18


def tiny_branch_chain():
    """State 0 leaves at rate 0.3 = -q_00, but its first two rates sum to
    0.30000000000000004, and its last branch has a share of 1e-17."""
    q = np.zeros((4, 4))
    q[0] = [-0.3, 0.1, 0.2, 3e-18]
    q[1] = [1.0, -2.0, 1.0, 0.0]
    return make_chain(q, np.ones(4)), DomainMask.from_states([0, 1], 4), 0


@pytest.mark.parametrize("case", [several_widths_chain, tiny_branch_chain])
def test_lockstep_and_stragglers_match_the_reference_on_any_row(case, stragglers):
    chain, mask, start = case()
    samples = simulate_exit_times(chain, mask, McConfig(n_paths=BLOCK, seed=2, start=start))
    tau, late = reference_block(chain, mask, 2, 0, BLOCK, start)
    assert late and stragglers == late
    assert samples.tau.tolist() == tau


def test_a_branch_below_rounding_leaves_its_row_sorted():
    chain, mask, _ = tiny_branch_chain()
    table = montecarlo._jump_table(chain.q, mask.inside)
    # uncapped, the key of the second branch of row 0 is 1.0000000000000002
    assert table.keys[: table.last[0] + 1].tolist() == [0.1 / 0.3, 1.0, 1.0]
    assert np.all(table.keys[1:] >= table.keys[:-1])


def random_jump_table(rng, n):
    """A table over n states whose rows have 1 to n branches: state 0 has
    them all, a killing branch included, state 1 is immovable, and half the
    others have a killing branch."""
    q = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.0, 1.0, n)[:, None])
    kill = rng.uniform(0.1, 1.0, n) * (rng.random(n) < 0.5)
    q[0], kill[0] = rng.uniform(0.1, 1.0, n), 0.5
    q[1:2], kill[1:2] = 0.0, 0.0
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1) - kill)
    return montecarlo._jump_table(q, np.ones(n, dtype=bool))


# with n = 2, 5 and 9 state 0 has exactly window keys before its last
@pytest.mark.parametrize("n", [1, 2, 5, 9, 40])
def test_row_searches_are_the_clamped_global_search(n):
    rng = np.random.default_rng(n)
    states = np.arange(n)
    # the largest uniform draw, 1 - 2**-53, takes x + u to x + 1 for x >= 1
    rounded = states[1:] + (1.0 - 2.0**-53)
    assert np.array_equal(rounded, states[1:] + 1.0)
    for _ in range(5):
        table = random_jump_table(rng, n)
        rows = np.repeat(states, table.last - table.first + 1)
        # uniform draws, v equal to each key (the last of a row is x + 1), v = x
        x = np.concatenate([np.repeat(states, 50), rows, states, states[1:]])
        v = np.concatenate([x[: 50 * n] + rng.random(50 * n), table.keys[: rows.size], states, rounded])
        want = table.targets[np.minimum(np.searchsorted(table.keys, v, side="right"), table.last[x])]
        assert np.array_equal(table.jump(x, v), want)
        jump = table.scalar_jump()
        assert [jump(a, b) for a, b in zip(x.tolist(), v.tolist())] == want.tolist()


def test_simulation_peak_memory_at_n_400():
    n = 400
    chain = random_reversible_chain(np.random.default_rng(3), n)
    mask = DomainMask.from_states(range(n // 2), n)
    _, peak = traced_peak(lambda: simulate_exit_times(chain, mask, McConfig(n_paths=BLOCK, seed=1, start=0)))
    # building the whole table at once and copying it into lists per block
    # peaked at 8.52 n^2
    assert peak <= 2 * n * n * 8


def mc_bd12_seed_1():
    """The chain, domain and start of the benchmark's mc-bd12 at seed 1."""
    r = np.random.default_rng([1, 3]).uniform(0.5, 2.0, 12)
    return birth_death(r[:-1], r[1:]), DomainMask.from_states(range(2, 10), 12), 6


def test_draws_follow_the_live_count(monkeypatch):
    calls = []

    class Counting:
        def __init__(self, key, g):
            self.key, self.g = key, g

        def standard_exponential(self, size):
            calls.append((self.key, "e", size))
            return self.g.standard_exponential(size)

        def random(self, size):
            calls.append((self.key, "u", size))
            return self.g.random(size)

    philox = montecarlo._philox
    monkeypatch.setattr(montecarlo, "_philox", lambda seed, key: Counting(key, philox(seed, key)))
    chain, mask, start = mc_bd12_seed_1()
    simulate_exit_times(chain, mask, McConfig(n_paths=50_000, seed=1, start=start))
    blocks = -(-50_000 // BLOCK)
    steps = {b: [size for key, kind, size in calls if key == b and kind == "e"] for b in range(blocks)}
    for b, sizes in steps.items():
        # each step draws L exponentials, then L uniforms; L starts at the
        # full block, phantoms included, and never falls to STRAGGLERS. A
        # fixed start takes no start draw.
        assert [(kind, size) for key, kind, size in calls if key == b] == [
            (kind, size) for size in sizes for kind in "eu"
        ]
        assert sizes[0] == BLOCK
        assert all(now >= after > STRAGGLERS for now, after in zip(sizes, sizes[1:]))
    straggler_draws = [size for key, kind, size in calls if key >= blocks]
    assert set(straggler_draws) <= {STRAGGLER_CHUNK}
    total = sum(size for key, kind, size in calls)
    assert total == sum(2 * sum(sizes) for sizes in steps.values()) + sum(straggler_draws)
    # the full-width rule drew 16.1 M values here
    assert total < 3_000_000


def test_at_most_stragglers_paths_per_block_finish_alone(stragglers):
    # a symmetric walk exits {1, ..., 32} from 17 after 17 * 16 = 272 jumps
    # on average, past any fixed step cap of 256
    chain = birth_death(np.ones(33), np.ones(33))
    mask = DomainMask.from_states(range(1, 33), 34)
    samples = simulate_exit_times(chain, mask, McConfig(n_paths=4000, seed=3, start=17))
    # one block, its phantoms counted towards the switch
    assert 0 < len(stragglers) <= STRAGGLERS
    est = estimate_exit_functionals(samples, ())
    assert abs(est.mean[0] - exit_mean(chain, mask)[17]) <= 3 * est.mean[1]


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
    config = McConfig(n_paths=100_000, seed=3, start=0)
    est = estimate_exit_functionals(simulate_exit_times(chain, mask, config), ())
    exact = exit_mean(chain, mask)[0]
    assert exact == pytest.approx(1.0, abs=1e-12)
    assert abs(est.mean[0] - exact) <= 3 * est.mean[1]


def test_stationary_start_exponential_moment():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    config = McConfig(n_paths=100_000, seed=5, start=chain.mu.tolist())
    samples = simulate_exit_times(chain, mask, config)
    est = estimate_exit_functionals(samples, (0.5,), exp_betas=(0.5,))
    mc_exp, se, heavy = est.exp_moment[0.5]
    assert abs(mc_exp - 5.0 / 3.0) <= 3 * se
    assert not heavy


def test_start_outside_domain_gives_zero_samples():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    config = McConfig(n_paths=50, seed=1, start=2)
    samples = simulate_exit_times(chain, mask, config)
    assert samples.start_off_domain
    assert np.all(samples.tau == 0.0)
    est = estimate_exit_functionals(samples, (1.0,))
    assert est.mean[0] == 0.0
    assert est.laplace[1.0][0] == 1.0


def test_censoring_monotone_in_horizon():
    chain = complete_graph(3, 1.0)
    mask = DomainMask.from_states([0, 1], 3)
    short = McConfig(n_paths=4000, seed=9, start=0, max_time=0.5)
    longer = McConfig(n_paths=4000, seed=9, start=0, max_time=2.0)
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
    config = McConfig(n_paths=10, seed=2, start=0, max_time=5.0)
    samples = simulate_exit_times(stuck, DomainMask.full(1), config)
    assert np.all(samples.censored)
    assert np.all(samples.tau == 5.0)


def test_heavy_tail_flag_on_synthetic_samples():
    tau = np.zeros(1000)
    tau[-1] = 40.0
    samples = ExitSamples(tau=tau, censored=np.zeros(1000, dtype=bool))
    est = estimate_exit_functionals(samples, (), exp_betas=(1.0,))
    assert est.exp_moment[1.0][2]


def test_an_overflowed_moment_is_written_as_it_is_and_flagged_heavy_tailed():
    # exp(800) overflows: the estimate is inf, its SE (inf - inf) NaN, and
    # the top mass inf / inf NaN, which is no evidence of a light tail
    est = estimate_exit_functionals(ExitSamples([1, 2, 800], [False] * 3), [1.0], exp_betas=[1.0])
    assert est.to_dict()["exp_moment"] == {"1.0": ["inf", "nan", True]}


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_paths", "abc"),
        ("n_paths", 10.0),
        ("n_paths", True),
        ("n_paths", 0),
        ("seed", 1.7),
        ("seed", "1"),
        ("seed", False),
        ("max_time", float("nan")),
        ("max_time", "x"),
        ("max_time", True),
        ("max_time", -1.0),
        ("start", None),
        ("start", {"0": 1.0}),
        ("start", [[0.5, 0.5]]),
        ("max_time", float("inf")),
    ],
)
def test_config_checks_its_own_fields(field, value):
    fields = {"n_paths": 10, "seed": 1, "start": 0, "max_time": 5.0, field: value}
    with pytest.raises(ValueError, match=field):
        McConfig(**fields)


def test_config_accepts_numpy_integers():
    config = McConfig(n_paths=np.int64(10), seed=np.int32(3), start=np.int64(1))
    chain = complete_graph(3, 1.0)
    samples = simulate_exit_times(chain, DomainMask.from_states([0, 1], 3), config)
    assert samples.n_paths == 10
    assert np.array_equal(config.start_weights(3), [0.0, 1.0, 0.0])


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
    # rows are formatted a chunk of paths at a time, across a block boundary
    tau = np.arange(BLOCK + 2) / 4.0
    lines = ExitSamples(tau=tau, censored=tau == BLOCK / 4.0).to_csv().splitlines()
    assert len(lines) == BLOCK + 3
    assert lines[BLOCK : BLOCK + 3] == [f"{BLOCK - 1},{(BLOCK - 1) / 4.0!r},0", f"{BLOCK},{BLOCK / 4.0!r},1", f"{BLOCK + 1},{(BLOCK + 1) / 4.0!r},0"]


def test_samples_csv_matches_the_per_row_format():
    # whole chunks and a partial last one: censored rows, tiny and large times
    rng = np.random.default_rng(17)
    n = 2 * BLOCK + 123
    tau = rng.exponential(1.0, n)
    tau[::5] = 1e6
    tau[7], tau[BLOCK + 1], tau[-1] = 1e-7, 1e-7, 1e6
    censored = tau == 1e6
    expected = "path,tau,censored\n" + "".join(
        f"{i},{t!r},{c:d}\n" for i, (t, c) in enumerate(zip(tau.tolist(), censored.tolist()))
    )
    assert ExitSamples(tau=tau, censored=censored).to_csv() == expected
