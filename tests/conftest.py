"""Shared fixtures: bundled example chains and random chain factories."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from exitlab import (
    Chain,
    DomainMask,
    FlowMatrix,
    Generator,
    Measure,
    antisym_perturb,
    birth_death,
    complete_graph,
    cycle_flow,
    flow_from_cycles,
)


def make_chain(q, mu) -> Chain:
    return Chain(Generator(np.asarray(q, dtype=float)), Measure(np.asarray(mu, dtype=float)))


def single_state_chain() -> Chain:
    return make_chain([[-2.0]], [1.0])


def two_state_killed_chain() -> Chain:
    # reversible with killing defect 2 per state; Dirichlet eigenvalue 2
    return make_chain([[-3.0, 1.0], [1.0, -3.0]], [1.0, 1.0])


def example_cases():
    """(name, chain, mask) triples used across the analytic/MC cross-checks."""
    cases = [
        ("single_state", single_state_chain(), DomainMask.full(1)),
        ("two_state_killed", two_state_killed_chain(), DomainMask.full(2)),
        ("complete3", complete_graph(3, 1.0), DomainMask.from_states([0, 1], 3)),
        (
            "birth_death4",
            birth_death(up=(1.0, 1.0, 1.0), down=(1.0, 1.0, 1.0)),
            DomainMask.from_states([0, 1, 2], 4),
        ),
    ]
    ring, flow = cycle_flow(3, 1.0)
    cases.append(("cycle3_k05", antisym_perturb(ring, flow, 0.5), DomainMask.from_states([0, 1], 3)))
    return cases


def random_reversible_chain(rng, n, killing=False, normalized=True) -> Chain:
    """Full-support symmetric conductances; irreducible by construction."""
    c = rng.uniform(0.2, 1.0, size=(n, n))
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 0.0)
    w = rng.uniform(0.5, 2.0, size=n)
    if normalized:
        w = w / w.sum()
    q = c / w[:, None]
    np.fill_diagonal(q, -q.sum(axis=1))
    if killing:
        q[np.diag_indices(n)] -= rng.uniform(0.1, 0.6, size=n)
    return Chain(Generator(q), Measure(w))


def random_flow(rng, chain: Chain) -> FlowMatrix:
    n = chain.n_states
    size = int(rng.integers(3, n + 1))
    states = rng.permutation(n)[:size]
    return flow_from_cycles([list(states)], chain.measure)


def random_nonsymmetric_chain(rng, n) -> Chain:
    """Reversible base plus an admissible antisymmetric flow plus killing.

    The symmetric part of the form is the reversible part, so the
    lower-bound estimate is 0 and every shift beta > 0 is admissible.
    """
    base = random_reversible_chain(rng, n, killing=True, normalized=False)
    flow = random_flow(rng, base)
    off = base.q.copy()
    np.fill_diagonal(off, np.inf)
    g = np.abs(flow.gamma)
    active = g > 1e-12
    k_max = float(np.min(off[active] / g[active]))
    return antisym_perturb(base, flow, float(rng.uniform(0.2, 0.8)) * k_max)


def metastable_rates(n, s, seed):
    """Up and down rates of a birth-death chain on n states, each drawn
    log-uniform over s decades below 1: its detailed-balance measure spans
    far more decades than its rates."""
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-s, 0, n - 1), 10.0 ** rng.uniform(-s, 0, n - 1)


def chain_of(n, s, seed) -> Chain:
    """The reversible birth-death chain of ``metastable_rates``."""
    return birth_death(*metastable_rates(n, s, seed))


def random_proper_mask(rng, n) -> DomainMask:
    size = int(rng.integers(1, n))
    states = rng.permutation(n)[:size]
    return DomainMask.from_states(states, n)


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes of the allocations made while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def mu_dot(chain: Chain, vec) -> float:
    return float(np.sum(chain.mu * np.asarray(vec)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
