"""Metamorphic properties: measure scaling mu -> d*mu, and the scale of a
flow or of conductances.

Pointwise functionals do not read the measure's scale, detailed balance holds
for d*mu exactly when it holds for mu, and the form scales by d, so the
saddle value of the scaled chain is the original value divided by d. A flow
or a conductance matrix scaled by d is valid exactly when it is at d = 1.
"""
import numpy as np
import pytest

from exitlab import (
    Chain,
    DomainMask,
    FlowMatrix,
    Measure,
    NonReversibleError,
    exit_mean,
    saddle_value,
    symmetric_inf,
    weighted_graph,
)
from conftest import random_nonsymmetric_chain, random_reversible_chain

MASK = DomainMask.from_states([1, 2, 3, 4], 8)
XI = np.array([1.0, 0.5, 2.0, 0.7])
CHAINS = {
    "reversible": lambda: random_reversible_chain(np.random.default_rng(0), 8),
    "non_reversible": lambda: random_nonsymmetric_chain(np.random.default_rng(0), 8),
}


@pytest.mark.parametrize("d", [1e-20, 1e20])
@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_measure_scaling(kind, d):
    chain = CHAINS[kind]()
    scaled = Chain(chain.generator, Measure(chain.mu * d))
    assert chain.reversible == (kind == "reversible")
    assert scaled.reversible == chain.reversible

    mean = exit_mean(chain, MASK)
    assert np.abs(exit_mean(scaled, MASK) - mean).max() <= 1e-12 * np.abs(mean).max()

    for mode in ("closed_form", "iterative"):
        value = saddle_value(chain, MASK, 1.0, XI, mode=mode).value
        assert d * saddle_value(scaled, MASK, 1.0, XI, mode=mode).value == pytest.approx(
            value, rel=1e-12, abs=0.0
        )

    if chain.reversible:
        value = symmetric_inf(chain, MASK, 1.0, XI)
        assert d * symmetric_inf(scaled, MASK, 1.0, XI) == pytest.approx(value, rel=1e-12, abs=0.0)
    else:
        with pytest.raises(NonReversibleError):
            symmetric_inf(scaled, MASK, 1.0, XI)


def _verdict(build):
    """True when ``build()`` succeeds, False when it raises ValueError."""
    try:
        build()
    except ValueError:
        return False
    return True


FLOWS = {
    "cycle": [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]],
    "diagonal": [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.5]],
    "row_sum": [[0.0, 1.0, -0.5], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]],
}
CONDUCTANCES = {
    "symmetric": [[0.0, 1.0, 2.0], [1.0, 0.0, 0.5], [2.0, 0.5, 0.0]],
    "asymmetric": [[0.0, 1.0], [2.0, 0.0]],
}
MEASURES = (np.ones(3), np.array([1.0, 2.0, 1.0]))


@pytest.mark.parametrize("d", [1e-20, 1e20])
def test_flow_and_conductance_verdicts_do_not_depend_on_their_scale(d):
    for g in map(np.array, FLOWS.values()):
        assert _verdict(lambda: FlowMatrix(d * g)) == _verdict(lambda: FlowMatrix(g))
    flow = np.array(FLOWS["cycle"])
    for mu in MEASURES:
        assert FlowMatrix(d * flow).is_antisymmetric_for(Measure(mu)) == FlowMatrix(
            flow
        ).is_antisymmetric_for(Measure(mu))
    for c in map(np.array, CONDUCTANCES.values()):
        ones = np.ones(c.shape[0])
        assert _verdict(lambda: weighted_graph(d * c, ones)) == _verdict(lambda: weighted_graph(c, ones))
        if _verdict(lambda: weighted_graph(d * c, ones)):
            assert weighted_graph(d * c, ones).reversible
