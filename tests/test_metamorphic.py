"""Metamorphic properties: measure scaling mu -> d*mu.

Pointwise functionals do not read the measure's scale, detailed balance holds
for d*mu exactly when it holds for mu, and the form scales by d, so the
saddle value of the scaled chain is the original value divided by d.
"""
import numpy as np
import pytest

from exitlab import (
    Chain,
    DomainMask,
    Measure,
    NonReversibleError,
    exit_mean,
    saddle_value,
    symmetric_inf,
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
