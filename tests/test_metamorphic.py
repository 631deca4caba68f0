"""Metamorphic properties: measure scaling mu -> d*mu, the scale of a flow
or of conductances, time scaling Q -> c*Q at the spectral edge, and
relabelling the states.

Pointwise functionals do not read the measure's scale, detailed balance holds
for d*mu exactly when it holds for mu, and the form scales by d, so the
saddle value of the scaled chain is the original value divided by d. The
spectral gap, the exponential-moment infimum and the bound ledger read
pi = mu / mu(E) and do not move. A flow
or a conductance matrix scaled by d is valid exactly when it is at d = 1.
Under Q -> c*Q the Dirichlet eigenvalue scales by c, and the exponential
moment at c*beta does not move. Relabelling permutes every vector and
changes no number beyond rounding, although it moves a banded chain onto
the dense kernels.
"""
import numpy as np
import pytest

from exitlab import (
    Chain,
    DomainMask,
    FlowMatrix,
    Generator,
    Measure,
    NonReversibleError,
    antisym_perturb,
    birth_death,
    bounds_report,
    cycle_flow,
    exit_exp_moment,
    exit_mean,
    exp_moment_inf,
    saddle_value,
    spectral_gap,
    symmetric_inf,
    weighted_graph,
)
from exitlab._linalg import _banded, _bandwidth, _tridiagonal
from exitlab.poisson import DomainSystem
from conftest import random_nonsymmetric_chain, random_proper_mask, random_reversible_chain

MASK = DomainMask.from_states([1, 2, 3, 4], 8)
XI = np.array([1.0, 0.5, 2.0, 0.7])
CHAINS = {
    "reversible": lambda: random_reversible_chain(np.random.default_rng(0), 8),
    "non_reversible": lambda: random_nonsymmetric_chain(np.random.default_rng(0), 8),
}


def _same(a, b, exact):
    """a == b bit for bit when ``exact``, else within 1e-12 of the larger
    magnitude; None (a skipped entry's side) only matches None."""
    if a is None or b is None or exact:
        return a == b
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@pytest.mark.parametrize("d", [1e-20, 4.0, 1e20])
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

    if not chain.reversible:
        with pytest.raises(NonReversibleError):
            symmetric_inf(scaled, MASK, 1.0, XI)
        return
    value = symmetric_inf(chain, MASK, 1.0, XI)
    assert d * symmetric_inf(scaled, MASK, 1.0, XI) == pytest.approx(value, rel=1e-12, abs=0.0)

    # the gap, the exponential-moment infimum and the ledger read pi = mu / mu(E);
    # a power of four scales sqrt(mu) and every sum exactly and leaves pi as is
    exact = d == 4.0
    assert _same(spectral_gap(scaled), spectral_gap(chain), exact)
    lam0 = DomainSystem(chain, MASK).dirichlet.lambda0
    lam0_d = DomainSystem(scaled, MASK).dirichlet.lambda0
    assert _same(lam0_d, lam0, exact)
    inf_value = exp_moment_inf(chain, MASK, 0.5 * lam0)
    assert _same(exp_moment_inf(scaled, MASK, 0.5 * lam0), inf_value, exact)
    # shifts below and past lambda0, and beta = 1 below it for the odd moments
    betas, lyapunov = [0.25 * lam0, 0.5 * lam0, 2.0 * lam0, 1.0], exit_mean(chain, MASK)
    ledger = bounds_report(chain, MASK, betas, lyapunov)
    scaled_ledger = bounds_report(scaled, MASK, betas, lyapunov)
    entries, scaled_entries = ledger.entries, scaled_ledger.entries
    assert sum(not e.skipped for e in entries) == 29
    for e, f in zip(entries, scaled_entries, strict=True):
        assert (f.name, f.satisfied, f.skipped, f.reason) == (e.name, e.satisfied, e.skipped, e.reason)
        for side in ("lhs", "rhs", "slack"):
            assert _same(getattr(f, side), getattr(e, side), exact), (e.name, e.beta, side)
    # the meta too: pi(phi) and pi(phi^2) read phi scaled to pi(phi^2) = 1
    assert scaled_ledger.meta.keys() == ledger.meta.keys()
    for key, value in ledger.meta.items():
        assert _same(scaled_ledger.meta[key], value, exact), key


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


@pytest.mark.parametrize("c", [1.0, 1e-13, 1e13])
def test_flow_strength_verdict_does_not_depend_on_the_time_scale(c):
    # killing rate 1 at every state; k = 1.5 exceeds k_max = 1 at every c,
    # where absolute thresholds let c = 1e-13 through with clipped rates
    base, flow = cycle_flow(5, 1.0)
    killed = Chain(Generator(c * (base.q - np.eye(5))), base.measure)
    with pytest.raises(ValueError, match=r"flow strength \|k\|=1.5 exceeds k_max=1 "):
        antisym_perturb(killed, FlowMatrix(c * flow.gamma), 1.5)


def _scaled(chain, c):
    return Chain(Generator(c * chain.q), chain.measure)


@pytest.mark.parametrize("c", [1.0, 1e-12, 1e12])
def test_exp_moment_edge_does_not_depend_on_the_time_scale(c):
    chain = random_reversible_chain(np.random.default_rng(0), 8)
    mask = random_proper_mask(np.random.default_rng(0), 8)
    lam0 = DomainSystem(chain, mask).dirichlet.lambda0
    scaled = _scaled(chain, c)
    lam0_c = DomainSystem(scaled, mask).dirichlet.lambda0
    assert lam0_c == pytest.approx(c * lam0, rel=1e-12)
    beta = 0.3 * lam0_c
    moment = exit_exp_moment(scaled, mask, beta)
    expected = exit_exp_moment(chain, mask, 0.3 * lam0)
    assert np.all(np.isfinite(moment))
    np.testing.assert_allclose(moment, expected, rtol=1e-10)
    inf_value = exp_moment_inf(scaled, mask, beta)
    assert inf_value == pytest.approx(c * exp_moment_inf(chain, mask, 0.3 * lam0), rel=1e-10)
    # every verdict and skip reason of the ledger, with a Lyapunov function
    # (the mean exit time, so delta scales by c) and shifts below, at and
    # past lambda0; odd_moment_series is evaluated at beta = 1, not at a
    # scaled shift
    def verdicts(ledger):
        return [
            (e.name, e.satisfied, e.skipped, e.reason)
            for e in ledger.entries
            if e.name != "odd_moment_series"
        ]

    def ledger(ch, lam):
        return bounds_report(ch, mask, [0.3 * lam, lam, 2.0 * lam], lyapunov=exit_mean(ch, mask))

    expected = verdicts(ledger(chain, lam0))
    assert verdicts(ledger(scaled, lam0_c)) == expected
    assert {e[2] for e in expected} == {True, False}


@pytest.mark.parametrize("c", [1.0, 1e12])
@pytest.mark.parametrize("kind", ["dense", "tridiagonal"])
def test_dirichlet_bottom_of_a_conservative_chain_at_any_time_scale(kind, c):
    rng = np.random.default_rng(1)
    if kind == "dense":
        chain = random_reversible_chain(rng, 30)
    else:
        chain = birth_death(rng.uniform(0.5, 2.0, 29), rng.uniform(0.5, 2.0, 29))
    system = DomainSystem(_scaled(chain, c), DomainMask.full(30))
    assert (kind == "tridiagonal") == _tridiagonal(system.sym_bandwidth, 30)
    # lambda0 is 0; the eigensolve rounds it to a few eps * |lambda_max|
    assert system.dirichlet.lambda0 <= 1e-12 * c


def test_dirichlet_rejects_a_negative_bottom_eigenvalue():
    # not sub-Markov: -Q_D has eigenvalues -2 and 0
    q_d = np.array([[1.0, 1.0], [1.0, 1.0]])
    system = DomainSystem.from_restricted(DomainMask.full(2), q_d, np.ones(2), reversible=True)
    with pytest.raises(AssertionError, match="negative"):
        system.dirichlet


def _relabelled(chain, mask, perm):
    """The chain and domain with new state k the old state perm[k]."""
    relabelled = Chain(Generator(chain.q[np.ix_(perm, perm)]), Measure(chain.mu[perm]))
    return relabelled, DomainMask(mask.inside[perm])


def _close(x, ref, rtol=1e-10):
    x, ref = np.asarray(x, dtype=float), np.asarray(ref, dtype=float)
    assert np.array_equal(np.isinf(x), np.isinf(ref))
    finite = np.isfinite(ref)
    scale = np.abs(ref[finite]).max(initial=0.0)
    assert np.abs(x[finite] - ref[finite]).max(initial=0.0) <= rtol * scale


def test_relabelling_a_banded_chain_moves_it_onto_the_dense_kernels():
    rng = np.random.default_rng(64)
    n = 64
    chain = birth_death(rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.5, 2.0, n - 1))
    mask = DomainMask(rng.random(n) < 0.6)
    perm = rng.permutation(n)
    other, other_mask = _relabelled(chain, mask, perm)
    system, other_system = DomainSystem(chain, mask), DomainSystem(other, other_mask)
    m = mask.size
    assert _tridiagonal(system.sym_bandwidth, m) and not _banded(other_system.sym_bandwidth, m)
    assert _tridiagonal(_bandwidth(chain.q), n) and not _banded(_bandwidth(other.q), n)
    assert system._factor(0.5)._is_band and not other_system._factor(0.5)._is_band

    # the pencil spectrum, sterf on the tridiagonal chain and eigh on the
    # other, agrees to a few eps * lambda_max: the spectral gap nu[1] to a
    # relative eps * lambda_max / lambda_1
    nu, nu_other = chain.form_spectrum, other.form_spectrum
    assert np.abs(nu - nu_other).max() <= 64 * np.finfo(float).eps * nu[-1]

    lam0, phi, mult = system.dirichlet
    lam0_o, phi_o, mult_o = other_system.dirichlet
    assert lam0_o == pytest.approx(lam0, rel=1e-10)
    assert mult == mult_o == 1
    _close(phi_o, phi[perm])

    xi = rng.uniform(0.5, 2.0, n) * mask.inside
    betas = [0.3 * lam0, 0.9 * lam0, 2.0 * lam0]
    for beta in betas:
        f, f_o = system.functionals(beta, xi), other_system.functionals(beta, xi[perm])
        for name in ("u_beta", "laplace", "mean", "exp_moment"):
            _close(getattr(f_o, name), getattr(f, name)[perm])
        assert f_o.aggregate_mu == pytest.approx(f.aggregate_mu, rel=1e-10)
        for mode in ("closed_form", "iterative"):
            s = saddle_value(chain, mask, beta, xi, mode)
            s_o = saddle_value(other, other_mask, beta, xi[perm], mode)
            assert s_o.value == pytest.approx(s.value, rel=1e-10)
            _close(s_o.f_star, s.f_star[perm])
        assert symmetric_inf(other, other_mask, beta, xi[perm]) == pytest.approx(
            symmetric_inf(chain, mask, beta, xi), rel=1e-10
        )
        assert exp_moment_inf(other, other_mask, beta) == pytest.approx(
            exp_moment_inf(chain, mask, beta), rel=1e-10, abs=0.0
        )

    ledger, ledger_o = bounds_report(chain, mask, betas), bounds_report(other, other_mask, betas)
    assert ledger.meta["lambda0_multiplicity"] == ledger_o.meta["lambda0_multiplicity"]
    for e, e_o in zip(ledger.entries, ledger_o.entries, strict=True):
        assert (e.name, e.beta, e.satisfied, e.skipped, e.reason) == (
            e_o.name, e_o.beta, e_o.satisfied, e_o.skipped, e_o.reason
        )
