import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from exitlab import (
    Chain,
    DomainMask,
    Generator,
    Measure,
    NonReversibleError,
    birth_death,
    bounds_report,
    complete_graph,
    dirichlet_pair,
    exit_exp_moment,
    exit_mean,
    exp_moment_inf,
    lyapunov_delta,
    spectral_gap,
)
from exitlab.poisson import DomainSystem
from exitlab.forms import _json_float
from exitlab.spectral import BoundLedger, _checked
from conftest import (
    chain_of,
    make_chain,
    mu_dot,
    random_nonsymmetric_chain,
    random_proper_mask,
    random_reversible_chain,
    single_state_chain,
    traced_peak,
)

C3 = complete_graph(3, 1.0)
MASK01 = DomainMask.from_states([0, 1], 3)


def test_dirichlet_pair_single_state():
    lam0, phi = dirichlet_pair(single_state_chain(), DomainMask.full(1))
    assert lam0 == pytest.approx(2.0, abs=1e-12)
    assert phi[0] == pytest.approx(1.0, abs=1e-12)


def test_dirichlet_pair_three_state():
    # oracle: eigenvalues of [[2, -1], [-1, 2]] are 1 and 3
    lam0, phi = dirichlet_pair(C3, MASK01)
    assert lam0 == pytest.approx(1.0, abs=1e-12)
    assert phi[2] == 0.0
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)
    assert mu_dot(C3, phi * phi) == pytest.approx(1.0, abs=1e-12)
    assert mu_dot(C3, phi) >= 0


def test_dirichlet_pair_single_interior_state():
    lam0, _ = dirichlet_pair(C3, DomainMask.from_states([1], 3))
    assert lam0 == pytest.approx(2.0, abs=1e-12)


def test_dirichlet_eigen_residual(rng):
    for _ in range(5):
        n = int(rng.integers(3, 20))
        chain = random_reversible_chain(rng, n, killing=bool(rng.integers(0, 2)))
        mask = random_proper_mask(rng, n)
        lam0, phi = dirichlet_pair(chain, mask)
        idx = mask.indices
        lom = chain.q[np.ix_(idx, idx)]
        resid = (-lom) @ phi[idx] - lam0 * phi[idx]
        w = chain.mu[idx]
        assert np.sqrt(np.sum(w * resid**2)) <= 1e-10 * np.sqrt(np.sum(w * phi[idx] ** 2))


@pytest.mark.parametrize("c", [1.0, 1e-12])
def test_dirichlet_multiplicity_does_not_depend_on_the_time_scale(c):
    chain = random_reversible_chain(np.random.default_rng(0), 8)
    mask = random_proper_mask(np.random.default_rng(0), 8)
    scaled = Chain(Generator(c * chain.q), chain.measure)
    assert DomainSystem(scaled, mask).dirichlet.multiplicity == 1
    # two identical uncoupled states: a double bottom eigenvalue at any scale
    path = Chain(Generator(c * np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])), C3.measure)
    assert DomainSystem(path, DomainMask.from_states([0, 2], 3)).dirichlet.multiplicity == 2


def test_dirichlet_variational_characterization(rng):
    chain = random_reversible_chain(rng, 8)
    mask = random_proper_mask(rng, 8)
    lam0, phi = dirichlet_pair(chain, mask)
    a0 = -(chain.q.T * chain.mu[None, :])
    sym = (a0 + a0.T) / 2.0
    quotients = []
    candidates = [phi] + [
        np.where(mask.inside, rng.standard_normal(8), 0.0) for _ in range(200)
    ]
    for f in candidates:
        denom = mu_dot(chain, f * f)
        if denom > 1e-12:
            quotients.append(float(f @ sym @ f) / denom)
    best = min(quotients)
    assert best >= lam0 - 1e-12
    assert best == pytest.approx(lam0, abs=1e-6)


def test_dirichlet_rejects_non_reversible(rng):
    chain = random_nonsymmetric_chain(rng, 5)
    with pytest.raises(NonReversibleError):
        dirichlet_pair(chain, DomainMask.from_states([0, 1], 5))


def test_spectral_gap_three_state():
    # spectrum of the negated generator is {0, 3, 3}
    assert spectral_gap(C3) == pytest.approx(3.0, abs=1e-12)


def test_spectral_gap_two_state_rates(rng):
    for _ in range(5):
        a, b = rng.uniform(0.3, 2.0, 2)
        q = np.array([[-a, a], [b, -b]])
        chain = make_chain(q, np.array([b, a]) / (a + b))
        assert spectral_gap(chain) == pytest.approx(a + b, rel=1e-12)


def test_spectral_gap_eigvector_orthogonal_to_constants(rng):
    chain = random_reversible_chain(rng, 6)
    lam1 = spectral_gap(chain)
    assert lam1 >= 0
    # recompute the eigenvector of the symmetrized matrix directly
    root = np.sqrt(chain.mu)
    b = -(chain.q * (root[:, None] / root[None, :]))
    b = (b + b.T) / 2.0
    lam, vec = np.linalg.eigh(b)
    assert lam[1] == pytest.approx(lam1, rel=1e-12)
    f = vec[:, 1] / root
    assert mu_dot(chain, f) == pytest.approx(0.0, abs=1e-10)


def test_spectral_gap_rejects_reducible():
    q = np.zeros((4, 4))
    q[0, 1] = q[1, 0] = 1.0
    q[2, 3] = q[3, 2] = 1.0
    np.fill_diagonal(q, -q.sum(axis=1))
    chain = make_chain(q, np.full(4, 0.25))
    with pytest.raises(ValueError, match="reducible"):
        spectral_gap(chain)


def test_spectral_gap_counts_components_across_row_tiles():
    # three blocks spread over 70 states, so each meets several row tiles:
    # a dense one, a path and a pair, joined only within themselves
    rng = np.random.default_rng(4)
    n = 70
    perm = rng.permutation(n)
    blocks = [perm[:40], perm[40:68], perm[68:]]
    c = np.zeros((n, n))
    c[np.ix_(blocks[0], blocks[0])] = rng.uniform(0.2, 1.0, (40, 40))
    c[blocks[1][:-1], blocks[1][1:]] = rng.uniform(0.2, 1.0, 27)
    c[blocks[2][0], blocks[2][1]] = 0.5
    c = c + c.T
    np.fill_diagonal(c, 0.0)
    np.fill_diagonal(c, -c.sum(axis=1))
    chain = make_chain(c, np.full(n, 1.0 / n))
    with pytest.raises(ValueError, match=r"reducible \(3 components\)"):
        spectral_gap(chain)


@pytest.mark.parametrize("n", [1, 17, 50])
@pytest.mark.parametrize("density", [0.02, 0.1, 0.6])
def test_component_count_matches_the_whole_graph(n, density):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    from exitlab.spectral import _component_count

    rng = np.random.default_rng(int(1000 * density) + n)
    q = rng.uniform(0.1, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < density)
    # rates far below STRUCTURAL_TOL * |q_xx| are no edges, wherever they lie
    q += 1e-15 * (rng.uniform(size=(n, n)) < 0.5)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1) - 1.0)
    whole = q > 1e-12 * np.abs(np.diag(q))[:, None]
    assert _component_count(q) == connected_components(csr_matrix(whole), directed=False)[0]


def _labelled_graph(family, n, rng):
    """Intended edges (x, y) of a graph family on n states, as two index arrays."""
    if family == "path":  # consecutive states of a random labelling
        order = rng.permutation(n)
    elif family == "sawtooth":  # a path through runs of w labels, each descending: w-1..0, 2w-1..w, ...
        w = int(rng.integers(2, 8))
        order = np.concatenate([np.arange(lo, min(lo + w, n))[::-1] for lo in range(0, n, w)])
    if family in ("path", "sawtooth"):
        x, y = order[:-1], order[1:]
    elif family == "star":  # the hub has the largest label
        x, y = np.full(n - 1, n - 1), np.arange(n - 1)
    else:  # dense blocks of a random partition
        block = rng.integers(0, max(1, n // 8), n)
        x, y = np.nonzero((block[:, None] == block[None, :]) & ~np.eye(n, dtype=bool))
    keep = rng.uniform(size=x.size) < 0.9  # a few cuts, so some graphs fall apart
    return x[keep], y[keep]


@settings(max_examples=120, deadline=None)
@given(
    family=st.sampled_from(["path", "sawtooth", "star", "blocks"]),
    n=st.integers(1, 60),
    one_way=st.booleans(),
    dust=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_component_count_on_adversarial_labellings(family, n, one_way, dust, seed):
    # roots hook in label order, so labellings that run against it (a random
    # path, a hub above its leaves, descending runs) take several rounds
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    from exitlab.defaults import STRUCTURAL_TOL
    from exitlab.spectral import _component_count

    rng = np.random.default_rng(seed)
    x, y = _labelled_graph(family, n, rng)
    if not one_way:  # else each edge has a rate in one direction only
        x, y = np.concatenate([x, y]), np.concatenate([y, x])
    q = np.zeros((n, n))
    q[x, y] = rng.uniform(0.1, 1.0, x.size)
    np.fill_diagonal(q, -q.sum(axis=1) - rng.uniform(0.0, 1.0, n))
    if dust:  # rates at STRUCTURAL_TOL * |q_xx| exactly are no edges
        none = (q == 0.0) & (rng.uniform(size=(n, n)) < 0.5)
        q = np.where(none, STRUCTURAL_TOL * np.abs(np.diagonal(q))[:, None], q)
    whole = csr_matrix((np.ones(x.size), (x, y)), shape=(n, n))
    assert _component_count(q) == connected_components(whole, directed=False)[0]


def test_spectral_gap_peak_memory_at_n_400():
    n = 400
    chain = random_reversible_chain(np.random.default_rng(3), n)
    chain.form_spectrum, chain.reversible  # cached facts of the chain
    _, peak = traced_peak(lambda: spectral_gap(chain))
    # the reducibility test read the whole n x n support at once at 5.0 n^2
    assert peak <= 2 * n * n * 8


@pytest.mark.parametrize("n", [50, 800])
def test_spectral_gap_matches_the_symmetrized_eigh(n):
    chain = random_reversible_chain(np.random.default_rng(1), n)
    root = np.sqrt(chain.mu)
    b = -(chain.q * (root[:, None] / root[None, :]))
    lam = scipy.linalg.eigh((b + b.T) / 2.0, eigvals_only=True)
    assert abs(spectral_gap(chain) - lam[1]) <= 1e-13 * max(1.0, abs(lam[-1]))


@pytest.mark.parametrize("c", [1e-3, 1e-13])
def test_spectral_gap_reducibility_does_not_depend_on_the_time_scale(c):
    # every rate of c*Q lies below an absolute STRUCTURAL_TOL at c = 1e-13,
    # yet the chain is as irreducible as Q
    chain = random_reversible_chain(np.random.default_rng(0), 6)
    scaled = Chain(Generator(c * chain.q), chain.measure)
    assert spectral_gap(scaled) / (c * spectral_gap(chain)) == pytest.approx(1.0, rel=1e-12)


def test_spectral_gap_checks_the_bottom_eigenvalue_at_the_chain_scale(monkeypatch):
    # a bottom eigenvalue at a tenth of the top one is no rounding; a floor
    # of 1 on the scale let it through once the rates were small
    chain = Chain(Generator(1e-12 * C3.q), Measure(C3.mu))
    monkeypatch.setitem(chain.__dict__, "form_spectrum", 1e-12 * np.array([0.3, 3.0, 3.0]))
    with pytest.raises(AssertionError, match="bottom eigenvalue"):
        spectral_gap(chain)


@pytest.mark.parametrize("kind", ["tridiagonal", "dense"])
def test_dirichlet_of_the_full_domain_is_the_bottom_of_the_form_spectrum(kind):
    # one eigensolve routine: on a killed reversible chain the Dirichlet
    # problem of the whole state space is the chain's own form spectrum
    rng = np.random.default_rng(7)
    n = 40
    if kind == "tridiagonal":
        bd = birth_death(rng.uniform(0.5, 2.0, n - 1), rng.uniform(0.1, 3.0, n - 1))
        chain = make_chain(bd.q - np.diag(rng.uniform(0.1, 0.6, n)), bd.mu)
    else:
        chain = random_reversible_chain(rng, n, killing=True)
    lam0 = DomainSystem(chain, DomainMask.full(n)).dirichlet.lambda0
    assert lam0 > 0 and lam0 == chain.form_spectrum[0]


def test_dirichlet_on_a_dense_block_computes_one_eigenvector(monkeypatch):
    chain = random_reversible_chain(np.random.default_rng(8), 30, killing=True)
    lam, vec = scipy.linalg.eigh(DomainSystem(chain, DomainMask.full(30)).sym_d)
    eigh = scipy.linalg.eigh

    def one_vector_eigh(a, *args, **kwargs):
        if not kwargs.get("eigvals_only") and kwargs.get("subset_by_index") != [0, 0]:
            raise AssertionError("eigh computed every eigenvector")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", one_vector_eigh)
    lam0, phi, multiplicity = DomainSystem(chain, DomainMask.full(30)).dirichlet
    # a backward-stable eigensolve is good to a few eps * lambda_max
    assert abs(lam0 - lam[0]) <= 64 * np.finfo(float).eps * lam[-1] and multiplicity == 1
    np.testing.assert_allclose(np.abs(phi * np.sqrt(chain.mu)), np.abs(vec[:, 0]), atol=1e-12)


def test_spectral_gap_below_the_eigensolve_rounding_is_no_gap():
    # mu reaches 2.7e-167, so a product of two weights underflows: the
    # gap nu_1 = -2.2e-17 is rounding, and the ledger skips what reads it
    chain = chain_of(80, 14, 70)
    with pytest.raises(ValueError, match="at or below the eigensolve's rounding"):
        spectral_gap(chain)
    ledger = bounds_report(chain, DomainMask.from_states([1, 2], 80), [1e-3])
    gap_entries = [e for e in ledger.entries if e.name in ("exp_moment_upper_gap", "lambda0_vs_gap")]
    assert len(gap_entries) == 2 and all(e.skipped and "rounding" in e.reason for e in gap_entries)


def test_ledger_slack_is_relative_to_the_larger_side():
    # an upper bound of 1e-9 against an lhs of 2e-9 is off by half
    assert not _checked("upper", None, 2e-9, 1e-9, +1).satisfied
    # a shortfall of 1e-10 relative passes at any magnitude
    assert _checked("upper", None, 1e12 * (1 + 1e-10), 1e12, +1).satisfied
    assert _checked("lower", None, 1e-12, 1e-12 * (1 + 1e-10), -1).satisfied
    # an infinite shortfall never passes; an infinite surplus always does
    assert not _checked("upper", None, np.inf, 1.0, +1).satisfied
    assert _checked("lower", None, np.inf, 1.0, -1).satisfied


def test_ledger_writes_each_non_finite_float_as_itself():
    entry = _checked("upper", None, np.inf, 1.0, +1)  # slack 1 - inf
    assert entry.to_dict()["slack"] == "-inf"
    assert BoundLedger((entry,), {}).to_csv().splitlines()[1] == "upper,,inf,1.0,-inf,violated"
    assert [_json_float(x) for x in (np.nan, np.inf, -np.inf, 0.5)] == ["nan", "inf", "-inf", 0.5]


def test_spectral_gap_rejects_a_single_state():
    chain = make_chain([[0.0]], [1.0])
    with pytest.raises(ValueError, match="two states"):
        spectral_gap(chain)


def test_spectral_gap_rejects_killed_chain():
    with pytest.raises(ValueError, match="conservative"):
        spectral_gap(
            make_chain([[-3.0, 1.0], [1.0, -3.0]], [0.5, 0.5])
        )


def test_lyapunov_delta_eigenfunction_and_indicator():
    lam0, phi = dirichlet_pair(C3, MASK01)
    assert lyapunov_delta(C3, MASK01, phi) == pytest.approx(lam0, abs=1e-12)
    assert lyapunov_delta(C3, MASK01, np.array([1.0, 1.0, 0.0])) == pytest.approx(1.0, abs=1e-14)


def test_lyapunov_delta_mean_vector(rng):
    chain = random_reversible_chain(rng, 7)
    mask = random_proper_mask(rng, 7)
    m = exit_mean(chain, mask)
    delta = lyapunov_delta(chain, mask, m)
    # -L m = 1 inside, so the ratio is 1/m and its minimum is 1/max(m)
    assert delta == pytest.approx(1.0 / m[mask.indices].max(), rel=1e-12)


def test_lyapunov_delta_dominated_by_lambda0(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        chain = random_reversible_chain(rng, n, killing=bool(rng.integers(0, 2)))
        mask = random_proper_mask(rng, n)
        lam0, _ = dirichlet_pair(chain, mask)
        phi = np.where(mask.inside, rng.uniform(0.1, 2.0, n), 0.0)
        assert lyapunov_delta(chain, mask, phi) <= lam0 + 1e-10


def test_lyapunov_delta_rejects_bad_function():
    with pytest.raises(ValueError):
        lyapunov_delta(C3, MASK01, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        lyapunov_delta(C3, MASK01, np.array([1.0, 1.0, 0.5]))


def test_bounds_report_three_state_equalities():
    ledger = bounds_report(C3, MASK01, [0.5, 1.0], lyapunov=np.array([1.0, 1.0, 0.0]))
    assert ledger.all_satisfied()
    assert ledger.meta["lambda0"] == pytest.approx(1.0, abs=1e-12)
    assert ledger.meta["lambda1"] == pytest.approx(3.0, abs=1e-12)
    assert ledger.meta["pi_omega_c"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert ledger.meta["lyapunov_delta"] == pytest.approx(1.0, abs=1e-14)
    by_key = {(e.name, e.beta): e for e in ledger.entries}
    lower = by_key[("exp_moment_lower_eigenfunction", 0.5)]
    assert lower.lhs == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert abs(lower.slack) <= 1e-12
    upper = by_key[("exp_moment_upper_lambda0", 0.5)]
    assert upper.rhs == pytest.approx(2.0, abs=1e-12)
    lap_up = by_key[("laplace_upper_eigenfunction", 1.0)]
    assert lap_up.lhs == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert abs(lap_up.slack) <= 1e-12
    lap_low = by_key[("laplace_lower_lambda0", 1.0)]
    assert lap_low.rhs == pytest.approx(0.5, abs=1e-12)
    mean_up = by_key[("mean_upper_lambda0", None)]
    assert mean_up.lhs == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert mean_up.rhs == pytest.approx(1.0, abs=1e-12)
    mean_low = by_key[("mean_lower_eigenfunction", None)]
    assert abs(mean_low.slack) <= 1e-12
    gap = by_key[("lambda0_vs_gap", None)]
    assert gap.satisfied and not gap.skipped
    assert abs(gap.slack) <= 1e-12


def test_bounds_report_random_chains_satisfied(rng):
    for _ in range(8):
        n = int(rng.integers(3, 14))
        chain = random_reversible_chain(rng, n)
        mask = random_proper_mask(rng, n)
        lyap = exit_mean(chain, mask)
        ledger = bounds_report(chain, mask, [0.3, 0.9, 2.0], lyapunov=lyap)
        bad = [e for e in ledger.entries if not e.skipped and not e.satisfied]
        assert not bad, bad
        for entry in ledger.entries:
            if entry.skipped:
                assert entry.reason


def test_bounds_report_odd_moment_series(rng):
    # rescale so the Dirichlet eigenvalue exceeds 1 and the series bound applies
    chain = random_reversible_chain(rng, 6)
    mask = random_proper_mask(rng, 6)
    lam0, _ = dirichlet_pair(chain, mask)
    scale = 1.7 / lam0
    scaled = make_chain(scale * chain.q, chain.mu)
    ledger = bounds_report(scaled, mask, [0.5])
    entry = next(e for e in ledger.entries if e.name == "odd_moment_series")
    assert not entry.skipped
    assert entry.satisfied


def test_bounds_ledger_serialization():
    ledger = bounds_report(C3, MASK01, [0.5])
    csv_text = ledger.to_csv()
    header = csv_text.splitlines()[0]
    assert header == "bound,beta,lhs,rhs,slack,status"
    assert "skipped" in csv_text
    doc = ledger.to_dict()
    assert doc["meta"]["lambda0"] == pytest.approx(1.0, abs=1e-12)
    assert doc["meta"]["lambda0_multiplicity"] == 1


def test_exp_moment_finite_below_edge_infinite_at_edge(rng):
    for _ in range(10):
        n = int(rng.integers(3, 12))
        chain = random_reversible_chain(rng, n)
        mask = random_proper_mask(rng, n)
        lam0, _ = dirichlet_pair(chain, mask)
        assert lam0 > 1e-3
        below = exit_exp_moment(chain, mask, lam0 - 1e-3)
        assert np.all(np.isfinite(below))
        at_edge = exit_exp_moment(chain, mask, lam0)
        assert np.all(np.isinf(at_edge[mask.inside]))
        lam1 = spectral_gap(chain)
        pi_out = float(np.sum(chain.mu[~mask.inside]))
        assert lam0 >= lam1 * pi_out - 1e-10
    # past the edge on a walk whose restriction is not positive definite
    # there: no moment below 1 comes out of the solve, and the infimum is 0
    walk, inner = birth_death([1.0] * 9, [1.0] * 9), DomainMask.from_states(range(1, 9), 10)
    beta = 1.5 * dirichlet_pair(walk, inner)[0]
    assert np.all(np.isinf(exit_exp_moment(walk, inner, beta)[inner.inside]))
    assert exp_moment_inf(walk, inner, beta) == 0.0


def test_bounds_report_rejects_non_reversible(rng):
    chain = random_nonsymmetric_chain(rng, 5)
    with pytest.raises(NonReversibleError):
        bounds_report(chain, DomainMask.from_states([0, 1], 5), [0.5])
