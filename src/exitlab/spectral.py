"""Dirichlet eigenvalue, spectral gap, Lyapunov ratio, and the bound ledger.

All eigenproblems are for reversible chains, so real symmetric solvers
apply: the Dirichlet problem is symmetrized by the similarity
M^{1/2} (-L_D) M^{-1/2}, and the spectral gap is read from the chain's
cached spectrum (``Chain.form_spectrum``). The ledger checks every
inequality tying exit-time functionals to the Dirichlet eigenvalue lambda0
of the restriction, the spectral gap lambda1 of the full chain, and a
Lyapunov ratio delta when a Lyapunov function is supplied. Each bound
needs one spectral edge (lambda0, lambda1 * pi(D^c) or delta); where that
edge is missing, or an exponential moment's shift is not below it, the
bound is recorded as skipped with the reason, never as a failure.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .defaults import COMPARISON_RTOL, STRUCTURAL_TOL, WEAK_IDENTITY_TOL
from .forms import Chain, _as_vector, _edges, _eig_rounding, _json_float
from .poisson import DomainMask, DomainSystem, NonReversibleError, _below_edge, _check_mask

__all__ = [
    "BoundEntry",
    "BoundLedger",
    "dirichlet_pair",
    "spectral_gap",
    "lyapunov_delta",
    "bounds_report",
]


def dirichlet_pair(chain: Chain, mask: DomainMask):
    """Smallest eigenvalue of -L on the domain and its eigenfunction.

    Returns (lambda0, phi) with phi extended by zero, scaled to
    <phi, phi>_mu = 1, and signed so that <phi, 1>_mu >= 0.
    """
    lam0, phi, _ = DomainSystem(chain, mask).dirichlet
    return lam0, phi


def spectral_gap(chain: Chain) -> float:
    """Second-smallest eigenvalue of -L in the mu-weighted inner product.

    Requires a reversible, irreducible, conservative chain, with mu of any
    scale; the smallest eigenvalue is then 0 with constant eigenfunction,
    and the gap is the optimal constant c in c * pi(f^2) <= <-Q f, f>_pi
    over pi(f) = 0, pi = mu / mu(E). Both eigenvalues come from
    ``chain.form_spectrum``, the eigensolve that also gives beta0. A rate
    q_xy is an edge of the chain when it exceeds STRUCTURAL_TOL * |q_xx|,
    so reducibility does not depend on the time scale of Q.
    """
    if not chain.reversible:
        raise NonReversibleError("spectral gap needs a reversible chain")
    if not chain.is_conservative():
        raise ValueError("spectral gap needs a conservative generator")
    if (n_comp := _component_count(chain.q)) > 1:
        raise ValueError(f"chain is reducible ({n_comp} components); no unique invariant law")
    if chain.n_states < 2:
        raise ValueError("spectral gap needs at least two states")
    nu = chain.form_spectrum
    # eigh is backward stable: the bottom eigenvalue carries rounding of the
    # order of the largest one, and no floor, so c*Q keeps the verdict
    if abs(nu[0]) > WEAK_IDENTITY_TOL * abs(nu[-1]):
        raise AssertionError(f"bottom eigenvalue of a conservative chain is {nu[0]:.3e}, not 0")
    if nu[1] <= (rounding := _eig_rounding(nu)):
        raise ValueError(f"spectral gap {nu[1]:.3e} is at or below the eigensolve's rounding {rounding:.3e}")
    return float(nu[1])


# Rows per tile of the reducibility test. A dense tile's edges cost about
# 0.29 n^2 doubles at n = 400 in index arrays and their roots.
_EDGE_TILE_ROWS = 16


def _component_count(q: np.ndarray) -> int:
    """Connected components of the graph of ``_edges``, by hooking and pointer
    jumping (Shiloach and Vishkin, J. Algorithms 3, 1982).

    A round hooks, for each edge (x, y), read a tile of rows at a time, the
    larger of their roots to the smaller, then jumps ``root = root[root]``
    until no pointer moves. Roots only decrease, so rounds end, after one
    that moves no root. Then every edge joins equal roots, and roots merge
    only along edges, so the count of roots is exact. One tile's index pairs
    are held at a time, never an n x n array.
    """
    n = q.shape[0]
    root, before = np.arange(n), None
    while not np.array_equal(root, before):
        before = root.copy()
        for lo in range(0, n, _EDGE_TILE_ROWS):
            x, y = divmod(np.flatnonzero(_edges(q, slice(lo, lo + _EDGE_TILE_ROWS))), n)
            rx, ry = root[x + lo], root[y]
            np.minimum.at(root, np.maximum(rx, ry), np.minimum(rx, ry))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    return int(np.count_nonzero(root == np.arange(n)))


def lyapunov_delta(chain: Chain, mask: DomainMask, varphi) -> float:
    """delta = -max over inside states of (L varphi)(x) / varphi(x).

    ``varphi`` must be strictly positive inside the domain and zero
    outside, to STRUCTURAL_TOL relative to max|varphi|.
    """
    _check_mask(mask, chain.n_states)
    phi = _as_vector(varphi, chain.n_states, "varphi")
    inside = mask.inside
    if np.any(phi[inside] <= 0):
        raise ValueError("Lyapunov function must be strictly positive inside the domain")
    if np.any(np.abs(phi[~inside]) > STRUCTURAL_TOL * np.abs(phi).max()):
        raise ValueError("Lyapunov function must vanish outside the domain")
    lphi = chain.q @ phi
    return float(-np.max(lphi[inside] / phi[inside]))


@dataclass(frozen=True, eq=False)
class BoundEntry:
    """One checked inequality: lhs vs rhs with signed slack.

    ``slack`` is oriented so that satisfied means slack >= 0, up to
    COMPARISON_RTOL of the larger side; skipped entries carry a reason and
    no verdict.
    """

    name: str
    beta: float | None
    lhs: float | None
    rhs: float | None
    satisfied: bool | None
    slack: float | None
    skipped: bool = False
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "bound": self.name,
            "beta": self.beta,
            "lhs": None if self.lhs is None else _json_float(self.lhs),
            "rhs": None if self.rhs is None else _json_float(self.rhs),
            "satisfied": self.satisfied,
            "slack": None if self.slack is None else _json_float(self.slack),
            "skipped": self.skipped,
            "reason": self.reason,
        }


def _checked(name, beta, lhs, rhs, orient) -> BoundEntry:
    """orient=+1 checks lhs <= rhs (slack rhs-lhs), -1 checks lhs >= rhs.

    A shortfall passes within COMPARISON_RTOL of the larger magnitude of the
    two sides, unfloored; an infinite one never does.
    """
    slack = (rhs - lhs) if orient > 0 else (lhs - rhs)
    ok = slack >= -COMPARISON_RTOL * max(abs(lhs), abs(rhs)) and slack > -np.inf
    return BoundEntry(name, beta, float(lhs), float(rhs), bool(ok), float(slack))


def _skipped(name, beta, reason) -> BoundEntry:
    return BoundEntry(name, beta, None, None, None, None, skipped=True, reason=reason)


def _entry(name, beta, edge, lhs, rhs, orient) -> BoundEntry:
    """The one applicability rule of the ledger.

    ``edge`` is (label, value), the value being the reason when the edge is
    missing, and then the entry is skipped with it. An exponential-moment
    bound also needs beta below the edge (``_below_edge``), and skips with
    "beta >= label" otherwise. Only an applicable entry evaluates
    ``rhs(value)``, so no rhs is computed at or past its pole.
    """
    label, value = edge
    if isinstance(value, str):
        return _skipped(name, beta, value)
    if name.startswith("exp_moment") and not _below_edge(beta, value):
        return _skipped(name, beta, f"beta >= {label}")
    return _checked(name, beta, lhs, rhs(value), orient)


@dataclass(frozen=True, eq=False)
class BoundLedger:
    """All inequality checks for one chain and domain."""

    entries: tuple[BoundEntry, ...]
    meta: dict

    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries if not e.skipped)

    def to_dict(self) -> dict:
        return {"meta": dict(self.meta), "entries": [e.to_dict() for e in self.entries]}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["bound", "beta", "lhs", "rhs", "slack", "status"])
        for e in self.entries:
            status = "skipped" if e.skipped else ("satisfied" if e.satisfied else "violated")
            writer.writerow(
                [
                    e.name,
                    "" if e.beta is None else repr(float(e.beta)),
                    "" if e.lhs is None else _json_float(e.lhs),
                    "" if e.rhs is None else _json_float(e.rhs),
                    "" if e.slack is None else _json_float(e.slack),
                    status,
                ]
            )
        return buf.getvalue()


def bounds_report(chain: Chain, mask: DomainMask, betas, lyapunov=None) -> BoundLedger:
    """Check every exit-time inequality derived from the spectral quantities.

    Per shift beta (where applicable): upper and lower bounds on the
    exponential moment through lambda0, the gap-based upper bound, and the
    two-sided Laplace bounds. Shift-free entries: the two-sided mean
    bounds, lambda0 >= lambda1 * pi(complement), the odd-moment series
    bound (needs lambda0 > 1), and Lyapunov variants when a function is
    supplied. Exact functionals come from the restricted solves.
    """
    return bounds_ledger(DomainSystem(chain, mask), betas, lyapunov)


def bounds_ledger(system: DomainSystem, betas, lyapunov=None) -> BoundLedger:
    """bounds_report on a prepared domain system (shares its solves and eigensolve)."""
    chain, mask = system.chain, system.mask
    if not system.reversible:
        raise NonReversibleError("the bound ledger needs a reversible chain")
    lam0, phi, multiplicity = system.dirichlet
    # every bound is stated for the probability pi for which Q is symmetric;
    # phi is scaled from <phi, phi>_mu = 1 to pi(phi^2) = 1, whatever mu(E)
    pi = chain.pi
    phi = phi * np.sqrt(chain.mu.sum())
    pi_out = float(np.sum(pi[~mask.inside]))
    pi_phi = float(np.sum(pi * phi))
    pi_phi2 = float(np.sum(pi * phi * phi))
    ratio = pi_phi**2 / pi_phi2
    try:
        lam1 = spectral_gap(chain)
        gap = lam1 * pi_out if pi_out > 0 else "pi(complement) = 0"
    except (ValueError, NonReversibleError) as err:
        lam1, gap = None, str(err)
    delta = lyapunov_delta(chain, mask, lyapunov) if lyapunov is not None else None
    # each bound's spectral edge: (label, its value or the reason it is missing)
    edge0, edge_gap = ("lambda0", lam0), ("lambda1 * pi(complement)", gap)
    edge_lyap = ("delta", "no Lyapunov function" if delta is None else delta)
    mean_pi = float(np.sum(pi * system.mean()))

    entries: list[BoundEntry] = []
    for beta in betas:
        beta = float(beta)
        # +inf at or past the edge; below it, one cached solve serves every entry
        exp_pi = float(np.sum(pi * system.exp_moment(beta)))
        lap_pi = float(np.sum(pi * system.laplace(beta)))
        rows = [
            ("exp_moment_upper_lambda0", edge0, exp_pi, lambda e: 1 + beta / (e - beta), +1),
            ("exp_moment_lower_eigenfunction", edge0, exp_pi, lambda e: 1 + beta * ratio / (e - beta), -1),
            ("exp_moment_upper_gap", edge_gap, exp_pi, lambda e: 1 + beta / (e - beta), +1),
            ("laplace_lower_lambda0", edge0, lap_pi, lambda e: 1 - beta / (e + beta), -1),
            ("laplace_upper_eigenfunction", edge0, lap_pi, lambda e: 1 - beta * ratio / (e + beta), +1),
            ("exp_moment_upper_lyapunov", edge_lyap, exp_pi, lambda e: 1 + beta / (e - beta), +1),
            ("laplace_lower_lyapunov", edge_lyap, lap_pi, lambda e: 1 - beta / (e + beta), -1),
        ]
        entries += [_entry(name, beta, *row) for name, *row in rows]

    rows = [
        ("mean_upper_lambda0", edge0, mean_pi, lambda e: 1.0 / e, +1),
        ("mean_lower_eigenfunction", edge0, mean_pi, lambda e: ratio / e, -1),
        ("lambda0_vs_gap", edge_gap, lam0, lambda e: e, -1),
    ]
    entries += [_entry(name, None, *row) for name, *row in rows]
    # evaluated at beta = 1, so its two solves are paid only where it applies
    if _below_edge(1.0, lam0):
        exp_one = float(np.sum(pi * system.exp_moment(1.0)))
        lap_one = float(np.sum(pi * system.laplace(1.0)))
        odd = (exp_one - lap_one) / 2.0, lam0 / ((lam0 - 1.0) * (lam0 + 1.0))
        entries.append(_checked("odd_moment_series", None, *odd, +1))
    else:
        entries.append(_skipped("odd_moment_series", None, "lambda0 <= 1"))
    entries.append(_entry("mean_upper_lyapunov", None, edge_lyap, mean_pi, lambda e: 1.0 / e, +1))

    meta = {
        "lambda0": lam0,
        "lambda1": lam1,
        "pi_omega_c": pi_out,
        "pi_phi": pi_phi,
        "pi_phi_sq": pi_phi2,
        "lyapunov_delta": delta,
        "lambda0_multiplicity": multiplicity,
    }
    return BoundLedger(entries=tuple(entries), meta=meta)
