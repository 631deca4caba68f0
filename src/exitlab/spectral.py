"""Dirichlet eigenvalue, spectral gap, Lyapunov ratio, and the bound ledger.

All eigenproblems are for reversible chains and are symmetrized by the
similarity M^{1/2} (-L) M^{-1/2}, so real symmetric solvers apply. The
ledger checks every inequality tying exit-time functionals to the
Dirichlet eigenvalue lambda0 of the restriction, the spectral gap lambda1
of the full chain, and a Lyapunov ratio delta when a Lyapunov function is
supplied. Inapplicable bounds are recorded as skipped with a reason, never
as failures.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .defaults import COMPARISON_RTOL, SPECTRAL_EDGE_MARGIN, STRUCTURAL_TOL, WEAK_IDENTITY_TOL
from .forms import Chain, _as_vector, _freeze, _json_float
from .poisson import DomainMask, DomainSystem, NonReversibleError, _symmetrized

__all__ = [
    "SpectralReport",
    "BoundEntry",
    "BoundLedger",
    "dirichlet_pair",
    "spectral_gap",
    "lyapunov_delta",
    "spectral_report",
    "bounds_report",
]


def dirichlet_pair(chain: Chain, mask: DomainMask):
    """Smallest eigenvalue of -L on the domain and its eigenfunction.

    Returns (lambda0, phi) with phi extended by zero, normalized to
    <phi, phi>_mu = 1, and signed so that <phi, 1>_mu >= 0.
    """
    lam0, phi, _ = DomainSystem(chain, mask).dirichlet
    return lam0, phi


def spectral_gap(chain: Chain) -> float:
    """Second-smallest eigenvalue of -L in the mu-weighted inner product.

    Requires a reversible, irreducible, conservative chain carrying a
    probability measure; the smallest eigenvalue is then 0 with constant
    eigenfunction, and the gap is the optimal constant c in
    c * pi(f^2) <= form0(f, f) over pi(f) = 0.
    """
    if not chain.reversible:
        raise NonReversibleError("spectral gap needs a reversible chain")
    if not chain.is_conservative():
        raise ValueError("spectral gap needs a conservative generator")
    if not chain.measure.normalized:
        raise ValueError("spectral gap needs a normalized (probability) measure")
    support = csr_matrix((np.abs(chain.q) > STRUCTURAL_TOL).astype(int))
    n_comp, _ = connected_components(support, directed=False)
    if n_comp > 1:
        raise ValueError(f"chain is reducible ({n_comp} components); no unique invariant law")
    lam = scipy.linalg.eigh(_symmetrized(chain.q, chain.mu), eigvals_only=True)
    if abs(lam[0]) > WEAK_IDENTITY_TOL:
        raise AssertionError(f"bottom eigenvalue of a conservative chain is {lam[0]:.3e}, not 0")
    return float(lam[1])


def lyapunov_delta(chain: Chain, mask: DomainMask, varphi) -> float:
    """delta = -max over inside states of (L varphi)(x) / varphi(x).

    ``varphi`` must be strictly positive inside the domain and zero
    outside.
    """
    phi = _as_vector(varphi, chain.n_states, "varphi")
    inside = mask.inside
    if np.any(phi[inside] <= 0):
        raise ValueError("Lyapunov function must be strictly positive inside the domain")
    if np.any(np.abs(phi[~inside]) > STRUCTURAL_TOL):
        raise ValueError("Lyapunov function must vanish outside the domain")
    lphi = chain.q @ phi
    return float(-np.max(lphi[inside] / phi[inside]))


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """lambda0, its eigenfunction, the gap, and the outside mass."""

    lambda0: float
    phi: np.ndarray
    lambda1: float | None
    pi_omega_c: float
    lyapunov_delta: float | None

    def __post_init__(self):
        object.__setattr__(self, "phi", _freeze(self.phi))

    def to_dict(self) -> dict:
        return {
            "lambda0": self.lambda0,
            "phi": self.phi.tolist(),
            "lambda1": self.lambda1,
            "pi_omega_c": self.pi_omega_c,
            "lyapunov_delta": self.lyapunov_delta,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def spectral_report(chain: Chain, mask: DomainMask, lyapunov=None) -> SpectralReport:
    """Assemble the spectral quantities of one domain, validating identities."""
    lam0, phi = dirichlet_pair(chain, mask)
    mu = chain.mu
    form_phi = float(phi @ (-(chain.q.T * mu[None, :])) @ phi)
    norm_phi = float(np.sum(mu * phi * phi))
    if abs(form_phi - lam0 * norm_phi) > WEAK_IDENTITY_TOL * max(1.0, abs(form_phi)):
        raise AssertionError("eigenfunction fails form(phi,phi) = lambda0 * pi(phi^2)")
    pi_out = float(np.sum(mu[~mask.inside]))
    lam1 = None
    try:
        lam1 = spectral_gap(chain)
    except (ValueError, NonReversibleError):
        pass
    if lam1 is not None and pi_out > 0 and lam0 < lam1 * pi_out - WEAK_IDENTITY_TOL:
        raise AssertionError("lambda0 fell below lambda1 * pi(complement)")
    delta = lyapunov_delta(chain, mask, lyapunov) if lyapunov is not None else None
    return SpectralReport(lam0, phi, lam1, pi_out, delta)


@dataclass(frozen=True, eq=False)
class BoundEntry:
    """One checked inequality: lhs vs rhs with signed slack.

    ``slack`` is oriented so that satisfied means slack >= -1e-9; skipped
    entries carry a reason and no verdict.
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
    """orient=+1 checks lhs <= rhs (slack rhs-lhs), -1 checks lhs >= rhs."""
    slack = (rhs - lhs) if orient > 0 else (lhs - rhs)
    return BoundEntry(name, beta, float(lhs), float(rhs), bool(slack >= -COMPARISON_RTOL), float(slack))


def _skipped(name, beta, reason) -> BoundEntry:
    return BoundEntry(name, beta, None, None, None, None, skipped=True, reason=reason)


@dataclass(frozen=True, eq=False)
class BoundLedger:
    """All inequality checks for one chain and domain."""

    entries: tuple[BoundEntry, ...]
    meta: dict

    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries if not e.skipped)

    def to_dict(self) -> dict:
        return {"meta": dict(self.meta), "entries": [e.to_dict() for e in self.entries]}

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

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
                    "" if e.lhs is None else _csv_float(e.lhs),
                    "" if e.rhs is None else _csv_float(e.rhs),
                    "" if e.slack is None else _csv_float(e.slack),
                    status,
                ]
            )
        return buf.getvalue()


def _csv_float(x: float) -> str:
    return "inf" if np.isinf(x) else repr(float(x))


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
    if not system.chain.reversible:
        raise NonReversibleError("the bound ledger needs a reversible chain")
    if not chain.measure.normalized:
        raise ValueError("the bound ledger needs a normalized (probability) measure")
    lam0, phi, multiplicity = system.dirichlet
    mu = chain.mu
    pi_out = float(np.sum(mu[~mask.inside]))
    pi_phi = float(np.sum(mu * phi))
    pi_phi2 = float(np.sum(mu * phi * phi))
    ratio = pi_phi**2 / pi_phi2
    try:
        lam1 = spectral_gap(chain)
    except (ValueError, NonReversibleError) as err:
        lam1 = None
        lam1_reason = str(err)
    delta = lyapunov_delta(chain, mask, lyapunov) if lyapunov is not None else None

    mean_vec = system.mean()
    mean_pi = float(np.sum(mu * mean_vec))

    entries: list[BoundEntry] = []
    for beta in betas:
        beta = float(beta)
        # +inf at or past the edge; below it, one cached solve serves every entry
        exp_pi = float(np.sum(mu * system.exp_moment(beta, lam0)))
        if beta < lam0 - SPECTRAL_EDGE_MARGIN:
            entries.append(
                _checked("exp_moment_upper_lambda0", beta, exp_pi, 1 + beta / (lam0 - beta), +1)
            )
            entries.append(
                _checked(
                    "exp_moment_lower_eigenfunction",
                    beta,
                    exp_pi,
                    1 + beta * ratio / (lam0 - beta),
                    -1,
                )
            )
        else:
            entries.append(_skipped("exp_moment_upper_lambda0", beta, "beta >= lambda0"))
            entries.append(_skipped("exp_moment_lower_eigenfunction", beta, "beta >= lambda0"))
        if lam1 is None:
            entries.append(_skipped("exp_moment_upper_gap", beta, lam1_reason))
        elif pi_out <= 0:
            entries.append(_skipped("exp_moment_upper_gap", beta, "pi(complement) = 0"))
        elif beta >= lam1 * pi_out - SPECTRAL_EDGE_MARGIN:
            entries.append(
                _skipped("exp_moment_upper_gap", beta, "beta >= lambda1 * pi(complement)")
            )
        else:
            entries.append(
                _checked(
                    "exp_moment_upper_gap", beta, exp_pi, 1 + beta / (lam1 * pi_out - beta), +1
                )
            )
        lap_pi = float(np.sum(mu * system.laplace(beta)))
        entries.append(
            _checked("laplace_lower_lambda0", beta, lap_pi, 1 - beta / (lam0 + beta), -1)
        )
        entries.append(
            _checked(
                "laplace_upper_eigenfunction", beta, lap_pi, 1 - beta * ratio / (lam0 + beta), +1
            )
        )
        if delta is not None:
            if beta < delta - SPECTRAL_EDGE_MARGIN:
                entries.append(
                    _checked(
                        "exp_moment_upper_lyapunov", beta, exp_pi, 1 + beta / (delta - beta), +1
                    )
                )
            else:
                entries.append(_skipped("exp_moment_upper_lyapunov", beta, "beta >= delta"))
            entries.append(
                _checked("laplace_lower_lyapunov", beta, lap_pi, 1 - beta / (delta + beta), -1)
            )
        else:
            entries.append(_skipped("exp_moment_upper_lyapunov", beta, "no Lyapunov function"))
            entries.append(_skipped("laplace_lower_lyapunov", beta, "no Lyapunov function"))

    entries.append(_checked("mean_upper_lambda0", None, mean_pi, 1.0 / lam0, +1))
    entries.append(_checked("mean_lower_eigenfunction", None, mean_pi, ratio / lam0, -1))
    if lam1 is None:
        entries.append(_skipped("lambda0_vs_gap", None, lam1_reason))
    elif pi_out <= 0:
        entries.append(_skipped("lambda0_vs_gap", None, "pi(complement) = 0"))
    else:
        entries.append(_checked("lambda0_vs_gap", None, lam0, lam1 * pi_out, -1))
    if lam0 > 1.0 + SPECTRAL_EDGE_MARGIN:
        exp_one = float(np.sum(mu * system.exp_moment(1.0, lam0)))
        lap_one = float(np.sum(mu * system.laplace(1.0)))
        entries.append(
            _checked(
                "odd_moment_series",
                None,
                (exp_one - lap_one) / 2.0,
                lam0 / ((lam0 - 1.0) * (lam0 + 1.0)),
                +1,
            )
        )
    else:
        entries.append(_skipped("odd_moment_series", None, "lambda0 <= 1"))
    if delta is not None:
        entries.append(_checked("mean_upper_lyapunov", None, mean_pi, 1.0 / delta, +1))
    else:
        entries.append(_skipped("mean_upper_lyapunov", None, "no Lyapunov function"))

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
