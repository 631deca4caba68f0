"""Exact evaluation of the inf-sup identities for exit-time functionals.

For a domain D, a source xi supported in D, and a shift beta above the
lower-bound estimate,

    1 / <xi, u_beta>_mu
       = inf over {<xi,f>_mu = 1} sup over {<xi,g>_mu = 0} form(f+g, f-g),

with f and g ranging over vectors vanishing outside D. Two independent
routes are provided: the closed form via the primal and dual restricted
resolvent solves (which also constructs the optimizing pair), and a nested
constrained-quadratic solve that never touches the resolvent. Reversible
chains additionally get the single-infimum reduction and the
exponential-moment infimum with its hinge at the Dirichlet eigenvalue.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._linalg import solve_refined
from .defaults import (
    SADDLE_CHECK_DIRECTIONS,
    SADDLE_CHECK_SEED,
    SADDLE_CHECK_TOL,
    SPECTRAL_EDGE_MARGIN,
    STRUCTURAL_TOL,
)
from .forms import Chain, Measure, _as_vector, _freeze, form_matrix
from .poisson import DomainMask, DomainSystem, NonReversibleError, _restrict_source, embed

__all__ = [
    "SaddleSolution",
    "DegenerateSourceError",
    "construct_optimizers",
    "saddle_value",
    "symmetric_inf",
    "exp_moment_inf",
]


class DegenerateSourceError(ValueError):
    """The source pairs to zero against the resolvent solution."""


@dataclass(frozen=True, eq=False)
class SaddleSolution:
    """Value and optimizers of the constrained inf-sup.

    ``f_star`` attains the infimum, ``g_star`` the supremum; both vanish
    outside the domain exactly. ``residuals`` records constraint and
    stationarity defects plus, for the nested route, the smallest
    eigenvalue of the symmetric part on the constraint subspace.
    """

    value: float
    f_star: np.ndarray
    g_star: np.ndarray
    residuals: dict
    method: str

    def __post_init__(self):
        object.__setattr__(self, "f_star", _freeze(self.f_star))
        object.__setattr__(self, "g_star", _freeze(self.g_star))

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "f_star": self.f_star.tolist(),
            "g_star": self.g_star.tolist(),
            "residuals": dict(self.residuals),
            "method": self.method,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def construct_optimizers(u, u_dual, xi, measure: Measure):
    """Build the optimizing pair from the primal and dual solutions.

    With w = u / <xi,u>_mu and w~ = u_dual / <xi,u>_mu, returns
    f_star = (w + w~)/2 and g_star = (w - w~)/2. All vectors are full
    length; u and u_dual vanish outside the domain.
    """
    uv = _as_vector(u, len(measure), "u")
    ud = _as_vector(u_dual, len(measure), "u_dual")
    xv = _as_vector(xi, len(measure), "xi")
    pairing = float(np.sum(measure.weights * xv * uv))
    scale = max(1.0, np.abs(uv).max() * np.abs(xv).max() * measure.weights.max())
    if abs(pairing) <= 1e-15 * scale:
        raise DegenerateSourceError("source xi pairs to zero against the solution")
    w = uv / pairing
    wt = ud / pairing
    return (w + wt) / 2.0, (w - wt) / 2.0


def _saddle_inputs(chain: Chain, mask: DomainMask, beta: float, xi):
    """Shared setup: the form matrix on the domain, weighted source, admissibility."""
    if beta <= chain.beta0:
        raise ValueError(
            f"shift beta={beta:g} must exceed the lower-bound estimate "
            f"{chain.beta0:g}; the inner quadratic is indefinite otherwise"
        )
    idx = mask.indices
    mu_d = chain.mu[idx]
    a = form_matrix(chain.q[np.ix_(idx, idx)], mu_d, beta)
    xi_d = _restrict_source(mask, xi, chain.n_states)
    if np.abs(xi_d).max() <= 0.0:
        raise ValueError("source xi vanishes on the domain")
    c = mu_d * xi_d
    return idx, a, xi_d, c


def _project(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto {c}-orthogonal vectors of x, or of each row of x."""
    return x - np.multiply.outer(x @ c, c) / (c @ c)


def _sampled_saddle_check(a, c, f_d, g_d, value) -> float:
    """Largest violation of the two one-sided inequalities over random
    admissible perturbations; raises if it exceeds the check tolerance.

    Even rows of the draw perturb g, odd rows perturb f."""
    rng = np.random.default_rng(SADDLE_CHECK_SEED)
    z = rng.standard_normal((2 * SADDLE_CHECK_DIRECTIONS, c.shape[0]))
    step = _project(c, z) * (1.0 + float(np.abs(f_d).max()))
    g, f = step[0::2], f_d + step[1::2]
    over = np.sum(((f_d + g) @ a) * (f_d - g), axis=1) - value
    under = value - np.sum(((f + g_d) @ a) * (f - g_d), axis=1)
    worst = max(0.0, float(over.max()), float(under.max()))
    if worst > SADDLE_CHECK_TOL:
        raise RuntimeError(
            f"sampled saddle verification failed (violation {worst:.3e})"
        )
    return worst


def _stationarity(a, c, f_d, g_d):
    s = (a + a.T) / 2.0
    k = (a - a.T) / 2.0
    rf = np.linalg.norm(_project(c, s @ f_d + k.T @ g_d))
    rg = np.linalg.norm(_project(c, k @ f_d - s @ g_d))
    return float(rf), float(rg)


def saddle_value(
    chain: Chain, mask: DomainMask, beta: float, xi, mode: str = "closed_form"
) -> SaddleSolution:
    """Evaluate the constrained inf-sup of the form shifted by beta.

    mode="closed_form" solves the primal and dual restricted systems from
    one factorization (the dual through the transposed factors), returns
    1 / <xi, u>_mu, builds the optimizing pair, and verifies both one-sided
    saddle inequalities on random admissible perturbations.

    mode="iterative" never touches the resolvent: the inner supremum over
    {<xi,g>_mu = 0} is a concave quadratic maximized through its KKT
    system, the outer infimum over {<xi,f>_mu = 1} likewise; the two
    routes agree to solver accuracy whenever beta exceeds the lower-bound
    estimate (which makes the symmetric part positive definite).
    """
    idx, a, xi_d, c = _saddle_inputs(chain, mask, beta, xi)
    m = idx.shape[0]
    if mode == "closed_form":
        u_d, ut_d = DomainSystem(chain, mask).solve(beta, xi_d, ("primal", "dual"))
        f_full, g_full = construct_optimizers(
            embed(mask, u_d), embed(mask, ut_d), embed(mask, xi_d), chain.measure
        )
        value = 1.0 / float(c @ u_d)
        f_d, g_d = f_full[idx], g_full[idx]
        worst = _sampled_saddle_check(a, c, f_d, g_d, value)
        rf, rg = _stationarity(a, c, f_d, g_d)
        residuals = {
            "constraint_f": abs(float(c @ f_d) - 1.0),
            "constraint_g": abs(float(c @ g_d)),
            "stationarity_f": rf,
            "stationarity_g": rg,
            "sampled_check_violation": worst,
        }
        return SaddleSolution(value, f_full, g_full, residuals, "closed_form")

    if mode != "iterative":
        raise ValueError(f"mode must be 'closed_form' or 'iterative', got {mode!r}")

    s = (a + a.T) / 2.0
    k = (a - a.T) / 2.0
    inner = np.block([[2.0 * s, c[:, None]], [c[None, :], np.zeros((1, 1))]])
    rhs = np.vstack([2.0 * k, np.zeros((1, m))])
    sol, _ = solve_refined(inner, rhs, context="inner saddle KKT")
    g_map = sol[:m, :]
    h = s + g_map.T @ s @ g_map
    h = (h + h.T) / 2.0
    outer = np.block([[2.0 * h, c[:, None]], [c[None, :], np.zeros((1, 1))]])
    out_rhs = np.concatenate([np.zeros(m), [1.0]])
    out_sol, _ = solve_refined(outer, out_rhs, context="outer saddle KKT")
    f_d = out_sol[:m]
    g_d = g_map @ f_d
    value = float(f_d @ h @ f_d)
    rf, rg = _stationarity(a, c, f_d, g_d)
    residuals = {
        "constraint_f": abs(float(c @ f_d) - 1.0),
        "constraint_g": abs(float(c @ g_d)),
        "stationarity_f": rf,
        "stationarity_g": rg,
        "subspace_min_eig": _subspace_min_eig(s, c),
    }
    return SaddleSolution(value, embed(mask, f_d), embed(mask, g_d), residuals, "iterative")


def _subspace_min_eig(s: np.ndarray, c: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part on {c}-orthogonal vectors."""
    if s.shape[0] == 1:
        return float(s[0, 0])
    z = scipy.linalg.null_space(c[None, :])
    lam = scipy.linalg.eigh(z.T @ s @ z, eigvals_only=True)
    return float(lam[0])


def symmetric_inf(chain: Chain, mask: DomainMask, beta: float, xi) -> float:
    """inf of form(f, f) over {<xi,f>_mu = 1, f = 0 outside the domain}.

    Valid for symmetric forms only; a single linear solve through the
    restricted matrix gives the minimum 1 / (c^T S^{-1} c).
    """
    _idx, a, _xi_d, c = _saddle_inputs(chain, mask, beta, xi)
    scale = max(1.0, np.abs(a).max())
    if np.abs(a - a.T).max() > STRUCTURAL_TOL * scale:
        raise NonReversibleError("symmetric_inf needs a symmetric form")
    y, _ = solve_refined((a + a.T) / 2.0, c, context="symmetric infimum solve")
    return 1.0 / float(c @ y)


def exp_moment_inf(chain: Chain, mask: DomainMask, beta: float, lambda0: float) -> float:
    """inf of form0(f,f) - beta*pi(f^2) over {pi(f) = 1, f = 0 outside},

    hinged at zero: for beta at or past the Dirichlet eigenvalue of the
    restriction the infimum is 0. Requires a reversible chain with a
    probability measure.
    """
    if beta <= 0:
        raise ValueError("exp_moment_inf needs beta > 0")
    if not chain.reversible:
        raise NonReversibleError("exp_moment_inf needs a reversible chain")
    if not chain.measure.normalized:
        raise ValueError("exp_moment_inf needs a normalized (probability) measure")
    if beta >= lambda0 - SPECTRAL_EDGE_MARGIN:
        return 0.0
    idx = mask.indices
    mu_d = chain.mu[idx]
    a0 = form_matrix(chain.q[np.ix_(idx, idx)], mu_d, 0.0)
    s_beta = (a0 + a0.T) / 2.0 - beta * np.diag(mu_d)
    c = mu_d.copy()
    y, _ = solve_refined(s_beta, c, context="exponential-moment infimum solve")
    return max(1.0 / float(c @ y), 0.0)
