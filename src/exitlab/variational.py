"""Exact evaluation of the inf-sup identities for exit-time functionals.

For a domain D, a source xi supported in D, and a shift beta >= 0 at
which the symmetric part of the form on D is positive definite on the
vectors f with <xi,f>_mu = 0,

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

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._linalg import RefinedCholesky, RefinedSPD
from .defaults import (
    SADDLE_CHECK_DIRECTIONS,
    SADDLE_CHECK_SEED,
    SADDLE_CHECK_TOL,
)
from .forms import Chain, Measure, _as_vector, _equilibrate, _freeze, _is_symmetric, form_matrix
from .poisson import DomainMask, DomainSystem, NonReversibleError, _below_edge, _restrict_source, embed

__all__ = [
    "SaddleSolution",
    "DegenerateSourceError",
    "construct_optimizers",
    "saddle_value",
    "symmetric_inf",
    "exp_moment_inf",
    "saddle_form",
    "closed_form_route",
    "nested_route",
    "symmetric_route",
    "exp_moment_route",
]


class DegenerateSourceError(ValueError):
    """The source pairs to zero against the resolvent solution."""


@dataclass(frozen=True, eq=False)
class SaddleSolution:
    """Value and optimizers of the constrained inf-sup.

    ``f_star`` attains the infimum, ``g_star`` the supremum; both vanish
    outside the domain exactly. ``residuals`` records constraint and
    stationarity defects plus, for the nested route, the smallest
    eigenvalue of the unit-diagonal symmetric part on the constraint subspace.
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


def construct_optimizers(u, u_dual, xi, measure: Measure):
    """Build the optimizing pair from the primal and dual solutions.

    With w = u / <xi,u>_mu and w~ = u_dual / <xi,u>_mu, returns
    f_star = (w + w~)/2 and g_star = (w - w~)/2. All vectors are full
    length; u and u_dual vanish outside the domain.
    """
    n = len(measure)
    return _optimizers(
        _as_vector(u, n, "u"), _as_vector(u_dual, n, "u_dual"), _as_vector(xi, n, "xi"), measure.weights
    )


def _optimizers(u, u_dual, xi, weights):
    """The pair of ``construct_optimizers`` from vectors of one length, full
    or on the domain, and the matching weights."""
    terms = weights * xi * u
    pairing = float(np.sum(terms))
    if abs(pairing) <= 1e-15 * float(np.abs(terms).sum()):
        raise DegenerateSourceError("source xi pairs to zero against the solution")
    w = u / pairing
    wt = u_dual / pairing
    return (w + wt) / 2.0, (w - wt) / 2.0


def _nonvanishing(xi_d: np.ndarray) -> np.ndarray:
    """The source on the domain, which the saddle needs nonzero there."""
    if np.abs(xi_d).max() <= 0.0:
        raise ValueError("source xi vanishes on the domain")
    return xi_d


def saddle_form(system: DomainSystem, beta: float, xi):
    """The data every route reads and none writes: the form matrix on D at
    beta >= 0 (read-only), the source on D and c = mu_D xi_D. Whether the
    identity holds at beta is each route's own gate (``_subspace_factor``)."""
    if not beta >= 0:
        raise ValueError(f"shift beta={beta:g} must be nonnegative")
    xi_d = _nonvanishing(_restrict_source(system.mask, xi, system.chain.n_states))
    a = form_matrix(system.q_d, system.mu_d, beta)
    a.setflags(write=False)
    return a, xi_d, system.mu_d * xi_d


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


def _residuals(a, c, f_d, g_d, **route) -> dict:
    """Constraint defects of the pair, the norms of its projected gradients
    S f + K^T g and K f - S g, where S and K are the symmetric and
    antisymmetric parts of a, from a@f, f@a, a@g and g@a, and last the
    route's own entry."""
    af, fa, ag, ga = a @ f_d, f_d @ a, a @ g_d, g_d @ a
    return {
        "constraint_f": abs(float(c @ f_d) - 1.0),
        "constraint_g": abs(float(c @ g_d)),
        "stationarity_f": float(np.linalg.norm(_project(c, (af + fa - ag + ga) / 2.0))),
        "stationarity_g": float(np.linalg.norm(_project(c, (af - fa - ag - ga) / 2.0))),
        **route,
    }


def saddle_value(
    chain: Chain, mask: DomainMask, beta: float, xi, mode: str = "closed_form"
) -> SaddleSolution:
    """Evaluate the constrained inf-sup of the form shifted by beta.

    mode="closed_form" solves the primal and dual restricted systems from
    one factorization (the dual through the transposed factors), returns
    1 / <xi, u>_mu, builds the optimizing pair, and verifies both one-sided
    saddle inequalities on random admissible perturbations.

    mode="iterative" never touches the resolvent: one Householder reflector
    maps c = mu*xi on D to a multiple of e_1, so both constraints fix the
    first coordinate. The inner supremum over {<xi,g>_mu = 0} is then a
    Cholesky solve with the symmetric part on the constraint subspace, and
    the outer infimum over {<xi,f>_mu = 1} a Cholesky solve of the reduced
    quadratic.

    Both routes admit beta >= 0 exactly where the symmetric part of the
    form on D is positive definite on {<xi,g>_mu = 0}, the identity's
    range, each by a factor of its own copy of that block (the closed form
    on a non-reversible chain only), and agree to solver accuracy there;
    elsewhere they raise SingularSystemError.
    """
    if mode == "iterative":
        # the nested route reads only the form: the system and its Q_D end with saddle_form
        a, _xi_d, c = saddle_form(DomainSystem(chain, mask), beta, xi)
        return nested_route(mask, a, c)
    if mode != "closed_form":
        raise ValueError(f"mode must be 'closed_form' or 'iterative', got {mode!r}")
    system = DomainSystem(chain, mask)
    return closed_form_route(system, beta, *saddle_form(system, beta, xi))


def closed_form_route(system: DomainSystem, beta: float, a, xi_d, c) -> SaddleSolution:
    """The closed form of ``saddle_value`` from ``saddle_form(system, beta, xi)``."""
    if not system.reversible and c.shape[0] > 1:
        _subspace_factor(_reflected_form(a, c)[1], "saddle certificate")
    u_d, ut_d = system.solve(beta, xi_d, ("primal", "dual"))
    f_d, g_d = _optimizers(u_d, ut_d, xi_d, system.mu_d)
    value = 1.0 / float(c @ u_d)
    # one state admits no perturbation: its sampled steps would be rounding alone
    worst = _sampled_saddle_check(a, c, f_d, g_d, value) if c.shape[0] > 1 else 0.0
    residuals = _residuals(a, c, f_d, g_d, sampled_check_violation=worst)
    return SaddleSolution(value, embed(system.mask, f_d), embed(system.mask, g_d), residuals, "closed_form")


def nested_route(mask: DomainMask, a, c) -> SaddleSolution:
    """The nested route of ``saddle_value`` from the form on D and c alone."""
    if c.shape[0] == 1:
        f_d, g_d = 1.0 / c, np.zeros(1)
        value, min_eig = float(a[0, 0] / (c[0] * c[0])), 1.0  # the form scaled to unit diagonal is 1
    else:
        f_d, g_d, value, min_eig = _nested_saddle(a, c)
    residuals = _residuals(a, c, f_d, g_d, subspace_min_eig=min_eig)
    return SaddleSolution(value, embed(mask, f_d), embed(mask, g_d), residuals, "iterative")


def _reflector(c: np.ndarray):
    """Householder reflector P = I - tau v v^T with P c = sigma e_1, |sigma| = |c|.

    Returns (v, tau, sigma); the sign of sigma is opposite to c_0, so that
    v_0 = c_0 - sigma involves no cancellation.
    """
    sigma = -np.copysign(np.linalg.norm(c), c[0])
    v = c.copy()
    v[0] -= sigma
    return v, 2.0 / float(v @ v), sigma


def _reflect(v: np.ndarray, tau: float, x: np.ndarray) -> np.ndarray:
    """P x for a vector x."""
    return x - (tau * float(v @ x)) * v


def _reflect_both_sides(v: np.ndarray, tau: float, a: np.ndarray) -> np.ndarray:
    """P a P, by two rank-1 updates written over a C-ordered a.

    The updates act on the Fortran-ordered transpose: (A P)^T = A^T - tau v (A v)^T,
    then (P A P)^T = (A P)^T - tau ((A P)^T v) v^T.
    """
    (ger,) = scipy.linalg.get_blas_funcs(("ger",), (a,))
    at = ger(-tau, v, a @ v, a=a.T, overwrite_a=True)
    at = ger(-tau, at @ v, v, a=at, overwrite_a=True)
    return at.T


def _reflected_form(a: np.ndarray, c: np.ndarray):
    """A^ = P A' P and its symmetric part S^, for A' = D A D and c' = D c
    (``_equilibrate``, of a copy of a) and P c' = sigma e_1 (``_reflector``).

    Returns (A^, S^, d, (v, tau, sigma), whether A' is symmetric within
    STRUCTURAL_TOL by ``_is_symmetric``). S^_22, the block after the first
    coordinate, is the symmetric part of A' on {c'}-orthogonal vectors.
    """
    ah = a.copy()
    d = _equilibrate(ah)
    symmetric = _is_symmetric(ah)
    v, tau, sigma = _reflector(d * c)
    ah = _reflect_both_sides(v, tau, ah)
    sh = ah + ah.T
    sh *= 0.5
    return ah, sh, d, (v, tau, sigma), symmetric


def _subspace_factor(sh: np.ndarray, context: str):
    """The saddle's gate: the smallest eigenvalue of S^_22 = sh[1:, 1:] and
    its RefinedSPD factor, which raises SingularSystemError unless S^_22 is
    numerically positive definite. Returns (that eigenvalue, the factor)."""
    try:
        lam = float(scipy.linalg.eigh(sh[1:, 1:], eigvals_only=True, subset_by_index=[0, 0], check_finite=False)[0])
    except np.linalg.LinAlgError:  # a block that is not finite, which the gate refuses
        lam = np.nan
    return lam, RefinedSPD(sh[1:, 1:], lam, context)


def _nested_saddle(a: np.ndarray, c: np.ndarray):
    """The inf-sup on one reflector, for a domain of two or more states, on
    A' = D A D and c' = D c (``_reflected_form``), f = D f'.

    With P c' = sigma e_1 and A^ = P A' P, both constraints fix the first
    coordinate: f^_1 = 1/sigma and g^_1 = 0. Index 2 marks the coordinates
    after the first, S^ and K^ are the symmetric and antisymmetric parts of
    A^, and L L^T = S^_22. The inner supremum is g^_2 = S^_22^{-1} K^_2: f^,
    which leaves the outer quadratic H^ = S^ + W^T W with W = L^{-1} K^_2:,
    minimized by the Cholesky solve H^_22 f^_2 = -H^_21 / sigma. S^_22 is the
    symmetric part on {c}-orthogonal vectors in the basis P e_2, ..., P e_m.
    On A' symmetric within STRUCTURAL_TOL (``_is_symmetric``), K^ is
    rounding alone and the supremum is at g = 0: H^ = S^, and the outer
    solve reuses L.
    The smallest eigenvalue of S^_22, taken first, gates both factors, as
    H^_22 = S^_22 + W^T W >= S^_22. Returns (f, g, value, that eigenvalue).
    """
    ah, sh, d, (v, tau, sigma), symmetric = _reflected_form(a, c)
    lam, inner = _subspace_factor(sh, "inner saddle")
    if symmetric:
        del ah
        hh, outer = sh, inner
    else:
        ah -= sh  # now K^
        w = inner.lower_solve(ah[1:, :])  # written over K^
        hh = w.T @ w
        del ah, w
        hh += sh
        outer = RefinedSPD(hh[1:, 1:], lam, "outer saddle")
    fh = np.empty(c.shape[0])
    fh[0] = 1.0 / sigma
    fh[1:] = outer.solve(hh[1:, 0] * -fh[0])
    value = float(fh @ hh @ fh)
    del hh, outer  # the outer factor and H^, unless they are the inner ones
    f_d = d * _reflect(v, tau, fh)
    kf = _reflect(v, tau, d * (a @ f_d - f_d @ a) / 2.0)  # K' f' = D K f
    gh = np.zeros_like(fh)
    gh[1:] = inner.solve(kf[1:])
    g_d = d * _reflect(v, tau, gh)
    return f_d, g_d, value, lam


def _symmetric_minimum(s: np.ndarray, c: np.ndarray, context: str) -> float:
    """1 / (c^T S^{-1} c), the minimum of f^T s f over {c^T f = 1}, for S the
    symmetric part of s, which must be positive definite: the same number
    from S' = D S D and c' = D c (``_equilibrate``), written over s. s is a
    form matrix on the domain, less a diagonal for the exponential moment."""
    c = _equilibrate(s) * c
    s += s.T  # numpy reads an overlapping operand as if it were copied
    s *= 0.5
    y = RefinedCholesky(s, context=context).solve(c)
    return 1.0 / float(c @ y)


def symmetric_inf(chain: Chain, mask: DomainMask, beta: float, xi) -> float:
    """inf of form(f, f) over {<xi,f>_mu = 1, f = 0 outside the domain}.

    Valid for symmetric forms only; a single linear solve through the
    restricted form, scaled to unit diagonal, gives 1 / (c^T S^{-1} c).
    """
    a, _xi_d, c = saddle_form(DomainSystem(chain, mask), beta, xi)
    if not _is_symmetric(a):
        raise NonReversibleError("symmetric_inf needs a symmetric form")
    return symmetric_route(a, c)


def symmetric_route(a, c) -> float:
    """``symmetric_inf`` from a symmetric form on D and c, in a factorization of its own."""
    return _symmetric_minimum(a.copy(), c, "symmetric infimum solve")


def exp_moment_inf(chain: Chain, mask: DomainMask, beta: float) -> float:
    """inf of <-Q f, f>_pi - beta*pi(f^2) over {pi(f) = 1, f = 0 outside},
    for pi = mu / mu(E), the probability for which Q is symmetric,

    hinged at zero: for beta at or past the system's own Dirichlet eigenvalue
    lambda0 of the restriction the infimum is 0. Requires a reversible chain.
    """
    return exp_moment_route(DomainSystem(chain, mask), beta)


def exp_moment_route(system: DomainSystem, beta: float) -> float:
    """``exp_moment_inf`` on a system, from its Q_D, pi_D and lambda0."""
    if beta <= 0:
        raise ValueError("exp_moment_inf needs beta > 0")
    if not system.reversible:
        raise NonReversibleError("exp_moment_inf needs a reversible chain")
    if not _below_edge(beta, system.dirichlet.lambda0):
        return 0.0
    pi_d = system.chain.pi[system.mask.indices]
    s = form_matrix(system.q_d, pi_d, -beta)
    return max(_symmetric_minimum(s, pi_d, "exponential-moment infimum solve"), 0.0)
