"""Restricted Poisson solves: the exact exit-time functionals of a chain.

For a domain given by a boolean mask over states, the restriction L_D of
the generator to inside states encodes exit through any mass leaving the
set (jumps to outside states and killing alike). Solving

    (beta*I - L_D) u = xi

on the inside states yields the weak solution of the shifted Poisson
equation with Dirichlet data, and from it the Laplace transform, the mean,
and the exponential moment of the exit time, finite exactly below the
bottom lambda0 of the spectrum of -L_D.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._linalg import RefinedCholesky, RefinedLU, SingularSystemError, _bandwidth
from .defaults import COMPARISON_RTOL, SPECTRAL_EDGE_MARGIN, STRUCTURAL_TOL
from .forms import (
    Chain,
    _as_vector,
    _edges,
    _eig_rounding,
    _exactly_symmetric,
    _freeze,
    _json_float,
    _spectrum,
    _symmetrized,
)

__all__ = [
    "DomainMask",
    "ExitFunctionals",
    "SingularSystemError",
    "RecurrentRestrictionError",
    "NonReversibleError",
    "solve_poisson",
    "exit_laplace",
    "exit_mean",
    "exit_exp_moment",
    "exit_functionals",
    "embed",
]


class RecurrentRestrictionError(SingularSystemError):
    """The restricted generator is singular: exit is not almost sure."""


class NonReversibleError(ValueError):
    """Operation requires detailed balance of the chain."""


@dataclass(frozen=True, eq=False)
class DomainMask:
    """Boolean inside-indicator over states. True marks the open set."""

    inside: np.ndarray

    def __post_init__(self):
        ind = np.asarray(self.inside)
        if ind.dtype != bool:
            raise ValueError(f"inside indicator must be boolean, got {ind.dtype}; for state indices use from_states")
        if ind.ndim != 1:
            raise ValueError("inside indicator must be one-dimensional")
        if not ind.any():
            raise ValueError("domain must contain at least one state")
        frozen = ind.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "inside", frozen)

    @classmethod
    def from_states(cls, states, n_states: int) -> "DomainMask":
        states = list(states)
        if bad := [s for s in states if isinstance(s, bool) or not isinstance(s, (int, np.integer))]:
            raise ValueError(f"domain states must be integer indices, got {bad[0]!r}")
        ind, idx = np.zeros(n_states, dtype=bool), np.asarray(states, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= n_states):
            raise ValueError("domain state index out of range")
        ind[idx] = True
        return cls(ind)

    @classmethod
    def full(cls, n_states: int) -> "DomainMask":
        return cls(np.ones(n_states, dtype=bool))

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.inside)

    @property
    def size(self) -> int:
        return int(self.inside.sum())


def _check_mask(mask: DomainMask, n_states: int) -> None:
    """Raise ValueError unless the mask has one entry per state of the chain."""
    if mask.inside.shape[0] != n_states:
        raise ValueError(f"domain mask has length {mask.inside.shape[0]}, but the chain has {n_states} states")


def embed(mask: DomainMask, values, fill: float = 0.0) -> np.ndarray:
    """Extend a vector on the domain to the full state space."""
    out = np.full(mask.inside.shape[0], fill, dtype=float)
    out[mask.indices] = _as_vector(values, mask.size, "domain vector")
    return out


def _restrict_source(mask: DomainMask, xi, n_states: int) -> np.ndarray:
    """Accept a finite source of domain length, or full length vanishing
    outside to STRUCTURAL_TOL relative to max|xi|."""
    v = _as_vector(xi, name="xi")
    if not np.all(np.isfinite(v)):
        raise ValueError("source xi must be finite")
    if v.shape[0] == mask.size:
        return v
    if v.shape[0] == n_states:
        outside = v[~mask.inside]
        if outside.size and np.abs(outside).max() > STRUCTURAL_TOL * np.abs(v).max():
            raise ValueError("source xi must vanish outside the domain")
        return v[mask.indices]
    raise ValueError(
        f"xi has length {v.shape[0]}, expected {mask.size} (domain) or {n_states} (full)"
    )


def _below_edge(beta: float, edge: float) -> bool:
    """Whether beta lies below a spectral edge (lambda0, lambda1 * pi(D^c) or
    a Lyapunov ratio) by more than SPECTRAL_EDGE_MARGIN relative to the edge.
    Relative, so rescaling time, Q -> cQ and beta -> c*beta, keeps the verdict."""
    return beta < edge * (1.0 - SPECTRAL_EDGE_MARGIN)


class Dirichlet(NamedTuple):
    """Bottom of the Dirichlet spectrum: lambda0, its eigenfunction phi (zero
    outside, <phi, phi>_mu = 1, <phi, 1>_mu >= 0), and the number of
    eigenvalues within COMPARISON_RTOL of lambda0."""

    lambda0: float
    phi: np.ndarray
    multiplicity: int


@dataclass(frozen=True, eq=False)
class DomainSystem:
    """The restricted system (s*I - Q_D) u = xi of one chain and domain.

    Package-internal. Computes Q_D, mu_D and the bandwidth that picks the
    Cholesky route's kernels at most once, on first use.
    Caches, per instance, the solution of
    (s*I - Q_D) u = 1 for each shift s asked for and one Dirichlet
    eigendecomposition; factors never outlive their solve.
    Laplace is 1 - beta*u_beta, the mean u_0, the exponential moment
    1 + beta*u_{-beta} for beta below the bottom lambda0 of the spectrum of
    -Q_D, and infinite from that edge on.

    A reversible system factors the symmetrized M^{1/2}(s*I - Q_D)M^{-1/2}
    by Cholesky, any other s*I - Q_D by LU; each certifies a nonsingular
    M-matrix, so for s <= -lambda0 both refuse. When mu_D is constant and
    Q_D exactly symmetric, as on every reversible grid block, that
    symmetrization is s*I - Q_D bit for bit: ``sym_d`` is then None and the
    Cholesky route factors from Q_D, so a system holds Q_D and, while it
    solves, one factor buffer.

    When mu_D and Q_D are exactly invariant under the mirror i -> m-1-i of
    D's order, as on a box domain of a constant-coefficient grid,
    ``resolvent_one`` solves on the ``lumped`` system of the ceil(m/2)
    orbits, an eighth of the flops of the dense factor; ``solve``,
    ``_factor`` and ``dirichlet`` stay full-size.
    """

    chain: Chain | None
    mask: DomainMask
    _ones: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.chain is not None:
            _check_mask(self.mask, self.chain.n_states)

    @classmethod
    def from_restricted(cls, mask: DomainMask, q_d: np.ndarray, mu_d: np.ndarray, reversible: bool) -> "DomainSystem":
        """A system built from restricted data, with no chain behind it.

        ``q_d`` must be the restriction to the mask's states of a generator
        with a measure of weights ``mu_d`` there; ``reversible`` says whether
        that generator is reversible for it, which the caller has checked.
        """
        system = cls(None, mask)
        system.__dict__.update(q_d=q_d, mu_d=mu_d, reversible=reversible)
        return system

    @cached_property
    def q_d(self) -> np.ndarray:
        return self.chain.q[np.ix_(self.mask.indices, self.mask.indices)]

    @cached_property
    def mu_d(self) -> np.ndarray:
        return self.chain.mu[self.mask.indices]

    @cached_property
    def reversible(self) -> bool:
        return self.chain.reversible

    @cached_property
    def sym_d(self) -> np.ndarray | None:
        """M^{1/2}(-Q_D)M^{-1/2}, symmetrized (read-only), which the Cholesky
        route and the Dirichlet eigensolve share; None when mu_D is constant
        and Q_D exactly symmetric, for then it is -Q_D bit for bit and both
        read Q_D instead."""
        mu = self.mu_d
        if (mu == mu[0]).all() and _exactly_symmetric(self.q_d):
            return None
        sym = _symmetrized(self.q_d, mu)
        sym.setflags(write=False)
        return sym

    @cached_property
    def sym_bandwidth(self) -> int:
        """Bandwidth of ``sym_d`` (of Q_D when it is None) in the domain's
        state order, which picks the kernels of its factors."""
        return _bandwidth(self.q_d if self.sym_d is None else self.sym_d)

    def _factor(self, shift: float):
        """Factors of shift*I - Q_D: Cholesky for a reversible system, LU
        otherwise; either raises SingularSystemError past -lambda0."""
        context = f"restricted solve (beta={shift:g})"
        if self.reversible:
            return RefinedCholesky(self.sym_d, shift, np.sqrt(self.mu_d), self.q_d, context, self.sym_bandwidth)
        a = np.negative(self.q_d)
        a.flat[:: self.mask.size + 1] += shift
        return RefinedLU(a, context)

    def solve(self, shift: float, xi_d: np.ndarray, sides=("primal",)) -> tuple:
        """One factorization of shift*I - Q_D, then one refined solve per
        requested side.

        The dual side solves the adjoint restriction through the transposed
        factors: (shift*I - Q_D)^T (M_D u~) = M_D xi.
        """
        if not set(sides) <= {"primal", "dual"}:
            raise ValueError(f"side must be 'primal' or 'dual', got {sides!r}")
        factors = self._factor(shift)
        return tuple(
            factors.solve(xi_d) if side == "primal"
            else factors.solve(self.mu_d * xi_d, trans=True) / self.mu_d
            for side in sides
        )

    @cached_property
    def lumped(self) -> "DomainSystem | None":
        """This system lumped onto the orbits of the mirror J, the map from
        state i to m-1-i in D's order, when mu_D and Q_D are exactly invariant
        under it (J Q_D J = Q_D bit for bit), as on a box domain of a
        constant-coefficient grid; None otherwise, and for a single state.

        The O(m) test of mu_D and the diagonal comes first, so a chain of
        unequal rates pays for no O(m^2) scan. The lumped block is the fold
        F = Q_11 + Q_12 J on the k = ceil(m/2) orbit representatives, the
        centre state of odd m kept alone, with weights 2*mu per pair and mu
        for the centre: again a generator block with the same exit rates,
        reversible when Q_D is. Its solution x of (s*I - F) x = 1 unfolds to
        that of (s*I - Q_D) u = 1 as u = [x; Jx], and its blocks are singular
        exactly when Q_D's are, for an invariant M-matrix block has an even
        Perron vector. It is a system of its own, so it lumps again when F
        is invariant in turn.
        """
        q, mu = self.q_d, self.mu_d
        m = mu.shape[0]
        if m < 2 or not (np.array_equal(mu, mu[::-1]) and np.array_equal(np.diagonal(q), np.diagonal(q)[::-1])):
            return None
        k, pairs = (m + 1) // 2, m // 2
        if not np.array_equal(q[:k], q[::-1, ::-1][:k]):
            return None
        fold = q[:k, :k].copy()
        fold[:, :pairs] += q[:k, ::-1][:, :pairs]
        weights = mu[:k].copy()
        weights[:pairs] *= 2.0
        return DomainSystem.from_restricted(DomainMask.full(k), fold, weights, self.reversible)

    def resolvent_one(self, shift: float) -> np.ndarray:
        """Cached solution of (shift*I - Q_D) u = 1 on the inside states, the
        one solve behind Laplace, the mean and the exponential moment.

        Solved on the ``lumped`` system when there is one, and unfolded, so u
        is then exactly palindromic; every other solve (``solve``,
        ``_factor``, and so the saddle routes) and the Dirichlet eigensolve
        stay full-size.
        """
        if shift not in self._ones:
            lumped = self.lumped
            if lumped is None:
                (u,) = self.solve(shift, np.ones(self.mask.size))
            else:
                x = lumped.resolvent_one(shift)
                u = np.concatenate((x, x[: self.mask.size // 2][::-1]))
            u.setflags(write=False)  # shared by every functional that reads this shift
            self._ones[shift] = u
        return self._ones[shift]

    def laplace(self, beta: float) -> np.ndarray:
        if beta <= 0:
            raise ValueError("exit_laplace needs beta > 0")
        lap = 1.0 - beta * self.resolvent_one(beta)
        if lap.min() < -STRUCTURAL_TOL or lap.max() > 1.0 + STRUCTURAL_TOL:
            raise AssertionError("Laplace transform left [0, 1] beyond tolerance")
        return embed(self.mask, np.clip(lap, 0.0, 1.0), fill=1.0)

    def exits_surely(self) -> bool:
        """Whether every state of D reaches, along ``_edges``, one whose exit or
        killing rate (minus the row sum of Q_D) exceeds STRUCTURAL_TOL * |q_xx|."""
        q = self.q_d
        reached = -q.sum(axis=1) > STRUCTURAL_TOL * np.abs(np.diagonal(q))
        todo = np.flatnonzero(reached)  # a search back from those, 16 columns at a time
        while todo.size:
            new = _edges(q, cols=todo[:16]).any(axis=1) & ~reached
            reached |= new
            todo = np.concatenate((todo[16:], np.flatnonzero(new)))
        return bool(reached.all())

    def mean(self) -> np.ndarray:
        """A failed shift-0 solve is recurrence only where ``exits_surely`` fails."""
        try:
            m = self.resolvent_one(0.0)
        except SingularSystemError as err:
            if self.exits_surely():
                raise
            raise RecurrentRestrictionError(
                "restricted generator is singular: exit from the domain is not "
                "almost sure (recurrent restriction)",
                cond_estimate=err.cond_estimate,
            ) from err
        if m.min() < -STRUCTURAL_TOL:
            raise AssertionError("mean exit time turned negative beyond tolerance")
        return embed(self.mask, np.maximum(m, 0.0), fill=0.0)

    def exp_moment(self, beta: float) -> np.ndarray:
        """1 + beta*u_{-beta}; infinite when the factor at -beta has no
        certificate, or a weak one whose bound lambda0 <= beta + edge_gap puts
        beta within SPECTRAL_EDGE_MARGIN of it. Other failures raise."""
        if beta <= 0:
            raise ValueError("exit_exp_moment needs beta > 0")
        try:
            u = self.resolvent_one(-beta)
        except SingularSystemError as err:
            if _below_edge(beta, beta + err.edge_gap):
                raise
            u = np.full(self.mask.size, np.inf)
        return embed(self.mask, 1.0 + beta * u, fill=1.0)

    def functionals(self, beta: float, xi=None) -> ExitFunctionals:
        if beta <= 0:
            raise ValueError("exit_functionals needs beta > 0")
        xi_d = 1.0 if xi is None else _restrict_source(self.mask, xi, self.mask.inside.shape[0])
        laplace = self.laplace(beta)
        # derive u_beta from the stored transform so the identity
        # u_beta == (1 - laplace)/beta holds to the last bit even at tiny beta
        u_beta = (1.0 - laplace) / beta
        return ExitFunctionals(
            beta=float(beta),
            u_beta=u_beta,
            laplace=laplace,
            mean=self.mean(),
            exp_moment=self.exp_moment(beta),
            aggregate_mu=float(np.sum(self.mu_d * xi_d * u_beta[self.mask.indices])),
        )

    @cached_property
    def dirichlet(self) -> Dirichlet:
        """Every eigenvalue of ``sym_d`` and the bottom eigenvector, by
        ``_spectrum``, which symmetrizes into a transient buffer of its own
        when ``sym_d`` is None."""
        if not self.reversible:
            raise NonReversibleError("Dirichlet eigenproblem needs a reversible chain")
        lam, vec = _spectrum(self.q_d, self.mu_d, self.sym_d, vector=True)
        # a backward-stable eigensolve rounds a zero eigenvalue to a few
        # eps * |lambda_max|, so lambda0 >= 0 is checked at that scale
        rounding = _eig_rounding(lam)
        if lam[0] < -rounding:
            raise AssertionError(f"Dirichlet eigenvalue turned negative: {lam[0]:.3e}")
        phi_d = vec[:, 0] / np.sqrt(self.mu_d)
        if float(np.sum(self.mu_d * phi_d)) < 0:
            phi_d = -phi_d + 0.0
        phi = embed(self.mask, phi_d)
        phi.setflags(write=False)
        # relative to lambda0, unfloored, so the count survives a change of
        # time scale; no tighter than the eigensolve's rounding
        gap = max(COMPARISON_RTOL * abs(lam[0]), rounding)
        return Dirichlet(max(float(lam[0]), 0.0), phi, int(np.sum(lam <= lam[0] + gap)))


def solve_poisson(chain: Chain, mask: DomainMask, beta: float, xi, side: str = "primal") -> np.ndarray:
    """Solve (beta*I - L_D) u = xi on the inside states.

    Parameters
    ----------
    chain, mask : the chain and the inside-indicator of the domain.
    beta : shift; any real for which the restriction is nonsingular.
    xi : source, of domain length or full length vanishing outside.
    side : "primal" solves with L_D, "dual" with the adjoint restriction.

    Returns the solution on the inside states (callers extend by zero).
    beta must lie above -lambda0, the bottom of the spectrum of -L_D, where
    beta*I - L_D is a nonsingular M-matrix, as each factor certifies; else,
    or when that is nearly singular, raises SingularSystemError.
    """
    rhs = _restrict_source(mask, xi, chain.n_states)
    (u,) = DomainSystem(chain, mask).solve(beta, rhs, (side,))
    return u


def exit_laplace(chain: Chain, mask: DomainMask, beta: float) -> np.ndarray:
    """E_x[exp(-beta * exit time)] for every state; 1 outside the domain."""
    return DomainSystem(chain, mask).laplace(beta)


def exit_mean(chain: Chain, mask: DomainMask) -> np.ndarray:
    """E_x[exit time] for every state; 0 outside the domain.

    Fails with RecurrentRestrictionError when some inside state cannot reach
    exit or killing along the chain's edges, else with the solve's own error.
    """
    return DomainSystem(chain, mask).mean()


def exit_exp_moment(chain: Chain, mask: DomainMask, beta: float) -> np.ndarray:
    """E_x[exp(+beta * exit time)]; +inf marker on the domain at or past lambda0.

    Any chain. lambda0, the Perron root of -L_D, is not computed: the factor
    of -beta*I - L_D certifies a nonsingular M-matrix exactly below it, so
    the moment is finite, and at least 1, where that certificate holds. A
    weak one raises unless it puts beta at lambda0 (``DomainSystem.exp_moment``).
    Outside the domain the exit time is 0 and the moment is 1.
    """
    return DomainSystem(chain, mask).exp_moment(beta)


@dataclass(frozen=True, eq=False)
class ExitFunctionals:
    """Exact exit-time functionals of one domain at one shift.

    Vectors are full length: ``u_beta`` vanishes outside the domain,
    ``laplace`` is 1 there, ``mean`` is 0, ``exp_moment`` is 1.
    ``aggregate_mu`` is <xi, u_beta>_mu for the supplied source.
    """

    beta: float
    u_beta: np.ndarray
    laplace: np.ndarray
    mean: np.ndarray
    exp_moment: np.ndarray
    aggregate_mu: float

    def __post_init__(self):
        for name in ("u_beta", "laplace", "mean", "exp_moment"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        resid = np.abs(self.u_beta - (1.0 - self.laplace) / self.beta).max()
        if resid > STRUCTURAL_TOL:
            raise AssertionError(
                f"u_beta and (1 - laplace)/beta disagree by {resid:.3e}"
            )

    def to_dict(self, labels=None) -> dict:
        moments = self.exp_moment  # a finite vector converts in one tolist
        moments = moments.tolist() if np.isfinite(moments).all() else [_json_float(x) for x in moments]
        doc = {
            "beta": self.beta,
            "u_beta": self.u_beta.tolist(),
            "laplace": self.laplace.tolist(),
            "mean": self.mean.tolist(),
            "exp_moment": moments,
            "aggregate_mu": self.aggregate_mu,
        }
        if labels is not None:
            doc["states"] = list(labels)
        return doc

    def to_csv(self, labels=None) -> str:
        """CSV with one row per state: state, laplace, mean, exp_moment.

        Each column is formatted at once; an infinite moment reads ``inf``
        (the moment is at least 1).
        """
        n = self.laplace.shape[0]
        names = labels if labels is not None else map(str, range(n))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["state", "laplace", "mean", "exp_moment"])
        writer.writerows(zip(names, *(map(repr, v.tolist()) for v in (self.laplace, self.mean, self.exp_moment))))
        return buf.getvalue()


def exit_functionals(chain: Chain, mask: DomainMask, beta: float, xi=None) -> ExitFunctionals:
    """Bundle the exact functionals of one domain at one shift.

    ``xi`` defaults to the indicator of the domain. No eigensolve is made.
    """
    return DomainSystem(chain, mask).functionals(beta, xi)
