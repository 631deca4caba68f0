"""Restricted Poisson solves: the exact exit-time functionals of a chain.

For a domain given by a boolean mask over states, the restriction L_D of
the generator to inside states encodes exit through any mass leaving the
set (jumps to outside states and killing alike). Solving

    (beta*I - L_D) u = xi

on the inside states yields the weak solution of the shifted Poisson
equation with Dirichlet data, and from it the Laplace transform, the mean,
and (for reversible chains below the Dirichlet eigenvalue) the exponential
moment of the exit time.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg

from ._linalg import RefinedCholesky, RefinedLU, ShiftFree, SingularSystemError, _bandwidth, _tridiagonal
from .defaults import COMPARISON_RTOL, SPECTRAL_EDGE_MARGIN, STRUCTURAL_TOL
from .forms import Chain, _as_vector, _freeze, _is_conservative, _json_float, _symmetrized

__all__ = [
    "DomainMask",
    "ExitFunctionals",
    "SingularSystemError",
    "RecurrentRestrictionError",
    "ExitImpossibleError",
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


class ExitImpossibleError(ValueError):
    """Full-state domain on a conservative generator: the exit time is infinite."""


class NonReversibleError(ValueError):
    """Operation requires detailed balance of the chain."""


@dataclass(frozen=True, eq=False)
class DomainMask:
    """Boolean inside-indicator over states. True marks the open set."""

    inside: np.ndarray

    def __post_init__(self):
        ind = np.asarray(self.inside, dtype=bool)
        if ind.ndim != 1:
            raise ValueError("inside indicator must be one-dimensional")
        if not ind.any():
            raise ValueError("domain must contain at least one state")
        frozen = ind.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "inside", frozen)

    @classmethod
    def from_states(cls, states, n_states: int) -> "DomainMask":
        ind = np.zeros(n_states, dtype=bool)
        idx = np.asarray(list(states), dtype=int)
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

    def is_full(self) -> bool:
        return bool(self.inside.all())


def embed(mask: DomainMask, values, fill: float = 0.0) -> np.ndarray:
    """Extend a vector on the domain to the full state space."""
    out = np.full(mask.inside.shape[0], fill, dtype=float)
    out[mask.indices] = _as_vector(values, mask.size, "domain vector")
    return out


def _restrict_source(mask: DomainMask, xi, n_states: int) -> np.ndarray:
    """Accept a finite source of domain length, or full length vanishing outside."""
    v = _as_vector(xi, name="xi")
    if not np.all(np.isfinite(v)):
        raise ValueError("source xi must be finite")
    if v.shape[0] == mask.size:
        return v
    if v.shape[0] == n_states:
        outside = v[~mask.inside]
        if outside.size and np.abs(outside).max() > STRUCTURAL_TOL:
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

    Package-internal. Computes Q_D, mu_D, whether exit is possible and the
    shift-free sums of the Cholesky route at most once, on first use.
    Caches, per instance, the solution of
    (s*I - Q_D) u = 1 for each shift s asked for and one Dirichlet
    eigendecomposition; factors never outlive their solve.
    Laplace is 1 - beta*u_beta, the mean u_0, the exponential moment
    1 + beta*u_{-beta}.

    A reversible system factors the symmetrized M^{1/2}(s*I - Q_D)M^{-1/2}
    by Cholesky and falls back to LU where that is not positive definite
    (s at or below -lambda0, or a singular restriction); any other system
    factors by LU.
    """

    chain: Chain | None
    mask: DomainMask
    _ones: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_restricted(cls, mask: DomainMask, q_d: np.ndarray, mu_d: np.ndarray) -> "DomainSystem":
        """A system built from restricted data, with no chain behind it.

        ``q_d`` must be the restriction to the mask's states of a generator
        that is reversible for a measure with weights ``mu_d`` there; the
        caller has checked that.
        """
        system = cls(None, mask)
        system.__dict__.update(q_d=q_d, mu_d=mu_d, reversible=True)
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
    def exit_possible(self) -> bool:
        # on a full mask Q_D is the whole generator
        return not (self.mask.is_full() and _is_conservative(self.q_d))

    @cached_property
    def sym_d(self) -> np.ndarray:
        """M^{1/2}(-Q_D)M^{-1/2}, symmetrized (read-only): the Cholesky route
        and the Dirichlet eigensolve share it."""
        sym = _symmetrized(self.q_d, self.mu_d)
        sym.setflags(write=False)
        return sym

    @cached_property
    def shift_free(self) -> ShiftFree:
        """The sums of ``q_d`` and ``sym_d`` that every shift's Cholesky
        factor reads, computed once for all of them."""
        return ShiftFree.of(self.sym_d, self.q_d)

    @cached_property
    def sym_bandwidth(self) -> int:
        """Bandwidth of ``sym_d`` in the domain's state order, which picks the
        kernels of its factors and of its eigensolve."""
        return _bandwidth(self.sym_d)

    def _require_exit(self) -> None:
        if not self.exit_possible:
            raise ExitImpossibleError(
                "domain covers every state of a conservative generator; "
                "the exit time is infinite"
            )

    def _factor(self, shift: float):
        """Factors of shift*I - Q_D: Cholesky for a reversible system where
        that is positive definite, LU otherwise."""
        context = f"restricted solve (beta={shift:g})"
        if self.reversible:
            try:
                return RefinedCholesky(
                    self.sym_d, shift, np.sqrt(self.mu_d), self.q_d, context, self.sym_bandwidth, self.shift_free
                )
            except SingularSystemError:
                pass
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

    def resolvent_one(self, shift: float) -> np.ndarray:
        """Cached solution of (shift*I - Q_D) u = 1 on the inside states."""
        if shift not in self._ones:
            (u,) = self.solve(shift, np.ones(self.mask.size))
            u.setflags(write=False)  # shared by every functional that reads this shift
            self._ones[shift] = u
        return self._ones[shift]

    def laplace(self, beta: float) -> np.ndarray:
        if beta <= 0:
            raise ValueError("exit_laplace needs beta > 0")
        self._require_exit()
        lap = 1.0 - beta * self.resolvent_one(beta)
        if lap.min() < -STRUCTURAL_TOL or lap.max() > 1.0 + STRUCTURAL_TOL:
            raise AssertionError("Laplace transform left [0, 1] beyond tolerance")
        return embed(self.mask, np.clip(lap, 0.0, 1.0), fill=1.0)

    def mean(self) -> np.ndarray:
        self._require_exit()
        try:
            m = self.resolvent_one(0.0)
        except SingularSystemError as err:
            raise RecurrentRestrictionError(
                "restricted generator is singular: exit from the domain is not "
                "almost sure (recurrent restriction)",
                cond_estimate=err.cond_estimate,
            ) from err
        if m.min() < -STRUCTURAL_TOL:
            raise AssertionError("mean exit time turned negative beyond tolerance")
        return embed(self.mask, np.maximum(m, 0.0), fill=0.0)

    def exp_moment(self, beta: float, lambda0: float) -> np.ndarray:
        if beta <= 0:
            raise ValueError("exit_exp_moment needs beta > 0")
        if not self.reversible:
            raise NonReversibleError("exponential moments need a reversible chain")
        self._require_exit()
        if not _below_edge(beta, lambda0):
            return embed(self.mask, np.full(self.mask.size, np.inf), fill=1.0)
        return embed(self.mask, 1.0 + beta * self.resolvent_one(-beta), fill=1.0)

    def functionals(self, beta: float, xi=None, lambda0: float | None = None) -> ExitFunctionals:
        if beta <= 0:
            raise ValueError("exit_functionals needs beta > 0")
        xi_d = 1.0 if xi is None else _restrict_source(self.mask, xi, self.mask.inside.shape[0])
        laplace = self.laplace(beta)
        # derive u_beta from the stored transform so the identity
        # u_beta == (1 - laplace)/beta holds to the last bit even at tiny beta
        u_beta = (1.0 - laplace) / beta
        exp_m = None
        if lambda0 is not None and self.reversible:
            exp_m = self.exp_moment(beta, lambda0)
        return ExitFunctionals(
            beta=float(beta),
            u_beta=u_beta,
            laplace=laplace,
            mean=self.mean(),
            exp_moment=exp_m,
            aggregate_mu=float(np.sum(self.mu_d * xi_d * u_beta[self.mask.indices])),
        )

    @cached_property
    def dirichlet(self) -> Dirichlet:
        """Every eigenvalue of ``sym_d`` and the bottom eigenvector: by the
        tridiagonal drivers (``sterf`` for the values) when
        ``_linalg._tridiagonal`` holds for ``sym_d``, by a dense ``eigh``
        otherwise."""
        if not self.reversible:
            raise NonReversibleError("Dirichlet eigenproblem needs a reversible chain")
        if _tridiagonal(self.sym_bandwidth, self.mask.size):
            d, e = np.diagonal(self.sym_d), np.diagonal(self.sym_d, -1)
            lam = scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
            _, vec = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        else:
            lam, vec = scipy.linalg.eigh(self.sym_d)
        # a backward-stable eigensolve rounds a zero eigenvalue to a few
        # eps * |lambda_max|, so lambda0 >= 0 is checked at that scale
        rounding = 16.0 * np.finfo(float).eps * abs(lam[-1])
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
    Raises SingularSystemError, with a condition estimate, when beta sits
    at a Dirichlet eigenvalue of the restriction.
    """
    rhs = _restrict_source(mask, xi, chain.n_states)
    (u,) = DomainSystem(chain, mask).solve(beta, rhs, (side,))
    return u


def exit_laplace(chain: Chain, mask: DomainMask, beta: float) -> np.ndarray:
    """E_x[exp(-beta * exit time)] for every state; 1 outside the domain."""
    return DomainSystem(chain, mask).laplace(beta)


def exit_mean(chain: Chain, mask: DomainMask) -> np.ndarray:
    """E_x[exit time] for every state; 0 outside the domain.

    Fails with RecurrentRestrictionError when the restriction is singular,
    i.e. some inside communicating class cannot exit.
    """
    return DomainSystem(chain, mask).mean()


def exit_exp_moment(chain: Chain, mask: DomainMask, beta: float, lambda0: float) -> np.ndarray:
    """E_x[exp(+beta * exit time)]; +inf marker on the domain at or past lambda0.

    Requires a reversible chain. ``lambda0`` is the smallest Dirichlet
    eigenvalue of the restriction (see the spectral module); for beta
    within SPECTRAL_EDGE_MARGIN * lambda0 of it the moment is reported
    infinite.
    Outside the domain the exit time is 0 and the moment is 1.
    """
    return DomainSystem(chain, mask).exp_moment(beta, lambda0)


@dataclass(frozen=True, eq=False)
class ExitFunctionals:
    """Exact exit-time functionals of one domain at one shift.

    Vectors are full length: ``u_beta`` vanishes outside the domain,
    ``laplace`` is 1 there, ``mean`` is 0, ``exp_moment`` is 1.
    ``exp_moment`` is None when the chain is not reversible or no
    Dirichlet eigenvalue was supplied. ``aggregate_mu`` is <xi, u_beta>_mu
    for the supplied source.
    """

    beta: float
    u_beta: np.ndarray
    laplace: np.ndarray
    mean: np.ndarray
    exp_moment: np.ndarray | None
    aggregate_mu: float

    def __post_init__(self):
        for name in ("u_beta", "laplace", "mean"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if self.exp_moment is not None:
            object.__setattr__(self, "exp_moment", _freeze(self.exp_moment))
        resid = np.abs(self.u_beta - (1.0 - self.laplace) / self.beta).max()
        if resid > STRUCTURAL_TOL:
            raise AssertionError(
                f"u_beta and (1 - laplace)/beta disagree by {resid:.3e}"
            )

    def to_dict(self, labels=None) -> dict:
        moments = self.exp_moment
        if moments is not None:  # a finite vector converts in one tolist
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

    def to_json(self, labels=None, **kwargs) -> str:
        return json.dumps(self.to_dict(labels=labels), **kwargs)

    def to_csv(self, labels=None) -> str:
        """CSV with one row per state: state, laplace, mean, exp_moment.

        Each column is formatted at once; an infinite moment reads ``inf``
        (the moment is at least 1), and a missing one leaves its cell empty.
        """
        n = self.laplace.shape[0]
        names = labels if labels is not None else map(str, range(n))
        moments = [""] * n if self.exp_moment is None else map(repr, self.exp_moment.tolist())
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["state", "laplace", "mean", "exp_moment"])
        writer.writerows(
            zip(names, map(repr, self.laplace.tolist()), map(repr, self.mean.tolist()), moments)
        )
        return buf.getvalue()


def exit_functionals(
    chain: Chain,
    mask: DomainMask,
    beta: float,
    xi=None,
    lambda0: float | None = None,
) -> ExitFunctionals:
    """Bundle the exact functionals of one domain at one shift.

    ``xi`` defaults to the indicator of the domain. The exponential moment
    is included when the chain is reversible and ``lambda0`` is supplied.
    """
    return DomainSystem(chain, mask).functionals(beta, xi, lambda0)
