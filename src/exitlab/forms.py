"""Finite-state generators, reference measures, and the shifted bilinear form.

A chain couples a dense rate matrix Q (nonnegative off-diagonal entries,
nonpositive row sums, the defect acting as killing) with a strictly positive
weight vector mu. The induced form is

    form(beta; f, g) = <(beta*I - Q) f, g>_mu,

whose matrix on a square block is A = (beta*I - Q)^T M, M = diag(mu).
The dual generator, the adjoint of Q in the mu-weighted inner product, is
the explicit similarity M^{-1} Q^T M on a finite state space.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from ._linalg import RefinedSPD, SingularSystemError, _bandwidth, _tridiagonal
from .defaults import MARKOV_TOL, STRUCTURAL_TOL

__all__ = [
    "Measure",
    "Generator",
    "Chain",
    "ValidationReport",
    "dual_generator",
    "form_matrix",
    "eval_form",
    "validate_assumption_a",
]


# Side of a square tile of the symmetry test: two 128 x 128 buffers at a time.
_SYMMETRY_TILE = 128


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _adopt_or_freeze(a) -> np.ndarray:
    """``a`` itself when it is a plain float64 array that owns its data and
    is already read-only, so no one else can write it; a frozen copy otherwise."""
    if type(a) is np.ndarray and a.dtype == np.float64 and a.flags.owndata and not a.flags.writeable:
        return a
    return _freeze(a)


def _row_scale(q: np.ndarray) -> np.ndarray:
    """Per-row scale of a row-sum check, unfloored: the rounding of a row sum
    grows with the row's largest rate, which is |q_xx| on a sub-Markov row."""
    return np.abs(np.diagonal(q))


def _rate_scale(q: np.ndarray) -> float:
    """Scale of an off-diagonal sign check, unfloored: the largest |q_xx|."""
    return float(_row_scale(q).max(initial=0.0))


def _symmetrized(q: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """sym(M^{1/2} (-Q) M^{-1/2}) of a square block Q with weights mu.

    Its eigenvalues are those of the pencil sym(A0) v = nu M v, for any
    chain; for a reversible one the similarity is already symmetric. Two
    n x n buffers at most.
    """
    root = np.sqrt(mu)
    # dividing by -root negates exactly, and halving by 0.5 is exact too
    b = root[:, None] / -root[None, :]
    b *= q
    sym = b + b.T
    sym *= 0.5
    return sym


def _is_symmetric(m: np.ndarray, mu: np.ndarray | None = None, anti: bool = False) -> bool:
    """Whether diag(mu) m is symmetric (antisymmetric with ``anti``) within
    STRUCTURAL_TOL times max|diag(mu) m|, with no floor, so scaling m or mu
    leaves the verdict unchanged. No mu means mu = 1.

    Checked over square tile pairs, tile (I, J) against tile (J, I)^T for
    I <= J, so no n x n temporary is made and both tiles are read along
    their rows; each entry is still d_xy - d_yx (d_xy + d_yx), and the
    verdict that of the whole matrix at once.
    """
    n = m.shape[0]
    if mu is None:
        mu = np.ones(n)
    scale = worst = 0.0
    for lo in range(0, n, _SYMMETRY_TILE):
        rows = slice(lo, lo + _SYMMETRY_TILE)
        for col in range(lo, n, _SYMMETRY_TILE):
            cols = slice(col, col + _SYMMETRY_TILE)
            d = mu[rows, None] * m[rows, cols]
            mirror = mu[cols, None] * m[cols, rows]
            # np.maximum, not max(), so a NaN from an overflowed product propagates
            for tile in (d, mirror):
                scale = np.maximum(scale, np.maximum(tile.max(), -tile.min()))
            if anti:
                d += mirror.T
            else:
                d -= mirror.T
            worst = np.maximum(worst, np.abs(d, out=d).max())
    return bool(worst <= STRUCTURAL_TOL * scale)


def _is_conservative(q: np.ndarray) -> bool:
    """Every row sums to zero within STRUCTURAL_TOL * |q_xx|."""
    return bool(np.all(np.abs(q.sum(axis=1)) <= STRUCTURAL_TOL * _row_scale(q)))


def _off_diagonal(q: np.ndarray) -> np.ndarray:
    """The n*(n-1) off-diagonal entries of a square matrix, as an (n-1, n)
    array: row k holds the entries strictly between diagonal k and k+1 in
    row-major order. A view, not a copy, when q is C-contiguous."""
    n = q.shape[0]
    return q.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]


def _as_vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
    return v


@dataclass(frozen=True, eq=False)
class Measure:
    """Strictly positive reference weights, one per state.

    ``normalized`` marks a probability measure (weights sum to one); the
    flag is validated, not inferred.
    """

    weights: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        w = _as_vector(self.weights, name="measure weights")
        if w.size == 0:
            raise ValueError("measure needs at least one state")
        if not np.all(np.isfinite(w)):
            raise ValueError("measure weights must be finite")
        if np.any(w <= 0):
            raise ValueError("measure weights must be strictly positive")
        if self.normalized and abs(w.sum() - 1.0) > STRUCTURAL_TOL:
            raise ValueError("normalized measure must sum to 1 within 1e-12")
        object.__setattr__(self, "weights", _freeze(w))

    @classmethod
    def probability(cls, weights) -> "Measure":
        """Normalize arbitrary positive weights into a probability measure."""
        w = _as_vector(weights, name="measure weights")
        return cls(w / w.sum(), normalized=True)

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class Generator:
    """Dense rate matrix with nonnegative off-diagonal entries.

    Row sums must be nonpositive (sub-Markov; the defect is killing) unless
    ``require_submarkov=False``. Duals of chains whose measure is not
    subinvariant can carry positive row sums and remain useful diagnostic
    objects; user-facing chains always enforce the check.

    A float64 matrix that owns its data and is read-only is adopted as is;
    any other input is copied once, and the frozen copy is validated.
    """

    matrix: np.ndarray
    require_submarkov: bool = True

    def __post_init__(self):
        q = _adopt_or_freeze(self.matrix)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"generator matrix must be square, got shape {q.shape}")
        # min and max propagate NaN, so this tests every entry without a copy
        if q.size and not (np.isfinite(q.min()) and np.isfinite(q.max())):
            raise ValueError("generator rates must be finite")
        off = _off_diagonal(q)
        if off.size and off.min() < -STRUCTURAL_TOL * _rate_scale(q):
            raise ValueError(
                f"off-diagonal rates must be nonnegative (min {off.min():.3e})"
            )
        if self.require_submarkov:
            rows = q.sum(axis=1)
            if np.any(rows > STRUCTURAL_TOL * _row_scale(q)):
                raise ValueError(
                    f"row sums must be nonpositive (max {rows.max():.3e})"
                )
        object.__setattr__(self, "matrix", q)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Chain:
    """A generator, its reference measure, optional labels, and the cached
    facts of the form (Q, mu) that depend on no shift and no domain."""

    generator: Generator
    measure: Measure
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.generator.size != len(self.measure):
            raise ValueError(
                f"generator size {self.generator.size} does not match "
                f"measure length {len(self.measure)}"
            )
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != self.generator.size:
                raise ValueError("label count does not match state count")
            object.__setattr__(self, "labels", labels)

    @property
    def n_states(self) -> int:
        return self.generator.size

    @property
    def q(self) -> np.ndarray:
        return self.generator.matrix

    @property
    def mu(self) -> np.ndarray:
        return self.measure.weights

    def state_labels(self) -> tuple[str, ...]:
        if self.labels is not None:
            return self.labels
        return tuple(str(i) for i in range(self.n_states))

    @cached_property
    def reversible(self) -> bool:
        """Detailed balance: diag(mu) Q symmetric, by ``_is_symmetric``."""
        return _is_symmetric(self.q, self.mu)

    @cached_property
    def form_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues nu of the pencil sym(A0) v = nu M v (read-only).

        They are the eigenvalues of the mu-similarity M^{-1/2} sym(A0) M^{-1/2}
        = sym(M^{1/2}(-Q)M^{-1/2}) (``_symmetrized``). Under detailed balance
        sym(A0) = M(-Q), so these are also the eigenvalues of -Q in the
        mu-weighted inner product: one eigensolve gives the lower bound beta0
        and the spectral gap nu_1.

        When ``_linalg._tridiagonal`` holds for Q, it holds for the
        similarity, whose values then come from the tridiagonal ``sterf``;
        otherwise from a dense standard ``eigh``.
        """
        if _tridiagonal(_bandwidth(self.q), self.n_states):
            d, e = _scaled_pencil(self.q, self.mu)
            return _freeze(scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf"))
        sym = _symmetrized(self.q, self.mu)
        # exactly symmetric, so its transpose is the same matrix in Fortran
        # order, which eigh may overwrite uncopied
        return _freeze(scipy.linalg.eigh(sym.T, eigvals_only=True, overwrite_a=True))

    @cached_property
    def beta0(self) -> float:
        """Smallest shift making the symmetric part of the form nonnegative:
        max(0, -nu_0) over the pencil spectrum."""
        return float(max(0.0, -self.form_spectrum[0]))

    def is_conservative(self) -> bool:
        """Every row sums to zero within STRUCTURAL_TOL * |q_xx|."""
        return _is_conservative(self.q)

    def to_dict(self) -> dict:
        return {
            "states": list(self.state_labels()),
            "mu": self.mu.tolist(),
            "Q": self.q.tolist(),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, doc: dict) -> "Chain":
        mu = _as_vector(doc["mu"], name="mu")
        normalized = abs(mu.sum() - 1.0) <= STRUCTURAL_TOL
        labels = tuple(str(s) for s in doc["states"]) if "states" in doc else None
        return cls(
            generator=Generator(np.asarray(doc["Q"], dtype=float)),
            measure=Measure(mu, normalized=normalized),
            labels=labels,
        )

    @classmethod
    def from_json(cls, text: str) -> "Chain":
        return cls.from_dict(json.loads(text))


def _scaled_pencil(q: np.ndarray, mu: np.ndarray):
    """Diagonal and subdiagonal of M^{-1/2} sym(A0) M^{-1/2} for a tridiagonal
    q: sym(A0) has diagonal -q_ii mu_i and entries
    -(q_{i,i+1} mu_i + q_{i+1,i} mu_{i+1}) / 2 beside it."""
    below = np.diagonal(q, 1) * mu[:-1] + np.diagonal(q, -1) * mu[1:]
    return 0.0 - np.diagonal(q), below / (-2.0 * np.sqrt(mu[:-1] * mu[1:]))


def dual_generator(chain: Chain) -> Generator:
    """Adjoint of the generator in the mu-weighted inner product.

    Returns M^{-1} Q^T M. Off-diagonal entries stay nonnegative; row sums
    can turn positive when mu is not subinvariant, so the sub-Markov check
    is skipped and left to validate_assumption_a.
    """
    return Generator(_dual_matrix(chain), require_submarkov=False)


def _dual_matrix(chain: Chain) -> np.ndarray:
    """M^{-1} Q^T M in one C-ordered buffer, so its off-diagonal entries are a view."""
    mu = chain.mu
    dual = np.multiply(chain.q.T, mu[None, :], order="C")
    dual /= mu[:, None]
    return dual


def form_matrix(q: np.ndarray, mu: np.ndarray, beta: float) -> np.ndarray:
    """Matrix A with form(beta; f, g) = f @ A @ g, A = (beta*I - Q)^T M, of a
    square block Q with weights mu.

    Built as ``0.0 - q`` rather than ``-q``, so a zero rate gives +0.0: the
    form matrix of a block Q_D is then bit for bit the D x D block of the
    form matrix of the whole chain.
    """
    a = 0.0 - q.T
    a.flat[:: a.shape[0] + 1] += beta
    a *= mu
    return a


def _sector_sigma(chain: Chain, probe: float) -> float:
    """sup |form0(f,g)| / sqrt(form_probe(f,f) form_probe(g,g)), unfloored.

    Valid for probe strictly above the lower-bound estimate, where the
    shifted symmetric part S = sym(A0) + probe*M is positive definite. The
    supremum is the largest singular value of L^{-1} A0 L^{-T}, with
    S = L L^T the Cholesky factorization; it shares its singular values
    with S^{-1/2} A0 S^{-1/2}. A factor that fails the gate of RefinedSPD
    reports +inf.
    """
    a0 = form_matrix(chain.q, chain.mu, 0.0)
    try:
        low = RefinedSPD((a0 + a0.T) / 2.0 + probe * np.diag(chain.mu), "sector constant")
    except SingularSystemError:
        return float("inf")
    half = low.lower_solve(a0)
    # (L^{-1} A0 L^{-T})^T, which has the same singular values
    return float(scipy.linalg.svdvals(low.lower_solve(half.T))[0])


def _sector_constant(chain: Chain, probe: float) -> float:
    """The sector supremum at ``probe``, floored at 1.

    For a reversible chain A0 is symmetric and the ratio is nu/(nu + probe)
    <= 1 over the pencil spectrum, so the constant is exactly 1, its
    minimum, with no further work.
    """
    if chain.reversible:
        return 1.0
    return max(1.0, _sector_sigma(chain, probe))


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Numeric check of lower boundedness, sector bound, and sign structure."""

    beta0_estimate: float
    sector_constant: float
    primal_markov_ok: bool
    dual_markov_ok: bool
    violations: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {
            "beta0_estimate": self.beta0_estimate,
            "sector_constant": _json_float(self.sector_constant),
            "primal_markov_ok": self.primal_markov_ok,
            "dual_markov_ok": self.dual_markov_ok,
            "violations": [[name, mag] for name, mag in self.violations],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _json_float(x: float):
    """Finite floats pass through; infinities serialize as the string 'inf'."""
    return x if np.isfinite(x) else ("inf" if x > 0 else "-inf")


def _markov_violations(matrix: np.ndarray, prefix: str) -> list[tuple[str, float]]:
    off = _off_diagonal(matrix)
    neg_off = float(max(0.0, -off.min())) if off.size else 0.0
    pos_row = float(max(0.0, matrix.sum(axis=1).max()))
    return [(f"{prefix}_offdiag", neg_off), (f"{prefix}_rowsum", pos_row)]


def validate_assumption_a(chain: Chain, beta_probe: float) -> ValidationReport:
    """Estimate the lower bound and sector constant, check sign structure.

    The lower-bound estimate is spectral: the smallest shift making the
    symmetric part of the form matrix positive semidefinite in the
    mu-weighted inner product. The sector constant is evaluated at
    ``beta_probe``; probes at or below the estimate report +inf together
    with a violation entry. Sign checks cover off-diagonal nonnegativity
    and row-sum nonpositivity of the generator and of its dual, each within
    MARKOV_TOL times the largest |q_xx| (the dual has the same diagonal).
    """
    beta0 = chain.beta0
    violations = _markov_violations(chain.q, "primal")
    violations += _markov_violations(_dual_matrix(chain), "dual")
    if beta_probe > beta0:
        sector = _sector_constant(chain, beta_probe)
    else:
        sector = float("inf")
        violations.append(("sector_probe_not_above_beta0", float(beta0 - beta_probe)))
    tol = MARKOV_TOL * _rate_scale(chain.q)
    primal_ok = all(mag <= tol for name, mag in violations if name.startswith("primal"))
    dual_ok = all(mag <= tol for name, mag in violations if name.startswith("dual"))
    return ValidationReport(
        beta0_estimate=beta0,
        sector_constant=sector,
        primal_markov_ok=primal_ok,
        dual_markov_ok=dual_ok,
        violations=tuple(violations),
    )


def eval_form(chain: Chain, beta: float, f, g) -> float:
    """Evaluate form(beta; f, g) = <(beta*I - Q) f, g>_mu."""
    if beta < 0:
        raise ValueError("form shift beta must be nonnegative")
    n = chain.n_states
    fv = _as_vector(f, n, "f")
    gv = _as_vector(g, n, "g")
    return float(((beta * fv - chain.q @ fv) * chain.mu) @ gv)
