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

from ._linalg import RefinedCholesky, SingularSystemError, _bandwidth, _tridiagonal
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


# Side of a square tile of the symmetry test: a few 128 x 128 buffers at a time.
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


def _spectrum(q: np.ndarray, mu: np.ndarray, sym: np.ndarray | None = None, vector: bool = False):
    """Ascending eigenvalues of ``sym`` = sym(M^{1/2}(-Q)M^{-1/2}) of a square
    block Q with weights mu and, with ``vector``, its bottom unit eigenvector
    (else None): the one eigensolve of a symmetrized generator block.

    Tridiagonal when ``_linalg._tridiagonal`` holds for Q: ``sterf`` for the
    values and ``eigh_tridiagonal(select='i')`` for the vector, on diagonals
    formed with ``_symmetrized``'s arithmetic, bit for bit, with no product
    of two weights to underflow. Dense otherwise: a values-only ``eigh`` and
    ``eigh(subset_by_index=[0, 0])``, of ``sym`` unmodified or, when it is
    not given, of a fresh buffer that the values' ``eigh`` overwrites.
    """
    if _tridiagonal(_bandwidth(q), q.shape[0]):
        r = np.sqrt(mu)
        d, e = -np.diagonal(q), 0.5 * (r[1:] / -r[:-1] * np.diagonal(q, -1) + r[:-1] / -r[1:] * np.diagonal(q, 1))
        vec = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[1] if vector else None
        return scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf"), vec
    own = sym is None
    # exactly symmetric, so its transpose is the same matrix in Fortran order
    sym = _symmetrized(q, mu).T if own else sym
    vec = scipy.linalg.eigh(sym, subset_by_index=[0, 0])[1] if vector else None
    return scipy.linalg.eigh(sym, eigvals_only=True, overwrite_a=own), vec


def _eig_rounding(values: np.ndarray) -> float:
    """Rounding of an ascending spectrum from a backward-stable eigensolve:
    it returns a zero eigenvalue as a few eps * |largest eigenvalue|, so an
    eigenvalue within 16 eps * |values[-1]| of zero is read as zero."""
    return 16.0 * np.finfo(float).eps * abs(values[-1])


def _balanced(d_xy: np.ndarray, d_yx: np.ndarray, anti: bool = False) -> np.ndarray:
    """The rule of ``_is_symmetric`` for each pair alone, elementwise:
    |d_xy - d_yx| (|d_xy + d_yx| with ``anti``) <= STRUCTURAL_TOL *
    max(|d_xy|, |d_yx|). A NaN, as from an overflowed product, compares
    false, and fails."""
    size = np.abs(d_yx)
    np.maximum(size, np.abs(d_xy), out=size)
    size *= STRUCTURAL_TOL
    diff = (np.add if anti else np.subtract)(d_xy, d_yx)
    return np.abs(diff, out=diff) <= size


def _is_symmetric(m: np.ndarray, mu: np.ndarray | None = None, anti: bool = False) -> bool:
    """Whether d = diag(mu) m (mu = 1 if None) is symmetric (antisymmetric with
    ``anti``) pair by pair, by ``_balanced`` for every x != y. No diagonal
    and no scale shared between pairs, so a pair's verdict moves with
    neither the other states nor D d D. Read tile (I, J) against (J, I)^T,
    I <= J: no n x n temporary is made."""
    n = m.shape[0]
    mu = np.ones(n) if mu is None else mu
    for lo in range(0, n, _SYMMETRY_TILE):
        rows = slice(lo, lo + _SYMMETRY_TILE)
        for col in range(lo, n, _SYMMETRY_TILE):
            cols = slice(col, col + _SYMMETRY_TILE)
            d = mu[rows, None] * m[rows, cols]
            # tile (J, I)^T, gathered in C order so every pass below runs along rows
            mirror = np.multiply(m[cols, rows].T, mu[cols], order="C")
            ok = _balanced(d, mirror, anti)
            if col == lo:
                np.fill_diagonal(ok, True)
            if not ok.all():
                return False
    return True


def _exactly_symmetric(m: np.ndarray) -> bool:
    """Whether m equals its transpose entry for entry, read a strip of
    ``_SYMMETRY_TILE`` rows against the same columns at a time."""
    t = _SYMMETRY_TILE
    return all(np.array_equal(m[lo : lo + t, lo:], m[lo:, lo : lo + t].T) for lo in range(0, m.shape[0], t))


def _is_conservative(q: np.ndarray) -> bool:
    """Every row sums to zero within STRUCTURAL_TOL * |q_xx|."""
    return bool(np.all(np.abs(q.sum(axis=1)) <= STRUCTURAL_TOL * _row_scale(q)))


def _edges(q: np.ndarray, rows=slice(None), cols=slice(None)) -> np.ndarray:
    """Which q_xy (x in ``rows``, y in ``cols``) are edges, q_xy > STRUCTURAL_TOL *
    |q_xx|: unfloored, so c*Q has the edges of Q at every time scale c."""
    return q[rows, cols] > STRUCTURAL_TOL * np.abs(np.diagonal(q)[rows, None])


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
    """Strictly positive reference weights, one per state: any positive
    measure, a probability or not."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_vector(self.weights, name="measure weights")
        if w.size == 0:
            raise ValueError("measure needs at least one state")
        if not np.all(np.isfinite(w)):
            raise ValueError("measure weights must be finite")
        if np.any(w <= 0):
            raise ValueError("measure weights must be strictly positive")
        object.__setattr__(self, "weights", _freeze(w))

    @classmethod
    def probability(cls, weights) -> "Measure":
        """Normalize arbitrary positive weights into a probability measure."""
        w = _as_vector(weights, name="measure weights")
        return cls(w / w.sum())

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

    @cached_property
    def pi(self) -> np.ndarray:
        """The probability mu / mu(E) (read-only), for which the exit-time
        formulas of a reversible chain are stated."""
        return _freeze(self.mu / self.mu.sum())

    def state_labels(self) -> tuple[str, ...]:
        if self.labels is not None:
            return self.labels
        return tuple(str(i) for i in range(self.n_states))

    @cached_property
    def reversible(self) -> bool:
        """Detailed balance, mu_x q_xy = mu_y q_yx at each pair's own size (``_is_symmetric``)."""
        return _is_symmetric(self.q, self.mu)

    @cached_property
    def form_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues nu of the pencil sym(A0) v = nu M v (read-only).

        They are the eigenvalues of the mu-similarity M^{-1/2} sym(A0) M^{-1/2}
        = sym(M^{1/2}(-Q)M^{-1/2}), by ``_spectrum``. Under detailed balance
        sym(A0) = M(-Q), so these are also the eigenvalues of -Q in the
        mu-weighted inner product, with the spectral gap nu_1. A non-reversible
        chain reads its lower bound beta0 here too.
        """
        return _freeze(_spectrum(self.q, self.mu)[0])

    @cached_property
    def beta0(self) -> float:
        """Smallest shift making the symmetric part of the form nonnegative:
        0 for a reversible chain's Dirichlet form, and otherwise -nu_0 where
        that exceeds the eigensolve's rounding (``_eig_rounding``), else 0."""
        if self.reversible:
            return 0.0
        nu = self.form_spectrum
        return float(-nu[0]) if -nu[0] > _eig_rounding(nu) else 0.0

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
        labels = tuple(str(s) for s in doc["states"]) if "states" in doc else None
        return cls(
            generator=Generator(np.asarray(doc["Q"], dtype=float)),
            measure=Measure(_as_vector(doc["mu"], name="mu")),
            labels=labels,
        )

    @classmethod
    def from_json(cls, text: str) -> "Chain":
        return cls.from_dict(json.loads(text))


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


def _equilibrate(s: np.ndarray, *also: np.ndarray) -> np.ndarray:
    """d = diag(s)^{-1/2}, with s and each matrix of ``also`` overwritten by
    D x D: f = D f' moves no route's value, and gates on a unit diagonal read
    the form's conditioning, not mu's range (van der Sluis, 1969). Not
    M^{1/2}: that makes a reversible form the closed form's sym_d + beta*I."""
    d = 1.0 / np.sqrt(np.diagonal(s))
    for x in (s, *also):
        x *= d
        x *= d[:, None]
    return d


def _sector_sigma(chain: Chain, probe: float) -> float:
    """sup |form0(f,g)| / sqrt(form_probe(f,f) form_probe(g,g)), unfloored.

    Valid for probe strictly above the lower-bound estimate, where the
    shifted symmetric part S = sym(A0) + probe*M is positive definite. The
    supremum is the largest singular value of L^{-1} A0 L^{-T}, with
    S = L L^T the Cholesky factorization; it shares its singular values
    with S^{-1/2} A0 S^{-1/2}, also once both are ``_equilibrate``d. S is a
    Z-matrix, its off-diagonal entries -(mu_x q_xy + mu_y q_yx)/2 being <= 0,
    so RefinedCholesky factors it; a factor that fails its gate reports +inf.
    """
    a0 = form_matrix(chain.q, chain.mu, 0.0)
    s = (a0 + a0.T) / 2.0
    s.flat[:: chain.n_states + 1] += probe * chain.mu
    _equilibrate(s, a0)
    try:
        low = RefinedCholesky(s, context="sector constant")
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


def _json_float(x: float):
    """The one writer of report floats: a finite float passes through, and a
    non-finite one is written as the string 'nan', 'inf' or '-inf'."""
    return x if np.isfinite(x) else repr(float(x))


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
