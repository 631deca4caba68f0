"""Solve helpers shared by the solver modules: dense and banded kernels."""
from __future__ import annotations

import logging
import math
import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, get_blas_funcs, get_lapack_funcs, lu_factor, lu_solve

from .defaults import REFINE_MAX_SWEEPS, REFINE_TARGET, SINGULAR_RCOND

log = logging.getLogger(__name__)

# A symmetric matrix of order m and bandwidth b is factored on its band when
# b * BAND_FRACTION < m. Banded LAPACK costs O(m b^2) against the dense
# O(m^3), but the blocked dense kernels catch up as the band widens: for a
# Cholesky and its condition estimate at m = 841 with one BLAS thread, the
# band took 0.4 times the dense time at b = m/8, about the same at b = m/4
# and 1.5 times it at b = m/3.
BAND_FRACTION = 8


def _bandwidth(a: np.ndarray) -> int:
    """Smallest b with a[i, j] == 0 whenever |i - j| > b, for a square a.

    O(1) when a corner entry is nonzero, as in every dense block; one scan
    of the nonzero pattern otherwise. A NaN counts as nonzero.
    """
    m = a.shape[0]
    if m < 2 or a[m - 1, 0] != 0 or a[0, m - 1] != 0:
        return max(m - 1, 0)
    nz = a != 0
    first = nz.argmax(axis=1)
    last = m - 1 - nz[:, ::-1].argmax(axis=1)
    reach = np.maximum(np.arange(m) - first, last - np.arange(m))
    return int(reach[nz.any(axis=1)].max(initial=0))


def _banded(b: int, m: int) -> bool:
    """Whether a matrix of order m and bandwidth b takes the banded kernels."""
    return b * BAND_FRACTION < m


def _tridiagonal(b: int, m: int) -> bool:
    """Whether a symmetric matrix of order m and bandwidth b takes the
    tridiagonal eigensolvers. Wider bands stay dense: scipy's banded
    eigenvector driver forms an m x m matrix of its own."""
    return b <= 1 and _banded(b, m)


class SingularSystemError(ValueError):
    """Linear system is numerically singular; ``cond_estimate`` is the
    condition number, bound or estimate that its factor's gate read, and
    ``edge_gap`` the bound of ``_certify`` on its bottom eigenvalue, or 0."""

    def __init__(self, message: str, cond_estimate: float = float("inf"), edge_gap: float = 0.0):
        super().__init__(message)
        self.cond_estimate = cond_estimate
        self.edge_gap = edge_gap


def _gate(context: str, kind: str, size: int, rcond: float, ok: bool = True, edge_gap: float = 0.0) -> float:
    """The condition estimate 1/rcond of a factored matrix of order ``size``.

    Raises SingularSystemError, saying the matrix is ``kind``, with
    ``edge_gap``, when ``ok`` is false (the factorization failed, or what
    the caller checked is not finite) or rcond falls below SINGULAR_RCOND.
    """
    cond = float("inf") if rcond == 0 else 1.0 / float(rcond)
    if not ok or rcond < SINGULAR_RCOND:
        raise SingularSystemError(
            f"{context}: matrix of size {size} is {kind} (condition estimate ~ {cond:.3e})", cond, edge_gap
        )
    log.debug("%s: n=%d cond~%.3e", context, size, cond)
    return cond


def _certify(context: str, kind: str, size: int, norm: float, y: np.ndarray | None) -> float:
    """The gated 1-norm condition number of a Z-matrix A (off-diagonal
    entries <= 0) of 1-norm ``norm``, from y = A^{-T} 1, None when A did not
    factor. y finite and > 0 certifies a nonsingular M-matrix: A^{-1} >= 0,
    so the condition number is exactly ``norm`` * max y, and by
    Collatz-Wielandt lambda_min(A) <= 1/min y, the ``edge_gap`` of a failed gate."""
    lo, hi = (float(y.min()), float(y.max())) if y is not None else (0.0, 0.0)
    ok = lo > 0 and math.isfinite(hi) and math.isfinite(norm)  # min and max propagate NaN
    cond = norm * hi if ok else math.inf
    # a zero norm comes only from positive off-diagonal entries; it reads as
    # singular, as an overflowed product does through 1/inf
    return _gate(context, kind, size, 1.0 / cond if cond else 0.0, ok, 1.0 / lo if ok else 0.0)


class _Refined:
    """Direct solve plus iterative refinement against the unfactored matrix.

    Subclasses supply ``_direct(b, trans)`` (the solve through the factors),
    ``_apply(x, trans)`` (the matrix, or its transpose, times x) and
    ``_anorm(trans)`` (the 1-norm of that matrix).
    """

    def solve(self, b, trans: bool = False) -> np.ndarray:
        """Solve a x = b, or a^T x = b with ``trans=True``."""
        b = np.asarray(b, dtype=float)
        if not np.isfinite(b).all():
            raise ValueError("right-hand side must be finite")
        x = self._direct(b, trans)
        for _ in range(REFINE_MAX_SWEEPS):
            r = b - self._apply(x, trans)
            # relative and unfloored, so the verdict does not move with the scale of b
            if np.max(np.abs(r)) <= REFINE_TARGET * self._anorm(trans) * np.max(np.abs(x)):
                break
            x = x + self._direct(r, trans)
        return x


class RefinedLU(_Refined):
    """LU factors of a square Z-matrix, such as shift*I - Q_D, and its 1-norm
    condition number ``cond`` from one transposed solve (``_certify``).

    Solves a x = b, or a^T x = b with ``trans=True``, for a vector or matrix b,
    refining against the matrix. Raises SingularSystemError when the matrix is
    no numerically nonsingular M-matrix or 1/cond falls below SINGULAR_RCOND.
    """

    def __init__(self, a: np.ndarray, context: str = "solve"):
        self.a = np.asarray(a, dtype=float)
        self._norms = {False: np.linalg.norm(self.a, 1)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            # a non-finite or singular matrix gives a non-finite y, which the gate rejects
            self._factors = lu_factor(self.a, check_finite=False)
        y = self._direct(np.ones(self.a.shape[0]), True)
        self.cond = _certify(context, "not a numerically nonsingular M-matrix", y.shape[0], self._norms[False], y)

    def _anorm(self, trans: bool) -> float:
        if trans not in self._norms:
            self._norms[trans] = np.linalg.norm(self.a, np.inf)
        return self._norms[trans]

    def _apply(self, x, trans: bool) -> np.ndarray:
        return (self.a.T if trans else self.a) @ x

    def _direct(self, b, trans: bool) -> np.ndarray:
        return lu_solve(self._factors, b, trans=int(trans), check_finite=False)


def _lower_band(s: np.ndarray, b: int, negate: bool = False) -> np.ndarray:
    """s, or -s with ``negate``, for an exactly symmetric s of bandwidth b,
    in LAPACK's lower band storage (b+1, m): row k holds diagonal -k, s[j+k, j]
    at column j. s is read only on its band."""
    m = s.shape[0]
    band = np.zeros((b + 1, m), order="F")
    for k in range(b + 1):
        band[k, : m - k] = np.diagonal(s, -k)
    if negate:
        # in one contiguous pass: numpy 2.4 negates a row of an 8-row band,
        # strided by 64 bytes, from the wrong addresses
        np.negative(band, out=band)
    return band


def _band_column_sums(band: np.ndarray) -> np.ndarray:
    """Column sums of the symmetric matrix in lower band storage ``band``,
    added in row order as numpy sums a C-ordered matrix's columns: the same bits."""
    b, m = band.shape[0] - 1, band.shape[1]
    col = np.zeros(m)
    for k in range(b, -1, -1):  # rows above the diagonal, s[j-k, j] = s[j, j-k], then the diagonal
        col[k:] += band[k, : m - k]
    for k in range(1, b + 1):
        col[: m - k] += band[k, : m - k]
    return col


class _Cholesky(_Refined):
    """A Cholesky factor L L^T, its solves and its triangular solve.
    Subclasses build the factor through ``_factorize``, set the 1-norm
    ``_norm`` of the matrix factored and supply ``_apply``."""

    def _factorize(self, s: np.ndarray, band: int | None, shift: float = 0.0, negate: bool = False):
        """Factor S = s + shift*I, or -s + shift*I with ``negate``, for an
        exactly symmetric s, by Cholesky in a buffer of its own, and keep the
        factor and its solver; s is not modified. Returns LAPACK's info, the
        diagonal of S and the sums of its off-diagonal entries by column, read
        off the buffer before it is factored (NaN for an infinite diagonal).

        Dense when ``band`` is None: s is copied C-ordered (and negated in
        place), and its transpose, Fortran-ordered and the same matrix, is
        factored in place. Banded otherwise, in ``_lower_band`` storage.
        """
        self._is_band = band is not None
        if self._is_band:
            buf = _lower_band(s, band, negate)
            diag, col = buf[0], _band_column_sums(buf)
        else:
            buf = np.array(s, dtype=float)
            if negate:
                np.negative(buf, out=buf)
            diag, col = buf.diagonal(), buf.sum(axis=0)
        with np.errstate(invalid="ignore"):
            off = col - diag
        diag = diag + shift  # a copy: the factor overwrites the buffer
        if self._is_band:
            buf[0] = diag
            pbtrf, self._potrs = get_lapack_funcs(("pbtrf", "pbtrs"), (buf,))
            self._factor, info = pbtrf(buf, lower=1, overwrite_ab=1)
        else:
            buf.flat[:: buf.shape[0] + 1] = diag
            potrf, self._potrs = get_lapack_funcs(("potrf", "potrs"), (buf,))
            self._factor, info = potrf(buf.T, lower=True, clean=False, overwrite_a=True)
        return info, diag, off

    def _anorm(self, trans: bool) -> float:
        return self._norm

    def _direct(self, b, trans: bool) -> np.ndarray:
        # potrs and pbtrs take the same arguments
        x, _ = self._potrs(self._factor, b, lower=True)
        return x

    def lower_solve(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b for a matrix b, one triangular solve with no refinement.

        Dense: for a C-ordered b, b^T is Fortran-ordered, so BLAS solves
        X L^T = b^T in b's memory and X^T = L^{-1} b, written over b; any
        other b is copied first. Banded: ``tbtrs`` on the band factor, into
        a new array.
        """
        if self._is_band:
            (tbtrs,) = get_lapack_funcs(("tbtrs",), (self._factor,))
            x, _ = tbtrs(self._factor, b, uplo="L")
            return x
        (trsm,) = get_blas_funcs(("trsm",), (b,))
        xt = trsm(1.0, self._factor, b.T, side=1, lower=1, trans_a=1, overwrite_b=True)
        return xt.T


class RefinedSPD(_Cholesky):
    """Cholesky factor L L^T of a symmetric positive definite matrix ``a`` that
    need not be a Z-matrix, as the nested saddle's reflected blocks are not,
    and ``cond`` = ||a||_1 / ``min_eig`` for ``min_eig`` <= a's smallest
    eigenvalue: an upper bound on the 2-norm condition number, as ||a||_2 <=
    ||a||_1, that reads a's bits alone, not a LAPACK estimate that moves
    with heap layout. A smaller bound only makes the gate stricter.

    ``a`` must be exactly symmetric; it may be a view, is not modified, and
    solves refine against it. The kernels are dense: a reflected block is.
    Raises SingularSystemError when the factorization fails, ||a||_1 is not
    finite, ``min_eig`` is not positive, or 1/cond is below SINGULAR_RCOND.
    """

    def __init__(self, a: np.ndarray, min_eig: float, context: str = "solve"):
        self.a = a
        (lange,) = get_lapack_funcs(("lange",), (a,))
        self._norm = lange("1", a.T)
        ok = self._factorize(a, None)[0] == 0 and math.isfinite(self._norm) and min_eig > 0
        rcond = min_eig / self._norm if ok else 0.0
        self.cond = _gate(context, "not numerically positive definite", a.shape[0], rcond, ok)

    def _apply(self, x, trans: bool) -> np.ndarray:
        return self.a @ x


class RefinedCholesky(_Cholesky):
    """Cholesky factor of S = sym + shift*I for a symmetric Z-matrix ``sym``
    (off-diagonal entries <= 0), its 1-norm condition number ``cond``, and
    solves through it.

    Given neither ``q`` nor ``root``, solves are of S x = b, refined
    against S itself. With ``q`` they are of (shift*I - q) x = b, or its
    transpose, when R (shift*I - q) R^{-1} = S for R = diag(root) (R = I
    when ``root`` is not given), as for a reversible generator block q:
    x = R^{-1} S^{-1} R b and, for the transpose, x = R S^{-1} R^{-1} b,
    refined against q itself. ``sym`` may be None when ``q`` is exactly
    symmetric: then sym = -q, as for a reversible block whose measure is
    constant, and S is formed from q with no copy of sym kept anywhere.
    S is factored in a buffer of its own, on its band when
    b * BAND_FRACTION < m for ``bandwidth`` b, the bandwidth of ``sym``
    (found when not given), and dense otherwise.

    ``cond`` is the 1-norm condition number of S gated by ``_certify`` on
    one solve y = S^{-1} 1, with ||S||_1 in O(m) from the sums
    ``_factorize`` returns; y certifies nothing when S has a positive
    off-diagonal entry, hence RefinedSPD. The refinement stops on norms of
    shift*I - q, read off q when first needed.
    """

    def __init__(self, sym, shift: float = 0.0, root=None, q=None, context: str = "solve",
                 bandwidth: int | None = None):
        s = q if sym is None else sym  # S is -q + shift*I when sym is None
        m = s.shape[0]
        b = _bandwidth(s) if bandwidth is None else bandwidth
        info, diag, off = self._factorize(s, b if _banded(b, m) else None, shift, negate=sym is None)
        # S is a Z-matrix: a column's off-diagonal magnitudes sum to minus its off-diagonal sum
        self._norm = float((np.abs(diag) - off).max())
        self._norms = {}
        self.sym, self.shift, self.root, self.q = sym, shift, root, q
        y = super()._direct(np.ones(m), False) if info == 0 else None
        self.cond = _certify(context, "not numerically positive definite", m, self._norm, y)

    def _anorm(self, trans: bool) -> float:
        if self.q is None:
            return self._norm
        if trans not in self._norms:  # shift*I - q is a Z-matrix, as S is
            q_diag = np.diag(self.q)
            with np.errstate(invalid="ignore"):
                self._norms[trans] = float((self.q.sum(axis=int(trans)) - q_diag + np.abs(self.shift - q_diag)).max())
        return self._norms[trans]

    def _apply(self, x, trans: bool) -> np.ndarray:
        if self.q is None:
            return self.sym @ x + self.shift * x
        return self.shift * x - (self.q.T if trans else self.q) @ x

    def _direct(self, b, trans: bool) -> np.ndarray:
        if self.root is None:
            return super()._direct(b, trans)
        scale = (1.0 / self.root) if trans else self.root
        return super()._direct(scale * b, trans) / scale
