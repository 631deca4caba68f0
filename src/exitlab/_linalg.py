"""Solve helpers shared by the solver modules: dense and banded kernels."""
from __future__ import annotations

import logging
import math
import warnings
from typing import NamedTuple

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
    """Linear system is numerically singular.

    Carries ``cond_estimate``, the 1-norm condition estimate of the matrix
    at the point of failure.
    """

    def __init__(self, message: str, cond_estimate: float = float("inf")):
        super().__init__(message)
        self.cond_estimate = cond_estimate


def _finite(factor: np.ndarray) -> bool:
    """Whether every entry of a factor is finite; min and max propagate NaN,
    so this tests every entry without a mask."""
    return bool(np.isfinite(factor.min()) and np.isfinite(factor.max()))


def _gate(context: str, kind: str, size: int, rcond: float, ok: bool = True) -> float:
    """The condition estimate 1/rcond of a factored matrix of order ``size``.

    Raises SingularSystemError, saying the matrix is ``kind``, when ``ok``
    is false (the factorization failed, or what the caller checked is not
    finite) or rcond falls below SINGULAR_RCOND.
    """
    cond = float("inf") if rcond == 0 else 1.0 / float(rcond)
    if not ok or rcond < SINGULAR_RCOND:
        raise SingularSystemError(
            f"{context}: matrix of size {size} is {kind} "
            f"(condition estimate ~ {cond:.3e})",
            cond_estimate=cond,
        )
    log.debug("%s: n=%d cond~%.3e", context, size, cond)
    return cond


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
        anorm = self._anorm(trans)
        x = self._direct(b, trans)
        for _ in range(REFINE_MAX_SWEEPS):
            r = b - self._apply(x, trans)
            if np.max(np.abs(r)) <= REFINE_TARGET * max(1.0, anorm * np.max(np.abs(x))):
                break
            x = x + self._direct(r, trans)
        return x


class RefinedLU(_Refined):
    """LU factors of a square matrix and its 1-norm condition estimate ``cond``.

    Solves a x = b, or a^T x = b with ``trans=True``, for a vector or matrix b,
    refining against the matrix. Raises SingularSystemError when the matrix is
    not finite or the reciprocal condition falls below SINGULAR_RCOND.
    """

    def __init__(self, a: np.ndarray, context: str = "solve"):
        self.a = np.asarray(a, dtype=float)
        self._norms = {False: np.linalg.norm(self.a, 1)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            # a non-finite matrix gives a non-finite factor, which the gate rejects
            self._factors = lu_factor(self.a, check_finite=False)
        lu = self._factors[0]
        (gecon,) = get_lapack_funcs(("gecon",), (self.a,))
        rcond, _ = gecon(lu, self._norms[False], norm="1")
        self.cond = _gate(context, "numerically singular", lu.shape[0], rcond, _finite(lu))

    def _anorm(self, trans: bool) -> float:
        if trans not in self._norms:
            self._norms[trans] = np.linalg.norm(self.a, np.inf)
        return self._norms[trans]

    def _apply(self, x, trans: bool) -> np.ndarray:
        return (self.a.T if trans else self.a) @ x

    def _direct(self, b, trans: bool) -> np.ndarray:
        return lu_solve(self._factors, b, trans=int(trans), check_finite=False)


def _lower_band(s: np.ndarray, b: int, shift: float = 0.0) -> np.ndarray:
    """s + shift*I for an exactly symmetric s of bandwidth b, in LAPACK's
    lower band storage (b+1, m): row k holds diagonal -k, s[j+k, j] at
    column j. s is read only on its band."""
    m = s.shape[0]
    band = np.zeros((b + 1, m), order="F")
    for k in range(b + 1):
        band[k, : m - k] = np.diagonal(s, -k)
    band[0] += shift
    return band


class RefinedSPD(_Refined):
    """Cholesky factor L L^T of a symmetric positive definite matrix ``a`` and
    its 1-norm condition estimate ``cond``.

    ``a`` must be exactly symmetric. It may be a view; it is not modified,
    and solves of a x = b refine against it. ``lower_solve(b)`` applies
    L^{-1} to a matrix b. Raises SingularSystemError when the factorization
    fails, the factor is not finite, or the reciprocal condition falls below
    SINGULAR_RCOND.

    The kernels follow the bandwidth b of ``a`` in its given order: the
    banded ones when b * BAND_FRACTION < m, the dense ones otherwise. Both
    pass the same gate and refine against the same dense ``a``. The dense
    condition estimate is ``pocon``'s. LAPACK has ``pbcon`` but scipy does
    not expose it, so the banded one is ``gbcon``'s, on an LU (``gbtrf``) of
    the same band in general band storage: rows b..3b hold the band, A[i, j]
    at row 2b + i - j, and the b rows above are the LU's fill, all in
    O(m b^2).
    """

    def __init__(self, a: np.ndarray, context: str = "solve"):
        self.a = a
        m, b = a.shape[0], _bandwidth(a)
        if _banded(b, m):
            band = _lower_band(a, b)
            full = np.zeros((3 * b + 1, m), order="F")
            full[2 * b :] = band
            for k in range(1, b + 1):
                full[2 * b - k, k:] = band[k, : m - k]
            # the fill rows are still zero: column sums of |full| are the matrix's
            self._norm = float(np.abs(full).sum(axis=0).max())
            info = self._factorize(band, band=True, overwrite=True)
            rcond = 0.0
            if info == 0:
                gbtrf, gbcon = get_lapack_funcs(("gbtrf", "gbcon"), (full,))
                lu, piv, lu_info = gbtrf(full, b, b, overwrite_ab=1)
                if lu_info == 0:
                    rcond = gbcon(b, b, lu, piv, self._norm)[0]
        else:
            pocon, lange = get_lapack_funcs(("pocon", "lange"), (a,))
            self._norm = lange("1", a.T)
            info = self._factorize(a.T, band=False, overwrite=False)
            rcond = pocon(self._factor, self._norm, uplo="L")[0] if info == 0 else 0.0
        ok = info == 0 and _finite(self._factor)
        self.cond = _gate(context, "not numerically positive definite", m, rcond, ok)

    def _factorize(self, s: np.ndarray, band: bool, overwrite: bool) -> int:
        """Factor s by Cholesky, keep the factor and its solver, and return
        LAPACK's info.

        Dense: s is the matrix, read in place when Fortran-ordered; an
        exactly symmetric C-ordered matrix is passed as its transpose, which
        is the same matrix. With ``overwrite`` the factor is written over s,
        otherwise into a copy. Banded: s is ``_lower_band`` storage, and the
        factor is written over it.
        """
        if band:
            pbtrf, self._potrs = get_lapack_funcs(("pbtrf", "pbtrs"), (s,))
            self._factor, info = pbtrf(s, lower=1, overwrite_ab=1)
        else:
            potrf, self._potrs = get_lapack_funcs(("potrf", "potrs"), (s,))
            self._factor, info = potrf(s, lower=True, clean=False, overwrite_a=overwrite)
        self._is_band = band
        return info

    def _anorm(self, trans: bool) -> float:
        return self._norm

    def _apply(self, x, trans: bool) -> np.ndarray:
        return self.a @ x

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


class ShiftFree(NamedTuple):
    """What a RefinedCholesky reads of ``sym`` and ``q`` besides the factor,
    none of it changed by the shift: the diagonal of q and the sums of its
    off-diagonal entries by column and by row, and the diagonal of sym and
    the sums of its off-diagonal entries by column. O(m) to keep, O(m^2)
    once to compute."""

    q_diag: np.ndarray
    q_col_off: np.ndarray
    q_row_off: np.ndarray
    sym_diag: np.ndarray
    sym_col_off: np.ndarray

    @classmethod
    def of(cls, sym: np.ndarray, q: np.ndarray) -> "ShiftFree":
        q_diag, sym_diag = np.diag(q), np.diag(sym)
        # an infinite diagonal entry leaves a NaN sum, which the gate rejects
        with np.errstate(invalid="ignore"):
            return cls(
                q_diag,
                q.sum(axis=0) - q_diag,
                q.sum(axis=1) - q_diag,
                sym_diag,
                sym.sum(axis=0) - sym_diag,
            )


class RefinedCholesky(RefinedSPD):
    """Solves (shift*I - q) x = b, or its transpose, for a vector b when the
    matrix is similar to a symmetric positive definite one.

    ``sym`` is symmetric with R (shift*I - q) R^{-1} = sym + shift*I for
    R = diag(root), and its off-diagonal entries are <= 0, as they are when
    q is a generator block. That shifted matrix S is factored by Cholesky in
    a buffer of its own, and the solves are x = R^{-1} S^{-1} R b and, for
    the transpose, x = R S^{-1} R^{-1} b. Refinement runs against q itself.
    The kernels are those of RefinedSPD, from ``bandwidth``, the bandwidth of
    ``sym`` (found when not given). A banded S is built from ``sym``'s
    diagonals, so its factor allocates no m x m buffer.

    ``cond`` is the 1-norm condition number of S from one solve y = S^{-1} 1:
    S is a Z-matrix, so once its Cholesky succeeds it is a nonsingular
    M-matrix, S^{-1} >= 0, and ||S^{-1}||_1 = max|y|. On such a matrix the
    number is exact; on one with a positive off-diagonal entry it is a lower
    bound, as ``pocon``'s is. The 1-norm of S and those of shift*I - q come
    from ``sums`` (``ShiftFree.of(sym, q)`` when not given) in O(m). Raises
    SingularSystemError when the factorization fails, the norm of S or y is
    not finite, max|y| <= 0, or 1/cond falls below SINGULAR_RCOND. A finite
    S that Cholesky factors has a finite factor, since |L_ij| <= sqrt(S_ii).
    """

    def __init__(self, sym, shift: float, root, q, context: str = "solve",
                 bandwidth: int | None = None, sums: ShiftFree | None = None):
        sums = ShiftFree.of(sym, q) if sums is None else sums
        # 1-norms of shift*I - q and of its transpose, for the refinement stop,
        # and of S: both are Z-matrices, so a column's (row's) off-diagonal
        # magnitudes sum to minus its off-diagonal sum
        pivot = np.abs(shift - sums.q_diag)
        self._norms = (float((sums.q_col_off + pivot).max()), float((sums.q_row_off + pivot).max()))
        self._norm = float((np.abs(sums.sym_diag + shift) - sums.sym_col_off).max())
        m = sym.shape[0]
        b = _bandwidth(sym) if bandwidth is None else bandwidth
        if _banded(b, m):
            info = self._factorize(_lower_band(sym, b, shift), band=True, overwrite=True)
        else:
            s = np.array(sym, dtype=float)
            s.flat[:: m + 1] += shift
            info = self._factorize(s.T, band=False, overwrite=True)
        self.shift, self.root, self.q = shift, root, q
        ok = info == 0 and math.isfinite(self._norm)
        y_max = float(np.abs(RefinedSPD._direct(self, np.ones(m), False)).max()) if ok else 0.0
        ok = ok and math.isfinite(y_max) and y_max > 0
        cond = self._norm * y_max if ok else math.inf
        # a zero norm can only come from positive off-diagonal entries; it
        # reads as singular, as an overflowed product does through 1/inf
        rcond = 1.0 / cond if cond else 0.0
        self.cond = _gate(context, "not numerically positive definite", m, rcond, ok)

    def _anorm(self, trans: bool) -> float:
        return self._norms[trans]

    def _apply(self, x, trans: bool) -> np.ndarray:
        return self.shift * x - (self.q.T if trans else self.q) @ x

    def _direct(self, b, trans: bool) -> np.ndarray:
        scale = (1.0 / self.root) if trans else self.root
        return super()._direct(scale * b, trans) / scale
