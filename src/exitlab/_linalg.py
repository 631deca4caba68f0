"""Solve helpers shared by the solver modules: dense and banded kernels."""
from __future__ import annotations

import logging
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
    """Linear system is numerically singular.

    Carries ``cond_estimate``, the 1-norm condition estimate of the matrix
    at the point of failure.
    """

    def __init__(self, message: str, cond_estimate: float = float("inf")):
        super().__init__(message)
        self.cond_estimate = cond_estimate


def _gate(context: str, kind: str, factor: np.ndarray, rcond: float, info: int = 0) -> float:
    """The condition estimate 1/rcond of a factored matrix.

    Raises SingularSystemError, saying the matrix is ``kind``, when the
    factorization failed (``info`` not 0), the factor is not finite, or
    rcond falls below SINGULAR_RCOND.
    """
    cond = float("inf") if rcond == 0 else 1.0 / float(rcond)
    # a factor is square or in band storage, one column per row of the matrix
    size = factor.shape[1]
    # min and max propagate NaN, so this tests every entry without a mask
    if info != 0 or not (np.isfinite(factor.min()) and np.isfinite(factor.max())) or rcond < SINGULAR_RCOND:
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
        self.cond = _gate(context, "numerically singular", lu, rcond)

    def _anorm(self, trans: bool) -> float:
        if trans not in self._norms:
            self._norms[trans] = np.linalg.norm(self.a, np.inf)
        return self._norms[trans]

    def _apply(self, x, trans: bool) -> np.ndarray:
        return (self.a.T if trans else self.a) @ x

    def _direct(self, b, trans: bool) -> np.ndarray:
        return lu_solve(self._factors, b, trans=int(trans), check_finite=False)


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
    pass the same gate and refine against the same dense ``a``.
    """

    def __init__(self, a: np.ndarray, context: str = "solve"):
        self.a = a
        b = _bandwidth(a)
        if _banded(b, a.shape[0]):
            self._band_cholesky(a, b, 0.0, context)
        else:
            self._cholesky(a, context, overwrite=False)

    def _cholesky(self, s: np.ndarray, context: str, overwrite: bool) -> None:
        """Factor the exactly symmetric s, gate it, and keep its 1-norm.

        s^T is the same matrix, and Fortran-ordered when s is C-ordered, so
        LAPACK reads it uncopied; with ``overwrite`` the factor is written
        over s, otherwise into a copy.
        """
        potrf, pocon, lange, self._potrs = get_lapack_funcs(("potrf", "pocon", "lange", "potrs"), (s,))
        self._norm = lange("1", s.T)
        factor, info = potrf(s.T, lower=True, clean=False, overwrite_a=overwrite)
        rcond = pocon(factor, self._norm, uplo="L")[0] if info == 0 else 0.0
        self.cond = _gate(context, "not numerically positive definite", factor, rcond, info)
        self._factor, self._is_band = factor, False

    def _band_cholesky(self, s: np.ndarray, b: int, shift: float, context: str) -> None:
        """Factor s + shift*I for an exactly symmetric s of bandwidth b, gate
        it, and keep its 1-norm, all in O(m b^2); s is read only on its band.

        The factor is in LAPACK's lower band storage, (b+1, m): row k holds
        diagonal -k, s[j+k, j] at column j. LAPACK has ``pbcon`` but scipy
        does not expose it, so rcond comes from ``gbcon`` on an LU
        (``gbtrf``) of the same band in general band storage: rows b..3b
        hold the band, A[i, j] at row 2b + i - j, and the b rows above are
        the LU's fill.
        """
        m = s.shape[0]
        band = np.zeros((b + 1, m), order="F")
        for k in range(b + 1):
            band[k, : m - k] = np.diagonal(s, -k)
        band[0] += shift
        pbtrf, gbtrf, gbcon, self._potrs = get_lapack_funcs(("pbtrf", "gbtrf", "gbcon", "pbtrs"), (band,))
        full = np.zeros((3 * b + 1, m), order="F")
        full[2 * b :] = band
        for k in range(1, b + 1):
            full[2 * b - k, k:] = band[k, : m - k]
        # the fill rows are still zero: column sums of |full| are the matrix's
        self._norm = float(np.abs(full).sum(axis=0).max())
        factor, info = pbtrf(band, lower=1, overwrite_ab=1)
        rcond = 0.0
        if info == 0:
            lu, piv, lu_info = gbtrf(full, b, b, overwrite_ab=1)
            if lu_info == 0:
                rcond = gbcon(b, b, lu, piv, self._norm)[0]
        self.cond = _gate(context, "not numerically positive definite", factor, rcond, info)
        self._factor, self._is_band = factor, True

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


class RefinedCholesky(RefinedSPD):
    """Solves (shift*I - q) x = b, or its transpose, for a vector b when the
    matrix is similar to a symmetric positive definite one.

    ``sym`` is symmetric with R (shift*I - q) R^{-1} = sym + shift*I for
    R = diag(root). That shifted matrix S is factored by Cholesky in a
    buffer of its own, and the solves are x = R^{-1} S^{-1} R b and, for the
    transpose, x = R S^{-1} R^{-1} b. Refinement runs against q itself.
    ``cond`` is the 1-norm condition estimate of S; the gate and the choice
    of kernels are those of RefinedSPD, from ``bandwidth``, the bandwidth of
    ``sym`` (found when not given). A banded S is built from ``sym``'s
    diagonals, so its factor allocates no m x m buffer.
    """

    def __init__(self, sym, shift: float, root, q, context: str = "solve", bandwidth: int | None = None):
        # 1-norms of shift*I - q and of its transpose, for the refinement stop.
        # q is a generator block, nonnegative off the diagonal, so a column's
        # (row's) off-diagonal magnitudes sum to its sum less q_xx: no n x n
        # buffer of magnitudes is needed
        diag = np.diag(q)
        pivot = np.abs(shift - diag)
        self._norms = (
            float((q.sum(axis=0) - diag + pivot).max()),
            float((q.sum(axis=1) - diag + pivot).max()),
        )
        b = _bandwidth(sym) if bandwidth is None else bandwidth
        if _banded(b, sym.shape[0]):
            self._band_cholesky(sym, b, shift, context)
        else:
            s = np.array(sym, dtype=float)
            s.flat[:: s.shape[0] + 1] += shift
            self._cholesky(s, context, overwrite=True)
        self.shift, self.root, self.q = shift, root, q

    def _anorm(self, trans: bool) -> float:
        return self._norms[trans]

    def _apply(self, x, trans: bool) -> np.ndarray:
        return self.shift * x - (self.q.T if trans else self.q) @ x

    def _direct(self, b, trans: bool) -> np.ndarray:
        scale = (1.0 / self.root) if trans else self.root
        return super()._direct(scale * b, trans) / scale
