"""Dense solve helpers shared by the solver modules."""
from __future__ import annotations

import logging
import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, get_blas_funcs, get_lapack_funcs, lu_factor, lu_solve

from .defaults import REFINE_MAX_SWEEPS, REFINE_TARGET, SINGULAR_RCOND

log = logging.getLogger(__name__)


class SingularSystemError(ValueError):
    """Linear system is numerically singular.

    Carries ``cond_estimate``, the 1-norm condition estimate of the matrix
    at the point of failure.
    """

    def __init__(self, message: str, cond_estimate: float = float("inf")):
        super().__init__(message)
        self.cond_estimate = cond_estimate


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Cholesky factorization failed, or its reciprocal condition fell below
    SINGULAR_RCOND: the caller should factor by LU instead."""


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
        self.cond = float("inf") if rcond == 0 else 1.0 / float(rcond)
        if not np.isfinite(lu).all() or rcond < SINGULAR_RCOND:
            raise SingularSystemError(
                f"{context}: matrix of size {self.a.shape[0]} is numerically singular "
                f"(condition estimate ~ {self.cond:.3e})",
                cond_estimate=self.cond,
            )
        log.debug("%s: n=%d cond~%.3e", context, self.a.shape[0], self.cond)

    def _anorm(self, trans: bool) -> float:
        if trans not in self._norms:
            self._norms[trans] = np.linalg.norm(self.a, np.inf)
        return self._norms[trans]

    def _apply(self, x, trans: bool) -> np.ndarray:
        return (self.a.T if trans else self.a) @ x

    def _direct(self, b, trans: bool) -> np.ndarray:
        return lu_solve(self._factors, b, trans=int(trans), check_finite=False)


class RefinedCholesky(_Refined):
    """Solves (shift*I - q) x = b, or its transpose, for a vector b when the
    matrix is similar to a symmetric positive definite one.

    ``sym`` is symmetric with R (shift*I - q) R^{-1} = sym + shift*I for
    R = diag(root). That shifted matrix S is factored by Cholesky, and the
    solves are x = R^{-1} S^{-1} R b and, for the transpose, x = R S^{-1}
    R^{-1} b. Refinement runs against q itself. ``cond`` is the 1-norm condition
    estimate of S. Raises NotPositiveDefiniteError when the factorization
    fails, the factor is not finite, or the reciprocal condition falls below
    SINGULAR_RCOND.
    """

    def __init__(self, sym, shift: float, root, q, context: str = "solve"):
        n = sym.shape[0]
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
        s = np.array(sym, dtype=float)
        s.flat[:: n + 1] += shift
        potrf, potrs, pocon, lange = get_lapack_funcs(("potrf", "potrs", "pocon", "lange"), (s,))
        # S is symmetric, so its transpose is the same matrix in Fortran
        # order: LAPACK reads its norm and factors it in place, uncopied
        snorm = lange("1", s.T)
        factor, info = potrf(s.T, lower=True, clean=False, overwrite_a=True)
        if info != 0:
            raise NotPositiveDefiniteError(f"{context}: not positive definite (potrf info {info})")
        rcond, _ = pocon(factor, snorm, uplo="L")
        # min and max propagate NaN, so this tests every entry without a mask
        if not (np.isfinite(factor.min()) and np.isfinite(factor.max())) or rcond < SINGULAR_RCOND:
            raise NotPositiveDefiniteError(f"{context}: Cholesky rcond {rcond:.3e} too small or not finite")
        self.cond = 1.0 / float(rcond)
        log.debug("%s: n=%d Cholesky cond~%.3e", context, n, self.cond)
        self._factor, self._potrs = factor, potrs
        self.shift, self.root, self.q = shift, root, q

    def _anorm(self, trans: bool) -> float:
        return self._norms[trans]

    def _apply(self, x, trans: bool) -> np.ndarray:
        return self.shift * x - (self.q.T if trans else self.q) @ x

    def _direct(self, b, trans: bool) -> np.ndarray:
        scale = (1.0 / self.root) if trans else self.root
        y, _ = self._potrs(self._factor, scale * b, lower=True)
        return y / scale


class RefinedSPD(_Refined):
    """Cholesky factor L L^T of a symmetric positive definite matrix ``a`` and
    its 1-norm condition estimate ``cond``.

    ``a`` may be a view; it is not modified, and solves of a x = b refine
    against it. ``lower_solve(b)`` applies L^{-1} to a matrix b in place.
    Raises SingularSystemError when the factorization fails, the factor is
    not finite, or the reciprocal condition falls below SINGULAR_RCOND.
    """

    def __init__(self, a: np.ndarray, context: str = "solve"):
        self.a = a
        self._norm = np.linalg.norm(a, 1)
        potrf, pocon, self._potrs = get_lapack_funcs(("potrf", "pocon", "potrs"), (a,))
        factor, info = potrf(a, lower=True, clean=False)
        rcond = pocon(factor, self._norm, uplo="L")[0] if info == 0 else 0.0
        self.cond = float("inf") if rcond == 0 else 1.0 / float(rcond)
        if info != 0 or not np.isfinite(factor).all() or rcond < SINGULAR_RCOND:
            raise SingularSystemError(
                f"{context}: matrix of size {a.shape[0]} is not numerically positive definite "
                f"(condition estimate ~ {self.cond:.3e})",
                cond_estimate=self.cond,
            )
        log.debug("%s: n=%d Cholesky cond~%.3e", context, a.shape[0], self.cond)
        self._factor = factor

    def _anorm(self, trans: bool) -> float:
        return self._norm

    def _apply(self, x, trans: bool) -> np.ndarray:
        return self.a @ x

    def _direct(self, b, trans: bool) -> np.ndarray:
        x, _ = self._potrs(self._factor, b, lower=True)
        return x

    def lower_solve(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b for a C-ordered matrix b, one triangular solve with no
        refinement, written over b.

        b^T is Fortran-ordered, so BLAS solves X L^T = b^T in b's memory
        and X^T = L^{-1} b.
        """
        (trsm,) = get_blas_funcs(("trsm",), (b,))
        xt = trsm(1.0, self._factor, b.T, side=1, lower=1, trans_a=1, overwrite_b=True)
        return xt.T
