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


def _gate(context: str, kind: str, factor: np.ndarray, rcond: float, info: int = 0) -> float:
    """The condition estimate 1/rcond of a factored matrix.

    Raises SingularSystemError, saying the matrix is ``kind``, when the
    factorization failed (``info`` not 0), the factor is not finite, or
    rcond falls below SINGULAR_RCOND.
    """
    cond = float("inf") if rcond == 0 else 1.0 / float(rcond)
    # min and max propagate NaN, so this tests every entry without a mask
    if info != 0 or not (np.isfinite(factor.min()) and np.isfinite(factor.max())) or rcond < SINGULAR_RCOND:
        raise SingularSystemError(
            f"{context}: matrix of size {factor.shape[0]} is {kind} "
            f"(condition estimate ~ {cond:.3e})",
            cond_estimate=cond,
        )
    log.debug("%s: n=%d cond~%.3e", context, factor.shape[0], cond)
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
    L^{-1} to a matrix b in place. Raises SingularSystemError when the
    factorization fails, the factor is not finite, or the reciprocal
    condition falls below SINGULAR_RCOND.
    """

    def __init__(self, a: np.ndarray, context: str = "solve"):
        self.a = a
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


class RefinedCholesky(RefinedSPD):
    """Solves (shift*I - q) x = b, or its transpose, for a vector b when the
    matrix is similar to a symmetric positive definite one.

    ``sym`` is symmetric with R (shift*I - q) R^{-1} = sym + shift*I for
    R = diag(root). That shifted matrix S is factored by Cholesky in a
    buffer of its own, and the solves are x = R^{-1} S^{-1} R b and, for the
    transpose, x = R S^{-1} R^{-1} b. Refinement runs against q itself.
    ``cond`` is the 1-norm condition estimate of S; the gate is that of
    RefinedSPD.
    """

    def __init__(self, sym, shift: float, root, q, context: str = "solve"):
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
