"""Dense solve helpers shared by the solver modules."""
from __future__ import annotations

import logging
import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

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


class RefinedLU:
    """LU factors of a square matrix and its 1-norm condition estimate ``cond``.

    Solves a x = b, or a^T x = b with ``trans=True``, refining against the
    matrix. Raises SingularSystemError when the reciprocal condition falls
    below SINGULAR_RCOND.
    """

    def __init__(self, a: np.ndarray, context: str = "solve"):
        self.a = np.asarray(a, dtype=float)
        anorm = np.linalg.norm(self.a, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            self._factors = lu_factor(self.a)
        lu = self._factors[0]
        (gecon,) = get_lapack_funcs(("gecon",), (self.a,))
        rcond, _ = gecon(lu, anorm, norm="1")
        self.cond = float("inf") if rcond == 0 else 1.0 / float(rcond)
        if not np.isfinite(lu).all() or rcond < SINGULAR_RCOND:
            raise SingularSystemError(
                f"{context}: matrix of size {self.a.shape[0]} is numerically singular "
                f"(condition estimate ~ {self.cond:.3e})",
                cond_estimate=self.cond,
            )
        log.debug("%s: n=%d cond~%.3e", context, self.a.shape[0], self.cond)

    def solve(self, b, trans: bool = False) -> np.ndarray:
        """Solve with a vector or matrix right-hand side."""
        b = np.asarray(b, dtype=float)
        a = self.a.T if trans else self.a
        anorm = np.linalg.norm(a, 1)
        x = lu_solve(self._factors, b, trans=int(trans))
        for _ in range(REFINE_MAX_SWEEPS):
            r = b - a @ x
            if np.max(np.abs(r)) <= REFINE_TARGET * max(1.0, anorm * np.max(np.abs(x))):
                break
            x = x + lu_solve(self._factors, r, trans=int(trans))
        return x


def solve_refined(a: np.ndarray, b: np.ndarray, context: str = "solve"):
    """Solve a x = b through a one-off RefinedLU; returns (x, cond_estimate)."""
    lu = RefinedLU(a, context)
    return lu.solve(b), lu.cond
