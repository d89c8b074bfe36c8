"""Singular-value rank reports for spans of tangent vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnreachableTargetError

DEFAULT_RANK_TOL = 1e-8
_SPAN_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class SubspaceBasis:
    """An ordered family of vectors with its singular-value rank report.

    ``rank`` counts singular values exceeding ``tol`` times the largest
    one, so an all-zero family has rank 0 and nearly collinear vectors
    collapse as expected.
    """

    vectors: np.ndarray
    singular_values: np.ndarray
    rank: int
    tol: float

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def spans_dimension(self, dim: int) -> bool:
        return self.rank == dim

    def residual_of(self, vec) -> float:
        """Distance from a vector to the span (0 for members)."""
        v = np.asarray(vec, dtype=float)
        if self.count == 0:
            return float(np.linalg.norm(v))
        coeff, *_ = np.linalg.lstsq(self.vectors.T, v, rcond=None)
        return float(np.linalg.norm(self.vectors.T @ coeff - v))


def span_basis(vectors, tol: float = DEFAULT_RANK_TOL) -> SubspaceBasis:
    """Build the rank report of a family of equal-length vectors."""
    rows = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not rows:
        return SubspaceBasis(
            vectors=np.zeros((0, 0)), singular_values=np.zeros(0), rank=0, tol=tol
        )
    mat = np.vstack(rows)
    svals = np.linalg.svd(mat, compute_uv=False)
    largest = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > tol * largest)) if largest > 0.0 else 0
    return SubspaceBasis(vectors=mat, singular_values=svals, rank=rank, tol=tol)


def solve_in_span(M: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Minimum-norm least-squares solution of ``M alpha = rhs``.

    Raises UnreachableTargetError, its message opening with ``what``, when
    the residual shows that ``rhs`` lies off the range of ``M``.
    """
    alpha, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    residual = float(np.linalg.norm(M @ alpha - rhs))
    if residual > _SPAN_RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs)):
        raise UnreachableTargetError(f"{what} (residual {residual:.3e})", residual)
    return alpha
