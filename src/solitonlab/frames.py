"""Symmetric 2-tensors and tensor norms in a fixed 4-dimensional frame.

Tensors are plain ``numpy`` arrays: a symmetric 2-tensor is a ``(4, 4)``
array, and `tensor_norm` takes a tensor of any rank whose axes all have
length 4.  The eigensolvers solve ``t v = w g v`` for a positive definite
metric g, one matrix at a time (`sym_eigen`) or over (N, 4, 4) stacks
(`sym_eigvals`).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

DIM = 4


def _sym2(m) -> np.ndarray:
    """m as a symmetric (4, 4) array: symmetrized after checking that its
    asymmetry, the rounding that matrix products leave, is at most
    1e-12 max(1, max |m|)."""
    a = np.asarray(m, dtype=float)
    if a.shape != (DIM, DIM):
        raise ValueError(f"expected a (4, 4) array, got {a.shape}")
    asym = abs(a - a.T).max()
    if asym > 1e-12 * max(1.0, float(abs(a).max())):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return 0.5 * (a + a.T)


def _cholesky_spd(g: np.ndarray) -> np.ndarray:
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise DomainError("metric is not positive definite") from exc
    if not np.isfinite(L).all():
        raise DomainError("metric is not positive definite")
    return L


def sym_eigen(t, g=None) -> list[tuple[float, np.ndarray]]:
    """g-orthonormal eigenpairs of a symmetric 2-tensor t relative to g.

    Solves the generalized problem ``t v = w g v`` for positive definite g by
    Cholesky reduction followed by LAPACK's symmetric ``eigh``.  Returns
    the four pairs sorted by descending eigenvalue; the eigenvectors satisfy
    ``v_i^T g v_j = delta_ij``.  Rounding-level asymmetry in the inputs (as
    produced by matrix products) is symmetrized away.
    """
    t = _sym2(t)
    g = np.eye(DIM) if g is None else _sym2(g)
    Linv = np.linalg.inv(_cholesky_spd(g))
    B = Linv @ t @ Linv.T
    w, Y = np.linalg.eigh(0.5 * (B + B.T))  # ascending
    V = (Linv.T @ Y)[:, ::-1].T.copy()  # row i: eigenvector of the i-th largest
    return list(zip(w[::-1].tolist(), V))


def sym_eigvals(t, g) -> np.ndarray:
    """Eigenvalues of ``t v = w g v`` for (N, 4, 4) stacks, each row
    descending: `sym_eigen`'s eigenvalues bit for bit, with its checks,
    symmetrization and Cholesky reduction applied per matrix."""
    t, g = np.asarray(t, dtype=float), np.asarray(g, dtype=float)
    if t.ndim != 3 or t.shape[1:] != (DIM, DIM) or g.shape != t.shape:
        raise ValueError(f"expected two (N, 4, 4) stacks, got {t.shape} and {g.shape}")
    t, g = _symmetrized(t), _symmetrized(g)
    Linv = np.linalg.inv(_cholesky_spd(g))
    B = Linv @ t @ Linv.swapaxes(1, 2)
    return np.linalg.eigh(0.5 * (B + B.swapaxes(1, 2)))[0][:, ::-1]


def _symmetrized(a: np.ndarray) -> np.ndarray:
    aT = a.swapaxes(1, 2)
    asym = np.abs(a - aT).max(axis=(1, 2))
    bad = np.flatnonzero(asym > 1e-12 * np.maximum(1.0, np.abs(a).max(axis=(1, 2))))
    if bad.size:
        raise ValueError(f"matrix {bad[0]} of the stack is not symmetric "
                         f"(max asymmetry {asym[bad[0]]:.3e})")
    return 0.5 * (a + aT)


def tensor_norm(t, g=None) -> float:
    """Squared g-norm of a tensor with all indices raised by g^{-1}: with
    g = L L^T, the sum of squares of t with L^{-1} applied to every index."""
    t = np.asarray(t, dtype=float)
    if any(n != DIM for n in t.shape):
        raise ValueError(f"expected a tensor with every axis of length 4, got {t.shape}")
    g = _sym2(np.eye(DIM) if g is None else g)
    Linv = np.linalg.inv(_cholesky_spd(g))
    for _ in range(t.ndim):  # whiten the leading index, then rotate it to the back
        t = (Linv @ t.reshape(DIM, -1)).T
    return float(np.sum(np.square(t.ravel())))  # t's index order: g = I adds as t * t
