"""Rank-2 and rank-4 tensor algebra in a fixed 4-dimensional frame.

Tensors are plain ``numpy`` arrays: a symmetric 2-tensor is a ``(4, 4)``
array, a curvature-type 4-tensor a ``(4, 4, 4, 4)`` array.  Components of a
4-tensor follow the convention ``R[i, j, k, l] = <R(E_i, E_j) E_k, E_l>``
with ``R(X, Y) = grad_X grad_Y - grad_Y grad_X - grad_[X,Y]``, so the
sectional curvature of the (E_i, E_j) plane is ``R[i, j, j, i]`` and a space
of constant curvature c has ``R[i, j, k, l] = c (g_il g_jk - g_ik g_jl)``.
The Ricci tensor is the contraction ``Ric_jl = sum_i R[j, i, i, l]`` (indices
raised with g in a non-orthonormal frame), which makes ``Ric = 3c g`` on a
constant-curvature 4-space and reproduces the warped-product tables used in
:mod:`solitonlab.curvature`.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

DIM = 4


def as_sym2(m, tol: float = 0.0) -> np.ndarray:
    """Validate and return a (4, 4) symmetric array.

    With ``tol == 0`` the components must be symmetric exactly; a positive
    tolerance symmetrizes numerically produced input after checking the
    asymmetry stays below ``tol``.
    """
    a = np.asarray(m, dtype=float)
    if a.shape != (DIM, DIM):
        raise ValueError(f"expected a (4, 4) array, got {a.shape}")
    asym = abs(a - a.T).max()
    if asym > tol:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return 0.5 * (a + a.T) if tol > 0 else a


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
    t = np.asarray(t, dtype=float)
    t = as_sym2(t, tol=1e-12 * max(1.0, float(abs(t).max())))
    if g is None:
        g = np.eye(DIM)
    else:
        g = np.asarray(g, dtype=float)
        g = as_sym2(g, tol=1e-12 * max(1.0, float(abs(g).max())))
    L = _cholesky_spd(g)
    Linv = np.linalg.inv(L)
    B = Linv @ t @ Linv.T
    B = 0.5 * (B + B.T)
    w, Y = np.linalg.eigh(B)  # ascending
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


def weyl_from_riemann(riem, ric, scalar: float, g) -> np.ndarray:
    """Weyl part of a curvature tensor in dimension four.

    Subtracts the Ricci and scalar parts of the standard orthogonal
    decomposition, with signs matched to the component convention stated in
    the module docstring so that a constant-curvature input yields zero:

    ``W_ijkl = R_ijkl + (g_ik A_jl - g_il A_jk + g_jl A_ik - g_jk A_il) / 2
      - (R / 6) (g_ik g_jl - g_il g_jk)``
    """
    r = np.asarray(riem, dtype=float)
    ric = np.asarray(ric, dtype=float)
    ric = as_sym2(ric, tol=1e-9 * max(1.0, float(np.max(np.abs(ric)))))
    g = np.asarray(g, dtype=float)
    g = as_sym2(g, tol=1e-12 * max(1.0, float(np.max(np.abs(g)))))
    gr = np.einsum("ik,jl->ijkl", g, ric)  # gr[i,j,k,l] = g_ik Ric_jl
    gg = np.einsum("ik,jl->ijkl", g, g)
    kulkarni = gr - gr.transpose(0, 1, 3, 2) + gr.transpose(1, 0, 3, 2) - gr.transpose(1, 0, 2, 3)
    metric_part = gg - gg.transpose(0, 1, 3, 2)
    return r + 0.5 * kulkarni - (scalar / 6.0) * metric_part


def tensor_norm(t, g=None) -> float:
    """Squared g-norm of a tensor with all indices raised by g^{-1}: with
    g = L L^T, the sum of squares of t with L^{-1} applied to every index."""
    t = np.asarray(t, dtype=float)
    if any(n != DIM for n in t.shape):
        raise ValueError(f"expected a tensor with every axis of length 4, got {t.shape}")
    g = np.eye(DIM) if g is None else np.asarray(g, dtype=float)
    g = as_sym2(g, tol=1e-12 * max(1.0, float(np.max(np.abs(g)))))
    Linv = np.linalg.inv(_cholesky_spd(g))
    for _ in range(t.ndim):  # whiten the leading index, then rotate it to the back
        t = (Linv @ t.reshape(DIM, -1)).T
    return float(np.sum(np.square(t.ravel())))  # t's index order: g = I adds as t * t


def ricci_from_riemann(riem, g=None) -> np.ndarray:
    """Contract a curvature 4-tensor to its Ricci tensor, ``sum_i R[j,i,i,l]``."""
    r = np.asarray(riem, dtype=float)
    if g is None:
        return np.einsum("jiil->jl", r)
    ginv = np.linalg.inv(as_sym2(g))
    return np.einsum("ab,jabl->jl", ginv, r)

