"""Tensor checks shared by the test modules.

Components of a 4-tensor follow the convention
``R[i, j, k, l] = <R(E_i, E_j) E_k, E_l>`` with
``R(X, Y) = grad_X grad_Y - grad_Y grad_X - grad_[X,Y]``, so the sectional
curvature of the (E_i, E_j) plane is ``R[i, j, j, i]``, a space of constant
curvature c has ``R[i, j, k, l] = c (g_il g_jk - g_ik g_jl)``, and its Ricci
tensor, ``Ric_jl = g^ab R[j, a, b, l]``, is 3c g.
"""

import numpy as np

from solitonlab.fdgrid import MetricGrid
from solitonlab.frames import DIM


def riemann_symmetry_residuals(riem: np.ndarray) -> dict[str, float]:
    """Max violation of each algebraic curvature symmetry.

    Keys: ``antisym_first`` (i <-> j), ``antisym_last`` (k <-> l),
    ``pair`` ((ij) <-> (kl)) and ``bianchi`` (first Bianchi cyclic sum).
    """
    r = np.asarray(riem, dtype=float)
    return {
        "antisym_first": float(np.max(np.abs(r + np.swapaxes(r, 0, 1)))),
        "antisym_last": float(np.max(np.abs(r + np.swapaxes(r, 2, 3)))),
        "pair": float(np.max(np.abs(r - np.transpose(r, (2, 3, 0, 1))))),
        "bianchi": float(
            np.max(
                np.abs(r + np.transpose(r, (1, 2, 0, 3)) + np.transpose(r, (2, 0, 1, 3)))
            )
        ),
    }


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


def smooth_random_grid(shape, seed=0, spacing=0.1):
    """A dense grid of the smooth, non-diagonal metric
    g = I + 0.05 sum_k (A_k + A_k^T) sin(k . x + phi_k), three random waves."""
    rng = np.random.default_rng(seed)
    axes = tuple(np.arange(n) * spacing for n in shape)
    x = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    g = np.tile(np.eye(4), shape + (1, 1))
    for _ in range(3):
        a = rng.standard_normal((4, 4))
        wave = np.sin(x @ rng.uniform(-1.5, 1.5, 4) + rng.uniform(0.0, 2.0 * np.pi))
        g += 0.05 * (a + a.T) * wave[..., None, None]
    return MetricGrid(axes, g)


def ricci_from_riemann(riem, g) -> np.ndarray:
    """Contract a curvature 4-tensor to its Ricci tensor with g,
    ``Ric_jl = g^ab R[j, a, b, l]``."""
    ginv = np.linalg.inv(as_sym2(g))
    return np.einsum("ab,jabl->jl", ginv, np.asarray(riem, dtype=float))

