"""Checks shared by the test modules, and the closed-form rank-4 reference.

`family_bundle` assembles the full curvature of a family at one point, in
the orthonormal adapted frame, from the closed-form tables of
`solitonlab.curvature`; the tables' eigenvalues, Codazzi components and
`family_weyl_sq` are tested against its tensors.  Components of a 4-tensor follow the convention
``R[i, j, k, l] = <R(E_i, E_j) E_k, E_l>`` with
``R(X, Y) = grad_X grad_Y - grad_Y grad_X - grad_[X,Y]``, so the sectional
curvature of the (E_i, E_j) plane is ``R[i, j, j, i]`` and a space of
constant curvature c has ``R[i, j, k, l] = c (g_il g_jk - g_ik g_jl)``.  The
Ricci tensor is the contraction ``Ric_jl = sum_i R[j, i, i, l]`` (indices
raised with g in a non-orthonormal frame), which makes ``Ric = 3c g`` on a
constant-curvature 4-space and reproduces the tables of
`solitonlab.curvature`.
"""

import math

import numpy as np

from solitonlab.curvature import PLANES, codazzi_components, family_table
from solitonlab.families import MetricFamily, fiber_profile_eval
from solitonlab.fdgrid import CurvatureBundle
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


def ricci_from_riemann(riem, g=None) -> np.ndarray:
    """Contract a curvature 4-tensor to its Ricci tensor, ``sum_i R[j,i,i,l]``."""
    r = np.asarray(riem, dtype=float)
    if g is None:
        return np.einsum("jiil->jl", r)
    ginv = np.linalg.inv(as_sym2(g))
    return np.einsum("ab,jabl->jl", ginv, r)


def family_bundle(m: MetricFamily, point) -> CurvatureBundle:
    """Full curvature bundle of ``m`` at a point (s, t, r, theta) of a
    doubly-warped chart or (s, r, theta, phi) of warped3, in the orthonormal
    adapted frame.

    The connection is zeta_i plus the fiber rotations
    (k, i, j, <grad_{E_i} E_j, E_k>), each with its metric-compatible partner
    <grad_{E_i} E_k, E_j> = -value; in this gauge every other rotation
    coefficient vanishes identically.  Doubly-warped: beta_4 =
    <grad_{E_4} E_4, E_3> = u'(r)/(h u(r)).  Warped3, with E_2 radial:
    <grad_{E_3} E_2, E_3> = <grad_{E_4} E_2, E_4> = u'/(h u) and
    <grad_{E_4} E_3, E_4> = cot(theta)/(h u).
    """
    point = tuple(float(x) for x in point)
    s = point[0]
    t = family_table(m, s)
    hv = m.h.value(s)
    if m.p is None:
        _, r, theta, _ = point
        u, up, _ = fiber_profile_eval(m.k, r)
        g_r = up / (hv * u)
        g_t = math.cos(theta) / (math.sin(theta) * hv * u)
        rotations = [(2, 2, 1, g_r), (3, 3, 1, g_r), (3, 3, 2, g_t)]
    else:
        u, up, _ = fiber_profile_eval(m.k, point[2])
        rotations = [(2, 3, 3, up / (hv * u))]
    gam = np.zeros((DIM, DIM, DIM))
    # zeta_i = <grad_{E_i} E_1, E_i>: grad_{E_i} E_i = -zeta_i E_1 + fiber terms
    for k, i, j, v in [(i, i, 0, z) for i, z in enumerate(t.zeta, start=1)] + rotations:
        gam[k, i, j] = v
        gam[j, i, k] = -v
    g = np.eye(DIM)
    riem = np.zeros((DIM, DIM, DIM, DIM))
    for (i, j), kv in zip(PLANES, t.sectional):
        riem[i, j, j, i] = riem[j, i, i, j] = kv
        riem[i, j, i, j] = riem[j, i, j, i] = -kv
    ric = ricci_from_riemann(riem)
    weyl = weyl_from_riemann(riem, ric, t.scalar, g)
    codazzi = np.zeros((DIM, DIM, DIM))  # C_1ii = -C_i1i = D_i, zero otherwise
    for i, d in enumerate(codazzi_components(t), start=1):
        codazzi[0, i, i] = d
        codazzi[i, 0, i] = -d
    return CurvatureBundle(g, gam, riem, ric, t.scalar, weyl, codazzi)
