"""Closed-form connection and curvature of the structured metric families.

All outputs live in the orthonormal adapted frame E_1 = d/ds,
E_2 = p^{-1} d/dt, E_3, E_4 = fiber frame / h (for warped3: E_2..E_4 span
the fiber).  With a = p'/p and b = h'/h the nonzero sectional curvatures of
the doubly-warped ansatz are

    R_1221 = -p''/p,   R_1331 = R_1441 = -h''/h,
    R_2332 = R_2442 = -a b,   R_3443 = -b^2 + k/h^2,

and for the 3-fiber warped product R_1ii1 = -h''/h, R_ijji = -b^2 + k/h^2.
Ricci eigenvalues and scalar curvature follow by contraction.  The
divergence-free-Weyl structure forces p''/p = h''/h; operations prefixed
``dw_`` enforce that as a precondition, while the ``*_table`` functions
evaluate the unconstrained formulas (needed to diagnose violating inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .families import (KIND_WARPED3, FiberProfile, MetricFamily, Profile,
                       fiber_profile_eval)
from .frames import (DIM, Frame4, ricci_from_riemann, tensor_norm,
                     weyl_from_riemann)

DW_CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class DWConnection:
    """Connection coefficients of the doubly-warped ansatz at a point.

    In this gauge every other rotation coefficient of the adapted frame
    (frame rotation along E_1, fiber rotation along E_2, and the E_3
    counterpart of beta_4) vanishes identically, so these three numbers
    determine the connection.
    """

    zeta2: float   # p'/p
    zeta3: float   # h'/h (= zeta4)
    beta4: float   # u'(r) / (h u(r))


@dataclass(frozen=True)
class CurvatureBundle:
    """Christoffel symbols, curvature tensors and the Codazzi residual of
    ``Ric - (R/6) g`` at one point, in the declared frame.

    ``christoffel[k, i, j]`` is ``<grad_{E_i} E_j, E_k>`` in an orthonormal
    frame and the coordinate symbol ``Gamma^k_ij`` in a coordinate frame.
    """

    frame: Frame4
    g: np.ndarray
    christoffel: np.ndarray
    riem: np.ndarray
    ric: np.ndarray
    scalar: float
    weyl: np.ndarray
    codazzi_residual: np.ndarray

    def weyl_norm_sq(self) -> float:
        return tensor_norm(self.weyl, self.g)

    def codazzi_norm_sq(self) -> float:
        return tensor_norm(self.codazzi_residual, self.g)


@dataclass(frozen=True)
class DWTable:
    """Pointwise curvature data of g = ds^2 + p^2 dt^2 + h^2 gt."""

    s: float
    a: float
    b: float
    pddp: float      # p''/p
    hddh: float      # h''/h
    k_h2: float      # k / h^2
    lam1: float
    lam2: float
    lam3: float
    scalar: float
    lam1p: float
    lam2p: float
    lam3p: float
    scalarp: float

    @property
    def constraint_residual(self) -> float:
        return abs(self.pddp - self.hddh)

    def eigenvalues(self) -> tuple[float, float, float, float]:
        return (self.lam1, self.lam2, self.lam3, self.lam3)

    def sectionals(self) -> dict[tuple[int, int], float]:
        """Nonzero R_ijji by (0-based) plane index."""
        return {(0, 1): -self.pddp, (0, 2): -self.hddh, (0, 3): -self.hddh,
                (1, 2): -self.a * self.b, (1, 3): -self.a * self.b,
                (2, 3): -self.b ** 2 + self.k_h2}


@dataclass(frozen=True)
class W3Table:
    """Pointwise curvature data of g = ds^2 + h^2 gt over a 3-d fiber."""

    s: float
    b: float
    hddh: float
    k_h2: float
    lam1: float
    lamf: float
    scalar: float
    lam1p: float
    lamfp: float
    scalarp: float

    def eigenvalues(self) -> tuple[float, float, float, float]:
        return (self.lam1, self.lamf, self.lamf, self.lamf)

    def sectionals(self) -> dict[tuple[int, int], float]:
        fib = -self.b ** 2 + self.k_h2
        return {(0, 1): -self.hddh, (0, 2): -self.hddh, (0, 3): -self.hddh,
                (1, 2): fib, (1, 3): fib, (2, 3): fib}


def _positive(profile: Profile, s: float, name: str) -> float:
    v = profile.value(s)
    if v <= 0.0:
        raise DomainError(f"{name}(s) = {v!r} is not positive at s={s!r}")
    return v


def dw_table(p: Profile, h: Profile, k: float, s: float) -> DWTable:
    """Unconstrained curvature table of the doubly-warped ansatz at s."""
    pv, hv = _positive(p, s, "p"), _positive(h, s, "h")
    a, b = p.d1(s) / pv, h.d1(s) / hv
    pddp, hddh = p.d2(s) / pv, h.d2(s) / hv
    k_h2 = k / hv**2
    lam1 = -pddp - 2.0 * hddh
    lam2 = -pddp - 2.0 * a * b
    lam3 = -hddh - a * b - b * b + k_h2
    scalar = lam1 + lam2 + 2.0 * lam3
    # s-derivatives (third profile derivatives enter only here)
    ap, bp = pddp - a * a, hddh - b * b
    pddp_p = p.d3_or_fd(s) / pv - pddp * a
    hddh_p = h.d3_or_fd(s) / hv - hddh * b
    ab_p = ap * b + a * bp
    lam1p = -pddp_p - 2.0 * hddh_p
    lam2p = -pddp_p - 2.0 * ab_p
    lam3p = -hddh_p - ab_p - 2.0 * b * bp - 2.0 * k_h2 * b
    return DWTable(s, a, b, pddp, hddh, k_h2, lam1, lam2, lam3, scalar,
                   lam1p, lam2p, lam3p, lam1p + lam2p + 2.0 * lam3p)


def warp3_table(h: Profile, k: float, s: float) -> W3Table:
    hv = _positive(h, s, "h")
    b = h.d1(s) / hv
    hddh = h.d2(s) / hv
    k_h2 = k / hv**2
    lam1 = -3.0 * hddh
    lamf = -hddh - 2.0 * b * b + 2.0 * k_h2
    bp = hddh - b * b
    hddh_p = h.d3_or_fd(s) / hv - hddh * b
    lam1p = -3.0 * hddh_p
    lamfp = -hddh_p - 4.0 * b * bp - 4.0 * k_h2 * b
    return W3Table(s, b, hddh, k_h2, lam1, lamf, lam1 + 3.0 * lamf,
                   lam1p, lamfp, lam1p + 3.0 * lamfp)


def _check_dw_constraint(t: DWTable) -> None:
    res = t.constraint_residual
    if res > DW_CONSTRAINT_TOL * max(1.0, abs(t.pddp), abs(t.hddh)):
        raise PreconditionError("p''/p != h''/h: input is outside the "
                                "divergence-free-Weyl ansatz", res)


def dw_ricci(p: Profile, h: Profile, k: float, s: float):
    """Frame-diagonal Ricci eigenvalues and scalar curvature at s.

    Requires p''/p = h''/h (to DW_CONSTRAINT_TOL); with that constraint
    lam1 = -3 h''/h, lam2 = -h''/h - 2(p'/p)(h'/h), and
    lam3 = lam4 = -h''/h - (p'/p)(h'/h) - (h'/h)^2 + k/h^2.
    """
    t = dw_table(p, h, k, s)
    _check_dw_constraint(t)
    return t.lam1, t.lam2, t.lam3, t.lam3, t.scalar


def warp3_ricci(h: Profile, k: float, s: float):
    """(lam1, lam_fiber, R) of the 3-fiber warped product at s."""
    t = warp3_table(h, k, s)
    return t.lam1, t.lamf, t.scalar


def _riemann_from_sectionals(sec: dict[tuple[int, int], float]) -> np.ndarray:
    riem = np.zeros((DIM, DIM, DIM, DIM))
    for (i, j), kv in sec.items():
        riem[i, j, j, i] = riem[j, i, i, j] = kv
        riem[i, j, i, j] = riem[j, i, j, i] = -kv
    return riem


def codazzi_components(t: DWTable | W3Table) -> tuple[float, float, float]:
    """(D_2, D_3, D_4) of the closed-form Codazzi residual of Ric - (R/6) g,
    D_i = lam_i' + zeta_i (lam_i - lam_1) - R'/6, with zeta_i = (a, b, b)
    on the doubly-warped ansatz and (b, b, b) on the 3-fiber warped one.
    These are the only components that can be nonzero on the ansaetze."""
    if isinstance(t, W3Table):
        zetas, primes, eigs = (t.b,) * 3, (t.lamfp,) * 3, (t.lamf,) * 3
    else:
        zetas = (t.a, t.b, t.b)
        primes = (t.lam2p, t.lam3p, t.lam3p)
        eigs = (t.lam2, t.lam3, t.lam3)
    return tuple(ep + z * (e - t.lam1) - t.scalarp / 6.0
                 for ep, z, e in zip(primes, zetas, eigs))


def _bundle_from_table(christoffel, t: DWTable | W3Table) -> CurvatureBundle:
    g = np.eye(DIM)
    riem = _riemann_from_sectionals(t.sectionals())
    ric = ricci_from_riemann(riem)
    weyl = weyl_from_riemann(riem, ric, t.scalar, g)
    codazzi = np.zeros((DIM, DIM, DIM))  # C_1ii = -C_i1i = D_i, zero otherwise
    for i, d in enumerate(codazzi_components(t), start=1):
        codazzi[0, i, i] = d
        codazzi[i, 0, i] = -d
    return CurvatureBundle(Frame4("orthonormal", ("E1", "E2", "E3", "E4")), g,
                           christoffel, riem, ric, t.scalar, weyl, codazzi)


def dw_connection(p: Profile, h: Profile, k: float, s: float, r: float) -> DWConnection:
    pv, hv = _positive(p, s, "p"), _positive(h, s, "h")
    u, up, _ = fiber_profile_eval(FiberProfile(k), r)
    return DWConnection(p.d1(s) / pv, h.d1(s) / hv, up / (hv * u))


def _dw_bundle_unchecked(p: Profile, h: Profile, k: float, point) -> CurvatureBundle:
    s, _, r, _ = (float(x) for x in point)
    t = dw_table(p, h, k, s)
    conn = dw_connection(p, h, k, s, r)
    gam = np.zeros((DIM, DIM, DIM))
    a, b, b4 = conn.zeta2, conn.zeta3, conn.beta4
    for i, z in ((1, a), (2, b), (3, b)):
        gam[i, i, 0] = z      # <grad_{E_i} E_1, E_i> = zeta_i
        gam[0, i, i] = -z     # grad_{E_i} E_i = -zeta_i E_1 (+ beta_4 E_3 for i=4)
    gam[2, 3, 3] = b4
    gam[3, 3, 2] = -b4
    return _bundle_from_table(gam, t)


def dw_full_bundle(p: Profile, h: Profile, k: float, point) -> CurvatureBundle:
    """Full curvature bundle of the doubly-warped ansatz at (s, t, r, theta).

    Orthonormal adapted frame; requires the p''/p = h''/h constraint.  The
    connection is zeta_2, zeta_3 = zeta_4 and beta_4 = u'(r)/(h u(r)), with
    grad_{E_4} E_4 = -zeta_4 E_1 + beta_4 E_3 and grad_{E_4} E_3 = -beta_4 E_4.
    """
    _check_dw_constraint(dw_table(p, h, k, float(point[0])))
    return _dw_bundle_unchecked(p, h, k, point)


def warp3_full_bundle(h: Profile, k: float, point) -> CurvatureBundle:
    """Full curvature bundle of the 3-fiber warped product at
    (s, r, theta, phi), in the orthonormal adapted frame."""
    s, r, theta, _ = (float(x) for x in point)
    t = warp3_table(h, k, s)
    hv = h.value(s)
    u, up, _ = fiber_profile_eval(FiberProfile(k), r)
    g_r = up / (hv * u)
    g_t = math.cos(theta) / (math.sin(theta) * hv * u)
    b = t.b
    gam = np.zeros((DIM, DIM, DIM))
    for i in (1, 2, 3):
        gam[i, i, 0] = b
        gam[0, i, i] = -b
    gam[2, 2, 1] = g_r      # <grad_{E_3} E_2, E_3>  (E_2 radial in the fiber)
    gam[1, 2, 2] = -g_r
    gam[3, 3, 1] = g_r
    gam[1, 3, 3] = -g_r
    gam[3, 3, 2] = g_t
    gam[2, 3, 3] = -g_t
    return _bundle_from_table(gam, t)


# ---------------------------------------------------------------------------
# family-level dispatch (unconstrained: evaluates the true curvature of the
# stored profiles, including deliberately broken instances)

def family_table(m: MetricFamily, s: float):
    m.require(s)
    if m.kind == KIND_WARPED3:
        return warp3_table(m.h, m.k, s)
    return dw_table(m.p, m.h, m.k, s)


def family_eigenvalues(m: MetricFamily, s: float):
    """(lam1, lam2, lam3, lam4, R) in the adapted frame at s."""
    t = family_table(m, s)
    return (*t.eigenvalues(), t.scalar)


def family_bundle(m: MetricFamily, point) -> CurvatureBundle:
    m.require(float(point[0]))
    if m.kind == KIND_WARPED3:
        return warp3_full_bundle(m.h, m.k, point)
    return _dw_bundle_unchecked(m.p, m.h, m.k, point)


def family_weyl_sq(m: MetricFamily, s: float) -> float:
    """|W|^2 at s (fiber-point independent)."""
    t = family_table(m, s)
    riem = _riemann_from_sectionals(t.sectionals())
    ric = ricci_from_riemann(riem)
    w = weyl_from_riemann(riem, ric, t.scalar, np.eye(DIM))
    return tensor_norm(w)
