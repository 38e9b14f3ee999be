"""Structured 4-metric families, each with its canonical potential.

Every metric here is a block ansatz over an interval of the arc-length
variable s:

* doubly warped, when the family has a p profile:
  ``g = ds^2 + p(s)^2 dt^2 + h(s)^2 gt`` with ``gt`` a 2-d metric of
  constant curvature k, realized in polar-type coordinates ``(r, theta)``
  as ``dr^2 + u(r)^2 dtheta^2``;
* warped over a 3-d fiber, when ``p`` is None: ``g = ds^2 + h(s)^2 gt`` with
  ``gt`` a 3-d metric of constant curvature k in polar-type coordinates
  ``(r, theta, phi)``.

Profiles carry exact derivatives up to third order; no numerical
differentiation happens in this module or in the closed forms built on it.
Every profile callable takes either a Python float, evaluated with `math`
exactly as a scalar formula would be, or an array of s, evaluated
elementwise with numpy.

A family is one `MetricFamily` record: the metric profiles and, on the
canonical families, ``soliton = SolitonData(f, lam)``, the potential profile
and the soliton constant that make it a gradient Ricci soliton, and on the
product and the singular steady metric ``reduced``, their start of the
reduced system of :mod:`solitonlab.reduced`.  Everything
else the soliton equation needs (the frame coefficients zeta_i, the Ricci
eigenvalues) is read from the family's curvature table in
:mod:`solitonlab.curvature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, UnsupportedFamilyError
from .reduced import ReducedState, product_state, singular_steady_state

BOUNDARY_MARGIN = 1e-6


def first_failure(ok, s):
    """None when ``ok`` holds at every s, else the first s (a float) where it
    fails; ``ok`` and ``s`` are both scalars or broadcast together."""
    if isinstance(ok, bool):
        return None if ok else s
    if ok.all():
        return None
    return float(np.broadcast_to(s, ok.shape).flat[np.argmin(ok)])


# ---------------------------------------------------------------------------
# profiles

Fn = Callable[[float], float]


@dataclass(frozen=True)
class Profile:
    """A profile of s with its first three derivatives, each a callable of a
    float or an array of s."""

    value: Fn
    d1: Fn
    d2: Fn
    d3: Fn
    label: str = ""


def _elementwise(scalar: Fn, array: Fn) -> Fn:
    return lambda s: scalar(s) if isinstance(s, (int, float)) else array(s)


def _const(c: float) -> Fn:
    return lambda s: c if isinstance(s, (int, float)) else np.full(np.shape(s), c)


def constant_profile(c: float) -> Profile:
    return Profile(_const(c), _const(0.0), _const(0.0), _const(0.0), f"{c:g}")


def power_profile(coef: float, expo: float) -> Profile:
    """c * s**e with exact derivatives."""

    def d(order: int) -> Fn:
        fac = coef
        e = expo
        for _ in range(order):
            fac *= e
            e -= 1.0
        return lambda s, fac=fac, e=e: fac * s**e

    return Profile(d(0), d(1), d(2), d(3), f"{coef:g}*s^{expo:g}")


def sin_profile() -> Profile:
    return Profile(_elementwise(math.sin, np.sin), _elementwise(math.cos, np.cos),
                   _elementwise(lambda s: -math.sin(s), lambda s: -np.sin(s)),
                   _elementwise(lambda s: -math.cos(s), lambda s: -np.cos(s)), "sin(s)")


def log_profile(coef: float) -> Profile:
    """c * ln(s)."""
    return Profile(
        _elementwise(lambda s: coef * math.log(s), lambda s: coef * np.log(s)),
        lambda s: coef / s,
        lambda s: -coef / s**2,
        lambda s: 2.0 * coef / s**3,
        f"{coef:g}*ln(s)",
    )


def quadratic_potential(lam: float) -> Profile:
    """f(s) = lam * s^2 / 2, the rigid-soliton potential along a flat factor."""
    return Profile(
        lambda s: 0.5 * lam * s**2,
        lambda s: lam * s,
        _const(lam),
        _const(0.0),
        f"{lam:g}*s^2/2",
    )


# ---------------------------------------------------------------------------
# constant-curvature fiber profile u(r)

def fiber_profile_eval(k: float, r: float) -> tuple[float, float, float]:
    """(u, u', u'') at r of the radial profile of a fiber of constant
    curvature k in polar-type coordinates, on the sine / linear / sinh
    branch by sign of k.

    u solves u'' = -k u with u(0) = 0, u'(0) = 1, so the fiber metric
    ``dr^2 + u(r)^2 dtheta^2`` (and its 3-d analogue) has constant curvature
    k and no cone singularity at r = 0; r must lie in (0, pi/sqrt(k)) for
    k > 0 and in (0, inf) otherwise.
    """
    r_max = math.pi / math.sqrt(k) if k > 0 else math.inf
    if not BOUNDARY_MARGIN <= r <= r_max - BOUNDARY_MARGIN:
        raise DomainError(f"r={r!r} outside fiber domain (0, {r_max!r})")
    if k > 0:
        rk = math.sqrt(k)
        u = math.sin(rk * r) / rk
        return u, math.cos(rk * r), -k * u
    if k < 0:
        rk = math.sqrt(-k)
        u = math.sinh(rk * r) / rk
        return u, math.cosh(rk * r), -k * u
    return r, 1.0, 0.0


# ---------------------------------------------------------------------------
# metric families

@dataclass(frozen=True)
class SolitonData:
    """Potential profile f(s) and soliton constant lambda."""

    f: Profile
    lam: float


@dataclass(frozen=True)
class MetricFamily:
    """A parametric structured 4-metric with its canonical potential.

    ``p`` is ``None`` exactly for the warped product over a 3-d fiber (no
    t-circle).  ``soliton`` is the canonical (f, lam) making the family a
    gradient Ricci soliton, with additive constants in f normalized to zero,
    or ``None`` for a family without one.  ``reduced`` maps s0 to the
    family's `ReducedState` at s0, or is ``None`` for a family outside the
    doubly-warped reduction.  ``name`` tags canonical instances
    ("product", "singular_steady", "gaussian", "cylinder", "sphere", "flat",
    "broken_product"); it is empty for user-assembled profiles.
    """

    h: Profile
    k: float
    p: Profile | None = None
    soliton: SolitonData | None = None
    reduced: Callable[[float], ReducedState] | None = None
    domain: tuple[float, float] = (BOUNDARY_MARGIN, math.inf)
    name: str = ""

    def require(self, s) -> None:
        """Raise DomainError naming the first s (a float, or elementwise for
        an array) outside the domain."""
        # infinite endpoints absorb the margin (inf - m == inf)
        lo, hi = self.domain
        bad = first_failure((s >= lo + BOUNDARY_MARGIN) & (s <= hi - BOUNDARY_MARGIN), s)
        if bad is not None:
            raise DomainError(f"s={bad!r} outside family domain {self.domain}")


def product_family(lam: float = -1.0) -> MetricFamily:
    """R^2 x N: g = ds^2 + s^2 dt^2 + gt, fiber of constant curvature lam != 0,
    with f = lam s^2 / 2."""
    if lam == 0.0:
        raise ValueError("the product family needs lam != 0")
    return MetricFamily(constant_profile(1.0), lam, p=power_profile(1.0, 1.0),
                        soliton=SolitonData(quadratic_potential(lam), lam),
                        reduced=lambda s0: product_state(s0, lam), name="product")


def singular_steady_family() -> MetricFamily:
    """g = ds^2 + s^(2/3) dt^2 + s^(4/3) gt with flat 2-d fiber, on s > 0, with
    lam = 0 and f = (2/3) ln s."""
    return MetricFamily(power_profile(1.0, 2.0 / 3.0), 0.0, p=power_profile(1.0, 1.0 / 3.0),
                        soliton=SolitonData(log_profile(2.0 / 3.0), 0.0),
                        reduced=singular_steady_state, name="singular_steady")


def gaussian_family(lam: float = 1.0) -> MetricFamily:
    """Flat warped product g = ds^2 + s^2 g_{S^3} (polar R^4), f = lam s^2 / 2."""
    return MetricFamily(power_profile(1.0, 1.0), 1.0,
                        soliton=SolitonData(quadratic_potential(lam), lam), name="gaussian")


def cylinder_family(lam: float = 2.0) -> MetricFamily:
    """R x M^3: g = ds^2 + gt with gt of constant curvature lam/2 != 0, with
    f = lam s^2 / 2."""
    if lam == 0.0:
        raise ValueError("the cylinder family needs lam != 0")
    return MetricFamily(constant_profile(1.0), 0.5 * lam,
                        soliton=SolitonData(quadratic_potential(lam), lam),
                        domain=(-math.inf, math.inf), name="cylinder")


def sphere_family() -> MetricFamily:
    """The unit round 4-sphere in polar form, an Einstein instance: Ric = 3g, f = 0."""
    return MetricFamily(sin_profile(), 1.0, soliton=SolitonData(constant_profile(0.0), 3.0),
                        domain=(BOUNDARY_MARGIN, math.pi - BOUNDARY_MARGIN), name="sphere")


def flat_family() -> MetricFamily:
    """Flat product chart: p = h = 1, k = 0 (Einstein with lam = 0, f = 0)."""
    return MetricFamily(constant_profile(1.0), 0.0, p=constant_profile(1.0),
                        soliton=SolitonData(constant_profile(0.0), 0.0),
                        domain=(-math.inf, math.inf), name="flat")


def broken_family() -> MetricFamily:
    """g = ds^2 + s^2 dt^2 + s * gt (k = 1): a deliberate negative control,
    with no potential.

    This metric does not satisfy the divergence-free-Weyl structure
    (p''/p != h''/h), so the Codazzi residual checks must reject it.
    """
    return MetricFamily(power_profile(1.0, 0.5), 1.0, p=power_profile(1.0, 1.0),
                        name="broken_product")


CANONICAL_FAMILIES = {
    "singular_steady": singular_steady_family,
    "product": product_family,
    "gaussian": gaussian_family,
    "cylinder": cylinder_family,
    "sphere": sphere_family,
    "flat": flat_family,
    "broken_product": broken_family,
}
# the families whose constructor takes the soliton constant lam
PARAMETRIC_FAMILIES = ("product", "gaussian", "cylinder")


def canonical_family(name: str, lam: float | None = None) -> MetricFamily:
    """The canonical family called ``name``; ``lam`` sets the soliton
    constant of the parametric ones (product, gaussian, cylinder), whose
    constructors hold its default, and the others ignore it."""
    if name not in CANONICAL_FAMILIES:
        raise UnsupportedFamilyError(f"unknown family name {name!r}")
    build = CANONICAL_FAMILIES[name]
    return build() if lam is None or name not in PARAMETRIC_FAMILIES else build(lam)


def require_positive(v, s, profile: Profile, name: str):
    """``v``, the values of ``profile`` at s (a float, or an array of s),
    after a DomainError naming the first s where one is not real and
    positive; a fractional power of a negative s is complex at a float."""
    if not isinstance(v, np.ndarray):
        ok = not isinstance(v, complex) and v > 0.0
    elif np.iscomplexobj(v):
        ok = np.isreal(v) & (v.real > 0.0)
    else:
        ok = v > 0.0
    bad = first_failure(ok, s)
    if bad is not None:
        raise DomainError(f"{name}(s) = {profile.value(bad)!r} is not positive "
                          f"at s={bad!r}")
    return v


def _positive_values(profile: Profile, s: np.ndarray, name: str) -> np.ndarray:
    """The profile at each s, evaluated one Python float at a time, after
    `require_positive`."""
    return require_positive(np.array([profile.value(x) for x in s.tolist()]), s,
                            profile, name)


def family_diagonal(m: MetricFamily, s, r, theta=None) -> np.ndarray:
    """The diagonal of the family metric on the product of the 1-d axes s,
    r and, for warped3 only, theta, which is all of it: every family metric
    is diagonal in its chart.

    Doubly-warped families use coordinates (s, t, r, theta) and give
    ``(1, p^2, h^2, h^2 u(r)^2)`` with shape (len(s), len(r), 4); warped3
    (``p is None``) uses (s, r, theta, phi) and gives
    ``(1, h^2, h^2 u^2, h^2 u^2 sin^2 theta)`` with shape
    (len(s), len(r), len(theta), 4).  The metric does not depend on the
    other coordinates.  Every s must lie in the family domain, p and h must
    be positive there, r in the fiber domain and theta in the polar chart;
    a DomainError names the first value that is not.  The entries are
    computed in place, so no temporary of the full shape is made.
    """
    if (theta is None) == (m.p is None):
        raise ValueError("theta is an axis of warped3 families only")
    s, r = np.asarray(s, dtype=float), np.asarray(r, dtype=float)
    m.require(s)
    h = _positive_values(m.h, s, "h")
    u = np.array([fiber_profile_eval(m.k, x)[0] for x in r.tolist()])
    if m.p is None:
        theta = np.asarray(theta, dtype=float)
        in_chart = (theta >= BOUNDARY_MARGIN) & (theta <= math.pi - BOUNDARY_MARGIN)
        bad = first_failure(in_chart, theta)
        if bad is not None:
            raise DomainError(f"theta={bad!r} outside polar chart (0, pi)")
        d = np.empty((len(s), len(r), len(theta), 4))
        hu = (h[:, None] * u[None, :])[:, :, None]
        d[..., 1] = h[:, None, None]
        d[..., 2] = hu
        np.multiply(hu, np.sin(theta), out=d[..., 3])
    else:
        d = np.empty((len(s), len(r), 4))
        d[..., 1] = _positive_values(m.p, s, "p")[:, None]
        d[..., 2] = h[:, None]
        np.multiply(h[:, None], u[None, :], out=d[..., 3])
    d[..., 0] = 1.0
    return np.square(d, out=d)  # d held the square roots of the entries


def family_metric(m: MetricFamily, s, r, theta=None) -> np.ndarray:
    """Coordinate components of the family metric, the matrices of
    `family_diagonal`: shape (len(s), len(r), 4, 4) for doubly-warped
    families and (len(s), len(r), len(theta), 4, 4) for warped3, with its
    checks."""
    d = family_diagonal(m, s, r, theta)
    g = np.zeros(d.shape + (4,))
    np.einsum("...ii->...i", g)[...] = d
    return g
