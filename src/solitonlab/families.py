"""Structured 4-metric families and their potential functions.

Every metric here is a block ansatz over an interval of the arc-length
variable s:

* ``doubly_warped`` (and its named specializations ``product_R2xN`` and
  ``singular_steady``): ``g = ds^2 + p(s)^2 dt^2 + h(s)^2 gt`` with ``gt`` a
  2-d metric of constant curvature k, realized in polar-type coordinates
  ``(r, theta)`` as ``dr^2 + u(r)^2 dtheta^2``.
* ``warped3``: ``g = ds^2 + h(s)^2 gt`` with ``gt`` a 3-d metric of constant
  curvature k in polar-type coordinates ``(r, theta, phi)``.

Profiles carry exact derivatives up to third order; no numerical
differentiation happens in this module or in the closed forms built on it.
Every profile callable takes either a Python float, evaluated with `math`
exactly as a scalar formula would be, or an array of s, evaluated
elementwise with numpy.

A soliton on a family is ``SolitonData(f, lam)``: the potential profile and
the soliton constant.  Everything else the soliton equation needs (the
frame coefficients zeta_i, the Ricci eigenvalues) is read from the family's
curvature table in :mod:`solitonlab.curvature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, UnsupportedFamilyError

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

@dataclass(frozen=True)
class FiberProfile:
    """Radial profile of a constant-curvature fiber in polar-type coordinates.

    u solves u'' = -k u with u(0) = 0, u'(0) = 1, so the fiber metric
    ``dr^2 + u(r)^2 dtheta^2`` (and its 3-d analogue) has constant curvature
    k and no cone singularity at r = 0.
    """

    k: float

    @property
    def r_max(self) -> float:
        return math.pi / math.sqrt(self.k) if self.k > 0 else math.inf

    def contains(self, r: float) -> bool:
        return BOUNDARY_MARGIN <= r <= self.r_max - BOUNDARY_MARGIN


def fiber_profile_eval(fp: FiberProfile, r: float) -> tuple[float, float, float]:
    """(u, u', u'') at r, on the sine / linear / sinh branch by sign of k."""
    if not fp.contains(r):
        raise DomainError(f"r={r!r} outside fiber domain (0, {fp.r_max!r})")
    k = fp.k
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

KIND_PRODUCT = "product_R2xN"
KIND_SINGULAR_STEADY = "singular_steady"
KIND_DOUBLY_WARPED = "doubly_warped"
KIND_WARPED3 = "warped3"

_DW_KINDS = (KIND_PRODUCT, KIND_SINGULAR_STEADY, KIND_DOUBLY_WARPED)


@dataclass(frozen=True)
class MetricFamily:
    """A parametric structured 4-metric.

    ``p`` is ``None`` exactly for ``warped3`` (3-d fiber, no t-circle).
    ``name`` tags canonical instances ("product", "singular_steady",
    "gaussian", "cylinder", "sphere", "flat", "broken_product"); it is empty
    for user-assembled profiles.
    """

    kind: str
    h: Profile
    k: float
    p: Profile | None = None
    lam: float | None = None
    domain: tuple[float, float] = (BOUNDARY_MARGIN, math.inf)
    name: str = ""

    def __post_init__(self):
        if self.kind not in _DW_KINDS + (KIND_WARPED3,):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind in _DW_KINDS and self.p is None:
            raise ValueError(f"{self.kind} needs a p profile")
        if self.kind == KIND_WARPED3 and self.p is not None:
            raise ValueError("warped3 has no p profile")

    @property
    def fiber(self) -> FiberProfile:
        return FiberProfile(self.k)

    def coordinates(self) -> tuple[str, str, str, str]:
        if self.kind == KIND_WARPED3:
            return ("s", "r", "theta", "phi")
        return ("s", "t", "r", "theta")

    def contains(self, s):
        """Whether s (a float, or elementwise for an array) is in the domain."""
        # infinite endpoints absorb the margin (inf - m == inf)
        lo, hi = self.domain
        return (s >= lo + BOUNDARY_MARGIN) & (s <= hi - BOUNDARY_MARGIN)

    def require(self, s) -> None:
        """Raise DomainError naming the first s outside the domain."""
        bad = first_failure(self.contains(s), s)
        if bad is not None:
            raise DomainError(f"s={bad!r} outside family domain {self.domain}")


def doubly_warped_family(p: Profile, h: Profile, k: float,
                         domain=(BOUNDARY_MARGIN, math.inf), name="") -> MetricFamily:
    return MetricFamily(KIND_DOUBLY_WARPED, h, k, p=p, domain=domain, name=name)


def warped3_family(h: Profile, k: float, domain=(BOUNDARY_MARGIN, math.inf),
                   lam: float | None = None, name="") -> MetricFamily:
    return MetricFamily(KIND_WARPED3, h, k, lam=lam, domain=domain, name=name)


def product_family(lam: float = -1.0) -> MetricFamily:
    """R^2 x N: g = ds^2 + s^2 dt^2 + gt, fiber of constant curvature lam != 0."""
    if lam == 0.0:
        raise ValueError("the product family needs lam != 0")
    return MetricFamily(KIND_PRODUCT, constant_profile(1.0), lam,
                        p=power_profile(1.0, 1.0), lam=lam,
                        domain=(BOUNDARY_MARGIN, math.inf), name="product")


def singular_steady_family() -> MetricFamily:
    """g = ds^2 + s^(2/3) dt^2 + s^(4/3) gt with flat 2-d fiber, on s > 0."""
    return MetricFamily(KIND_SINGULAR_STEADY, power_profile(1.0, 2.0 / 3.0), 0.0,
                        p=power_profile(1.0, 1.0 / 3.0), lam=0.0,
                        domain=(BOUNDARY_MARGIN, math.inf), name="singular_steady")


def gaussian_family(lam: float = 1.0) -> MetricFamily:
    """Flat warped product g = ds^2 + s^2 g_{S^3}; polar chart of R^4."""
    return warped3_family(power_profile(1.0, 1.0), 1.0,
                          domain=(BOUNDARY_MARGIN, math.inf), lam=lam, name="gaussian")


def cylinder_family(lam: float = 2.0) -> MetricFamily:
    """R x M^3: g = ds^2 + gt with gt of constant curvature lam/2 != 0."""
    if lam == 0.0:
        raise ValueError("the cylinder family needs lam != 0")
    return warped3_family(constant_profile(1.0), 0.5 * lam,
                          domain=(-math.inf, math.inf), lam=lam, name="cylinder")


def sphere_family() -> MetricFamily:
    """The unit round 4-sphere in polar form, an Einstein instance (Ric = 3g)."""
    return warped3_family(sin_profile(), 1.0,
                          domain=(BOUNDARY_MARGIN, math.pi - BOUNDARY_MARGIN),
                          lam=3.0, name="sphere")


def flat_family() -> MetricFamily:
    """Flat product chart: p = h = 1, k = 0 (Einstein with lam = 0)."""
    return MetricFamily(KIND_DOUBLY_WARPED, constant_profile(1.0), 0.0,
                        p=constant_profile(1.0), lam=0.0,
                        domain=(-math.inf, math.inf), name="flat")


def broken_family() -> MetricFamily:
    """g = ds^2 + s^2 dt^2 + s * gt (k = 1): a deliberate negative control.

    This metric does not satisfy the divergence-free-Weyl structure
    (p''/p != h''/h), so the Codazzi residual checks must reject it.
    """
    return MetricFamily(KIND_DOUBLY_WARPED, power_profile(1.0, 0.5), 1.0,
                        p=power_profile(1.0, 1.0),
                        domain=(BOUNDARY_MARGIN, math.inf), name="broken_product")


CANONICAL_FAMILIES = {
    "singular_steady": singular_steady_family,
    "product": product_family,
    "gaussian": gaussian_family,
    "cylinder": cylinder_family,
    "sphere": sphere_family,
    "flat": flat_family,
    "broken_product": broken_family,
}
_PARAMETRIC = ("product", "gaussian", "cylinder")


def canonical_family(name: str, lam: float | None = None) -> MetricFamily:
    """The canonical family called ``name``; ``lam`` sets the soliton
    constant of the parametric ones (product, gaussian, cylinder), whose
    constructors hold its default, and the others ignore it."""
    if name not in CANONICAL_FAMILIES:
        raise UnsupportedFamilyError(f"unknown family name {name!r}")
    build = CANONICAL_FAMILIES[name]
    return build() if lam is None or name not in _PARAMETRIC else build(lam)


def _positive_values(profile: Profile, s: np.ndarray, name: str) -> np.ndarray:
    """The profile at each s, evaluated one Python float at a time; a
    DomainError names the first s where it is not positive (or is complex,
    as a fractional power of a negative s is)."""
    v = np.array([profile.value(x) for x in s.tolist()])
    bad = first_failure(np.isreal(v) & (v > 0.0), s)
    if bad is not None:
        raise DomainError(f"{name}(s) = {profile.value(bad)!r} is not positive "
                          f"at s={bad!r}")
    return v


def family_metric(m: MetricFamily, s, r, theta=None) -> np.ndarray:
    """Coordinate components of the family metric on the product of the 1-d
    axes s, r and, for warped3 only, theta.

    Doubly-warped kinds use coordinates (s, t, r, theta) and give
    ``diag(1, p^2, h^2, h^2 u(r)^2)`` with shape (len(s), len(r), 4, 4);
    warped3 uses (s, r, theta, phi) and gives
    ``diag(1, h^2, h^2 u^2, h^2 u^2 sin^2 theta)`` with shape
    (len(s), len(r), len(theta), 4, 4).  The metric does not depend on the
    other coordinates.  Every s must lie in the family domain, p and h must
    be positive there, r in the fiber domain and theta in the polar chart;
    a DomainError names the first value that is not.
    """
    if (theta is None) != (m.kind != KIND_WARPED3):
        raise ValueError("theta is an axis of warped3 families only")
    s, r = np.asarray(s, dtype=float), np.asarray(r, dtype=float)
    m.require(s)
    h = _positive_values(m.h, s, "h")
    u = np.array([fiber_profile_eval(m.fiber, x)[0] for x in r.tolist()])
    if m.kind == KIND_WARPED3:
        theta = np.asarray(theta, dtype=float)
        in_chart = (theta >= BOUNDARY_MARGIN) & (theta <= math.pi - BOUNDARY_MARGIN)
        bad = first_failure(in_chart, theta)
        if bad is not None:
            raise DomainError(f"theta={bad!r} outside polar chart (0, pi)")
        H, U, ST = h[:, None, None], u[None, :, None], np.sin(theta)
        diag = (H**2, (H * U) ** 2, (H * U * ST) ** 2)
    else:
        P, H, U = _positive_values(m.p, s, "p")[:, None], h[:, None], u[None, :]
        diag = (P**2, H**2, (H * U) ** 2)
    g = np.zeros(diag[-1].shape + (4, 4))
    g[..., 0, 0] = 1.0
    for i, v in enumerate(diag, start=1):
        g[..., i, i] = v
    return g


# ---------------------------------------------------------------------------
# canonical soliton data

@dataclass(frozen=True)
class SolitonData:
    """Potential profile f(s) and soliton constant lambda."""

    f: Profile
    lam: float


def canonical_soliton_for(m: MetricFamily) -> SolitonData:
    """The canonical (f, lam) making the family a gradient Ricci soliton.

    Additive constants in f are normalized to zero.  Raises
    UnsupportedFamilyError for families without a canonical potential.
    """
    if m.name == "singular_steady":
        return SolitonData(log_profile(2.0 / 3.0), 0.0)
    if m.name in _PARAMETRIC:
        return SolitonData(quadratic_potential(m.lam), m.lam)
    if m.name in ("sphere", "flat"):
        return SolitonData(constant_profile(0.0), m.lam)
    raise UnsupportedFamilyError(
        f"no canonical soliton for family {m.name or m.kind!r}")
