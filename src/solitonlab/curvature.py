"""Closed-form connection and curvature of the structured metric families.

All outputs live in the orthonormal adapted frame E_1 = d/ds,
E_2 = p^{-1} d/dt, E_3, E_4 = fiber frame / h (for warped3: E_2..E_4 span
the fiber).  With a = p'/p and b = h'/h the nonzero sectional curvatures
R_ijji of the frame planes (E_i, E_j) of the doubly-warped ansatz are

    R_1221 = -p''/p,   R_1331 = R_1441 = -h''/h,
    R_2332 = R_2442 = -a b,   R_3443 = -b^2 + k/h^2,

and for the 3-fiber warped product R_1ii1 = -h''/h, R_ijji = -b^2 + k/h^2.
Ricci eigenvalues and scalar curvature follow by contraction.  The tables
evaluate these formulas for any profiles.  delta W = 0 is the vanishing of
`codazzi_components`, a third-order condition on the profiles: it does not
force p''/p = h''/h, nor does p''/p = h''/h give it (p = cosh s, h = sinh s
at k = 0).  The reduced flow of :mod:`solitonlab.reduced` sets p''/p = h''/h,
and along it delta W = 0 holds where its ``linear`` identity and that
identity's derivative vanish.  ``tests/symbolic.py`` derives the Codazzi
tensor exactly and holds the components to it.

Both ansaetze fill one `CurvatureTable`: the frame coefficients
zeta_i = <grad_{E_i} E_1, E_i> ((a, b, b), or (b, b, b) for warped3), the
six sectional curvatures in `PLANES` order, the eigenvalues lam_1..lam_4
with their s-derivatives, and R, R'.  Everything downstream (the Codazzi
components, |W|^2, the soliton residual) reads these fields and has no
per-ansatz branch.

The tables, ``family_eigenvalues`` and ``family_weyl_sq`` take one s or an
array of s.  A Python float gives floats, computed as the scalar formulas
compute them; an array gives arrays of its shape from one call.  Each call
checks the family domain, the positivity of p and h and the finiteness of
every table entry once, and a failure names the first bad s.  Each call
dispatches on the type of s once; the per-ansatz formulas (`_dw`,
`_warp3`) are plain functions of the s they are given, which only
`family_table` calls.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .families import MetricFamily, Profile, first_failure, require_positive

Values = float | np.ndarray  # a float at a float s, an array of its shape at an array

# Array evaluation keeps float semantics: overflow and invalid operations give
# inf or nan without numpy's RuntimeWarnings, and the tables then reject a
# non-finite value by naming its s.
float_semantics = np.errstate(all="ignore")


def _over_samples(formulas):
    """``formulas(..., s)`` with s, its last argument, given as a Python
    number (evaluated as a float) or as an array of s (evaluated as a float
    array under `float_semantics`)."""
    quiet = float_semantics(formulas)

    @functools.wraps(formulas)
    def evaluate(*args):
        *head, s = args
        if isinstance(s, (int, float)):
            return formulas(*head, float(s))
        return quiet(*head, np.asarray(s, dtype=float))

    return evaluate


# the six frame planes (E_i, E_j), i < j, 0-based, in the order of
# ``CurvatureTable.sectional``
PLANES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class CurvatureTable(NamedTuple):
    """Pointwise curvature data of either block ansatz at s.

    ``zeta`` holds zeta_i = <grad_{E_i} E_1, E_i> for i = 2, 3, 4,
    ``sectional`` the sectional curvatures K_ij = R_ijji in `PLANES` order,
    ``lam`` and ``lamp`` the Ricci eigenvalues lam_1..lam_4 of the adapted
    frame and their s-derivatives, ``scalar`` and ``scalarp`` R and R'.
    """

    s: Values
    zeta: tuple[Values, Values, Values]
    sectional: tuple[Values, Values, Values, Values, Values, Values]
    lam: tuple[Values, Values, Values, Values]
    lamp: tuple[Values, Values, Values, Values]
    scalar: Values
    scalarp: Values


def _finite(s: Values, *values: Values, what: str = "closed-form curvature"
            ) -> tuple[Values, ...]:
    """``values``, broadcast to the shape of s, after naming the first s
    where one of them is not finite."""
    if isinstance(s, float):
        ok = all(map(math.isfinite, values))
    else:
        values = tuple(v if isinstance(v, np.ndarray) and v.shape == s.shape
                       else np.broadcast_to(v, s.shape) for v in values)  # constant profiles
        ok = np.isfinite(values).all(axis=0)
    bad = first_failure(ok, s)
    if bad is not None:
        raise DomainError(f"{what} is not finite at s={bad!r}")
    return values


def _dw(p: Profile, h: Profile, k: float, s) -> CurvatureTable:
    """Unconstrained curvature table of the doubly-warped ansatz at s."""
    pv = require_positive(p.value(s), s, p, "p")
    hv = require_positive(h.value(s), s, h, "h")
    a, b = p.d1(s) / pv, h.d1(s) / hv
    pddp, hddh = p.d2(s) / pv, h.d2(s) / hv
    k_h2 = k / hv**2
    lam1 = -pddp - 2.0 * hddh
    lam2 = -pddp - 2.0 * a * b
    lam3 = -hddh - a * b - b * b + k_h2
    # s-derivatives (third profile derivatives enter only here)
    ap, bp = pddp - a * a, hddh - b * b
    pddp_p = p.d3(s) / pv - pddp * a
    hddh_p = h.d3(s) / hv - hddh * b
    ab_p = ap * b + a * bp
    lam1p = -pddp_p - 2.0 * hddh_p
    lam2p = -pddp_p - 2.0 * ab_p
    lam3p = -hddh_p - ab_p - 2.0 * b * bp - 2.0 * k_h2 * b
    # each distinct entry is checked once, then laid out in the table's order
    a, b, k12, k13, k23, k34, lam1, lam2, lam3, lam1p, lam2p, lam3p, r, rp = _finite(
        s, a, b, -pddp, -hddh, -a * b, -b ** 2 + k_h2, lam1, lam2, lam3, lam1p, lam2p,
        lam3p, lam1 + lam2 + 2.0 * lam3, lam1p + lam2p + 2.0 * lam3p)
    return CurvatureTable(s, (a, b, b), (k12, k13, k13, k23, k23, k34), (lam1, lam2, lam3, lam3),
                          (lam1p, lam2p, lam3p, lam3p), r, rp)


def _warp3(h: Profile, k: float, s) -> CurvatureTable:
    """Curvature table of the 3-fiber warped product at s."""
    hv = require_positive(h.value(s), s, h, "h")
    b = h.d1(s) / hv
    hddh = h.d2(s) / hv
    k_h2 = k / hv**2
    lam1 = -3.0 * hddh
    lamf = -hddh - 2.0 * b * b + 2.0 * k_h2
    bp = hddh - b * b
    hddh_p = h.d3(s) / hv - hddh * b
    lam1p = -3.0 * hddh_p
    lamfp = -hddh_p - 4.0 * b * bp - 4.0 * k_h2 * b
    b, k1, kf, lam1, lamf, lam1p, lamfp, r, rp = _finite(
        s, b, -hddh, -b ** 2 + k_h2, lam1, lamf, lam1p, lamfp, lam1 + 3.0 * lamf,
        lam1p + 3.0 * lamfp)
    return CurvatureTable(s, (b, b, b), (k1, k1, k1, kf, kf, kf), (lam1, lamf, lamf, lamf),
                          (lam1p, lamfp, lamfp, lamfp), r, rp)


def codazzi_components(t: CurvatureTable) -> tuple[Values, Values, Values]:
    """(D_2, D_3, D_4) of the closed-form Codazzi residual of Ric - (R/6) g,
    D_i = lam_i' + zeta_i (lam_i - lam_1) - R'/6.
    These are the only components that can be nonzero on the ansaetze."""
    return tuple(t.lamp[i] + t.zeta[i - 1] * (t.lam[i] - t.lam[0]) - t.scalarp / 6.0
                 for i in (1, 2, 3))


# ---------------------------------------------------------------------------
# family-level dispatch (unconstrained: evaluates the true curvature of the
# stored profiles, including deliberately broken instances)

@_over_samples
def family_table(m: MetricFamily, s) -> CurvatureTable:
    """The curvature table of ``m`` at s, a float or an array of s."""
    m.require(s)
    if m.p is None:
        return _warp3(m.h, m.k, s)
    return _dw(m.p, m.h, m.k, s)


# the table without the dispatch on s, for entry points that have done it
_family = family_table.__wrapped__


def family_eigenvalues(m: MetricFamily, s):
    """(lam1, lam2, lam3, lam4, R) in the adapted frame at s."""
    t = family_table(m, s)
    return (*t.lam, t.scalar)


@_over_samples
def family_weyl_sq(m: MetricFamily, s) -> Values:
    """|W|^2 at s (fiber-point independent).

    The curvature operator is diagonal on the frame planes (E_i, E_j) and
    Ricci is diagonal in the adapted frame, so W is too: on the plane of
    sectional curvature K_ij it is W_ijji = K_ij - (lam_i + lam_j)/2 + R/6,
    and each plane contributes four equal squares (W_ijji = W_jiij =
    -W_ijij = -W_jiji).
    """
    return _weyl_sq(_family(m, s))


def _weyl_sq(t: CurvatureTable) -> Values:
    """|W|^2 of a table, as `family_weyl_sq` describes it."""
    lam, r6 = t.lam, t.scalar / 6.0
    weyl = [kv - 0.5 * (lam[i] + lam[j]) + r6 for (i, j), kv in zip(PLANES, t.sectional)]
    return _finite(t.s, 4.0 * sum(w * w for w in weyl))[0]
