import math
import re
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from solitonlab.curvature import (PLANES, codazzi_components, family_eigenvalues, family_table,
                                  family_weyl_sq)
from solitonlab.errors import DomainError
from solitonlab.families import (BOUNDARY_MARGIN, CANONICAL_FAMILIES, MetricFamily, Profile,
                                 canonical_family, constant_profile, power_profile,
                                 product_family, sin_profile, singular_steady_family)

import symbolic

STEADY = singular_steady_family()
ONE = constant_profile(1.0)


def warp3_ricci(h, k, s):
    """(lam1, lam_fiber, R) of the 3-fiber warped table at s."""
    t = family_table(MetricFamily(h, k), s)
    return t.lam[0], t.lam[1], t.scalar


def test_dw_table_scalar_is_eigenvalue_sum():
    fam = MetricFamily(power_profile(2.0, 0.4), -1.0, p=power_profile(1.0, 0.4))
    t = family_table(fam, 1.3)
    assert_allclose(t.scalar, t.lam[0] + t.lam[1] + 2 * t.lam[2], rtol=1e-14)


def test_warp3_ricci_reference_values():
    assert_allclose(warp3_ricci(ONE, 1.0, 0.7), (0.0, 2.0, 6.0), atol=1e-15)
    assert_allclose(warp3_ricci(power_profile(1.0, 1.0), 1.0, 1.3),
                    (0.0, 0.0, 0.0), atol=1e-14)
    assert_allclose(warp3_ricci(ONE, 0.0, 2.0), (0.0, 0.0, 0.0), atol=1e-15)


@pytest.mark.parametrize("h, k", [
    (ONE, 1.0), (ONE, -1.0), (power_profile(1.0, 1.0), 1.0),
    (sin_profile(), 1.0), (power_profile(2.0, 0.7), -0.5),
])
def test_warp3_is_conformally_flat(h, k):
    # on profiles and fiber curvatures (k < 0 too) that no canonical family has
    assert family_weyl_sq(MetricFamily(h, k), 1.1) <= 1e-10


def test_singular_steady_weyl_scaling():
    # |W|^2 * s^4 is the constant 16/243 along the singular steady family
    for s in (0.5, 1.0, 1.7, 2.0):
        assert_allclose(family_weyl_sq(STEADY, s) * s**4, 16.0 / 243.0, rtol=1e-12)


def test_product_weyl_norm():
    fam = product_family(-1.0)
    assert_allclose(family_weyl_sq(fam, 1.3), 4.0 / 3.0, rtol=1e-12)


# ---------------------------------------------------------------------------
# the tables against the exact frame curvature of `symbolic`

_s, _1 = symbolic.s, sp.Integer(1)
EXACT_PROFILES = {  # each canonical family as exact (p, h, k), p None on warped3
    "singular_steady": (_s ** sp.Rational(1, 3), _s ** sp.Rational(2, 3), 0),
    "product": (_s, _1, -1), "flat": (_1, _1, 0), "broken_product": (_s, sp.sqrt(_s), 1),
    "gaussian": (None, _s, 1), "cylinder": (None, _1, 1), "sphere": (None, sp.sin(_s), 1),
}


# controls off the soliton flow, at s = 1/2, where their terms are largest:
# p = cosh s, h = sinh s has p''/p = h''/h = 1 at every k, yet delta W
# vanishes only at k = 1, where the metric is hyperbolic space; p = sinh s,
# h = 1 (H^2 x S^2) has delta W = 0 and p''/p = 1 != h''/h = 0
COSH, SINH = (Profile(f, g, f, g) for f, g in ((np.cosh, np.sinh), (np.sinh, np.cosh)))
CONTROLS = {f"cosh_sinh_k{k}": (MetricFamily(SINH, k, p=COSH), (sp.cosh(_s), sp.sinh(_s), k))
            for k in (0, -1, 1)}
CONTROLS["sinh_one_k1"] = (MetricFamily(ONE, 1.0, p=SINH), (sp.sinh(_s), _1, 1))
NOT_HARMONIC = ("broken_product", "cosh_sinh_k0", "cosh_sinh_k-1")  # delta W != 0
EPS = 2.0**-52
# the largest error seen on these cases is 2.4 eps sigma^(3/2)
CODAZZI_ROUNDING = 8.0


@pytest.mark.parametrize("name, s0", [
    (name, s0) for name in sorted(CANONICAL_FAMILIES)
    for s0 in (sp.Rational(1, 2), sp.Integer(1), sp.Rational(7, 4))]
    + [(name, sp.Rational(1, 2)) for name in sorted(CONTROLS)], ids=str)
def test_tables_are_the_exact_frame_curvature(name, s0):
    """Riemann is exactly 0 off the frame planes, and at a float s and in an
    array the 19 table values (zeta, six sectionals, lam, lam', R, R') are
    exact to 1e-15 of the largest, |W|^2 to 1e-13, and the Codazzi components
    (D_2, D_3, D_4) are C[0, i, i] of the exact Codazzi tensor within
    `CODAZZI_ROUNDING` eps sigma^(3/2), sigma the `largest_term` of the
    table, as D has length dimension -3."""
    fam, (p, h, k) = CONTROLS.get(name) or (canonical_family(name), EXACT_PROFILES[name])
    assert (p is None) == (fam.p is None) and k == fam.k
    zeta, riemann, codazzi = symbolic.family_curvature(p, h, k)
    at = lambda x: x.subs(_s, s0)
    riem = {q: at(x) for q, x in riemann.items()}
    assert all(x == 0 for (i, j, m, l), x in riem.items() if i == j or {i, j} != {m, l})
    lam = [x for (i, j), x in symbolic.ricci(riemann).items() if i == j]
    exact = [*zeta, *(riemann[i, j, j, i] for i, j in PLANES), *lam,
             *(sp.diff(x, _s) for x in lam), sum(lam), sp.diff(sum(lam), _s)]
    want = np.array([float(sp.N(at(x), 30)) for x in exact])
    weyl_sq = float(sp.N(symbolic.weyl_sq(riem), 30))
    scale = max(1.0, float(np.max(np.abs(want))))
    codazzi_want = np.array([float(sp.N(at(codazzi[0, i, i]), 30)) for i in (1, 2, 3)])
    assert (np.abs(codazzi_want) > 1e-2).all() == (name in NOT_HARMONIC)
    bound = CODAZZI_ROUNDING * EPS * largest_term(fam, family_table(fam, float(s0))) ** 1.5
    for s in (float(s0), np.array([float(s0)])):
        t = family_table(fam, s)
        got = np.hstack([*t.zeta, *t.sectional, *t.lam, *t.lamp, t.scalar, t.scalarp])
        assert np.all(np.abs(got - want) <= 1e-15 * scale)
        assert abs(family_weyl_sq(fam, s) - weyl_sq) <= 1e-13 * max(1.0, weyl_sq)
        assert np.all(np.abs(np.hstack(codazzi_components(t)) - codazzi_want) <= bound)


def test_the_codazzi_tensor_has_three_components_on_the_ansatz_and_none_on_warped3():
    # C[0, i, i] = -C[i, 0, i] = D_(i+1) of `codazzi_components`, the only ones
    # it computes; warped3 is locally conformally flat
    dw = {q: x for q, x in symbolic.codazzi(False).items() if x != 0}
    assert sorted(dw) == sorted([(0, i, i) for i in (1, 2, 3)] + [(i, 0, i) for i in (1, 2, 3)])
    assert [sp.cancel(dw[0, i, i] + dw[i, 0, i]) for i in (1, 2, 3)] == [0, 0, 0]
    assert sp.cancel(dw[0, 1, 1] + 2 * dw[0, 2, 2]) == 0 and dw[0, 2, 2] == dw[0, 3, 3]
    assert set(symbolic.codazzi(True).values()) == {0}


# ---------------------------------------------------------------------------
# tables over arrays of s

FAR = 1e6  # stands in for an infinite end of a family domain


def domain_samples(fam):
    lo, hi = fam.domain
    lo, hi = max(lo + BOUNDARY_MARGIN, -FAR), min(hi - BOUNDARY_MARGIN, FAR)
    return st.lists(st.floats(lo, hi), min_size=1, max_size=16)


def largest_term(fam, t):
    """max(1, b^2, |ab|, |k/h^2|, |h''/h|, |p''/p|) of a float table, with
    a = zeta_2 and b = zeta_3 (a = b on warped3, where p''/p stands for
    h''/h) and k/h^2 from the family's profile."""
    a, b = t.zeta[:2]
    return max(1.0, b * b, abs(fam.k / fam.h.value(t.s) ** 2), abs(t.sectional[1]),
               abs(a * b), abs(t.sectional[0]))


@pytest.mark.parametrize("name", sorted(CANONICAL_FAMILIES))
def test_array_tables_match_float_tables(name):
    fam = canonical_family(name)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(domain_samples(fam))
    def check(s):
        got = np.array(family_eigenvalues(fam, np.array(s)))
        assert got.shape == (5, len(s))
        for j, sj in enumerate(s):
            t = family_table(fam, sj)
            want = np.array([*t.lam, t.scalar])
            assert np.all(np.abs(got[:, j] - want) <= 1e-14 * largest_term(fam, t))

    check()


@pytest.mark.parametrize("name", sorted(CANONICAL_FAMILIES))
def test_sample_set_with_one_point_outside_the_domain_names_it(name):
    fam = canonical_family(name)
    lo, hi = fam.domain
    outside = [x for x in (lo + BOUNDARY_MARGIN / 2, hi - BOUNDARY_MARGIN / 2)
               if math.isfinite(x)] or [math.nan]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(domain_samples(fam), st.integers(0, 16), st.sampled_from(outside))
    def check(s, at, bad):
        s.insert(at % (len(s) + 1), bad)
        with pytest.raises(DomainError, match=re.escape(f"s={bad!r} outside")):
            family_table(fam, np.array(s))

    check()


def test_tables_name_the_first_bad_s_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        fam = MetricFamily(ONE, 0.0, p=sin_profile(), domain=(BOUNDARY_MARGIN, 10.0))
        with pytest.raises(DomainError, match=r"p\(s\) = .* is not positive at s=4\.0"):
            family_table(fam, [1.0, 4.0, 5.0])
        huge = product_family(1e308)  # k / h^2 = 1e308, so R overflows
        for s in (0.5, [0.5, 1.0], np.array([[0.5, 1.0]])):
            with pytest.raises(DomainError, match="not finite at s=0.5"):
                family_eigenvalues(huge, s)
        with pytest.raises(DomainError, match="not finite at s=1.0"):
            family_weyl_sq(product_family(1e200), [1.0])  # |W|^2 ~ 1e400


# p = s^(1/3) (or h on warped3) is complex at s = -1, inside these domains
CUBE_ROOT = power_profile(1.0, 1.0 / 3.0)


@pytest.mark.parametrize("fam, name", [
    (MetricFamily(ONE, 0.0, p=CUBE_ROOT, domain=(-math.inf, math.inf)), "p"),
    (MetricFamily(CUBE_ROOT, 1.0, domain=(-math.inf, math.inf)), "h"),
], ids=["doubly_warped", "warped3"])
def test_complex_profile_value_is_a_domain_error_at_a_float_and_in_an_array(fam, name):
    message = re.escape(f"{name}(s) = {CUBE_ROOT.value(-1.0)!r} is not positive at s=-1.0")
    calls = (lambda: family_table(fam, -1.0), lambda: family_table(fam, [1.0, -1.0]),
             lambda: family_weyl_sq(fam, -1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError, match=message):
                call()


def test_tables_keep_the_shape_of_s():
    for name in CANONICAL_FAMILIES:
        fam = canonical_family(name)
        s = np.linspace(0.5, 2.0, 6).reshape(2, 3)
        for value in (*family_eigenvalues(fam, s), family_weyl_sq(fam, s)):
            assert value.shape == (2, 3)
        assert isinstance(family_eigenvalues(fam, 1.0)[4], float)
        assert isinstance(family_weyl_sq(fam, 1.0), float)


@pytest.mark.parametrize("name", sorted(CANONICAL_FAMILIES))
def test_table_zeta_and_derivatives_are_self_consistent(name):
    """zeta is p'/p, h'/h from the profiles bit for bit, and lam', R' match a
    4th-order central difference of lam and R (error ~ 3e-10 at h = 1e-3)."""
    fam = canonical_family(name)
    s = np.linspace(0.5, 2.0, 31)
    t = family_table(fam, s)
    hz = fam.h.d1(s) / fam.h.value(s)
    want = (hz,) * 3 if fam.p is None else (fam.p.d1(s) / fam.p.value(s), hz, hz)
    for got, z in zip(t.zeta, want, strict=True):
        assert np.array_equal(got, z)
    h = 1e-3
    m2, m1, p1, p2 = (family_table(fam, s + k * h) for k in (-2, -1, 1, 2))
    pairs = [(t.lamp[i], [x.lam[i] for x in (m2, m1, p1, p2)]) for i in range(4)]
    pairs.append((t.scalarp, [x.scalar for x in (m2, m1, p1, p2)]))
    for deriv, (v_m2, v_m1, v_p1, v_p2) in pairs:
        fd = (v_m2 - 8.0 * v_m1 + 8.0 * v_p1 - v_p2) / (12.0 * h)
        assert np.all(np.abs(deriv - fd) <= 1e-8 * np.maximum(1.0, np.abs(deriv)))
