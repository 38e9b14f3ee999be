import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from solitonlab.curvature import (dw_table, family_eigenvalues, family_table,
                                  family_weyl_sq, warp3_table)
from solitonlab.errors import DomainError
from solitonlab.families import (BOUNDARY_MARGIN, CANONICAL_FAMILIES, MetricFamily,
                                 broken_family, canonical_family, constant_profile,
                                 cylinder_family, gaussian_family, power_profile,
                                 product_family, sin_profile, singular_steady_family,
                                 sphere_family)
from solitonlab.frames import tensor_norm

from helpers import family_bundle, ricci_from_riemann, riemann_symmetry_residuals

STEADY = singular_steady_family()
ONE = constant_profile(1.0)


def dw_ricci(p, h, k, s):
    """(lam1, lam2, lam3, lam4, R) of the doubly-warped table at s."""
    t = dw_table(p, h, k, s)
    return (*t.lam, t.scalar)


def warp3_ricci(h, k, s):
    """(lam1, lam_fiber, R) of the 3-fiber warped table at s."""
    t = warp3_table(h, k, s)
    return t.lam[0], t.lam[1], t.scalar


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_dw_ricci_singular_steady(s):
    got = dw_ricci(STEADY.p, STEADY.h, 0.0, s)
    expected = np.array([2 / 3, -2 / 9, -4 / 9, -4 / 9, -4 / 9]) / s**2
    assert_allclose(got, expected, rtol=1e-12)


def test_dw_ricci_product():
    fam = product_family(-1.0)
    got = dw_ricci(fam.p, fam.h, fam.k, 1.7)
    assert_allclose(got, (0.0, 0.0, -1.0, -1.0, -2.0), atol=1e-14)


def test_dw_ricci_flat():
    assert_allclose(dw_ricci(ONE, ONE, 0.0, 3.0), np.zeros(5), atol=1e-15)


def test_dw_table_scalar_is_eigenvalue_sum():
    t = dw_table(power_profile(1.0, 0.4), power_profile(2.0, 0.4), -1.0, 1.3)
    assert_allclose(t.scalar, t.lam[0] + t.lam[1] + 2 * t.lam[2], rtol=1e-14)


def test_dw_full_bundle_singular_steady():
    b = family_bundle(MetricFamily(STEADY.h, 0.0, p=STEADY.p), (1.0, 0.0, 0.8, 0.1))
    # R_1221 = -zeta_2' - zeta_2^2 = 2/9 at s = 1
    assert_allclose(b.riem[0, 1, 1, 0], 2.0 / 9.0, rtol=1e-13)
    assert_allclose(b.riem[0, 1, 1, 0], b.riem[0, 2, 2, 0], rtol=1e-13)
    assert_allclose(b.riem[0, 2, 2, 0], b.riem[0, 3, 3, 0], rtol=1e-13)
    # Ricci by contraction matches the closed-form eigenvalues
    assert_allclose(np.diag(b.ric), dw_ricci(STEADY.p, STEADY.h, 0.0, 1.0)[:4],
                    rtol=1e-12)
    assert_allclose(ricci_from_riemann(b.riem), b.ric, atol=1e-15)
    assert_allclose(b.scalar, np.trace(b.ric), rtol=1e-12)
    for v in riemann_symmetry_residuals(b.riem).values():
        assert v <= 1e-15
    assert b.weyl_norm_sq() > 1e-3
    assert np.max(np.abs(b.codazzi_residual)) <= 1e-14


def test_dw_full_bundle_flat_is_zero():
    b = family_bundle(MetricFamily(ONE, 0.0, p=ONE), (2.0, 0.0, 1.0, 0.0))
    assert np.max(np.abs(b.riem)) == 0.0
    assert np.max(np.abs(b.ric)) == 0.0
    assert b.scalar == 0.0
    assert np.max(np.abs(b.weyl)) == 0.0
    # only the flat-polar fiber term survives in the connection
    assert_allclose(b.christoffel[2, 3, 3], 1.0, rtol=1e-15)


@pytest.mark.parametrize("p, h, k", [
    (power_profile(1.0, 1.0 / 3.0), power_profile(1.0, 2.0 / 3.0), 0.0),
    (power_profile(1.0, 1.0), constant_profile(1.0), -1.0),
    (ONE, ONE, 0.0),
])
def test_dw_bundle_contraction_matches_dw_ricci(p, h, k):
    s = 1.4
    b = family_bundle(MetricFamily(h, k, p=p), (s, 0.0, 0.9, 0.3))
    eigs = dw_ricci(p, h, k, s)
    assert_allclose(np.diag(b.ric), eigs[:4], rtol=1e-12, atol=1e-15)
    assert_allclose(b.scalar, eigs[4], rtol=1e-12, atol=1e-15)


def test_dw_connection_values():
    gam = family_bundle(MetricFamily(STEADY.h, 0.0, p=STEADY.p),
                        (1.0, 0.0, 2.0, 0.0)).christoffel
    zeta2, zeta3, beta4 = gam[1, 1, 0], gam[2, 2, 0], gam[2, 3, 3]
    assert_allclose((zeta2, zeta3), (1.0 / 3.0, 2.0 / 3.0), rtol=1e-15)
    assert_allclose(beta4, 1.0 / 2.0, rtol=1e-15)  # u = r, h(1) = 1


def test_warp3_ricci_reference_values():
    assert_allclose(warp3_ricci(ONE, 1.0, 0.7), (0.0, 2.0, 6.0), atol=1e-15)
    assert_allclose(warp3_ricci(power_profile(1.0, 1.0), 1.0, 1.3),
                    (0.0, 0.0, 0.0), atol=1e-14)
    assert_allclose(warp3_ricci(ONE, 0.0, 2.0), (0.0, 0.0, 0.0), atol=1e-15)


def test_sphere_family_is_einstein():
    fam = sphere_family()
    for s in (0.5, 1.2, 2.4):
        l1, l2, l3, l4, scalar = family_eigenvalues(fam, s)
        assert_allclose([l1, l2, l3, l4], [3.0] * 4, rtol=1e-12)
        assert_allclose(scalar, 12.0, rtol=1e-12)


@pytest.mark.parametrize("h, k", [
    (ONE, 1.0), (ONE, -1.0), (power_profile(1.0, 1.0), 1.0),
    (sin_profile(), 1.0), (power_profile(2.0, 0.7), -0.5),
])
def test_warp3_is_conformally_flat(h, k):
    b = family_bundle(MetricFamily(h, k), (1.1, 0.8, 1.2, 0.4))
    assert tensor_norm(b.weyl) <= 1e-10
    for v in riemann_symmetry_residuals(b.riem).values():
        assert v <= 1e-13


def test_warp3_bundle_connection_flat_chart():
    # gaussian family at h = s is flat R^4 in spherical coordinates, where
    # the frame connection coefficients are classical
    s, r, th = 2.0, 0.7, 1.1
    b = family_bundle(MetricFamily(power_profile(1.0, 1.0), 1.0), (s, r, th, 0.3))
    gam = b.christoffel
    assert_allclose(gam[1, 1, 0], 1.0 / s, rtol=1e-14)            # zeta
    assert_allclose(gam[1, 2, 2], -math.cos(r) / (s * math.sin(r)), rtol=1e-13)
    assert_allclose(gam[2, 3, 3], -math.cos(th) / (math.sin(th) * s * math.sin(r)),
                    rtol=1e-13)
    # metric compatibility: antisymmetric in the last two frame slots
    assert np.max(np.abs(gam + gam.transpose(2, 1, 0))) <= 1e-15


def test_singular_steady_weyl_scaling():
    # |W|^2 * s^4 is the constant 16/243 along the singular steady family
    for s in (0.5, 1.0, 1.7, 2.0):
        assert_allclose(family_weyl_sq(STEADY, s) * s**4, 16.0 / 243.0, rtol=1e-12)


def test_product_weyl_norm():
    fam = product_family(-1.0)
    assert_allclose(family_weyl_sq(fam, 1.3), 4.0 / 3.0, rtol=1e-12)


def test_family_bundle_accepts_broken_family():
    b = family_bundle(broken_family(), (1.0, 0.0, 0.9, 0.3))
    assert np.max(np.abs(b.codazzi_residual)) > 1e-2


@pytest.mark.parametrize("fam", [STEADY, product_family(-1.0), gaussian_family(),
                                 cylinder_family(2.0), sphere_family()],
                         ids=lambda f: f.name)
def test_family_bundle_codazzi_vanishes_on_canonical(fam):
    point = (1.0, 0.8, 1.2, 0.4)
    b = family_bundle(fam, point)
    assert np.max(np.abs(b.codazzi_residual)) <= 5e-14


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
             lambda: family_weyl_sq(fam, -1.0), lambda: family_bundle(fam, (-1.0, 0.0, 1.0, 0.5)))
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
def test_weyl_sq_matches_the_bundle_tensor_norm(name):
    fam = canonical_family(name)
    for s in (0.6, 1.0, 1.7):
        bundle = family_bundle(fam, (s, 0.8, 1.2, 0.4))
        want = bundle.weyl_norm_sq()
        assert abs(family_weyl_sq(fam, s) - want) <= 1e-13 * max(1.0, want)
        assert abs(family_weyl_sq(fam, [s])[0] - want) <= 1e-13 * max(1.0, want)


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
