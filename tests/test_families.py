import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from solitonlab.curvature import family_eigenvalues, family_table
from solitonlab.errors import DomainError, UnsupportedFamilyError
from solitonlab.families import (MetricFamily, Profile, SolitonData, broken_family,
                                 canonical_family, constant_profile, cylinder_family,
                                 family_metric, fiber_profile_eval, flat_family,
                                 gaussian_family, power_profile, product_family,
                                 sin_profile, singular_steady_family, sphere_family)

ALL_CANONICAL = [singular_steady_family(), product_family(-1.0),
                 gaussian_family(1.0), cylinder_family(2.0), sphere_family(),
                 flat_family()]


@pytest.mark.parametrize("k, r, expected", [
    (0.0, 2.0, (2.0, 1.0, 0.0)),
    (1.0, math.pi / 2.0, (1.0, 0.0, -1.0)),
    (-1.0, 1.0, (math.sinh(1.0), math.cosh(1.0), math.sinh(1.0))),
])
def test_fiber_profile_reference_values(k, r, expected):
    assert_allclose(fiber_profile_eval(k, r), expected, atol=1e-15)


@pytest.mark.parametrize("k", [-1.0, -0.3, 0.0, 0.5, 1.0])
def test_fiber_profile_solves_its_ode(k):
    # algebraic residual plus an independent Richardson-difference check
    rng = np.random.default_rng(42)
    r_max = math.pi / math.sqrt(k) if k > 0 else math.inf
    hi = min(r_max - 1e-3, 3.0)
    for r in rng.uniform(0.05, hi, size=100):
        u, u1, u2 = fiber_profile_eval(k, r)
        assert abs(u2 + k * u) <= 1e-13 * max(1.0, abs(u))
        d = 1e-4
        um, _, _ = fiber_profile_eval(k, r - d)
        up, _, _ = fiber_profile_eval(k, r + d)
        assert abs((up - um) / (2 * d) - u1) <= 1e-7
        assert abs((up - 2 * u + um) / d**2 - u2) <= 1e-6


def test_fiber_profile_domain_errors():
    with pytest.raises(DomainError):
        fiber_profile_eval(0.0, 0.0)
    with pytest.raises(DomainError):
        fiber_profile_eval(4.0, math.pi / 2.0 + 0.1)  # r_max = pi/2


def test_power_profile_derivatives():
    p = power_profile(2.0, 1.5)
    s = 1.7
    assert_allclose(p.value(s), 2.0 * s**1.5)
    assert_allclose(p.d1(s), 3.0 * s**0.5)
    assert_allclose(p.d2(s), 1.5 * s**-0.5)
    assert_allclose(p.d3(s), -0.75 * s**-1.5)


def test_metric_singular_steady_at_s1():
    fam = singular_steady_family()
    g = family_metric(fam, [1.0], [0.7])[0, 0]
    assert_allclose(g, np.diag([1.0, 1.0, 1.0, 0.49]), atol=1e-15)


def test_metric_product():
    fam = product_family(-1.0)
    s, r = 1.3, 0.8
    g = family_metric(fam, [s], [r])[0, 0]
    assert_allclose(g, np.diag([1.0, s * s, 1.0, math.sinh(r) ** 2]), rtol=1e-15)


def test_metric_flat_doubly_warped_blocks():
    fam = MetricFamily(constant_profile(1.0), 0.0, p=constant_profile(1.0))
    g = family_metric(fam, [5.0], [2.0])[0, 0]
    assert_allclose(g, np.diag([1.0, 1.0, 1.0, 4.0]), atol=1e-15)


def test_metric_warped3_chart():
    fam = gaussian_family()
    s, r, th = 1.5, 0.6, 1.1
    g = family_metric(fam, [s], [r], [th])[0, 0, 0]
    u = math.sin(r)
    expected = np.diag([1.0, s * s, (s * u) ** 2, (s * u * math.sin(th)) ** 2])
    assert_allclose(g, expected, rtol=1e-15)


@pytest.mark.parametrize("fam", ALL_CANONICAL, ids=lambda f: f.name)
def test_metric_positive_definite_on_interior_samples(fam):
    lo = max(fam.domain[0], 0.5)
    hi = min(fam.domain[1], 2.0)
    s = np.linspace(lo, hi, 7)
    if fam.p is None:
        g = family_metric(fam, s, [0.7], [0.9])
    else:
        g = family_metric(fam, s, [0.9])
    assert np.all(np.linalg.eigvalsh(g.reshape(-1, 4, 4)) > 0)


def test_metric_on_axes_matches_each_point():
    # every node of the product of the axes holds the metric of its point
    for fam, axes in ((product_family(-1.0), ([0.6, 1.3, 2.2], [0.4, 0.8])),
                      (gaussian_family(), ([0.6, 1.3, 2.2], [0.4, 0.8], [1.0, 1.5, 2.0]))):
        g = family_metric(fam, *axes)
        assert g.shape == tuple(map(len, axes)) + (4, 4)
        for idx in np.ndindex(g.shape[:-2]):
            point = [[ax[i]] for ax, i in zip(axes, idx)]
            assert np.array_equal(g[idx], family_metric(fam, *point).reshape(4, 4))


def test_metric_domain_errors():
    with pytest.raises(DomainError, match=r"s=0\.0 outside"):
        family_metric(singular_steady_family(), [1.0, 0.0, -1.0], [1.0])
    with pytest.raises(DomainError, match=r"r=0\.0 outside"):
        family_metric(product_family(-1.0), [1.0], [0.0])  # u(0) = 0
    # h = sin s is negative past pi, inside this family's domain
    with pytest.raises(DomainError, match=r"h\(s\) = .* is not positive at s=4\.0"):
        family_metric(MetricFamily(sin_profile(), 1.0), [3.0, 4.0], [1.0], [1.5])
    with pytest.raises(DomainError, match=r"p\(s\) = .* is not positive at s=4\.0"):
        family_metric(MetricFamily(constant_profile(1.0), 0.0, p=sin_profile()),
                      [3.0, 4.0], [1.0])
    # a fractional power of a negative s is complex, not positive
    cube_root = MetricFamily(constant_profile(1.0), 0.0, p=power_profile(1.0, 1.0 / 3.0),
                             domain=(-math.inf, math.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"p\(s\) = .*j\) is not positive at s=-1\.0"):
            family_metric(cube_root, [1.0, -1.0], [1.0])
    with pytest.raises(DomainError, match=r"theta=3\.2 outside"):
        family_metric(gaussian_family(), [1.0], [1.0], [1.5, 3.2])
    with pytest.raises(ValueError, match="theta"):
        family_metric(gaussian_family(), [1.0], [1.0])
    with pytest.raises(ValueError, match="theta"):
        family_metric(product_family(-1.0), [1.0], [1.0], [1.5])


def test_canonical_soliton_values():
    steady = singular_steady_family().soliton
    assert steady.lam == 0.0
    assert_allclose(steady.f.d1(2.0), 1.0 / 3.0, rtol=1e-15)

    prod = product_family(-1.0).soliton
    assert_allclose(prod.f.d1(2.0), -2.0, rtol=1e-15)

    cyl = cylinder_family(2.0).soliton
    for s in (0.2, 1.0, 5.0):
        assert_allclose(cyl.f.d2(s), 2.0, rtol=1e-15)


def test_singular_steady_zeta_identity():
    """zeta_2 = 1/(3s), zeta_3 = zeta_4 = 2/(3s), and zeta_i f' = lam - lam_i."""
    fam = singular_steady_family()
    sol = fam.soliton
    for s in np.linspace(0.5, 2.0, 16):
        z2, z3, z4 = family_table(fam, s).zeta
        assert_allclose([z2, z3, z4], [1 / (3 * s), 2 / (3 * s), 2 / (3 * s)], rtol=1e-14)
        _, l2, l3, l4, _ = family_eigenvalues(fam, s)
        fp = sol.f.d1(s)
        for z, li in ((z2, l2), (z3, l3), (z4, l4)):
            assert abs(z * fp - (sol.lam - li)) <= 1e-12


@pytest.mark.parametrize("fam", [singular_steady_family(), product_family(-1.0),
                                 product_family(0.75)], ids=lambda m: m.name)
def test_reduced_start_is_the_family_data(fam):
    # a = p'/p, b = h'/h, f' and h of the profiles; lambda and k of the record
    for s in (0.4, 1.0, 2.5):
        st = fam.reduced(s)
        want = (s, fam.p.d1(s) / fam.p.value(s), fam.h.d1(s) / fam.h.value(s),
                fam.soliton.f.d1(s), fam.h.value(s))
        assert_allclose((st.s, st.a, st.b, st.fp, st.h), want, rtol=1e-15, atol=0.0)
        assert (st.lam, st.k) == (fam.soliton.lam, fam.k)


def test_canonical_soliton_unsupported():
    assert broken_family().soliton is None
    custom = MetricFamily(constant_profile(2.0), 1.0, p=power_profile(1.0, 0.25))
    assert custom.soliton is None


def test_unknown_family_name_is_unsupported():
    with pytest.raises(UnsupportedFamilyError, match="unknown family name 'nosuch'"):
        canonical_family("nosuch")


def test_soliton_data_shift_changes_value_not_derivatives():
    fam = product_family(-1.0)
    sol = fam.soliton
    shifted = SolitonData(Profile(lambda s: sol.f.value(s) + 10.0,
                                  sol.f.d1, sol.f.d2, sol.f.d3), sol.lam)
    assert shifted.f.d1(1.3) == sol.f.d1(1.3)

