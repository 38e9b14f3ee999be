import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from solitonlab.curvature import codazzi_components, family_eigenvalues, family_table
from solitonlab.errors import DomainError
from solitonlab.families import (Profile, SolitonData, broken_family, constant_profile,
                                 cylinder_family, flat_family, gaussian_family,
                                 product_family, quadratic_potential,
                                 singular_steady_family, sphere_family)
from solitonlab.fdgrid import fd_ricci_block, grid_from_family
from solitonlab.frames import sym_eigen
from solitonlab.report import weigh
from solitonlab.verify import (codazzi_residual_closed, hamilton_check,
                               oracle_deviation, soliton_residual)

SAMPLES = np.linspace(0.5, 2.0, 64)

CANONICAL = [singular_steady_family(), product_family(-1.0), gaussian_family(1.0),
             cylinder_family(2.0), sphere_family(), flat_family()]


@pytest.mark.parametrize("fam", CANONICAL, ids=lambda f: f.name)
def test_soliton_residual_canonical(fam):
    sol = fam.soliton
    rep = soliton_residual(fam, sol, SAMPLES)
    assert rep.max_abs <= 1e-12
    assert set(rep.per_equation) == {"hess_11", "hess_22", "hess_33", "hess_44"}


def test_soliton_residual_wrong_lambda_is_the_shift():
    fam = singular_steady_family()
    sol = fam.soliton
    rep = soliton_residual(fam, SolitonData(sol.f, 1.0), SAMPLES)
    assert_allclose(rep.max_abs, 1.0, rtol=1e-12)


def test_soliton_residual_shift_invariant():
    fam = product_family(-1.0)
    sol = fam.soliton
    base = soliton_residual(fam, sol, SAMPLES).max_abs
    rng = np.random.default_rng(1)
    for shift in rng.uniform(-100.0, 100.0, size=100):
        f2 = Profile(lambda s, c=shift: sol.f.value(s) + c,
                     sol.f.d1, sol.f.d2, sol.f.d3)
        got = soliton_residual(fam, SolitonData(f2, sol.lam), SAMPLES).max_abs
        assert abs(got - base) <= 1e-14


@pytest.mark.parametrize("fam", CANONICAL, ids=lambda f: f.name)
def test_codazzi_closed_canonical(fam):
    rep = codazzi_residual_closed(fam, SAMPLES)
    assert rep.max_abs <= 1e-10


def test_codazzi_closed_einstein_exact():
    rep = codazzi_residual_closed(sphere_family(), SAMPLES)
    assert rep.max_abs <= 5e-14


BROKEN_CODAZZI_THRESHOLD = 1e-2  # pinned; the broken family sits at ~4/3 max


def test_codazzi_closed_broken_family():
    rep = codazzi_residual_closed(broken_family(), SAMPLES)
    assert rep.max_abs > BROKEN_CODAZZI_THRESHOLD
    # regression-pin the measured values: D_2 = 1/(3 s^2), D_3 = -1/(6 s^2)
    assert_allclose(rep.max_abs, 1.0 / (3.0 * 0.25), rtol=1e-10)
    one_point = codazzi_residual_closed(broken_family(), [1.0])
    assert_allclose(one_point.per_equation["direction_2"], 1.0 / 3.0, rtol=1e-10)
    assert_allclose(one_point.per_equation["direction_3"], 1.0 / 6.0, rtol=1e-10)


@pytest.mark.parametrize("fam", CANONICAL, ids=lambda f: f.name)
def test_hamilton_check_canonical(fam):
    sol = fam.soliton
    rep = hamilton_check(fam, sol, SAMPLES)
    assert rep.per_equation["conserved_deviation"] <= 1e-10
    assert rep.per_equation["scalar_slope"] <= 1e-10
    assert rep.max_abs <= 1e-10


def test_hamilton_singular_steady_conserved_is_zero():
    fam = singular_steady_family()
    rep = hamilton_check(fam, fam.soliton, SAMPLES)
    assert abs(rep.per_equation["conserved_mean"]) <= 1e-12


def test_hamilton_product_conserved_is_2lambda():
    fam = product_family(-1.0)
    rep = hamilton_check(fam, fam.soliton, SAMPLES)
    assert_allclose(rep.per_equation["conserved_mean"], -2.0, rtol=1e-12)


def test_hamilton_needs_three_samples():
    fam = flat_family()
    with pytest.raises(ValueError):
        hamilton_check(fam, fam.soliton, [1.0, 2.0])


@pytest.mark.parametrize("check, fam, message", [
    # f' = lam s overflows from s = 1.8095 on, so zeta_2 f' does
    (soliton_residual, gaussian_family(1e308), r"soliton residual is not finite at s=1\.8095"),
    # f, f' are finite, but (f')^2 and 2 lam f overflow at every s
    (hamilton_check, product_family(1e200), r"conservation identity is not finite at s=0\.5$"),
], ids=["soliton", "hamilton"])
def test_overflowing_potential_terms_are_domain_errors(check, fam, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            check(fam, fam.soliton, SAMPLES)


def test_soliton_implies_hamilton():
    """Consistency: every family passing the soliton check at 1e-10 also
    passes the conservation identities at 1e-9."""
    for fam in CANONICAL:
        sol = fam.soliton
        if soliton_residual(fam, sol, SAMPLES).max_abs <= 1e-10:
            assert hamilton_check(fam, sol, SAMPLES).max_abs <= 1e-9


def profile_zetas(fam, s):
    """(zeta_2, zeta_3, zeta_4) from the family's profiles: p'/p, h'/h, h'/h,
    or h'/h three times on the 3-fiber warped product."""
    hz = fam.h.d1(s) / fam.h.value(s)
    return (hz,) * 3 if fam.p is None else (fam.p.d1(s) / fam.p.value(s), hz, hz)


def per_sample_residuals(fam, sol, samples):
    """Reference for the residual checks: the Hessian, Codazzi and
    conservation terms of each sample from its own float table, with zeta
    taken from the profiles rather than the table, and the scale sigma of
    the sample alone and with the |terms| of each soliton identity: the
    Hessian's, the conserved quantity's and the scalar slope's."""
    rows = []
    for s in map(float, samples):
        t = family_table(fam, s)
        eigs, fp, zetas = t.lam, sol.f.d1(s), profile_zetas(fam, s)
        hess_terms = [sol.f.d2(s)] + [z * fp for z in zetas]
        hess = [h + e - sol.lam for h, e in zip(hess_terms, eigs)]
        conserved = t.scalar + fp * fp - 2.0 * sol.lam * sol.f.value(s)
        sigma = max(*(z * z for z in zetas), *map(abs, t.sectional))
        rows.append((hess, codazzi_components(t), conserved,
                     abs(0.5 * t.scalarp - eigs[0] * fp), sigma,
                     max(sigma, *map(abs, hess_terms), abs(sol.lam)),
                     max(sigma, fp * fp, abs(2.0 * sol.lam * sol.f.value(s))),
                     max(sigma, abs(eigs[0] * fp) ** (2 / 3))))
    return rows


def ratio(r, sigma, d):
    """|r| / sigma^(d/2), 0/0 as 0."""
    r = np.abs(r)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r == 0.0, 0.0, r / sigma ** (d / 2)).max()


@pytest.mark.parametrize("fam", CANONICAL + [broken_family()], ids=lambda f: f.name)
def test_residual_checks_match_per_sample_loop(fam):
    sol = fam.soliton or SolitonData(constant_profile(0.0), 0.0)  # broken: no potential
    rows = per_sample_residuals(fam, sol, SAMPLES)
    hess, cod, conserved, slope, sigma, sigma_hess, sigma_cons, sigma_slope = (
        np.array(col) for col in zip(*rows))
    mean = conserved.mean()
    dev = np.abs(conserved - mean)
    want = {"hess": np.abs(hess).max(axis=0), "cod": np.abs(cod).max(axis=0),
            "ham": [dev.max(), mean, slope.max()]}
    reports = {"hess": soliton_residual(fam, sol, SAMPLES),
               "cod": codazzi_residual_closed(fam, SAMPLES),
               "ham": hamilton_check(fam, sol, SAMPLES)}
    for key in want:
        assert_allclose(list(reports[key].per_equation.values()), want[key], rtol=1e-13,
                        atol=1e-13)
    # d = 2 for the Hessian entries, 3 for Codazzi and the scalar slope, and 2
    # for the conserved deviation against the largest sigma of the samples
    want = {"hess": ratio(hess, sigma_hess[:, None], 2), "cod": ratio(cod, sigma[:, None], 3),
            "ham": max(ratio(dev, sigma_cons.max(), 2), ratio(slope, sigma_slope, 3))}
    for key in want:
        assert_allclose(reports[key].ratio, want[key], rtol=1e-12, atol=1e-300)
    worst = codazzi_residual_closed(fam, SAMPLES).worst_point
    if fam.name == "broken_product":
        assert worst == SAMPLES[np.argmax(np.abs(cod).max(axis=1))]


@pytest.mark.parametrize("lam, s_range", [(1e8, (0.5, 2.0)), (1.0, (1e4, 2e4))])
def test_a_relative_hessian_error_fails_where_f_prime_outgrows_the_curvature(lam, s_range):
    # on the product f' = lam s, so f'^2 exceeds every term of the Hessian
    # equation by |lam| s^2; the scale is the terms', so an error of 1e-3 of
    # them is seen, as it is at lam = 1 on [0.5, 2]
    s = np.linspace(*s_range, 64)
    fam = product_family(lam)
    assert soliton_residual(fam, fam.soliton, s).ratio <= 1e-15
    off = SolitonData(quadratic_potential(lam * (1.0 + 1e-3)), lam)
    assert_allclose(soliton_residual(fam, off, s).ratio, 1e-3, rtol=2e-3)


def test_weigh_counts_0_over_0_as_0_fails_a_residual_over_a_zero_scale_and_refuses_non_finite():
    s = np.array([1.0, 2.0])
    assert weigh(s, [[0.0, 0.0]], [2], [0.0, 0.0], what="r").ratio == 0.0
    ev = weigh(s, [[0.0, 1e-300], [3.0, 0.0]], [2, 3], [4.0, 0.0], what="r")
    assert (ev.ratio, ev.max_abs, ev.worst_point) == (math.inf, 3.0, 1.0)
    assert not ev.passes(1e300)
    assert weigh(s, [[0.0, 3.0]], [3], [1.0, 16.0], what="r").ratio == 3.0 / 64.0
    # sigma^(d/2) = 1e310 overflows a float, the ratio does not
    assert_allclose(weigh(s, [[1e305, 0.0]], [4], 1e155, what="r").ratio, 1e-5, rtol=1e-14)
    for residual, sigma in [([0.0, 1.0], [1.0, math.inf]), ([0.0, math.nan], [1.0, 1.0])]:
        with pytest.raises(DomainError, match=r"^r or its scale is not finite at s=2\.0$"):
            weigh(s, [residual], [2], sigma, what="r")


def per_node_oracle_deviation(fam, grid, nodes):
    """Reference for `oracle_deviation`: one closed-form table and one
    `sym_eigen` solve per node.  The table is evaluated on a one-element
    array, as `oracle_deviation` evaluates its s values (numpy's pow, log and
    sin may differ by an ulp from the float path's libm)."""
    blk = fd_ricci_block(grid, nodes)
    devs = []
    for j, node in enumerate(nodes):
        cf = np.array(family_eigenvalues(fam, grid.axes[0][node[:1]]))[:, 0]
        eigs = np.array([w for w, _ in sym_eigen(blk["ric"][j], blk["g"][j])])
        scale = max(1.0, abs(cf[4]), float(np.max(np.abs(cf[:4]))))
        devs.append(max(float(np.max(np.abs(eigs - np.sort(cf[:4])[::-1]))),
                        abs(float(blk["scalar"][j]) - cf[4])) / scale)
    return np.array(devs)


ACCEPTANCE = [sphere_family(), product_family(-1.0), singular_steady_family(),
              gaussian_family(1.0), cylinder_family(2.0)]


@pytest.mark.parametrize("fam", ACCEPTANCE, ids=lambda f: f.name)
def test_oracle_deviation_matches_per_node_loop(fam):
    h = 1.5 / 128
    grid = grid_from_family(fam, (0.5, 2.0), 129,
                            r_range=(1.0 - 4 * h, 1.0 + 4 * h), n_r=9)
    # every interior s node twice, off the middle of a cross axis, shuffled,
    # so closed forms shared by several nodes are mapped back per node
    nodes = np.array([(i, j, 4, 4) for i in range(4, 125) for j in (3, 5)])
    nodes = nodes[np.random.default_rng(7).permutation(len(nodes))]
    got = oracle_deviation(fam, grid, nodes)
    assert got.shape == (len(nodes),)
    assert np.array_equal(got, per_node_oracle_deviation(fam, grid, nodes))
    assert got.max() <= 1e-6
