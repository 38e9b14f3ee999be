"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Tolerances are pinned here and must not be loosened.
"""

import math
import time
from fractions import Fraction

import numpy as np
from solitonlab.classify import LABEL_UNKNOWN, classify
from solitonlab.cli import main as cli_main
from solitonlab.curvature import family_eigenvalues, family_weyl_sq
from solitonlab.families import (SolitonData, broken_family, cylinder_family,
                                 gaussian_family, product_family,
                                 singular_steady_family, sphere_family)
from solitonlab.fdgrid import (fd_codazzi_block, fd_curvature, fd_ricci_block,
                               grid_from_family)
from solitonlab.frames import tensor_norm
from solitonlab.reduced import integrate, singular_steady_state
from solitonlab.verify import (codazzi_residual_closed, hamilton_check,
                               oracle_deviation, soliton_residual)

FAMILIES = {
    "einstein_sphere": sphere_family(),
    "product": product_family(-1.0),
    "singular_steady": singular_steady_family(),
    "gaussian": gaussian_family(1.0),
    "cylinder": cylinder_family(2.0),
}
TYPE_IV = ("gaussian", "cylinder")
SAMPLES64 = np.linspace(0.5, 2.0, 64)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_singular_steady_curvature_table():
    fam = singular_steady_family()
    t0 = time.perf_counter()
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        got = np.array(family_eigenvalues(fam, s))
        expected = np.array([2 / 3, -2 / 9, -4 / 9, -4 / 9, -4 / 9]) / s**2
        worst = max(worst, float(np.max(np.abs(got - expected) / np.abs(expected))))
    elapsed = time.perf_counter() - t0
    report("1 curvature table", worst <= 1e-12 and elapsed < 1.0,
           f"max rel err {worst:.2e}, {elapsed:.3f}s")


def _grid_devs(fam, n_s, narrow: bool):
    lo, hi = 0.5, 2.0
    if narrow:
        h = (hi - lo) / (n_s - 1)
        grid = grid_from_family(fam, (lo, hi), n_s,
                                r_range=(1.0 - 4 * h, 1.0 + 4 * h), n_r=9)
    else:
        grid = grid_from_family(fam, (lo, hi), n_s)
    sh = grid.shape
    if narrow:
        stride = (n_s - 1) // 8
        nodes = np.array([(i, sh[1] // 2, sh[2] // 2, sh[3] // 2)
                          for i in range(stride, n_s - 4, stride)])
    else:
        nodes = grid.interior_nodes()
    return grid, float(oracle_deviation(fam, grid, nodes).max())


def test_criterion_2_oracle_agreement_and_convergence():
    details = []
    ok = True
    for name, fam in FAMILIES.items():
        t0 = time.perf_counter()
        grid, worst = _grid_devs(fam, 129, narrow=False)
        # fd_curvature at one interior node agrees with the batched pipeline
        mid_node = tuple(n // 2 for n in grid.shape)
        bundle = fd_curvature(grid, mid_node)
        blk = fd_ricci_block(grid, np.array([mid_node]))
        single_dev = float(np.max(np.abs(bundle.ric - blk["ric"][0])))
        del grid
        _, dev_h = _grid_devs(fam, 129, narrow=True)
        _, dev_h2 = _grid_devs(fam, 257, narrow=True)
        factor = dev_h / dev_h2
        elapsed = time.perf_counter() - t0
        fam_ok = worst <= 1e-6 and factor >= 12.0 and elapsed < 60.0 \
            and single_dev == 0.0
        ok = ok and fam_ok
        details.append(f"{name}: dev {worst:.2e}, x{factor:.1f}, {elapsed:.0f}s")
    report("2 oracle agreement", ok, "; ".join(details))


def test_criterion_3_soliton_residuals():
    ok = True
    details = []
    for name, fam in FAMILIES.items():
        sol = fam.soliton
        rep = soliton_residual(fam, sol, SAMPLES64)
        ok = ok and rep.max_abs <= 1e-10
        details.append(f"{name} {rep.max_abs:.1e}")
    # negative control: shifting lambda shifts the residual by exactly |dlam|
    fam = singular_steady_family()
    sol = fam.soliton
    for dlam in (1.0, -0.5, 0.25):
        rep = soliton_residual(fam, SolitonData(sol.f, sol.lam + dlam), SAMPLES64)
        ok = ok and abs(rep.max_abs - abs(dlam)) <= 1e-12
    report("3 soliton residual", ok, "; ".join(details))


def test_criterion_4_harmonic_weyl():
    ok = True
    details = []
    for name, fam in FAMILIES.items():
        closed = codazzi_residual_closed(fam, SAMPLES64).max_abs
        ok = ok and closed <= 1e-10
        h = 1.5 / 128
        grid = grid_from_family(fam, (0.5, 2.0), 129,
                                r_range=(1.0 - 4 * h, 1.0 + 4 * h), n_r=9)
        sh = grid.shape
        nodes = np.array([(i, sh[1] // 2, sh[2] // 2, sh[3] // 2)
                          for i in (16, 64, 112)])
        cod = fd_codazzi_block(grid, nodes)
        blk = fd_ricci_block(grid, nodes)
        fd_norm = max(math.sqrt(tensor_norm(cod[j], blk["g"][j]))
                      for j in range(len(nodes)))
        ok = ok and fd_norm <= 1e-5
        details.append(f"{name} closed {closed:.1e} fd {fd_norm:.1e}")
        del grid
    # deliberately broken family exceeds the pinned threshold on both routes
    broken = broken_family()
    closed_broken = codazzi_residual_closed(broken, SAMPLES64).max_abs
    h = 1.5 / 128
    grid = grid_from_family(broken, (0.5, 2.0), 129,
                            r_range=(1.0 - 4 * h, 1.0 + 4 * h), n_r=9)
    bundle = fd_curvature(grid, (64, 4, 4, 4))
    fd_broken = math.sqrt(tensor_norm(bundle.codazzi_residual, bundle.g))
    ok = ok and closed_broken > 1e-2 and fd_broken > 1e-2
    # Weyl marks: non-flat for the steady metric, flat for type (iv)
    w_steady = family_weyl_sq(FAMILIES["singular_steady"], 1.0)
    ok = ok and w_steady > 1e-3
    for name in TYPE_IV:
        w_iv = max(family_weyl_sq(FAMILIES[name], s) for s in SAMPLES64)
        ok = ok and w_iv <= 1e-10
    report("4 harmonic Weyl", ok,
           f"broken closed {closed_broken:.2f} fd {fd_broken:.2f}, "
           f"steady |W|^2 {w_steady:.3f}; " + "; ".join(details))


def test_criterion_5_conservation_identities():
    ok = True
    details = []
    for name, fam in FAMILIES.items():
        rep = hamilton_check(fam, fam.soliton, SAMPLES64)
        ok = ok and rep.per_equation["conserved_deviation"] <= 1e-10
        ok = ok and rep.per_equation["scalar_slope"] <= 1e-10
        details.append(f"{name} {rep.max_abs:.1e}")
    fam = singular_steady_family()
    sol = fam.soliton
    worst = max(abs(family_eigenvalues(fam, s)[4] + sol.f.d1(s) ** 2
                    - 2.0 * sol.lam * sol.f.value(s)) for s in SAMPLES64)
    ok = ok and worst <= 1e-12
    report("5 conservation identities", ok,
           f"steady conserved value {worst:.1e}; " + "; ".join(details))


def test_criterion_6_reduced_ode_fidelity():
    traj = integrate(singular_steady_state(1.0), 2.0, 1e-3)
    end = traj.final
    endpoint_err = max(abs(end.a - 1 / 6), abs(end.b - 1 / 3), abs(end.fp - 1 / 3))
    worst_identity = traj.identities.evidence().max_abs
    errs = []
    for step in (0.01, 0.0025):
        e = integrate(singular_steady_state(1.0), 2.0, step).final
        errs.append(abs(e.a - 1 / 6))
    factor = errs[0] / errs[1]
    ok = endpoint_err <= 1e-8 and worst_identity <= 1e-10 and factor >= 200.0
    report("6 reduced ODE", ok,
           f"endpoint {endpoint_err:.1e}, identities {worst_identity:.1e}, "
           f"quartering x{factor:.0f}")


def test_criterion_7_distinct_eigenvalue_algebra():
    import symbolic  # sympy, imported by this test alone

    held = {
        "numerator": symbolic.numerator_residual() == 0,
        "frame relations": symbolic.frame_relation_residuals() == (0, 0, 0),
        "exclusion": (symbolic.exclusion_identity_residual() == 0
                      and symbolic.A not in symbolic.exclusion_difference().free_symbols),
        "pins": symbolic.exclusion_pins() == (Fraction(-1, 3), 0),
    }
    failed = [name for name, ok in held.items() if not ok]
    report("7 distinct-eigenvalue algebra", not failed,
           f"exact; failed: {', '.join(failed)}" if failed
           else f"exact: {', '.join(held)}")


def test_criterion_8_classifier():
    from test_classify import FAMILY_LABELS, perturbed, canonical_samples
    mis = 0
    unknown_failures = 0
    cases = [fl for fl in FAMILY_LABELS if fl[0].name != "flat"]
    for fam, label in cases:
        base = canonical_samples(fam)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            v = classify(perturbed(base, 1e-9, rng, rademacher=False), 1e-8)
            if v.label != label:
                mis += 1
            rng = np.random.default_rng(777 + seed)
            v = classify(perturbed(base, 2e-7, rng, rademacher=True), 1e-8)
            if v.label != LABEL_UNKNOWN:
                unknown_failures += 1
    ok = mis == 0 and unknown_failures == 0
    report("8 classifier", ok,
           f"{mis} misclassifications, {unknown_failures} missed Unknowns "
           f"over {len(cases)}x20 seeds")


def test_criterion_9_cli_determinism(tmp_path):
    jobs = [
        ["verify", "--family", "singular-steady", "--samples", "32"],
        ["verify", "--family", "broken-product"],
        ["integrate", "--family", "singular-steady", "--from", "1", "--to", "2",
         "--step", "1e-2"],
        ["classify", "--family", "cylinder", "--lam", "2"],
        ["oracle", "--family", "product", "--lam", "-1", "--nodes", "33"],
    ]
    ok = True
    for j, argv in enumerate(jobs):
        blobs = []
        for i in range(2):
            out = tmp_path / f"job{j}_{i}.json"
            cli_main(argv + ["--out", str(out)])
            blobs.append(out.read_bytes())
        ok = ok and blobs[0] == blobs[1]
    report("9 determinism", ok, f"{len(jobs)} jobs, byte-identical reruns")
