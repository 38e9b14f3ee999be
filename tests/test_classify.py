import importlib
import warnings

import numpy as np
import pytest

from solitonlab.classify import (LABEL_EINSTEIN, LABEL_PRODUCT, LABEL_STEADY,
                                 LABEL_UNKNOWN, LABEL_WARPED, SAMPLE, classify,
                                 sample_family, signature_labels)
from solitonlab.curvature import family_eigenvalues, family_weyl_sq
from solitonlab.errors import DomainError
from solitonlab.families import (cylinder_family, flat_family, gaussian_family,
                                 product_family, singular_steady_family, sphere_family)

CLASSIFY = importlib.import_module("solitonlab.classify")  # the package binds the function
S_VALUES = np.linspace(0.5, 2.0, 64)
TOL = 1e-8

FAMILY_LABELS = [
    (sphere_family(), LABEL_EINSTEIN),
    (flat_family(), LABEL_EINSTEIN),
    (product_family(-1.0), LABEL_PRODUCT),
    (singular_steady_family(), LABEL_STEADY),
    (gaussian_family(1.0), LABEL_WARPED),
    (cylinder_family(2.0), LABEL_WARPED),
]


def case_id(x):
    """Parametrize id of a FAMILY_LABELS entry: the family's name, then its
    label."""
    return x if isinstance(x, str) else x.name


def canonical_samples(fam):
    return sample_family(fam, fam.soliton, S_VALUES)


def perturbed(samples, eps, rng, rademacher):
    """The samples with noise of size eps on their seven values (four
    eigenvalues, f', R, |W|^2).  The noise is one (len(samples), 7) draw;
    numpy fills it in row-major order, so it equals one draw per value taken
    sample by sample in that order."""
    shape = (len(samples), 7)
    noise = (eps * rng.choice([-1.0, 1.0], size=shape) if rademacher
             else rng.uniform(-eps, eps, size=shape))
    out = samples.copy()
    out["eigenvalues"] += noise[:, :4]
    for j, key in enumerate(("fprime", "scalar", "weyl_sq"), start=4):
        out[key] += noise[:, j]
    return out


def sequential_groups(values, tol):
    """Reference grouping of one row: sort descending, then merge each value
    into the previous group while the gap stays within the threshold."""
    vals = np.asarray(values, dtype=float)
    thr = tol * float(np.max(np.abs(vals)))
    order = np.argsort(-vals, kind="stable")
    groups = [[int(order[0])]]
    for prev, cur in zip(order[:-1], order[1:]):
        if vals[prev] - vals[cur] <= thr:
            groups[-1].append(int(cur))
        else:
            groups.append([int(cur)])
    return tuple(tuple(sorted(i + 1 for i in grp)) for grp in groups)


def signature_groups(values, tol):
    """The groups of one row of eigenvalues as tuples of 1-based slots,
    largest values first, read off signature_labels."""
    lab = signature_labels([values], tol)[0]
    return tuple(tuple(int(i) + 1 for i in np.flatnonzero(lab == g))
                 for g in range(lab.max() + 1))


def test_eigen_signature_singular_steady():
    assert signature_groups((2 / 3, -2 / 9, -4 / 9, -4 / 9), 1e-8) == ((1,), (2,), (3, 4))


def test_eigen_signature_product():
    assert signature_groups((0.0, 0.0, -1.0, -1.0), 1e-8) == ((1, 2), (3, 4))


def test_eigen_signature_all_equal():
    assert signature_groups((3.0, 3.0, 3.0, 3.0), 1e-8) == ((1, 2, 3, 4),)
    assert signature_labels([(3.0, 3.0, 3.0, 3.0)], 1e-8).tolist() == [[0, 0, 0, 0]]


def test_eigen_signature_scale_equivariant():
    base = (2 / 3, -2 / 9, -4 / 9, -4 / 9)
    ref = signature_groups(base, 1e-8)
    for c in (1e-3, 1e-1, 1.0, 1e2, 1e3):
        assert signature_groups(tuple(c * v for v in base), 1e-8) == ref


def test_eigen_signature_rejects_bad_tol():
    with pytest.raises(ValueError):
        signature_labels([(1.0, 2.0, 3.0, 4.0)], 0.0)


def test_signature_labels_match_a_sequential_grouping():
    rng = np.random.default_rng(3)
    # few distinct levels, and gaps below, near and above the threshold
    vals = (rng.choice([-1.0, 0.0, 0.5, 2.0], size=(500, 4))
            + rng.choice([0.0, 5e-9, 1e-8, 3e-8], size=(500, 4))
            * rng.choice([1.0, 1e3], size=(500, 1)))
    vals[rng.random(vals.shape) < 0.02] = np.nan
    labels = signature_labels(vals, TOL)
    assert labels.shape == (500, 4)
    for row, lab in zip(vals, labels):
        assert tuple(tuple(int(i) + 1 for i in np.flatnonzero(lab == g))
                     for g in range(lab.max() + 1)) == sequential_groups(row, TOL)


def test_sample_family_rows_match_float_evaluation():
    for fam, _ in FAMILY_LABELS:
        sol = fam.soliton
        samples = sample_family(fam, sol, S_VALUES)
        assert samples.dtype == SAMPLE and samples.shape == S_VALUES.shape
        for row in samples:
            s = float(row["s"])
            *eigs, scalar = family_eigenvalues(fam, s)
            got = (*row["eigenvalues"], row["scalar"], row["fprime"], row["weyl_sq"])
            want = (*eigs, scalar, sol.f.d1(s), family_weyl_sq(fam, s))
            assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("fam,_", FAMILY_LABELS, ids=case_id)
def test_sample_family_columns_have_the_bits_of_the_array_tables(fam, _, monkeypatch):
    calls = []
    table = CLASSIFY.family_table
    monkeypatch.setattr(CLASSIFY, "family_table",
                        lambda *args: calls.append(args) or table(*args))
    samples = sample_family(fam, fam.soliton, S_VALUES)
    assert len(calls) == 1
    *eigs, scalar = family_eigenvalues(fam, S_VALUES)
    for got, want in [(samples["eigenvalues"], np.stack(eigs, axis=1)),
                      (samples["scalar"], scalar), (samples["s"], S_VALUES),
                      (samples["fprime"], fam.soliton.f.d1(S_VALUES)),
                      (samples["weyl_sq"], family_weyl_sq(fam, S_VALUES))]:
        want = np.broadcast_to(want, got.shape)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sample_family_rejects_an_overflowing_potential_slope():
    fam = gaussian_family(1e308)  # f' = lam s overflows from s = 1.8095 on
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"potential slope f' is not finite at s=1\.8095"):
            sample_family(fam, fam.soliton, S_VALUES)


@pytest.mark.parametrize("fam,label", FAMILY_LABELS, ids=case_id)
def test_classify_canonical(fam, label):
    verdict = classify(canonical_samples(fam), TOL)
    assert verdict.label == label


@pytest.mark.parametrize("fam,label", FAMILY_LABELS[:1] + FAMILY_LABELS[2:],
                         ids=case_id)
def test_classify_stable_under_small_noise(fam, label):
    base = canonical_samples(fam)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        verdict = classify(perturbed(base, TOL / 10.0, rng, rademacher=False), TOL)
        assert verdict.label == label, f"seed {seed}"


@pytest.mark.parametrize("fam,_", FAMILY_LABELS[:1] + FAMILY_LABELS[2:],
                         ids=case_id)
def test_classify_degrades_to_unknown_under_large_noise(fam, _):
    base = canonical_samples(fam)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        verdict = classify(perturbed(base, 20.0 * TOL, rng, rademacher=True), TOL)
        assert verdict.label == LABEL_UNKNOWN, f"seed {seed}"


def test_classify_distinct_triple_is_unknown_with_note():
    # synthetic non-soliton data: pairwise-distinct level-surface eigenvalues
    samples = np.array([(s, (1.0, 0.5, 0.2, -0.1), 1.0, 1.6, 1.0)
                        for s in np.linspace(1.0, 2.0, 8)], SAMPLE)
    verdict = classify(samples, TOL)
    assert verdict.label == LABEL_UNKNOWN
    assert any("pairwise-distinct" in note for note in verdict.notes)


def test_classify_steady_invariant_needs_a_negative_scalar_curvature():
    # lambda_1 = 0 and R = 0, so |grad R| = 2 |lambda_1 f'| = 0 and the
    # invariant's sides are 0/0: not the singular steady metric, whose R < 0
    samples = np.array([(s, (0.0, 2.0, -1.0, -1.0), 1.0, 0.0, 1.0)
                        for s in np.linspace(1.0, 2.0, 8)], SAMPLE)
    verdict = classify(samples, TOL)
    assert verdict.evidence["steady_invariant"].ratio == 0.0
    assert verdict.label == LABEL_UNKNOWN


def test_classify_needs_eight_samples():
    samples = canonical_samples(sphere_family())[:7]
    with pytest.raises(ValueError):
        classify(samples, TOL)

