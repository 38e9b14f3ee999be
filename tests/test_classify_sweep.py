"""The classifier under the maps that keep a soliton's local type.

A homothety g -> c^2 g takes the samples (s, lambda_i, f', R, |W|^2) to
(c s, lambda_i / c^2, f' / c, R / c^2, |W|^2 / c^4), and a new origin of s
takes s to s + s0.  Neither changes the local type, so a correct classifier
labels every mapped sample set as it labels the unmapped one.  For each of
the six canonical families with a soliton, the sweep classifies 200 seeded
maps in each of three columns: a homothety with c log-uniform in
[1e-3, 1e3], a shift with s0 uniform in [-5, 5], and both (c s + s0).  It
prints the confusion matrix and holds each cell's count of correct labels
at `CORRECT`: every map keeps its label.  Two controls, which are not
solitons of any type, must read `Unknown`, so a classifier that answers the
expected label whatever the data would fail.
"""

from collections import Counter

import numpy as np

from solitonlab.classify import LABEL_UNKNOWN, classify
from test_classify import FAMILY_LABELS, canonical_samples, perturbed

MAPS = 200
SEED = 3000
COLUMNS = ("homothety", "shift", "both")
# correct labels out of MAPS, per column
CORRECT = {
    "sphere": (200, 200, 200),
    "flat": (200, 200, 200),
    "product": (200, 200, 200),
    "singular_steady": (200, 200, 200),
    "gaussian": (200, 200, 200),
    "cylinder": (200, 200, 200),
}


def mapped(samples, c, s0):
    """The samples of the metric c^2 g, on s measured from a new origin."""
    out = samples.copy()
    out["s"] = c * samples["s"] + s0
    out["eigenvalues"] /= c**2
    out["fprime"] /= c
    out["scalar"] /= c**2
    out["weyl_sq"] /= c**4
    return out


def maps(rng, column):
    """MAPS draws of (c, s0) for one column."""
    c = (np.exp(rng.uniform(np.log(1e-3), np.log(1e3), MAPS)) if column != "shift"
         else np.ones(MAPS))
    s0 = rng.uniform(-5.0, 5.0, MAPS) if column != "homothety" else np.zeros(MAPS)
    return zip(c.tolist(), s0.tolist())


def test_labels_under_homothety_and_shift_do_not_fall():
    rng = np.random.default_rng(SEED)
    for fam, label in FAMILY_LABELS:
        base = canonical_samples(fam)
        counts = {column: Counter(classify(mapped(base, c, s0)).label
                                  for c, s0 in maps(rng, column)) for column in COLUMNS}
        correct = tuple(counts[column][label] for column in COLUMNS)
        print(f"{fam.name:16s} {label:19s} correct {correct}: "
              + "; ".join(f"{column} {dict(n)}" for column, n in counts.items()))
        assert correct == CORRECT[fam.name], fam.name


def test_sweep_controls_get_no_type_label():
    rng = np.random.default_rng(SEED)
    # criterion 8's Rademacher noise, on every family it applies to
    for fam, _ in FAMILY_LABELS:
        if fam.name != "flat":
            noisy = perturbed(canonical_samples(fam), 2e-7, rng, rademacher=True)
            assert classify(noisy).label == LABEL_UNKNOWN, fam.name
    # a product whose fiber eigenvalues are off by 1e-3 relative
    fam = next(fam for fam, _ in FAMILY_LABELS if fam.name == "product")
    off = canonical_samples(fam)
    off["eigenvalues"][:, 2:] *= 1.0 + 1e-3
    assert classify(off).label == LABEL_UNKNOWN
