"""Eigenvalue-signature detection and matching against the four local types.

A sample is one entry (s, Ricci eigenvalues in the adapted frame order,
f', R, |W|^2) of a `SAMPLE` array, which holds each value as a column.  The
decision tree mirrors the separating marks of the classification: a
vanishing potential slope means Einstein; a vanishing Weyl norm means the
locally conformally flat warped product; otherwise the eigenvalue structure
lambda_2 != lambda_3 = lambda_4 together with constant R (and R = 2 lambda)
marks the plane x surface product, while the invariant
R^3 / |grad R|^2 = -1/9, with |grad R| = 2 |lambda_1 f'|, marks the singular
steady metric.  A metric whose curvature is flat against the potential
slope, once no curved type holds, is the warped product (iv) too.

Each test is an `Evidence` record under the scale rule of
:mod:`solitonlab.report`, judged against the sample set's own curvature
scale K_c = max |lambda_i| (length^-2); only the flat test, taken last,
reads K_f = max f'^2, since f' is no curvature.  No test reads s, so a label
does not change under a homothety of the metric or a new origin of s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import _finite, _weyl_sq, family_table, float_semantics
from .families import MetricFamily, SolitonData
from .report import Evidence, weigh

DEFAULT_TOL_CLOSED = 1e-8
MIN_SAMPLES = 8

LABEL_EINSTEIN = "Einstein_i"
LABEL_PRODUCT = "Product_ii"
LABEL_STEADY = "SingularSteady_iii"
LABEL_WARPED = "WarpedLCF_iv"
LABEL_UNKNOWN = "Unknown"


def signature_labels(values, tol: float) -> np.ndarray:
    """Single-linkage grouping of the rows of an (N, 4) eigenvalue array at
    threshold tol * max |value| per row.

    Each row is sorted descending (stable, so ties keep input order) and a
    new group starts wherever the next value lies more than the threshold
    below the previous one.  Entry [n, i] is the group number of slot i in
    row n, with groups numbered from the largest values down.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != 4:
        raise ValueError("need exactly 4 eigenvalues per sample")
    thr = tol * np.abs(vals).max(axis=1)
    order = np.argsort(-vals, axis=1, kind="stable")
    ranked = np.take_along_axis(vals, order, axis=1)
    splits = ~(ranked[:, :-1] - ranked[:, 1:] <= thr[:, None])
    groups = np.concatenate([np.zeros((len(vals), 1), dtype=int),
                             np.cumsum(splits, axis=1)], axis=1)
    labels = np.empty_like(groups)
    np.put_along_axis(labels, order, groups, axis=1)
    return labels


SAMPLE = np.dtype([("s", float), ("eigenvalues", float, (4,)), ("fprime", float),
                   ("scalar", float), ("weyl_sq", float)])


@float_semantics
def sample_family(m: MetricFamily, sol: SolitonData, s_values) -> np.ndarray:
    """Closed-form classification samples of a family along s, a `SAMPLE`
    array read off one curvature table; an f' that overflows is a
    DomainError naming its s."""
    s = np.asarray(s_values, dtype=float)
    t = family_table(m, s)
    (fprime,) = _finite(s, sol.f.d1(s), what="potential slope f'")
    out = np.empty(s.shape, SAMPLE)
    out["s"], out["fprime"], out["scalar"] = s, fprime, t.scalar
    out["eigenvalues"] = np.stack(t.lam, axis=-1)
    out["weyl_sq"] = _weyl_sq(t)
    return out


@dataclass(frozen=True)
class TypeVerdict:
    """A label, with the `Evidence` of each test taken and the fraction of
    samples whose eigenvalues show the pair signature."""
    label: str
    pair_signature_fraction: float
    evidence: dict[str, Evidence] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {"label": self.label, "pair_signature_fraction": self.pair_signature_fraction,
                "evidence": {name: ev.as_dict() for name, ev in self.evidence.items()},
                "notes": list(self.notes)}


@float_semantics
def classify(samples: np.ndarray, tol: float = DEFAULT_TOL_CLOSED) -> TypeVerdict:
    """Match sampled soliton data, a `SAMPLE` array, against the four local
    types."""
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {len(samples)}")
    s, eigs, fprime, scalars = (samples[key] for key in ("s", "eigenvalues", "fprime", "scalar"))
    labels = signature_labels(eigs, tol)
    # lambda_3 and lambda_4 coincide while lambda_2 stays apart
    pair_frac = float(np.mean((labels[:, 2] == labels[:, 3]) & (labels[:, 1] != labels[:, 2])))
    evidence: dict[str, Evidence] = {}
    row_scale = np.abs(eigs).max(axis=1)
    k_c = row_scale.max()

    def holds(name, residual, dim, sigma) -> bool:
        """Whether ``residual``, of length dimension ``dim``, holds at tol
        against ``sigma``; its `Evidence` goes into the verdict."""
        evidence[name] = weigh(s, [residual], [dim], sigma, what=f"{name} test")
        return evidence[name].passes(tol)

    if holds("einstein", fprime, 1, k_c):  # f' vanishes
        return TypeVerdict(LABEL_EINSTEIN, pair_frac, evidence)
    if holds("weyl", samples["weyl_sq"], 4, k_c):
        return TypeVerdict(LABEL_WARPED, pair_frac, evidence)
    if pair_frac > 0.5:
        if (holds("scalar_constant", scalars - np.mean(scalars), 2, k_c)
                and holds("scalar_twice_fiber", scalars - (eigs[:, 2] + eigs[:, 3]), 2, k_c)):
            return TypeVerdict(LABEL_PRODUCT, pair_frac, evidence)
        # R^3 / |grad R|^2 = -1/9 as |grad R|^(2/3) = 9^(1/3) |R| with R < 0,
        # each side of length dimension 2
        u = np.abs(2.0 * eigs[:, 0] * fprime) ** (2.0 / 3.0)
        v = np.cbrt(9.0) * np.abs(scalars)
        if holds("steady_invariant", u - v, 2, u + v) and scalars.max() < 0.0:
            return TypeVerdict(LABEL_STEADY, pair_frac, evidence)
    # f'^2 is no curvature scale: a curved type far out along s can read flat
    # against it, so this test comes after theirs
    if holds("flat", row_scale, 2, (fprime * fprime).max()):
        return TypeVerdict(LABEL_WARPED, pair_frac, evidence)

    level = labels[:, 1:]
    if np.all((level[:, 0] != level[:, 1]) & (level[:, 1] != level[:, 2])
              & (level[:, 0] != level[:, 2])):
        return TypeVerdict(LABEL_UNKNOWN, pair_frac, evidence, (
            "pairwise-distinct level-surface eigenvalues with a "
            "nonzero potential slope cannot occur on a true soliton",))
    return TypeVerdict(LABEL_UNKNOWN, pair_frac, evidence)
