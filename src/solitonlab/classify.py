"""Eigenvalue-signature detection and matching against the four local types.

A sample is one entry (s, Ricci eigenvalues in the adapted frame order,
f', R, |W|^2) of a `SAMPLE` array, which holds each value as a column.  The
decision tree mirrors the separating marks of the classification: a
vanishing potential slope means Einstein; a vanishing Weyl norm means the
locally conformally flat warped product; otherwise the eigenvalue
structure lambda_2 != lambda_3 = lambda_4 together with constant R (and
R = 2 lambda) marks the plane x surface product, while R s^2 = -4/9 marks
the singular steady metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import _finite, _weyl_sq, family_table, float_semantics
from .families import MetricFamily, SolitonData

DEFAULT_TOL_CLOSED = 1e-8
MIN_SAMPLES = 8

LABEL_EINSTEIN = "Einstein_i"
LABEL_PRODUCT = "Product_ii"
LABEL_STEADY = "SingularSteady_iii"
LABEL_WARPED = "WarpedLCF_iv"
LABEL_UNKNOWN = "Unknown"


def signature_labels(values, tol: float) -> np.ndarray:
    """Single-linkage grouping of the rows of an (N, 4) eigenvalue array at
    threshold tol * max(1, max |value|) per row.

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
    thr = tol * np.fmax(1.0, np.abs(vals).max(axis=1))  # fmax: a NaN row keeps tol
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
    label: str
    evidence: dict[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {"label": self.label, "evidence": dict(self.evidence),
                "notes": list(self.notes)}


@float_semantics
def classify(samples: np.ndarray, tol: float = DEFAULT_TOL_CLOSED) -> TypeVerdict:
    """Match sampled soliton data, a `SAMPLE` array, against the four local
    types."""
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {len(samples)}")
    eigs, scalars = samples["eigenvalues"], samples["scalar"]
    labels = signature_labels(eigs, tol)
    evidence: dict[str, float] = {}

    scale = max(1.0, np.abs(scalars).max(), np.abs(eigs).max())
    max_fp = float(np.abs(samples["fprime"]).max())
    evidence["max_abs_fprime"] = max_fp
    if max_fp <= tol:
        return TypeVerdict(LABEL_EINSTEIN, evidence)

    max_w2 = float(np.abs(samples["weyl_sq"]).max())
    evidence["max_weyl_sq"] = max_w2
    if max_w2 <= tol * scale:
        return TypeVerdict(LABEL_WARPED, evidence)

    # lambda_3 and lambda_4 coincide while lambda_2 stays apart
    pair = (labels[:, 2] == labels[:, 3]) & (labels[:, 1] != labels[:, 2])
    pair_frac = float(np.mean(pair))
    evidence["pair_signature_fraction"] = pair_frac
    if pair_frac > 0.5:
        mean_r = float(np.mean(scalars))
        const_dev = float(np.max(np.abs(scalars - mean_r)))
        evidence["scalar_constancy_dev"] = const_dev
        if const_dev <= tol * (1.0 + abs(mean_r)):
            lam_hat = float(np.mean((eigs[:, 2] + eigs[:, 3]) / 2))
            fit = abs(mean_r - 2.0 * lam_hat)
            evidence["scalar_minus_twice_fiber"] = fit
            if fit <= tol * (1.0 + abs(mean_r)):
                return TypeVerdict(LABEL_PRODUCT, evidence)
        # s^2 by Python's float pow, elementwise on an object array, as one
        # sample squares it: numpy's s**2 is s*s, which rounds about 0.08 %
        # of squares otherwise and gives inf where the pow raises OverflowError
        s2 = (samples["s"].astype(object) ** 2).astype(float)
        steady_dev = float(np.max(np.abs(scalars * s2 + 4.0 / 9.0)))
        evidence["scalar_s2_plus_4_9_dev"] = steady_dev
        if steady_dev <= tol:
            return TypeVerdict(LABEL_STEADY, evidence)

    level = labels[:, 1:]
    if np.all((level[:, 0] != level[:, 1]) & (level[:, 1] != level[:, 2])
              & (level[:, 0] != level[:, 2])):
        return TypeVerdict(LABEL_UNKNOWN, evidence, (
            "pairwise-distinct level-surface eigenvalues with a "
            "nonzero potential slope cannot occur on a true soliton",))
    return TypeVerdict(LABEL_UNKNOWN, evidence)

