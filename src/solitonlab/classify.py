"""Eigenvalue-signature detection and matching against the four local types.

A sample is the tuple (s, Ricci eigenvalues in the adapted frame order,
f', R, |W|^2).  The decision tree mirrors the separating marks of the
classification: a vanishing potential slope means Einstein; a vanishing Weyl
norm means the locally conformally flat warped product; otherwise the
eigenvalue structure lambda_2 != lambda_3 = lambda_4 together with constant
R (and R = 2 lambda) marks the plane x surface product, while R s^2 = -4/9
marks the singular steady metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .curvature import _finite, family_eigenvalues, family_weyl_sq, float_semantics
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


@dataclass(frozen=True)
class ClassifySample:
    s: float
    eigenvalues: tuple[float, float, float, float]
    fprime: float
    scalar: float
    weyl_sq: float


@float_semantics
def sample_family(m: MetricFamily, sol: SolitonData, s_values) -> list[ClassifySample]:
    """Closed-form classification samples of a family along s; an f' that
    overflows is a DomainError naming its s."""
    s = np.asarray(s_values, dtype=float)
    *eigs, scalar = family_eigenvalues(m, s)
    (fprime,) = _finite(s, sol.f.d1(s), what="potential slope f'")
    rows = zip(s.tolist(), np.stack(eigs, axis=1).tolist(), fprime.tolist(),
               scalar.tolist(), family_weyl_sq(m, s).tolist())
    return [ClassifySample(si, tuple(e), fp, r, w2) for si, e, fp, r, w2 in rows]


@dataclass(frozen=True)
class TypeVerdict:
    label: str
    evidence: dict[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {"label": self.label, "evidence": dict(self.evidence),
                "notes": list(self.notes)}


def classify(samples: Sequence[ClassifySample], tol: float = DEFAULT_TOL_CLOSED
             ) -> TypeVerdict:
    """Match sampled soliton data against the four local types."""
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {len(samples)}")
    labels = signature_labels([sm.eigenvalues for sm in samples], tol)
    evidence: dict[str, float] = {}

    scale = max(1.0, max(abs(sm.scalar) for sm in samples),
                max(max(abs(e) for e in sm.eigenvalues) for sm in samples))
    max_fp = max(abs(sm.fprime) for sm in samples)
    evidence["max_abs_fprime"] = max_fp
    if max_fp <= tol:
        return TypeVerdict(LABEL_EINSTEIN, evidence)

    max_w2 = max(abs(sm.weyl_sq) for sm in samples)
    evidence["max_weyl_sq"] = max_w2
    if max_w2 <= tol * scale:
        return TypeVerdict(LABEL_WARPED, evidence)

    # lambda_3 and lambda_4 coincide while lambda_2 stays apart
    pair = (labels[:, 2] == labels[:, 3]) & (labels[:, 1] != labels[:, 2])
    pair_frac = float(np.mean(pair))
    evidence["pair_signature_fraction"] = pair_frac
    if pair_frac > 0.5:
        scalars = np.array([sm.scalar for sm in samples])
        mean_r = float(np.mean(scalars))
        const_dev = float(np.max(np.abs(scalars - mean_r)))
        evidence["scalar_constancy_dev"] = const_dev
        if const_dev <= tol * (1.0 + abs(mean_r)):
            lam_hat = float(np.mean([(sm.eigenvalues[2] + sm.eigenvalues[3]) / 2
                                     for sm in samples]))
            fit = abs(mean_r - 2.0 * lam_hat)
            evidence["scalar_minus_twice_fiber"] = fit
            if fit <= tol * (1.0 + abs(mean_r)):
                return TypeVerdict(LABEL_PRODUCT, evidence)
        rs2 = np.array([sm.scalar * sm.s**2 for sm in samples])
        steady_dev = float(np.max(np.abs(rs2 + 4.0 / 9.0)))
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

