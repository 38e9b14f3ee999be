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

from .curvature import family_eigenvalues, family_weyl_sq
from .families import MetricFamily, SolitonData

DEFAULT_TOL_CLOSED = 1e-8
MIN_SAMPLES = 8

LABEL_EINSTEIN = "Einstein_i"
LABEL_PRODUCT = "Product_ii"
LABEL_STEADY = "SingularSteady_iii"
LABEL_WARPED = "WarpedLCF_iv"
LABEL_UNKNOWN = "Unknown"


@dataclass(frozen=True)
class EigenSignature:
    """Partition of the four eigenvalue slots by coincidence at tolerance."""

    groups: tuple[tuple[int, ...], ...]
    tol: float
    values: tuple[float, ...]

    def group_of(self, index: int) -> tuple[int, ...]:
        for grp in self.groups:
            if index in grp:
                return grp
        raise KeyError(index)

    def as_dict(self) -> dict:
        return {"groups": [list(g) for g in self.groups], "tol": self.tol,
                "values": list(self.values)}


def eigen_signature(values: Sequence[float], tol: float) -> EigenSignature:
    """Single-linkage grouping of four eigenvalues at threshold
    tol * max(1, max |value|).

    Deterministic: values are pre-sorted descending and ties merge
    left-to-right; groups are reported as (1-based) index sets of the input
    order.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    vals = np.asarray(values, dtype=float)
    if vals.shape != (4,):
        raise ValueError("need exactly 4 eigenvalues")
    thr = tol * max(1.0, float(np.max(np.abs(vals))))
    order = np.argsort(-vals, kind="stable")
    groups: list[list[int]] = [[int(order[0])]]
    for prev, cur in zip(order[:-1], order[1:]):
        if vals[prev] - vals[cur] <= thr:
            groups[-1].append(int(cur))
        else:
            groups.append([int(cur)])
    tuples = tuple(tuple(sorted(i + 1 for i in grp)) for grp in groups)
    reps = tuple(float(np.mean([vals[i - 1] for i in grp])) for grp in tuples)
    return EigenSignature(tuples, tol, reps)


@dataclass(frozen=True)
class ClassifySample:
    s: float
    eigenvalues: tuple[float, float, float, float]
    fprime: float
    scalar: float
    weyl_sq: float


def sample_family(m: MetricFamily, sol: SolitonData, s_values) -> list[ClassifySample]:
    """Closed-form classification samples of a family along s."""
    out = []
    for s in s_values:
        s = float(s)
        l1, l2, l3, l4, scalar = family_eigenvalues(m, s)
        out.append(ClassifySample(s, (l1, l2, l3, l4), sol.f.d1(s), scalar,
                                  family_weyl_sq(m, s)))
    return out


@dataclass(frozen=True)
class TypeVerdict:
    label: str
    evidence: dict[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    sub_label: str | None = None
    signatures: tuple[EigenSignature, ...] = ()

    def as_dict(self) -> dict:
        out = {"label": self.label, "evidence": dict(self.evidence),
               "notes": list(self.notes)}
        if self.sub_label is not None:
            out["sub_label"] = self.sub_label
        return out


def _pair_structure(sig: EigenSignature) -> bool:
    """lambda_3 and lambda_4 coincide while lambda_2 stays apart."""
    g3 = sig.group_of(3)
    return 4 in g3 and 2 not in g3


def classify(samples: Sequence[ClassifySample], tol: float = DEFAULT_TOL_CLOSED,
             h_data=None, flag_signature_changes: bool = False) -> TypeVerdict:
    """Match sampled soliton data against the four local types.

    ``h_data``, when given, is a matched sequence of (h, h', h'') used only
    to sub-label the warped type as "gaussian" (h'' = 0, h' != 0) or
    "cylinder" (h' = 0).  ``flag_signature_changes`` adds a note when the
    per-sample signatures are not all identical.
    """
    if len(samples) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {len(samples)}")
    sigs = tuple(eigen_signature(sm.eigenvalues, tol) for sm in samples)
    evidence: dict[str, float] = {}
    notes: list[str] = []
    if flag_signature_changes and len({s.groups for s in sigs}) > 1:
        notes.append("per-sample eigenvalue signatures are not constant")

    scale = max(1.0, max(abs(sm.scalar) for sm in samples),
                max(max(abs(e) for e in sm.eigenvalues) for sm in samples))
    max_fp = max(abs(sm.fprime) for sm in samples)
    evidence["max_abs_fprime"] = max_fp
    if max_fp <= tol:
        return TypeVerdict(LABEL_EINSTEIN, evidence, tuple(notes), None, sigs)

    max_w2 = max(abs(sm.weyl_sq) for sm in samples)
    evidence["max_weyl_sq"] = max_w2
    if max_w2 <= tol * scale:
        sub = _warped_sub_label(h_data, tol) if h_data is not None else None
        return TypeVerdict(LABEL_WARPED, evidence, tuple(notes), sub, sigs)

    pair_frac = float(np.mean([_pair_structure(s) for s in sigs]))
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
                return TypeVerdict(LABEL_PRODUCT, evidence, tuple(notes), None, sigs)
        rs2 = np.array([sm.scalar * sm.s**2 for sm in samples])
        steady_dev = float(np.max(np.abs(rs2 + 4.0 / 9.0)))
        evidence["scalar_s2_plus_4_9_dev"] = steady_dev
        if steady_dev <= tol:
            return TypeVerdict(LABEL_STEADY, evidence, tuple(notes), None, sigs)

    distinct = all(len({s.group_of(i) for i in (2, 3, 4)}) == 3 for s in sigs)
    if distinct:
        notes.append("pairwise-distinct level-surface eigenvalues with a "
                     "nonzero potential slope cannot occur on a true soliton")
    return TypeVerdict(LABEL_UNKNOWN, evidence, tuple(notes), None, sigs)


def _warped_sub_label(h_data, tol: float) -> str | None:
    h_data = list(h_data)
    max_h1 = max(abs(row[1]) for row in h_data)
    max_h2 = max(abs(row[2]) for row in h_data)
    if max_h1 <= tol:
        return "cylinder"
    if max_h2 <= tol:
        return "gaussian"
    return None
