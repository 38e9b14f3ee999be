"""Residual checkers for the defining soliton identities.

Three independent checks, all evaluated on the closed-form side so that
equation error is isolated from differentiation error:

* the gradient soliton equation  Hess f + Ric - lambda g = 0,
* the Codazzi condition on Ric - (R/6) g (divergence-free Weyl tensor),
* the conservation identities  R + |grad f|^2 - 2 lambda f = const  and
  dR/2 = lambda_1 f' satisfied by every gradient soliton.

Each check evaluates the closed forms once, over its whole sample array.
`oracle_deviation` cross-checks the closed forms against the independent
finite-difference engine of :mod:`solitonlab.fdgrid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import (_finite, codazzi_components, family_eigenvalues,
                        family_table, float_semantics)
from .families import MetricFamily, SolitonData
from .fdgrid import MARGIN_CURVATURE, MetricGrid, fd_ricci_block
from .frames import sym_eigvals

CURVATURE_SCALE_FLOOR = 1e-8


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case residuals of one check over a sample set."""

    max_abs: float
    max_rel: float
    worst_point: float
    per_equation: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"max_abs": self.max_abs, "max_rel": self.max_rel,
                "worst_point": self.worst_point,
                "per_equation": dict(self.per_equation)}


def _report(samples, abs_values, scales, per_equation) -> ResidualReport:
    worst = int(np.argmax(abs_values))
    rels = abs_values / np.maximum(scales, CURVATURE_SCALE_FLOOR)
    return ResidualReport(float(abs_values[worst]), float(rels.max()),
                          float(samples[worst]), per_equation)


@float_semantics
def _componentwise(m: MetricFamily, samples, check, keys, components) -> ResidualReport:
    """Report of the residual components ``components(table, s)``, named by
    ``keys``, over the samples, each relative to |R| at its sample; a
    component that overflows is a DomainError of the ``check``."""
    s = np.asarray(samples, dtype=float)
    t = family_table(m, s)
    comps = np.abs(np.array(_finite(s, *components(t, s), what=f"{check} residual")))
    per_eq = dict(zip(keys, comps.max(axis=1).tolist()))
    return _report(s, comps.max(axis=0), np.abs(t.scalar), per_eq)


def soliton_residual(m: MetricFamily, sol: SolitonData, samples) -> ResidualReport:
    """sup-norm of Hess f + Ric - lambda g over the samples.

    The Hessian of an s-profiled potential is frame diagonal with entries
    (f'', zeta_2 f', zeta_3 f', zeta_4 f'), so the residual matrix is
    diagonal and the report carries one entry per frame direction.
    """
    def hessian_entries(t, s):
        fp = sol.f.d1(s)
        return [sol.f.d2(s) + t.lam[0] - sol.lam] + [
            z * fp + e - sol.lam for z, e in zip(t.zeta, t.lam[1:])]

    return _componentwise(m, samples, "soliton", [f"hess_{i}{i}" for i in (1, 2, 3, 4)],
                          hessian_entries)


def codazzi_residual_closed(m: MetricFamily, samples) -> ResidualReport:
    """Closed-form Codazzi residual of Ric - (R/6) g on the ansatz.

    For the s-profiled block metrics the only components that can survive
    are D_i = lam_i' + zeta_i (lam_i - lam_1) - R'/6 for the three
    level-surface directions; the report carries each of them.
    """
    return _componentwise(m, samples, "Codazzi", [f"direction_{i}" for i in (2, 3, 4)],
                          lambda t, s: codazzi_components(t))


@float_semantics
def hamilton_check(m: MetricFamily, sol: SolitonData, samples) -> ResidualReport:
    """Conservation identities over an s-sample set.

    ``conserved_deviation``: max deviation of R + (f')^2 - 2 lambda f from
    its sample mean.  ``scalar_slope``: max of |R'/2 - lambda_1 f'|.  The
    mean itself is reported as ``conserved_mean`` (it is exactly zero for
    the singular steady normalization).
    """
    s = np.asarray(samples, dtype=float)
    if len(s) < 3:
        raise ValueError("hamilton_check needs at least 3 samples")
    t = family_table(m, s)
    fp = sol.f.d1(s)
    conserved, slope_res = _finite(
        s, t.scalar + fp * fp - 2.0 * sol.lam * sol.f.value(s),
        np.abs(0.5 * t.scalarp - t.lam[0] * fp), what="conservation identity")
    mean = float(np.mean(conserved))
    dev = np.abs(conserved - mean)
    per_eq = {"conserved_deviation": float(dev.max()),
              "conserved_mean": mean,
              "scalar_slope": float(slope_res.max())}
    return _report(s, np.maximum(dev, slope_res), np.abs(t.scalar), per_eq)


def oracle_deviation(m: MetricFamily, grid: MetricGrid, nodes) -> np.ndarray:
    """Per-node deviation of FD Ricci eigenvalues and R on a grid of ``m``
    (first axis s) from the closed forms, relative to max(1, |R|, max
    |lambda_i|) of the closed form."""
    nodes = grid.require_interior(nodes, MARGIN_CURVATURE)
    blk = fd_ricci_block(grid, nodes)
    s_index, where = np.unique(nodes[:, 0], return_inverse=True)
    cf = np.array(family_eigenvalues(m, grid.axes[0][s_index])).T[where]
    expected = np.sort(cf[:, :4], axis=1)[:, ::-1]
    eig_dev = np.abs(sym_eigvals(blk["ric"], blk["g"]) - expected).max(axis=1)
    dev = np.maximum(eig_dev, np.abs(blk["scalar"] - cf[:, 4]))
    scale = np.maximum(1.0, np.maximum(np.abs(cf[:, 4]), np.abs(cf[:, :4]).max(axis=1)))
    return dev / scale
