"""Residual checkers for the defining soliton identities.

Three independent checks, all evaluated on the closed-form side so that
equation error is isolated from differentiation error:

* the gradient soliton equation  Hess f + Ric - lambda g = 0,
* the Codazzi condition on Ric - (R/6) g (divergence-free Weyl tensor),
* the conservation identities  R + |grad f|^2 - 2 lambda f = const  and
  dR/2 = lambda_1 f' satisfied by every gradient soliton.

Each check evaluates the closed forms once, over its whole sample array,
and returns its `Evidence` under the scale rule of :mod:`solitonlab.report`.
The scale sigma of a sample is the largest of zeta_i^2 and the |sectional
curvatures| of its table, the terms that each curvature value is computed
from, and of the |terms| of the soliton's own identity in the checks that
take one: |f''|, |zeta_i f'| and |lambda| beside the Hessian entries (d =
2), |lambda_1 f'|^(2/3) beside R'/2 - lambda_1 f' (d = 3), and f'^2 and
|2 lambda f| beside the conserved quantity R + f'^2 - 2 lambda f (d = 2),
whose deviation from its mean is judged against the largest sigma of the
samples.  The Codazzi components have d = 3.
`oracle_deviation` cross-checks the closed forms against the independent
finite-difference engine of :mod:`solitonlab.fdgrid`.
"""

from __future__ import annotations

import numpy as np

from .curvature import (_finite, codazzi_components, family_eigenvalues,
                        family_table, float_semantics)
from .families import MetricFamily, SolitonData
from .fdgrid import MARGIN_CURVATURE, MetricGrid, fd_ricci_block
from .frames import sym_eigvals
from .report import Evidence, weigh


def _scale(t, *terms):
    """sigma at each sample of the table t: the largest of zeta_i^2, the
    |sectional curvatures| and the |``terms``| of a soliton's identity, each
    of length dimension 2."""
    return np.abs([*(z * z for z in t.zeta), *t.sectional, *terms]).max(axis=0)


@float_semantics
def _componentwise(m: MetricFamily, samples, check, keys, dim, components) -> Evidence:
    """`Evidence` of the residual components of ``components(table, s)``,
    named by ``keys`` and each of length dimension ``dim``, against the
    sigma that it returns with them; a component that overflows is a
    DomainError of the ``check``."""
    s = np.asarray(samples, dtype=float)
    t = family_table(m, s)
    comps, sigma = components(t, s)
    comps = np.abs(np.array(_finite(s, *comps, what=f"{check} residual")))
    return weigh(s, comps, [dim], sigma, dict(zip(keys, comps.max(axis=1).tolist())),
                 what=f"{check} residual")


def soliton_residual(m: MetricFamily, sol: SolitonData, samples) -> Evidence:
    """sup-norm of Hess f + Ric - lambda g over the samples.

    The Hessian of an s-profiled potential is frame diagonal with entries
    (f'', zeta_2 f', zeta_3 f', zeta_4 f'), so the residual matrix is
    diagonal and the report carries one entry per frame direction.
    """
    def hessian_entries(t, s):
        fp, lam = sol.f.d1(s), np.full_like(s, sol.lam)
        hess = [sol.f.d2(s), *(z * fp for z in t.zeta)]
        return [h + e - lam for h, e in zip(hess, t.lam)], _scale(t, *hess, lam)

    return _componentwise(m, samples, "soliton", [f"hess_{i}{i}" for i in (1, 2, 3, 4)], 2,
                          hessian_entries)


def codazzi_residual_closed(m: MetricFamily, samples) -> Evidence:
    """Closed-form Codazzi residual of Ric - (R/6) g on the ansatz.

    For the s-profiled block metrics the only components that can survive
    are D_i = lam_i' + zeta_i (lam_i - lam_1) - R'/6 for the three
    level-surface directions; the report carries each of them.
    """
    return _componentwise(m, samples, "Codazzi", [f"direction_{i}" for i in (2, 3, 4)], 3,
                          lambda t, s: (codazzi_components(t), _scale(t)))


@float_semantics
def hamilton_check(m: MetricFamily, sol: SolitonData, samples) -> Evidence:
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
    fp2, lam_f, slope = fp * fp, 2.0 * sol.lam * sol.f.value(s), t.lam[0] * fp
    conserved, slope_res = _finite(s, t.scalar + fp2 - lam_f, np.abs(0.5 * t.scalarp - slope),
                                   what="conservation identity")
    mean = float(np.mean(conserved))
    dev = np.abs(conserved - mean)
    per_eq = {"conserved_deviation": float(dev.max()),
              "conserved_mean": mean,
              "scalar_slope": float(slope_res.max())}
    sigma = [np.full_like(s, _scale(t, fp2, lam_f).max()), _scale(t, np.cbrt(slope) ** 2)]
    return weigh(s, [dev, slope_res], (2, 3), sigma, per_eq, what="conservation identity")


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
