"""Finite-difference curvature on uniform coordinate grids.

This is the brute-force oracle for the closed-form results: it knows nothing
about warped structure, takes raw metric components g_ij on a 4-d product
grid, and produces Christoffel symbols, Riemann/Ricci/scalar/Weyl curvature
and the Codazzi residual of Ric - (R/6) g by 4th-order central differences.

Stencils are fixed at 5 points.  First and second metric derivatives are
taken at the node itself.  Ricci and R come straight from the connection and
its chain-rule derivative; only `fd_curvature` builds the rank-4 Riemann
tensor, at its one node.  For the covariant derivative of Ricci, Ricci and
R are evaluated once on the distinct stencil neighbourhood of a batch of
nodes, and the first-derivative stencil is applied to that field, so the
Codazzi residual needs a margin of 4 nodes while plain curvature needs 2.
Ricci is evaluated in blocks of 256 nodes, which bounds the memory of its
temporaries on any batch size.

Grids can carry a different node count per axis.  Accuracy is set by the
spacing, not the count, so axes the metric does not vary along (Killing
directions of the families) only need the minimal 2*margin+1 nodes.

The metric array may be a read-only broadcast view with stride 0 along such
axes, as `grid_from_family` returns it: g is then stored once per node of
the non-Killing sub-grid, and callers must copy it before writing to it.
Validation runs on that distinct slice.  Every derivative along a stride-0
axis, pure or mixed, is exactly zero by the form of the stencils, so the
metric stencils and the Codazzi stencil skip those axes, and a dense copy of
the grid gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridBoundaryError
from .families import MetricFamily, family_metric
from .frames import DIM, _cholesky, _sym2, tensor_norm

MARGIN_CURVATURE = 2
MARGIN_CODAZZI = 4

# 4th-order central stencils on 5 points
_D1_W = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2_W = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFSETS = np.array([-2, -1, 0, 1, 2])

# nodes per block of `_ricci_blocks`; its largest temporaries are the
# (N, 4, 4, 4, 4) second derivatives and their stencil taps.  On the family
# grids 512 nodes were 1-10 % faster per node than 256 at 1.4-1.6x the peak
# memory, and 128 was 14-27 % slower.
_BLOCK = 256


@dataclass(frozen=True)
class CurvatureBundle:
    """Christoffel symbols, curvature tensors and the Codazzi residual of
    ``Ric - (R/6) g`` at one point.  `fd_curvature` builds it in the
    coordinate frame; the closed-form reference of the tests builds it in
    the orthonormal adapted frame.

    ``christoffel[k, i, j]`` is the coordinate symbol ``Gamma^k_ij`` in a
    coordinate frame and ``<grad_{E_i} E_j, E_k>`` in an orthonormal frame.
    """

    g: np.ndarray
    christoffel: np.ndarray
    riem: np.ndarray
    ric: np.ndarray
    scalar: float
    weyl: np.ndarray
    codazzi_residual: np.ndarray

    def weyl_norm_sq(self) -> float:
        return tensor_norm(self.weyl, self.g)

    def codazzi_norm_sq(self) -> float:
        return tensor_norm(self.codazzi_residual, self.g)


@dataclass(frozen=True)
class MetricGrid:
    """Uniform 4-d coordinate grid carrying metric components per node.

    Every distinct metric of the grid (one per node of the non-stride-0
    axes) must pass the one validity rule of `frames`: symmetric within
    1e-12 max(1, max |entry|), and a finite Cholesky factor.  The check
    runs in blocks of at most 16,384 metrics (`_assert_positive_definite`),
    so it needs a few MB beyond the grid itself, on any grid.
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    g: np.ndarray  # shape (n1, n2, n3, n4, 4, 4)

    def __post_init__(self):
        if len(self.axes) != DIM:
            raise ValueError("need 4 coordinate axes")
        for ax in self.axes:
            d = np.diff(ax)
            if len(d) == 0 or np.any(d <= 0):
                raise ValueError("axes must be strictly increasing")
            if np.max(np.abs(d - d[0])) > 1e-12 * max(1.0, abs(d[0])):
                raise ValueError("axes must be uniformly spaced")
        shape = tuple(len(ax) for ax in self.axes) + (DIM, DIM)
        if self.g.shape != shape:
            raise ValueError(f"metric array shape {self.g.shape} != {shape}")
        _assert_positive_definite(
            self.g[tuple(slice(0, 1) if b else slice(None) for b in self.broadcast_axes)])

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def broadcast_axes(self) -> tuple[bool, bool, bool, bool]:
        """Per axis, whether g is stored once along it (stride 0)."""
        return tuple(st == 0 for st in self.g.strides[:DIM])

    @property
    def spacings(self) -> np.ndarray:
        return np.array([ax[1] - ax[0] for ax in self.axes])

    def require_interior(self, nodes, margin: int) -> np.ndarray:
        """``nodes`` (one node or an (N, 4) batch) as an (N, 4) int array,
        after raising GridBoundaryError naming the first of them that lies
        within ``margin`` of the boundary."""
        nodes = np.atleast_2d(np.asarray(nodes, dtype=int))
        outside = np.any((nodes < margin)
                         | (nodes > np.array(self.shape) - 1 - margin), axis=1)
        if np.any(outside):
            node = tuple(int(i) for i in nodes[np.argmax(outside)])
            raise GridBoundaryError(
                f"node {node} too close to the boundary of {self.shape}")
        return nodes

    def interior_nodes(self, margin: int = MARGIN_CODAZZI) -> np.ndarray:
        ranges = [np.arange(margin, n - margin) for n in self.shape]
        mesh = np.meshgrid(*ranges, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def _assert_positive_definite(g: np.ndarray) -> None:
    """A ValueError unless every metric of g, shaped (n1, n2, n3, n4, 4, 4),
    passes the validity rule of `frames`: `_sym2`'s symmetry test, then a
    finite Cholesky factor (`_cholesky`).

    It runs on blocks of at most ``step`` matrices (2 MB), whatever g's
    shape and strides: rows of the first axis whose trailing grid axes hold
    at most ``step`` matrices, one block per index of the axes before it.
    Each block is reshaped on its own, so no full-size copy or temporary is
    made.
    """
    step = 16384
    lead = next(a for a in range(DIM) if math.prod(g.shape[a + 1:DIM]) <= step)
    rows = step // math.prod(g.shape[lead + 1:DIM])
    blocks = ((*outer, slice(lo, lo + rows)) for outer in np.ndindex(g.shape[:lead])
              for lo in range(0, g.shape[lead], rows))
    for block in blocks:
        chunk = g[block].reshape(-1, DIM, DIM)
        try:
            with np.errstate(invalid="ignore"):  # NaN and inf fail the Cholesky test
                _cholesky(_sym2(chunk, chunk.shape))
        except DomainError as exc:
            raise ValueError("metric is not positive definite on the grid") from exc
        except ValueError as exc:  # `_sym2` numbers the matrix within the chunk
            raise ValueError("metric components must be symmetric") from exc


# ---------------------------------------------------------------------------
# batched derivative machinery

def _metric_derivs(grid: MetricGrid, nodes: np.ndarray):
    """(g, dg, d2g) at a batch of nodes: dg[n,l,a,b] = d_l g_ab and
    d2g[n,l,m,a,b] = d_l d_m g_ab.

    Every stencil value comes from one ``np.take`` on the distinct slice of
    g (length 1 along stride-0 axes), flattened: the nodes' flat indices
    plus each stencil shift's flat offset, which is 0 along stride-0 axes.
    """
    h = grid.spacings
    # derivatives along a broadcast (stride-0) axis are exactly 0, pure and
    # mixed alike (see the stencils below): they are skipped
    skip = grid.broadcast_axes
    distinct = grid.g[tuple(slice(0, 1) if b else slice(None) for b in skip)]
    stride = np.array([0 if skip[l] else math.prod(distinct.shape[l + 1:DIM])
                       for l in range(DIM)])
    axes = [l for l in range(DIM) if not skip[l]]
    pairs = [(a, b) for a in range(len(axes)) for b in range(a + 1, len(axes))]
    nz = np.flatnonzero(_D1_W)
    # shifts in the order they are used: the node, the 5 points along each
    # of `axes`, then the nz x nz mixed taps of each pair
    shifts = ([0] + [o * stride[l] for l in axes for o in _OFFSETS]
              + [_OFFSETS[i] * stride[axes[a]] + _OFFSETS[j] * stride[axes[b]]
                 for a, b in pairs for i in nz for j in nz])
    vals = distinct.reshape(-1, DIM, DIM).take(
        nodes @ stride + np.array(shifts)[:, None], axis=0)
    N, n_line = nodes.shape[0], 1 + len(axes) * len(_OFFSETS)
    g0 = vals[0]
    lines = vals[1:n_line].reshape(len(axes), len(_OFFSETS), N, DIM, DIM) - g0
    dg = np.zeros((N, DIM, DIM, DIM))
    d2g = np.zeros((N, DIM, DIM, DIM, DIM))
    for l, stack in zip(axes, lines):
        dg[:, l] = np.tensordot(_D1_W, stack, axes=(0, 0)) / h[l]
        d2g[:, l, l] = np.tensordot(_D2_W, stack, axes=(0, 0)) / h[l] ** 2
    # mixed: the first-derivative stencil along m, then along l, each as
    # w_1 (g_1 - g_-1) + w_2 (g_2 - g_-2) (the weights are odd).  Every
    # difference is exactly 0 where g is constant along that axis, and every
    # l-offset runs the same operations, so the result is exactly 0 when g
    # is constant along l or along m.
    taps = vals[n_line:].reshape(len(pairs), len(nz), len(nz), N, DIM, DIM)
    inner = _odd_stencil(taps, axis=2)
    for (a, b), acc in zip(pairs, _odd_stencil(inner, axis=1)):
        l, m = axes[a], axes[b]
        d2g[:, l, m] = d2g[:, m, l] = acc / (h[l] * h[m])
    return g0, dg, d2g


def _odd_stencil(vals: np.ndarray, axis: int) -> np.ndarray:
    """The 4th-order first-derivative stencil (unscaled) along ``axis`` of
    ``vals``, which holds the 4 off-center taps -2, -1, 1, 2."""
    v = np.moveaxis(vals, axis, 0)
    return _D1_W[3] * (v[2] - v[1]) + _D1_W[4] * (v[3] - v[0])


def _connection(g0: np.ndarray, dg: np.ndarray):
    """(ginv_t, bracket, gam_t) from the 1-jet at a batch of nodes: the
    transposed inverse metric, bracket[n,ab,d] = d_a g_db + d_b g_da - d_d g_ab
    and gam_t[n,a,b,c] = Gamma^c_ab, upper index last."""
    N = g0.shape[0]
    ginv_t = np.ascontiguousarray(np.swapaxes(np.linalg.inv(g0), 1, 2))
    bracket = (np.einsum("nadb->nabd", dg) + np.einsum("nbda->nabd", dg)
               - np.einsum("ndab->nabd", dg)).reshape(N, DIM * DIM, DIM)
    gam_t = (0.5 * (bracket @ ginv_t)).reshape(N, DIM, DIM, DIM)
    return ginv_t, bracket, gam_t


def _ricci(dg, d2g, ginv_t, bracket, gam_t):
    """(ric, scalar) straight from the connection:
    Ric_jk = d_i Gamma^i_jk - d_j Gamma^i_ik
             + Gamma^i_ip Gamma^p_jk - Gamma^i_jp Gamma^p_ik,   R = g^jk Ric_jk.

    d Gamma comes by the chain rule from the 2-jet, and the trace is
    Gamma^i_ik = 1/2 g^ab d_k g_ab, so no rank-5 tensor is built: every
    contraction is a batched matmul of at most (N, 16, 16).
    """
    N = dg.shape[0]
    sq = DIM * DIM
    row = ginv_t.reshape(N, 1, sq)                  # g^ab as a row over ab
    col = np.swapaxes(row, 1, 2)
    hess = d2g.reshape(N, sq, sq)                   # [n, lm, ab] = d_l d_m g_ab
    # 2 d_i Gamma^i_jk = (d_i g^id) bracket_jkd
    #                  + g^id (d_j d_i g_dk + d_k d_i g_dj - d_i d_d g_jk)
    div_ginv = -(row @ dg.reshape(N, sq, DIM)) @ ginv_t          # d_i g^id
    cross = (row[:, None] @ d2g.reshape(N, DIM, sq, DIM)).reshape(N, DIM, DIM)
    div_gam = ((bracket @ np.swapaxes(div_ginv, 1, 2)).reshape(N, DIM, DIM)
               + cross + np.swapaxes(cross, 1, 2) - (row @ hess).reshape(N, DIM, DIM))
    # 2 d_j Gamma^i_ik = g^ab d_j d_k g_ab - tr(g^-1 d_j g g^-1 d_k g)
    gdg = ginv_t[:, None] @ dg                                   # [n,j] = g^-1 d_j g
    grad_trace = ((hess @ col).reshape(N, DIM, DIM)
                  - gdg.reshape(N, DIM, sq) @ gdg.transpose(0, 3, 2, 1).reshape(N, sq, DIM))
    # Gamma^i_ip Gamma^p_jk - Gamma^i_jp Gamma^p_ik, the second as
    # [j, pi] @ [pi, k]
    quad = ((gam_t.reshape(N, sq, DIM) @ (0.5 * (dg.reshape(N, DIM, sq) @ col)))
            .reshape(N, DIM, DIM)
            - gam_t.reshape(N, DIM, sq) @ gam_t.transpose(0, 3, 1, 2).reshape(N, sq, DIM))
    ric = 0.5 * (div_gam - grad_trace) + quad
    return ric, (row @ ric.reshape(N, sq, 1)).reshape(N)


def _riemann(g0, dg, d2g, ginv_t, bracket, gam_t):
    """riem[n,i,j,k,l] = g_lm R^m_ijk at a batch of nodes, from the 2-jet and
    the connection.  R^c_ijk is built with the upper index last, so the
    contractions with g and g^-1 are batched matmuls over the trailing axes.
    """
    N = g0.shape[0]
    # d_l of the bracket and of g^{-1}, for d_l Gamma^c_ab
    dbracket = (np.einsum("nladb->nlabd", d2g) + np.einsum("nlbda->nlabd", d2g)
                - np.einsum("nldab->nlabd", d2g)).reshape(N, DIM, DIM * DIM, DIM)
    dginv_t = -(ginv_t[:, None] @ np.swapaxes(dg, 2, 3) @ ginv_t[:, None])
    # dgam_t[n,l,a,b,c] = d_l Gamma^c_ab
    dgam_t = 0.5 * (dbracket @ ginv_t[:, None] + bracket[:, None] @ dginv_t)
    # rup_t[n,i,j,k,c] = R^c_ijk = d_i Gamma^c_jk - d_j Gamma^c_ik
    #                            + Gamma^m_jk Gamma^c_im - Gamma^m_ik Gamma^c_jm
    quad = gam_t[:, None, :, :, 0, None] * gam_t[:, :, None, None, 0, :]
    for m in range(1, DIM):
        quad += gam_t[:, None, :, :, m, None] * gam_t[:, :, None, None, m, :]
    dgam_t = dgam_t.reshape((N,) + (DIM,) * 4)
    rup_t = dgam_t - dgam_t.transpose(0, 2, 1, 3, 4)
    rup_t += quad
    rup_t -= quad.transpose(0, 2, 1, 3, 4)
    rup_t = rup_t.reshape(N, DIM ** 3, DIM)
    return (g0 @ np.swapaxes(rup_t, 1, 2)).reshape((N,) + (DIM,) * 4).transpose(0, 2, 3, 4, 1)


def _weyl_batch(riem, ric, scalar, g0):
    kulkarni = (np.einsum("nik,njl->nijkl", g0, ric)
                - np.einsum("nil,njk->nijkl", g0, ric)
                + np.einsum("njl,nik->nijkl", g0, ric)
                - np.einsum("njk,nil->nijkl", g0, ric))
    metric_part = (np.einsum("nik,njl->nijkl", g0, g0)
                   - np.einsum("nil,njk->nijkl", g0, g0))
    return riem + 0.5 * kulkarni - (scalar[:, None, None, None, None] / 6.0) * metric_part


def _ricci_blocks(grid: MetricGrid, nodes: np.ndarray, christoffel_at=()):
    """(g0, gam, ric, scalar) at interior nodes, with gam only at
    ``nodes[christoffel_at]``.  It runs on `_BLOCK` nodes at a time, writing
    into preallocated outputs, which caps its temporaries."""
    n = nodes.shape[0]
    want = np.asarray(christoffel_at, dtype=int)
    g0, ric, scalar = np.empty((n, DIM, DIM)), np.empty((n, DIM, DIM)), np.empty(n)
    gam = np.empty((len(want), DIM, DIM, DIM))
    for lo in range(0, n, _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        g0[blk], dg, d2g = _metric_derivs(grid, nodes[blk])
        ginv_t, bracket, gam_t = _connection(g0[blk], dg)
        ric[blk], scalar[blk] = _ricci(dg, d2g, ginv_t, bracket, gam_t)
        here = (want >= lo) & (want < lo + _BLOCK)
        gam[here] = gam_t[want[here] - lo].transpose(0, 3, 1, 2)
    return g0, gam, ric, scalar


def _codazzi_batch(grid: MetricGrid, nodes: np.ndarray):
    """Codazzi residual C_kij = cov_k Ric_ij - cov_i Ric_kj
    + (d_i R / 6) g_kj - (d_k R / 6) g_ij at the batch nodes.

    Ricci and R are evaluated once on the distinct stencil neighbourhood of
    the batch, in blocks of `_BLOCK` nodes: the nodes and their +-1, +-2
    neighbours along every axis where g is not stride-0, deduplicated by
    flat index.  The 5-point first-derivative stencil is then applied to
    that one field.  Stride-0 axes are skipped: the Ricci differences along
    them are exactly 0.
    """
    N = nodes.shape[0]
    h = grid.spacings
    axes = [l for l in range(DIM) if not grid.broadcast_axes[l]]
    # the nodes themselves, then the 5-point stencil along each of `axes`
    shifts = np.zeros((1 + len(axes) * len(_OFFSETS), DIM), dtype=int)
    for i, l in enumerate(axes):
        shifts[1 + i * len(_OFFSETS):1 + (i + 1) * len(_OFFSETS), l] = _OFFSETS
    flat = np.ravel_multi_index(tuple((nodes + shifts[:, None]).reshape(-1, DIM).T),
                                grid.shape)
    distinct, where = np.unique(flat, return_inverse=True)
    where = where.reshape(len(shifts), N)
    center, stencils = where[0], where[1:].reshape(len(axes), len(_OFFSETS), N)
    g0, gam, ric, scalar = _ricci_blocks(
        grid, np.stack(np.unravel_index(distinct, grid.shape), axis=1), center)
    g0, ric_c, scal_c = g0[center], ric[center], scalar[center]
    dric = np.zeros((N, DIM, DIM, DIM))
    dscal = np.zeros((N, DIM))
    for l, stencil in zip(axes, stencils):
        dric[:, l] = np.tensordot(_D1_W, ric[stencil] - ric_c, axes=(0, 0)) / h[l]
        dscal[:, l] = np.tensordot(_D1_W, scalar[stencil] - scal_c, axes=(0, 0)) / h[l]
    cov = (dric - np.einsum("nmki,nmj->nkij", gam, ric_c)
           - np.einsum("nmkj,nim->nkij", gam, ric_c))
    return (cov - cov.transpose(0, 2, 1, 3)
            + np.einsum("ni,nkj->nkij", dscal, g0) / 6.0
            - np.einsum("nk,nij->nkij", dscal, g0) / 6.0)


def fd_ricci_block(grid: MetricGrid, nodes) -> dict[str, np.ndarray]:
    """Batched Ricci/scalar (with the node metrics) at interior nodes."""
    nodes = grid.require_interior(nodes, MARGIN_CURVATURE)
    g0, _, ric, scalar = _ricci_blocks(grid, nodes)
    return {"g": g0, "ric": ric, "scalar": scalar}


def fd_curvature(grid: MetricGrid, node) -> CurvatureBundle:
    """Full curvature bundle (coordinate frame) at one interior node.

    Needs the full Codazzi margin (4 nodes) on every axis.
    """
    nodes = grid.require_interior(tuple(int(i) for i in node), MARGIN_CODAZZI)
    g0, dg, d2g = _metric_derivs(grid, nodes)
    conn = _connection(g0, dg)
    ric, scalar = _ricci(dg, d2g, *conn)
    riem = _riemann(g0, dg, d2g, *conn)
    weyl = _weyl_batch(riem, ric, scalar, g0)
    gam = conn[2].transpose(0, 3, 1, 2)
    codazzi = _codazzi_batch(grid, nodes)
    return CurvatureBundle(g0[0], gam[0], riem[0], ric[0], float(scalar[0]), weyl[0],
                           codazzi[0])


def fd_codazzi_block(grid: MetricGrid, nodes) -> np.ndarray:
    nodes = grid.require_interior(nodes, MARGIN_CODAZZI)
    return _codazzi_batch(grid, nodes)


# ---------------------------------------------------------------------------
# grid construction from families

def grid_from_family(m: MetricFamily, s_range=(0.5, 2.0), n_s: int = 129,
                     r_range=None, n_r: int | None = None) -> MetricGrid:
    """Sample a family chart onto a MetricGrid.

    The s and fiber-radial axes get full resolution; axes the metric does
    not vary along (t, phi; theta for 2-d fibers) get the 2 * MARGIN_CODAZZI
    + 1 nodes of one Codazzi stencil, at the s-spacing.  For warped3 the
    theta axis also uses the s-spacing, centered at theta = pi/2.  The
    metric comes from `family_metric`, so every s node must lie in the
    family domain.

    The metric is stored once per node of the non-Killing axes (s, r and,
    for warped3, theta): ``grid.g`` is a read-only ``np.broadcast_to`` view
    with stride 0 along the Killing axes (t and phi for doubly-warped
    families, phi for warped3).  Copy it before writing to it.
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    ds = (hi - lo) / (n_s - 1)
    n_r = n_s if n_r is None else n_r
    if r_range is None:
        r_range = (0.6, 2.1) if m.k > 0 else (0.5, 2.0)
    rlo, rhi = float(r_range[0]), float(r_range[1])
    dr = (rhi - rlo) / (n_r - 1)
    if rlo < 10.0 * dr:
        raise DomainError("fiber radial range must stay 10 spacings away from u = 0")
    s_ax = np.linspace(lo, hi, n_s)
    r_ax = np.linspace(rlo, rhi, n_r)
    offsets = ds * (np.arange(2 * MARGIN_CODAZZI + 1) - MARGIN_CODAZZI)
    cross = lambda center: center + offsets
    if m.p is None:
        th_ax = cross(math.pi / 2.0)
        axes = (s_ax, r_ax, th_ax, cross(0.0))
        g = family_metric(m, s_ax, r_ax, th_ax)[:, :, :, None]
    else:
        axes = (s_ax, cross(0.0), r_ax, cross(0.0))
        g = family_metric(m, s_ax, r_ax)[:, None, :, None]
    shape = tuple(len(ax) for ax in axes) + (DIM, DIM)
    return MetricGrid(axes, np.broadcast_to(g, shape))
