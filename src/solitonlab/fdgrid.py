"""Finite-difference curvature on uniform coordinate grids.

This is the brute-force oracle for the closed-form results: it knows nothing
about warped structure, takes raw metric components g_ij on a 4-d product
grid, and produces Christoffel symbols, Riemann/Ricci/scalar/Weyl curvature
and the Codazzi residual of Ric - (R/6) g by 4th-order central differences
on 5 points.  Metric derivatives are taken on boxes of nodes, every stencil
tap a shifted slice of the grid over the box (`_jet`); Ricci and R come
straight from the connection and its chain-rule derivative.  One slab loop
(`_ricci_boxes`) serves every entry point: it evaluates Ricci and R on each
node it is given once, and the per-node fields of `_FIELDS` (the
connection, the rank-4 Riemann tensor) on the nodes of its leading box only,
so `fd_curvature` reads its node off box 0 of its Codazzi cross.

A node batch costs its bounding box (`fd_ricci_block`), and its Codazzi
residual the cross of boxes around that, exactly the stencil neighbourhood
of an s-line, differentiated node by node (`_codazzi_batch`); it needs a
margin of 4 nodes, plain curvature 2.  A pass holds its outputs and the
temporaries of one slab of at most `_BLOCK` nodes, about 1.4 MB at 256
nodes, freed before the next slab's jets are built; the node metrics it
returns are a copy of the grid over the box.

Grids can carry a different node count per axis.  Accuracy is set by the
spacing, not the count, so axes the metric does not vary along (Killing
directions of the families) only need the minimal 2*margin+1 nodes.  The
metric array may be a read-only broadcast view with stride 0 along such
axes, as `grid_from_family` returns it: g is then stored once per node of
the non-Killing sub-grid, and callers must copy it before writing to it.
Validation runs on that distinct slice, and a box spans one node of it
along each stride-0 axis.  Every derivative along a stride-0 axis, pure or
mixed, is exactly zero by the form of the stencils, so the stencils skip
those axes, and a dense copy of the grid gives the same bits.

A grid stores the full metric, shape (n1, n2, n3, n4, 4, 4), or a diagonal
metric by its diagonal, shape (n1, n2, n3, n4, 4): every family metric is
diagonal in its chart, so `grid_from_family` stores 4 floats per node, not
16.  The stencils run over the entries the grid stores, and `_put` writes
them into (n, 4, 4) jets whose other entries stay exactly 0, so the two
layouts of one metric give the same bits; nothing after `_jet` sees the
layout.  A full metric is valid when it passes the rule of `frames`
(`_sym2`, then `_cholesky`), a diagonal when every entry is finite and
> 0, which is LAPACK's verdict on the diagonal matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridBoundaryError
from .families import MetricFamily, family_diagonal
from .frames import DIM, _cholesky, _sym2

MARGIN_CURVATURE = 2
MARGIN_CODAZZI = 4

# 4th-order central stencils on 5 points
_D1_W = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2_W = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_OFFSETS = np.array([-2, -1, 0, 1, 2])

# nodes per slab of `_ricci_boxes`: a pass holds its outputs and one slab's
# temporaries, about 1.4 MB at 256 nodes.  For FD Ricci on all interior nodes
# of the 129-node family grids, 512 was 6-10 % faster at 1.3x the peak memory
# and 128 12-17 % slower; on the s-line Codazzi calls both were 7-11 % slower.
_BLOCK = 256


@dataclass(frozen=True)
class CurvatureBundle:
    """Christoffel symbols, curvature tensors and the Codazzi residual of
    ``Ric - (R/6) g`` at one node, in the coordinate frame, as `fd_curvature`
    reads them off its Codazzi cross.  ``christoffel[k, i, j]`` is
    ``Gamma^k_ij``; `frames.tensor_norm` gives |W|^2 and the squared norm
    of the residual.
    """

    g: np.ndarray
    christoffel: np.ndarray
    riem: np.ndarray
    ric: np.ndarray
    scalar: float
    weyl: np.ndarray
    codazzi_residual: np.ndarray


@dataclass(frozen=True)
class MetricGrid:
    """Uniform 4-d coordinate grid carrying metric components per node.

    ``g`` holds the full metric, shape (n1, n2, n3, n4, 4, 4), or a
    diagonal metric by its diagonal, shape (n1, n2, n3, n4, 4); the layout
    follows the shape.  Every distinct metric of the grid (one per node of
    the non-stride-0 axes) must be valid: a full one passes the rule of
    `frames`, symmetric within 1e-12 max(1, max |entry|) and a finite
    Cholesky factor; a diagonal has every entry finite and > 0, which is
    LAPACK's verdict on the diagonal matrix.  The check runs in blocks of
    at most 16,384 metrics (`_assert_positive_definite`), so it needs a few
    MB beyond the grid itself, on any grid.
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    g: np.ndarray  # shape (n1, n2, n3, n4, 4, 4), or (n1, n2, n3, n4, 4) for a diagonal

    def __post_init__(self):
        if len(self.axes) != DIM:
            raise ValueError("need 4 coordinate axes")
        for ax in self.axes:
            d = np.diff(ax)
            if len(d) == 0 or np.any(d <= 0):
                raise ValueError("axes must be strictly increasing")
            if np.max(np.abs(d - d[0])) > 1e-12 * max(1.0, abs(d[0])):
                raise ValueError("axes must be uniformly spaced")
        shape = tuple(len(ax) for ax in self.axes)
        if self.g.shape not in (shape + (DIM, DIM), shape + (DIM,)):
            raise ValueError(f"metric array shape {self.g.shape} != {shape} + (4, 4) or (4,)")
        _assert_positive_definite(self.distinct)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(len(ax) for ax in self.axes)

    @property
    def broadcast_axes(self) -> tuple[bool, bool, bool, bool]:
        """Per axis, whether g is stored once along it (stride 0)."""
        return tuple(st == 0 for st in self.g.strides[:DIM])

    @property
    def distinct(self) -> np.ndarray:
        """g with length 1 along the stride-0 axes: each distinct metric once."""
        return self.g[tuple(slice(0, 1) if b else slice(None) for b in self.broadcast_axes)]

    @property
    def spacings(self) -> np.ndarray:
        return np.array([ax[1] - ax[0] for ax in self.axes])

    def require_interior(self, nodes, margin: int) -> np.ndarray:
        """``nodes`` (one node of shape (4,) or an (N, 4) batch, N >= 0) as
        an (N, 4) int array.  It raises ValueError for any other shape and
        for the first node with an index that is not an integer, then
        GridBoundaryError naming the first node within ``margin`` of the
        boundary."""
        nodes = np.asarray(nodes)
        if nodes.shape != (DIM,) and (nodes.ndim != 2 or nodes.shape[1] != DIM):
            raise ValueError(f"nodes must have shape (4,) or (N, 4), not {nodes.shape}")
        if nodes.dtype.kind not in "iuf":
            raise ValueError(f"node indices must be integers, not {nodes.dtype}")
        nodes = nodes.reshape(-1, DIM)
        if nodes.dtype.kind == "f":
            with np.errstate(invalid="ignore"):
                fraction = np.any(~np.isfinite(nodes) | (nodes != np.round(nodes)), axis=1)
            if np.any(fraction):
                node = tuple(nodes[np.argmax(fraction)].tolist())
                raise ValueError(f"node {node} has an index that is not an integer")
        outside = np.any((nodes < margin)
                         | (nodes > np.array(self.shape) - 1 - margin), axis=1)
        if np.any(outside):
            node = tuple(int(i) for i in nodes[np.argmax(outside)])
            raise GridBoundaryError(
                f"node {node} too close to the boundary of {self.shape}")
        return nodes.astype(int, copy=False)

    def interior_nodes(self, margin: int = MARGIN_CODAZZI) -> np.ndarray:
        ranges = [np.arange(margin, n - margin) for n in self.shape]
        mesh = np.meshgrid(*ranges, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def _assert_positive_definite(g: np.ndarray) -> None:
    """A ValueError unless every metric of g is valid.  Full metrics,
    shaped (n1, n2, n3, n4, 4, 4), pass the rule of `frames`: `_sym2`'s
    symmetry test, then a finite Cholesky factor (`_cholesky`).  Diagonals,
    shaped (n1, n2, n3, n4, 4), have every entry finite and > 0: a diagonal
    matrix is symmetric, and LAPACK's Cholesky pivots of it are its
    entries, so this is the verdict of that route.

    It runs on the sub-boxes of at most 16,384 metrics (2 MB) of `_blocks`,
    whatever g's shape and strides.  Each block is reshaped on its own, so
    no full-size copy or temporary is made.
    """
    for start, extent in _blocks(g.shape[:DIM], 16384):
        chunk = np.asarray(g[_box(start, extent)], dtype=float)
        if chunk.ndim == DIM + 1:
            if not ((chunk > 0.0) & (chunk < np.inf)).all():  # NaN fails both
                raise ValueError("metric is not positive definite on the grid")
            continue
        chunk = chunk.reshape(-1, DIM, DIM)
        try:
            with np.errstate(invalid="ignore"):  # NaN and inf fail the Cholesky test
                _cholesky(_sym2(chunk, chunk.shape))
        except DomainError as exc:
            raise ValueError("metric is not positive definite on the grid") from exc
        except ValueError as exc:  # `_sym2` numbers the matrix within the chunk
            raise ValueError("metric components must be symmetric") from exc


def _blocks(shape, step: int):
    """The index box ``shape`` cut into C-order sub-boxes (start, extent) of
    at most ``step`` nodes: runs of rows of the first axis whose trailing
    axes hold at most ``step`` nodes, for each index of the axes before it."""
    lead = next(a for a in range(len(shape)) if math.prod(shape[a + 1:]) <= step)
    tail = tuple(shape[lead + 1:])
    rows = step // math.prod(tail)
    for outer in np.ndindex(*shape[:lead]):
        for lo in range(0, shape[lead], rows):
            yield ((*outer, lo) + (0,) * len(tail),
                   (1,) * lead + (min(rows, shape[lead] - lo),) + tail)


def _box(lo, shape) -> tuple[slice, ...]:
    return tuple(slice(a, a + n) for a, n in zip(lo, shape))


# ---------------------------------------------------------------------------
# derivatives on boxes of nodes

def _bounding_box(grid: MetricGrid, nodes: np.ndarray):
    """(lo, shape, rows) of a non-empty (N, 4) node batch: its bounding box
    in indices of `MetricGrid.distinct` (0 along stride-0 axes), and each
    node's row in the C order of that box, or None when the nodes are the
    box itself in C order."""
    at = np.where(grid.broadcast_axes, 0, nodes)
    lo = at.min(axis=0)
    shape = tuple((at.max(axis=0) - lo + 1).tolist())
    rows = np.ravel_multi_index(tuple((at - lo).T), shape)
    if len(rows) == math.prod(shape) and np.array_equal(rows, np.arange(len(rows))):
        rows = None
    return lo, shape, rows


def _jet(grid: MetricGrid, lo, shape):
    """(g, dg, d2g) on the box of ``shape`` at ``lo``, in indices of
    `MetricGrid.distinct`, as (n, ...) arrays over its nodes in C order:
    dg[n,l,a,b] = d_l g_ab and d2g[n,l,m,a,b] = d_l d_m g_ab.

    Every stencil tap is one shifted slice of the distinct slice of g, over
    the entries the grid stores (`_put` writes them into the jets), and the
    inner pass of a mixed stencil is computed once per point of the box
    widened along its outer axis, not once per node and outer tap.
    """
    h, g = grid.spacings, grid.distinct
    # derivatives along a broadcast (stride-0) axis are exactly 0, pure and
    # mixed alike (see the stencils below): they are skipped
    axes = [l for l, skip in enumerate(grid.broadcast_axes) if not skip]
    lo, n = [int(a) for a in lo], math.prod(shape)
    box = list(_box(lo, shape))

    def view(axis, offset, pad=None):
        """The box moved by ``offset`` along ``axis``, widened by 2 on each
        side along ``pad``."""
        at = box.copy()
        at[axis] = slice(lo[axis] + offset, lo[axis] + offset + shape[axis])
        if pad is not None:
            at[pad] = slice(lo[pad] - 2, lo[pad] + shape[pad] + 2)
        return g[tuple(at)]

    g0 = view(0, 0)
    dg = np.zeros((n, DIM, DIM, DIM))
    d2g = np.zeros((n, DIM, DIM, DIM, DIM))
    for l in axes:
        taps = np.empty((len(_OFFSETS),) + g0.shape)
        for tap, o in zip(taps, _OFFSETS):
            np.subtract(view(l, o), g0, out=tap)
        _put(dg[:, l], _stencil(_D1_W, taps) / h[l])
        _put(d2g[:, l, l], _stencil(_D2_W, taps) / h[l] ** 2)
    # mixed: the odd first-derivative stencil along m over the box widened
    # by 2 along l, then the same stencil along l on slices of that.  Every
    # difference is exactly 0 where g is constant along that axis, so the
    # result is exactly 0 when g is constant along l or along m.
    for i, l in enumerate(axes):
        for m in axes[i + 1:]:
            inner = _odd_stencil(lambda o: view(m, o, pad=l))
            acc = _odd_stencil(lambda o: inner[(slice(None),) * l
                                               + (slice(2 + o, 2 + o + shape[l]),)])
            _put(d2g[:, l, m], acc / (h[l] * h[m]))
            d2g[:, m, l] = d2g[:, l, m]
    return _node_metrics(grid, lo, shape), dg, d2g


def _put(out, values) -> None:
    """Write ``values``, the entries a grid stores at the nodes of ``out``
    in their C order, into those nodes' (..., 4, 4) matrices ``out``: all
    16 per node, or, from a diagonal grid, 4 on the diagonal, the rest of
    ``out`` left as it is."""
    lanes = out if values.size == out.size else np.einsum("...ii->...i", out)
    lanes[...] = values.reshape(lanes.shape)


def _node_metrics(grid: MetricGrid, lo, shape) -> np.ndarray:
    """The metrics of the box of ``shape`` at ``lo`` (indices of
    `MetricGrid.distinct`), as a new (n, 4, 4) array in C order."""
    g0 = np.zeros(tuple(shape) + (DIM, DIM))
    _put(g0, grid.distinct[_box(lo, shape)])
    return g0.reshape(-1, DIM, DIM)


def _stencil(weights: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The 5-point stencil ``weights`` over the leading axis of ``taps``,
    flattened, as one BLAS dot of (1, 5) by (5, M), which is what
    ``np.tensordot(weights, taps, axes=(0, 0))`` runs, without its wrapper."""
    return np.dot(weights.reshape(1, -1), taps.reshape(len(weights), -1))


def _odd_stencil(at) -> np.ndarray:
    """The 4th-order first-derivative stencil (unscaled) on the values
    ``at(o)`` at the off-center offsets o = -2, -1, 1, 2, as
    w_1 (g_1 - g_-1) + w_2 (g_2 - g_-2) (the weights are odd)."""
    return _D1_W[3] * (at(1) - at(-1)) + _D1_W[4] * (at(2) - at(-2))


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


# the per-node fields that `_ricci_boxes` keeps on the nodes of its leading
# box: (rank, field of the 2-jet (g0, dg, d2g) and the connection (ginv_t,
# bracket, gam_t)); gam[n,k,i,j] = Gamma^k_ij
_FIELDS = {
    "gam": (3, lambda jet, conn: conn[2].transpose(0, 3, 1, 2)),
    "riem": (4, lambda jet, conn: _riemann(*jet, *conn)),
}


def _ricci_boxes(grid: MetricGrid, boxes, fields=()):
    """(ric, scalar, lead) on the nodes of ``boxes``, (lo, shape) pairs in
    indices of `MetricGrid.distinct`, box after box and each in C order;
    ``lead`` maps each name of ``fields`` (keys of `_FIELDS`) to that field
    on the nodes of the first box only.  The chunks of `_chunks` are
    contracted one at a time into preallocated outputs, and a chunk's
    temporaries are freed before the next chunk's jets are built."""
    n = sum(math.prod(shape) for _, shape in boxes)
    ric, scalar = np.empty((n, DIM, DIM)), np.empty(n)
    lead = {name: np.empty((math.prod(boxes[0][1]),) + (DIM,) * _FIELDS[name][0])
            for name in fields}
    lo = 0
    for chunk in _chunks(boxes):
        jet = tuple(parts[0] if len(chunk) == 1 else np.concatenate(parts)
                    for parts in zip(*[_jet(grid, start, extent) for start, extent in chunk]))
        rows = slice(lo, lo + len(jet[0]))
        conn = _connection(*jet[:2])
        ric[rows], scalar[rows] = _ricci(*jet[1:], *conn)
        for name, out in lead.items():  # on the chunk's rows in the leading box
            k = len(out[rows])
            out[rows] = _FIELDS[name][1]([a[:k] for a in jet], [a[:k] for a in conn])
        lo = rows.stop
        del jet, conn
    return ric, scalar, lead


def _chunks(boxes):
    """The boxes cut into slabs (start, extent) of at most `_BLOCK` nodes
    (`_blocks`), in runs of consecutive slabs of at most `_BLOCK` nodes."""
    chunk = []
    for lo, shape in boxes:
        for start, extent in _blocks(shape, _BLOCK):
            if sum(math.prod(e) for _, e in chunk) + math.prod(extent) > _BLOCK:
                yield chunk
                chunk = []
            chunk.append((np.add(lo, start), extent))
    if chunk:
        yield chunk


def _codazzi_batch(grid: MetricGrid, nodes: np.ndarray, fields=()) -> dict[str, np.ndarray]:
    """At a non-empty node batch, row for row: the Codazzi residual
    ``codazzi`` C_kij = cov_k Ric_ij - cov_i Ric_kj + (d_i R / 6) g_kj
    - (d_k R / 6) g_ij, the node metrics ``g``, ``ric``, ``scalar``, ``gam``
    and each field of ``fields`` (keys of `_FIELDS`).

    Ricci and R are evaluated in one `_ricci_boxes` pass on the cross of
    boxes around the bounding box of the nodes: the box widened by 2 along
    the first axis where g is not stride-0, and a 2-thick slab on each side
    of it along each other such axis, 1 + 2(A - 1) boxes for A such axes.
    The odd first-derivative stencil reads shifted slices of that field node
    by node, and skips stride-0 axes; the node metrics come from the grid,
    the other values at the nodes from box 0 of the cross.
    """
    h = grid.spacings
    axes = [l for l, skip in enumerate(grid.broadcast_axes) if not skip]
    lo, shape, rows = _bounding_box(grid, nodes)
    unit = np.eye(DIM, dtype=int)
    pad = 2 * unit[axes[0]] if axes else np.zeros(DIM, dtype=int)
    boxes = [(lo - pad, tuple((shape + 2 * pad).tolist()))]
    for l in axes[1:]:
        thin = tuple(np.where(unit[l], 2, shape).tolist())
        boxes += [(lo - 2 * unit[l], thin), (lo + shape[l] * unit[l], thin)]
    ric, scalar, lead = _ricci_boxes(grid, boxes, ("gam", *fields))
    ends = np.cumsum([0] + [math.prod(extent) for _, extent in boxes])
    center = _box(pad, shape)
    n = math.prod(shape)

    def part(field, i):
        """Box i of the cross, of a field given by its rows on the cross."""
        return field[ends[i]:ends[i + 1]].reshape(boxes[i][1] + field.shape[1:])

    def derivative(field, l):
        """d_l of a field given by its rows on the cross, (n, ...) on the
        box: node by node in the stencil's order, 0 along stride-0 axes."""
        if l not in axes:
            return np.zeros((n,) + field.shape[1:])
        line = part(field, 0)
        if l != axes[0]:  # the box between its two slabs along l
            k = 2 * axes.index(l)
            line = np.concatenate([part(field, k - 1), line[center], part(field, k)], axis=l)
        at = lambda o: line[(slice(None),) * l + (slice(2 + o, 2 + o + shape[l]),)]
        return (_odd_stencil(at) / h[l]).reshape((n,) + field.shape[1:])

    dric = np.stack([derivative(ric, l) for l in range(DIM)], axis=1)
    dscal = np.stack([derivative(scalar, l) for l in range(DIM)], axis=1)
    out = {"g": _node_metrics(grid, lo, shape)}
    for name, field in (("ric", ric), ("scalar", scalar), *lead.items()):
        out[name] = part(field, 0)[center].reshape((n,) + field.shape[1:])
    cov = (dric - np.einsum("nmki,nmj->nkij", out["gam"], out["ric"])
           - np.einsum("nmkj,nim->nkij", out["gam"], out["ric"]))
    out["codazzi"] = (cov - cov.transpose(0, 2, 1, 3)
                      + np.einsum("ni,nkj->nkij", dscal, out["g"]) / 6.0
                      - np.einsum("nk,nij->nkij", dscal, out["g"]) / 6.0)
    return out if rows is None else {key: val[rows] for key, val in out.items()}


def fd_ricci_block(grid: MetricGrid, nodes) -> dict[str, np.ndarray]:
    """Batched Ricci/scalar (with the node metrics, a copy of the grid's)
    at interior nodes.

    A batch costs the bounding box of its nodes (one node per index of the
    stride-0 axes).  When the nodes are that box in C order, as
    `MetricGrid.interior_nodes` and s-lines are, the box arrays are
    returned as they are; otherwise the nodes' rows are picked from them.
    """
    nodes = grid.require_interior(nodes, MARGIN_CURVATURE)
    if not len(nodes):
        return {"g": np.empty((0, DIM, DIM)), "ric": np.empty((0, DIM, DIM)),
                "scalar": np.empty(0)}
    lo, shape, rows = _bounding_box(grid, nodes)
    ric, scalar, _ = _ricci_boxes(grid, [(lo, shape)])
    out = {"g": _node_metrics(grid, lo, shape), "ric": ric, "scalar": scalar}
    return out if rows is None else {key: val[rows] for key, val in out.items()}


def fd_curvature(grid: MetricGrid, node) -> CurvatureBundle:
    """Full curvature bundle (coordinate frame) at one interior node, read
    off box 0 of its Codazzi cross (`_codazzi_batch`), which also yields
    the Riemann tensor there: the node's values are the ones
    `fd_ricci_block` and `fd_codazzi_block` give it, bit for bit.

    Needs the full Codazzi margin (4 nodes) on every axis.
    """
    if np.shape(node) != (DIM,):
        raise ValueError(f"node must have shape (4,), not {np.shape(node)}")
    at = _codazzi_batch(grid, grid.require_interior(node, MARGIN_CODAZZI), ("riem",))
    weyl = _weyl_batch(at["riem"], at["ric"], at["scalar"], at["g"])
    return CurvatureBundle(at["g"][0], at["gam"][0], at["riem"][0], at["ric"][0],
                           float(at["scalar"][0]), weyl[0], at["codazzi"][0])


def fd_codazzi_block(grid: MetricGrid, nodes) -> np.ndarray:
    """Codazzi residual of ``Ric - (R/6) g`` at interior nodes, (N, 4, 4, 4).

    A batch costs the cross of boxes around the bounding box of its nodes
    (`_codazzi_batch`).
    """
    nodes = grid.require_interior(nodes, MARGIN_CODAZZI)
    if not len(nodes):
        return np.empty((0, DIM, DIM, DIM))
    return _codazzi_batch(grid, nodes)["codazzi"]


# ---------------------------------------------------------------------------
# grid construction from families

def grid_from_family(m: MetricFamily, s_range=(0.5, 2.0), n_s: int = 129,
                     r_range=None, n_r: int | None = None) -> MetricGrid:
    """Sample a family chart onto a MetricGrid.

    The s and fiber-radial axes get full resolution; axes the metric does
    not vary along (t, phi; theta for 2-d fibers) get the 2 * MARGIN_CODAZZI
    + 1 nodes of one Codazzi stencil, at the s-spacing.  For warped3 the
    theta axis also uses the s-spacing, centered at theta = pi/2.  The
    metric comes from `family_diagonal`, so every s node must lie in the
    family domain.  ``n_s`` and ``n_r`` (``n_s`` when None) must be
    integers >= 2; a ValueError names the first that is not.

    The grid stores the metric's diagonal, 4 floats per node (the metric
    of every family is diagonal in its chart), once per node of the
    non-Killing axes (s, r and, for warped3, theta): ``grid.g`` is a
    read-only ``np.broadcast_to`` view of shape (n1, n2, n3, n4, 4) with
    stride 0 along the Killing axes (t and phi for doubly-warped families,
    phi for warped3).  Copy it before writing to it.
    """
    n_r = n_s if n_r is None else n_r
    for name, count in (("n_s", n_s), ("n_r", n_r)):
        if not isinstance(count, numbers.Integral) or count < 2:
            raise ValueError(f"{name} must be an integer >= 2, not {count!r}")
    lo, hi = float(s_range[0]), float(s_range[1])
    ds = (hi - lo) / (n_s - 1)
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
        g = family_diagonal(m, s_ax, r_ax, th_ax)[:, :, :, None]
    else:
        axes = (s_ax, cross(0.0), r_ax, cross(0.0))
        g = family_diagonal(m, s_ax, r_ax)[:, None, :, None]
    shape = tuple(len(ax) for ax in axes) + (DIM,)
    return MetricGrid(axes, np.broadcast_to(g, shape))
